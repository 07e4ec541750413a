"""Reference figures for the README: versions, a cold ``laxlab verify
--case all``, ``import scipy.integrate``, ``normalize`` on the 125- and
625-term inputs ``parse("z + v + u + u' + v'")**k`` and one wall-clock
run of the tier-1 test suite.

    python3 perfbench/reference.py

Run from anywhere; the program is taken from ``src/``.  Each timing except
the test suite is the median of three.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
REPEATS = 3


def _wall(cmd: list, want_rc: int = 0) -> float:
    t = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True)
    wall = perf_counter() - t
    if proc.returncode != want_rc:
        raise SystemExit(f"{cmd} exited {proc.returncode}")
    return wall


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from laxlab.ncexpr import (builtin_ruleset, combine_rulesets, normalize,
                               parse)

    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    py = sys.executable
    cold = [_wall([py, "-m", "laxlab.cli", "verify", "--case", "all"])
            for _ in range(REPEATS)]
    print(f"cold laxlab verify --case all: {statistics.median(cold):.3f} s")
    code = ("import time; t = time.perf_counter(); import scipy.integrate; "
            "print(time.perf_counter() - t)")
    imports = [float(subprocess.run([py, "-c", code], capture_output=True,
                                    text=True, check=True).stdout)
               for _ in range(REPEATS)]
    print(f"import scipy.integrate: {statistics.median(imports):.3f} s")

    names = ("quantum-zv", "commute-vu", "commute-uu")
    rules = combine_rulesets("+".join(names),
                             *(builtin_ruleset(n) for n in names))
    for k in (3, 4):
        expr = parse("z + v + u + u' + v'") ** k
        times = []
        for _ in range(REPEATS):
            t = perf_counter()
            out = normalize(expr, rules)
            times.append(perf_counter() - t)
        print(f"normalize {len(expr.terms)} terms -> {len(out.terms)}: "
              f"{statistics.median(times):.3f} s")

    wall = _wall([py, "-m", "pytest", "-q", "--continue-on-collection-errors"])
    print(f"tier-1 test suite: {wall:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
