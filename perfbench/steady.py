"""Steadiness check: run every workload ten times, one seed per run, and
print each end-to-end metric's median, quartiles, spread and bound.

    python3 perfbench/steady.py [--seed 1]

Runs are sequential, from the repository root, with the command and run
length of BENCHMARK.json.  Spread is (q3 - q1) / median, with the quartiles
of ``statistics.quantiles(values, n=4)``.  A metric is steady when its
spread is below a third of its bound.  Exits 1 if a run fails, an output
is wrong, the share of failed calls differs between runs, or a spread is
too wide.  All values are also written to
``perfbench/results/steady-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def _run(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first run; run k uses seed + k")
    args = parser.parse_args(argv)

    ok = True
    record = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for k in range(RUNS):
            res = _run(spec, workload, args.seed + k)
            print(f"{workload} seed {args.seed + k}: {json.dumps(res)}",
                  file=sys.stderr, flush=True)
            results.append(res)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        print(f"\n{workload}: {RUNS} runs, correct={correct}, "
              f"failed share {sorted(str(s) for s in shares)}")
        print(f"  {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        record[workload] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread < m["bound"] / 3
            ok &= steady
            record[workload][m["name"]] = values
            print(f"  {m['name']:12s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.2%} {m['bound']:6.2f}"
                  f"{'' if steady else '  TOO WIDE'}")
    out = ROOT / "perfbench" / "results"
    out.mkdir(exist_ok=True)
    path = out / f"steady-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
