"""Set-up probe: one fresh interpreter, timed from the import of laxlab to
the end of one warm-up operation.  ``run.py`` starts it several times per
run and reports the median; it prints one JSON line.

    python3 perfbench/probe.py WORKLOAD SEED

The benchmark's own modules are imported, and the inputs generated, after
the program's import and outside the timed intervals.
"""

import os
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    workload_name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

    t0 = perf_counter()
    import laxlab.cli

    t1 = perf_counter()
    numeric = workload_name == "numeric-flows"
    if numeric:
        import scipy.integrate  # noqa: F401
    t2 = perf_counter()

    sys.path.insert(0, BENCH)
    import workloads

    rounds = workloads.build(workload_name, seed).rounds
    t3 = perf_counter()
    for call in rounds[0]:
        workloads.run_call(laxlab.cli, call.argv)
    t4 = perf_counter()

    import json  # after the timed part: laxlab imports it too

    print(json.dumps({
        "setup_s": (t2 - t0) + (t4 - t3),
        "import_laxlab_s": t1 - t0,
        "import_scipy_s": t2 - t1 if numeric else 0.0,
    }))


if __name__ == "__main__":
    main()
