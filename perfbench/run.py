"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload normalize-scale --seed 1 \\
        --seconds 32 --trace 0

Run from the root of a laxlab checkout; the program is imported from
``src/`` there.  One process, one client, a closed loop: operation i runs
input i % pool, with no threads and no subprocess per operation.  Set-up
is measured in separate fresh interpreters (``probe.py``).  Outputs are
checked after the timed loop.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` (program calls made in the timed
loop), ``failed`` (calls whose output failed a check) and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  A fuller record goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

PROBES = 7  # fresh interpreters per run for setup_s (median)
# op_ms_tail percentile per workload: fixed, so that runs and commits stay
# comparable, and low enough to leave at least ten samples beyond it in a
# 32 s run even when every operation runs at the slowest speed seen here.
TAIL_PCT = {"normalize-scale": 90, "verify-symbolic": 85, "numeric-flows": 75}


def _load_program():
    init = SRC / "laxlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no laxlab sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import laxlab.cli

    if Path(laxlab.cli.__file__).resolve().parent != init.parent:
        raise SystemExit("error: laxlab was imported from outside src/")
    return laxlab.cli


def _probe(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _measure(cli, workload, name: str, seed: int, seconds: float,
             tracer) -> dict:
    """Run the timed loop for ``seconds`` of operation time.  The set-up
    probes run between operations, one every ``seconds / PROBES``, so that
    ``setup_s`` samples the same stretch of time as the operations; their
    time is not counted in ``seconds``."""
    rounds = workload.rounds
    op_s, call_s = [], defaultdict(list)
    first, same, differ = {}, Counter(), 0
    probes = []
    start = perf_counter()
    paused = 0.0
    i = 0
    while True:
        r = i % len(rounds)
        outs = []
        t_op = perf_counter()
        for call in rounds[r]:
            t = perf_counter()
            outs.append(workloads.run_call(cli, call.argv))
            call_s[call.label].append(perf_counter() - t)
        op_s.append(perf_counter() - t_op)
        if tracer is not None:
            tracer.end_op()
        ref = first.setdefault(r, outs)
        for k, (got, want) in enumerate(zip(outs, ref)):
            if got == want:
                same[r, k] += 1
            else:
                differ += 1
        i += 1
        while (len(probes) < PROBES and perf_counter() - start - paused
               >= (len(probes) + 0.5) * seconds / PROBES):
            t = perf_counter()
            probes.append(_probe(name, seed))
            paused += perf_counter() - t
        if perf_counter() - start - paused >= seconds:
            break
    setup = {key: statistics.median(p[key] for p in probes)
             for key in probes[0]}
    return {"op_s": op_s, "call_s": call_s, "first": first, "same": same,
            "differ": differ, "setup": setup,
            "attempted": sum(len(rounds[j % len(rounds)]) for j in range(i)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def _check(cli, workload, run: dict) -> tuple:
    """Return (failed calls, error lines).  Each distinct output is checked
    once; a repeat that differs from the first output of its input fails."""
    failed, errors = run["differ"], []
    if failed:
        errors.append(f"{failed} outputs differ from the first output of "
                      "the same input")
    for (r, k), n in sorted(run["same"].items()):
        call = workload.rounds[r][k]
        rc, out, err = run["first"][r][k]
        why = call.check(rc, out)
        if why is not None:
            failed += n
            errors.append(f"{call.label} (input {r}): {why} {err.strip()}")
    return failed, errors + workload.final_checks(cli)


def _end_to_end(run: dict, setup: dict, pct: int) -> dict:
    ops = sorted(run["op_s"])
    return {
        "setup_s": setup["setup_s"],
        "ops_per_s": len(ops) / sum(ops),
        "op_ms_p50": 1000 * statistics.median(ops),
        "op_ms_tail": 1000 * ops[math.ceil(pct / 100 * len(ops)) - 1],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _per_layer(run: dict, setup: dict, tracer: Tracer) -> dict:
    ops = run["op_s"]
    values = tracer.layer_metrics(len(ops))
    for case in workloads.SYMBOLIC_CASES + workloads.NUMERIC_CASES:
        for label in (f"verify.case.{case}", f"verify.case.{case}.negative"):
            times = run["call_s"].get(label)
            values[label + ".ms"] = (1000 * statistics.median(times)
                                     if times else 0.0)
    values["setup.import_laxlab_s"] = setup["import_laxlab_s"]
    values["setup.import_scipy_s"] = setup["import_scipy_s"]
    values["trace.ops_per_s"] = len(ops) / sum(ops)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    cli = _load_program()
    workload = workloads.build(args.workload, args.seed)
    for call in workload.rounds[0]:      # warm-up operation, not timed
        workloads.run_call(cli, call.argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        run = _measure(cli, workload, args.workload, args.seed, args.seconds,
                       tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup = run["setup"]
    failed, errors = _check(cli, workload, run)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer is None:
        values = _end_to_end(run, setup, TAIL_PCT[args.workload])
        wanted = spec["end_to_end"]
    else:
        values, wanted = _per_layer(run, setup, tracer), spec["per_layer"]
    result = {
        "correct": failed == 0 and not errors,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "result": result, "errors": errors,
              "probe_medians": setup, "ops": len(run["op_s"]),
              "op_ms": [1000 * t for t in run["op_s"]]}
    if tracer is not None:
        record["trace"] = tracer.table(len(run["op_s"]))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
