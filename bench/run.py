"""Benchmark of attnmarket: one workload per run, timed from outside the
program, every output checked.

    python3 bench/run.py --workload exact-senders --seed 1 --seconds 24 --trace 0

Run from the root of a checkout: the package is imported from ``src``.
The run sets up several times (see ``SETUP_REPEATS``), then repeats whole
rounds of the workload's operations until their timed total reaches
``--seconds``, checking every round's outputs between rounds.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json (end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``).  ``--tiny`` shrinks every workload for
a quick smoke run.  Per-operation timings go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: on a small shared machine a second thread mostly adds
# run-to-run noise.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer                               # noqa: E402
from workloads import WORKLOADS, CheckError, digest      # noqa: E402

# setup_s is the median of this many set-ups.  The count is fixed: each
# set-up imports the package afresh, and the leftovers of a varying number
# of imports would move peak_rss_mb.
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def run_rounds(workload, seconds: float, trace: bool) -> dict:
    """Set up, then run and check rounds; with ``trace``, rounds alternate
    untraced and traced.  Returns raw per-round measurements."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    ops = workload.ops()
    tracer = Tracer() if trace else None
    rounds, failed, timed, first_digests = [], 0, 0.0, None
    error = None
    while (timed < seconds or not rounds
           or (trace and len(rounds) < 2)):
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        times, results = {}, []
        try:
            for op in ops:
                start = time.perf_counter()
                results.append(op.run())
                times[op.name] = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        timed += sum(times.values())
        rounds.append({
            "traced": traced,
            "times": times,
            "round_s": sum(times.values()),
            "layers": dict(tracer.values) if traced else {},
        })
        try:
            for op, result in zip(ops, results):
                failed += bool(op.check(result))
            digests = {op.name: digest(op.out) for op in ops if op.out}
            first_digests = first_digests or digests
            if digests != first_digests:
                raise CheckError("CLI outputs differ between rounds of one seed")
        except CheckError as exc:
            error = exc
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if error is None:
        try:
            workload.final_check()
        except CheckError as exc:
            error = exc
    return {"setups": setups, "rounds": rounds, "ops": [op.name for op in ops],
            "attempted": len(rounds) * len(ops), "failed": failed,
            "peak_rss_mb": peak_rss_mb, "error": error}


def metrics(raw: dict, spec: dict, trace: bool) -> dict:
    plain = [r for r in raw["rounds"] if not r["traced"]]
    traced = [r for r in raw["rounds"] if r["traced"]]
    values = {
        "setup_s": statistics.median(raw["setups"]),
        "round_s": statistics.median(r["round_s"] for r in plain),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if trace:
        values = {m["name"]: statistics.median(
            r["layers"].get(m["name"], 0.0) for r in traced)
            for m in spec["per_layer"]}
        values["trace.overhead_s"] = (
            statistics.median(r["round_s"] for r in traced)
            - statistics.median(r["round_s"] for r in plain))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def report_timings(name: str, raw: dict):
    """Human-readable per-operation medians, on standard error."""
    plain = [r for r in raw["rounds"] if not r["traced"]]
    parts = [f"{op} {statistics.median(r['times'][op] for r in plain):.3f}s"
             for op in raw["ops"]]
    print(f"{name}: {len(raw['rounds'])} rounds; setup "
          f"{statistics.median(raw['setups']):.3f}s; " + ", ".join(parts),
          file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed, tiny=args.tiny)
    try:
        raw = run_rounds(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report_timings(args.workload, raw)
    if raw["error"] is not None:
        print(f"{args.workload}: check failed: {raw['error']}", file=sys.stderr)
    result = {"correct": raw["error"] is None, "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": metrics(raw, spec, bool(args.trace))}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
