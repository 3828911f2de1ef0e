"""The kdvbbm benchmark: CLI workloads run one op at a time in fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload march --seed 1 --seconds 15 --trace 0

--workload is march, picard, estimates, radius, known_failures, or all (the
first four in turn).  Each op is one `kdvbbm` command in a fresh child
process; ops run in a closed loop, one in flight, until --seconds have passed
and the workload's cycle of ops is complete.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
untraced and traced ops alternate and it carries the per-layer metrics.  The
lines above it report every op, every metric with its unit and sample count,
the environment and a machine-speed probe.  Exit code 2, with no result
line, means the kdvbbm sources are missing or an argument is invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time

import metrics
import ops
from workloads import MEASURED, WORKLOADS

ROOT = os.path.dirname(ops.HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


def environment() -> dict:
    import numpy
    import yaml

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.machine(),
    }


def fft_probe() -> float:
    """Seconds for a fixed loop of 400 complex FFTs of 4096 points (median of 5)."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal(4096) + 0j
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(400):
            np.fft.fft(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload's ops for `seconds` and return its metrics and checks."""
    specs = WORKLOADS[name]
    per_cycle = len(specs) * (2 if trace else 1)
    results = []
    reference: dict[int, tuple[int, dict]] = {}
    problems = []
    wrong = False
    start = time.monotonic()
    k = 0
    while k == 0 or k % per_cycle or time.monotonic() - start < seconds:
        idx = (k // 2 if trace else k) % len(specs)
        spec = specs[idx]
        traced = trace and k % 2 == 1
        work_dir = os.path.join(WORK, name, f"op{k:04d}")
        op = ops.run_op(spec, seed, work_dir, SRC, traced)
        if op.ok:
            first, digests = reference.setdefault(idx, (k, op.csv_digests))
            if op.csv_digests != digests:
                op.ok, op.wrong_output = False, True
                op.problem = f"CSV digests differ from op {first} of the same config (C13)"
        if op.ok and op.trace is not None:
            op.layer_values, note = metrics.layer_values(op)
            if note:
                problems.append(f"op {k} trace: {note}")
        op.trace = None
        wrong = wrong or op.wrong_output
        if op.ok:
            shutil.rmtree(work_dir)
        else:
            problems.append(f"op {k} ({spec.command}): {op.problem}")
        print(
            f"  op {k:3d} {spec.command:9s} {'traced' if traced else 'plain ':6s} "
            f"{op.wall_s:8.4f} s  setup {op.setup_s if op.setup_s is not None else math.nan:.4f} s  "
            f"rss {op.rss_mb:6.1f} MB  {'ok' if op.ok else 'FAILED: ' + op.problem}",
            flush=True,
        )
        results.append(op)
        k += 1
    return {
        "workload": name,
        "attempted": len(results),
        "failed": sum(not op.ok for op in results),
        "correct": not wrong,
        "problems": problems,
        "end_to_end": metrics.end_to_end(results),
        "per_layer": metrics.per_layer(results) if trace else {},
    }


def _print_metrics(title: str, table: dict) -> None:
    print(f"  {title}:")
    for name, (value, unit, n) in table.items():
        print(f"    {name:40s} {value:14.6g} {unit:12s} n={n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (numpy seeds the campaigns with it)")

    if not os.path.isfile(os.path.join(SRC, "kdvbbm", "cli.py")):
        print(f"perfbench: no kdvbbm sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    # a terminated run unwinds like an interrupted one, killing its running op
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env = environment()
    probe_start = fft_probe()
    names = MEASURED if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}", flush=True)
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_metrics("end to end", run["end_to_end"])
        if args.trace:
            _print_metrics("per layer", run["per_layer"])
        for problem in run["problems"]:
            print(f"  problem: {problem}")
        runs.append(run)
    probe_end = fft_probe()
    print("environment: " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"fft probe (400 x 4096-point fft): start {probe_start:.4f} s  end {probe_end:.4f} s")

    with open(os.path.join(WORK, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "fft_probe_s": [probe_start, probe_end], "runs": runs}, fh, indent=1)

    units = metrics.PER_LAYER_UNITS if args.trace else metrics.END_TO_END_UNITS
    table = "per_layer" if args.trace else "end_to_end"
    prefix = len(runs) > 1
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": r[table][name][0], "unit": unit}
            for r in runs
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
