"""Run one workload of the zetaline benchmark and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a checkout.  Workloads: meansquare_line, barnes_sweep,
point_eval (see benchmarks/README.md).  The workload runs in a child
process (worker.py) that imports zetaline from ./src, on one thread.

With --trace 0 the result carries the end-to-end metrics; setup_s is the
median over SETUP_RUNS process starts (four that stop once set up, and the
measured one).  With --trace 1 it carries the per-layer metrics of a run
whose library functions are wrapped (tracing.py).  The last line of
standard output is the result as one JSON object; it is also written to
.bench_out/<workload>-seed<N>-trace<T>.json.  The exit code is 0 when the
run completed, whether or not its checks passed (see "correct"), and
non-zero, with no result, when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("meansquare_line", "barnes_sweep", "point_eval")
SETUP_RUNS = 5
DEADLINE_S = 170.0
# one thread per process, so that runs do not depend on the machine's cores
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def start_worker(args, deadline, setup_only):
    """Run worker.py; return (setup seconds, its RESULT dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    started = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # the worker is stopped and reaped on a timeout and on an interrupt
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError("worker did not finish within the deadline") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = int(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or (result is None and not setup_only):
        raise BenchError("worker printed no READY or RESULT line")
    return (ready - started) / 1e9, result


def end_to_end(setups, res):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (res["run_s"], "s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p99_ms": (res["op_p99_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res):
    units = {"calls": "count", "self_s": "s", "phase_elems": "count", "phase_elems_per_s": "1/s",
             "us_per_call": "us", "points_in": "count", "values_out": "count", "nodes": "count",
             "bytes_written": "B"}
    return {name: (value, units[name.rsplit(".", 1)[1]]) for name, value in res["per_layer"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "zetaline" / "__init__.py").is_file():
        print(f"error: no zetaline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(start_worker(args, deadline, setup_only=True)[0])
        setup, res = start_worker(args, deadline, setup_only=False)
        setups.append(setup)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 3

    metrics = per_layer(res) if args.trace else end_to_end(setups, res)
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {res['rounds']} rounds, "
          f"{res['ops']} calls in the faster half, run_s={res['run_s']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted = {res['attempted']}, failed = {res['failed']}, correct = {res['correct']}")
    line = json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
