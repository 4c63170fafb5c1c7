"""One workload in one process: set up, timed rounds, checks.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts this script; it is not meant to be run by hand.  Once set up
(interpreter, numpy, zetaline, the workload's inputs) it prints
``READY <CLOCK_MONOTONIC ns>``; with --setup-only it stops there.
Otherwise it runs whole rounds for --seconds (at least one; none starts
that would end later, judged by the mean round so far), checks the
outputs of every round, and prints ``RESULT <json>``, its timings taken
from the faster half of the rounds (``faster_half``).  With --trace 1 the
library's public functions are wrapped for the rounds (tracing.py), the
per-layer metrics join the result, and the spans are written to
.bench_out/<workload>-seed<N>.trace.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# per-layer metrics, named <layer>.<statistic>; statistics are per round,
# and the reported value is the median over the rounds of a run
PER_LAYER = (
    "zetacore.line.calls", "zetacore.line.self_s", "zetacore.line.phase_elems",
    "zetacore.line.phase_elems_per_s",
    "zetacore.scalar.calls", "zetacore.scalar.self_s", "zetacore.scalar.us_per_call",
    "barnes.profile.self_s", "barnes.profile.points_in", "barnes.profile.values_out",
    "barnes.trunc_line.self_s", "barnes.trunc_line.phase_elems",
    "barnes.trunc_line.phase_elems_per_s",
    "barnes.multi_line.self_s",
    "barnes.scalar.calls", "barnes.scalar.self_s",
    "meanvalue.grid.self_s", "meanvalue.grid.nodes",
    "verify.envelope_multi.self_s", "verify.comparability.self_s",
    "cli.meansquare.self_s", "cli.bytes_written",
)


def _round_values(stats: dict) -> dict:
    """Statistics of one round from the tracer's per-layer totals."""
    out = {}
    for layer, st in stats.items():
        self_s = st.get("self_ns", 0) / 1e9
        calls = st.get("calls", 0)
        out[(layer, "calls")] = calls
        out[(layer, "self_s")] = self_s
        out[(layer, "us_per_call")] = self_s / calls * 1e6 if calls else 0.0
        for counter in ("phase_elems", "points_in", "values_out", "nodes"):
            if counter in st:
                out[(layer, counter)] = st[counter]
        if "phase_elems" in st:
            out[(layer, "phase_elems_per_s")] = st["phase_elems"] / self_s if self_s else 0.0
    return out


def per_layer_metrics(rounds: list) -> dict:
    """Median over rounds of each per-layer statistic; 0 where a layer is not used."""
    return {name: statistics.median(r.get(tuple(name.rsplit(".", 1)), 0) for r in rounds)
            for name in PER_LAYER}


def faster_half(round_s) -> list:
    """Indices of the faster half of the rounds (at least one).

    On a shared machine other tenants only ever slow a round down, so the
    slower rounds measure their load rather than the program; the timing
    metrics come from the faster half, the same for every workload.
    """
    order = sorted(range(len(round_s)), key=round_s.__getitem__)
    return order[: (len(order) + 1) // 2]


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    scratch = OUT_DIR / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(scratch))
        print(f"READY {time.monotonic_ns()}", flush=True)
        if args.setup_only:
            return 0
        result = run(wl, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def run(wl, args) -> dict:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    round_lat, round_s, rounds, layer_rounds = [], [], [], []
    start = time.perf_counter()
    try:
        while True:
            if tracer:
                tracer.recording = True
            latencies = []
            t0 = time.perf_counter()
            raw = wl.run_round(latencies)
            round_s.append(time.perf_counter() - t0)
            round_lat.append(latencies)
            if tracer:
                tracer.recording = False
            outputs = wl.collect(raw)
            rounds.append(outputs)
            if tracer:
                values = _round_values(tracer.take_stats())
                values[("cli", "bytes_written")] = wl.bytes_written(outputs)
                layer_rounds.append(values)
            # start no round that would end after --seconds
            if time.perf_counter() - start + statistics.mean(round_s) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = wl.check(rounds)
    kept = faster_half(round_s)
    latencies = [x for k in kept for x in round_lat[k]]
    result = {
        "rounds": len(round_s),
        "run_s": statistics.median(round_s[k] for k in kept),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
        "ops": len(latencies),
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": outcome.correct,
        "problems": outcome.problems[:20],
    }
    if tracer:
        result["per_layer"] = per_layer_metrics(layer_rounds)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{wl.name}-seed{args.seed}.trace.jsonl"
        with open(path, "w") as fh:
            for layer, t0, t1, parent in tracer.spans:
                fh.write(json.dumps({"layer": layer, "start_ns": t0, "end_ns": t1,
                                     "parent": parent}) + "\n")
    return result


if __name__ == "__main__":
    raise SystemExit(main())
