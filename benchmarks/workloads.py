"""The benchmark's workloads: inputs made from a seed, one round of timed
calls, and the checks of the outputs against references made apart from
the library.

A workload is built from ``(seed, scratch_dir)`` and offers

* ``run_round(latencies)``: the timed calls of one round, appending the
  latency of each call in seconds; returns the raw results;
* ``collect(raw)``: turns a round's raw results into its outputs (reads
  the files the CLI wrote), outside the timed region;
* ``bytes_written(outputs)``: bytes of files a round wrote;
* ``check(rounds)``: an ``Outcome`` for the outputs of all rounds.

Every round makes the same calls, so the share of failed calls does not
depend on how many rounds a run makes.  The library is called through
module attributes at call time (``zetacore.hurwitz_zeta_bounded``, not a
name bound at import), so that a traced run sees the calls.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import List

import numpy as np

from zetaline import barnes, cli, meanvalue, verify, zetacore
from zetaline.errors import ZetalineError

import oracle

HERE = Path(__file__).resolve().parent
POINT_REFS = HERE / "data" / "point_refs.json"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def shift_count(t_max: float, factor: float = zetacore.DEFAULT_PRECISION.shift_count_factor) -> int:
    """The N that zetacore's line kernel takes for a batch reaching t_max."""
    return max(4, int(math.ceil(factor * (t_max + 10.0))))


# ---------------------------------------------------------------------------
# meansquare_line


class MeansquareLine:
    """Three ``zetaline meansquare`` runs through ``cli.main``, in process.

    The top T of each run is fixed (the cost is quadratic in it); the seed
    draws the three lower points of each T-grid and the grid nodes at
    which the integrand is checked.
    """

    name = "meansquare_line"
    # (label, CLI arguments, a, factor applied to the T-grid)
    RUNS = (
        ("hurwitz", ["--kind", "hurwitz", "--sigma", "0.5", "--a", "1", "--predict", "multi"], 1.0, 1.0),
        ("multi", ["--kind", "multi", "--r", "2", "--sigma", "1.5", "--a", "0.5"], 0.5, 1.0),
        ("lerch", ["--kind", "lerch", "--lambda", "1/3", "--sigma", "0.5", "--a", "1"], 1.0, 0.5),
    )
    T_TOP = 1000
    SAMPLE_NODES = 5

    def __init__(self, seed: int, scratch: str):
        rng = random.Random(seed)
        top = self.T_TOP
        grid = [rng.randint(top // 10, top // 5 - 1), rng.randint(3 * top // 10, 9 * top // 20 - 1),
                rng.randint(11 * top // 20, 4 * top // 5 - 1), top]
        self.runs = []
        for label, args, a, factor in self.RUNS:
            T_values = [T * factor for T in grid]
            out = os.path.join(scratch, f"{label}.csv")
            argv = ["meansquare", *args, "--T-grid", ",".join(f"{T:g}" for T in T_values),
                    "--out", out]
            ts = meanvalue.simpson_nodes(max(T_values), a)[0]
            # the top node makes the check's batch take the run's own N
            idx = sorted(rng.sample(range(ts.size - 1), self.SAMPLE_NODES)) + [ts.size - 1]
            self.runs.append({"label": label, "argv": argv, "out": out, "a": a,
                              "T_values": T_values, "nodes": ts[idx]})

    def run_round(self, latencies):
        codes = []
        for run in self.runs:
            t0 = perf_counter()
            codes.append(cli.main(run["argv"]))
            latencies.append(perf_counter() - t0)
        return codes

    def collect(self, codes):
        outputs = []
        for run, code in zip(self.runs, codes):
            files = {}
            stem = os.path.splitext(run["out"])[0]
            for key, path in (("csv", run["out"]), ("predict", stem + ".predict.json"),
                              ("manifest", run["out"] + ".manifest.json")):
                if os.path.exists(path):
                    with open(path) as fh:
                        files[key] = fh.read()
                    os.remove(path)
            outputs.append({"code": code, **files})
        return outputs

    def bytes_written(self, outputs) -> int:
        return sum(len(out.get(k, "").encode()) for out in outputs
                   for k in ("csv", "predict", "manifest"))

    def check(self, rounds) -> Outcome:
        result = Outcome()
        for outputs in rounds:
            for run, out in zip(self.runs, outputs):
                result.attempted += 1
                if out["code"] != 0:
                    result.failed += 1
                    continue
                result.problems += self._check_output(run, out)
        result.problems += self._check_integrand()
        return result

    def _check_output(self, run, out) -> List[str]:
        label = run["label"]
        if "csv" not in out or "manifest" not in out:
            return [f"{label}: CSV or manifest missing"]
        rows = list(csv.DictReader(io.StringIO(out["csv"])))
        Ts = [float(r["T"]) for r in rows]
        values = [float(r["value"]) for r in rows]
        problems = []
        if len(rows) != len(run["T_values"]):
            problems.append(f"{label}: {len(rows)} CSV rows for {len(run['T_values'])} T values")
        # a mean square of |f|^2 is positive and grows with T
        if not all(math.isfinite(v) and v > 0 for v in values) or values != sorted(values):
            problems.append(f"{label}: mean squares not positive and increasing: {values}")
        if json.loads(out["manifest"]).get("outputs", [None])[0] != run["out"]:
            problems.append(f"{label}: manifest does not list the CSV")
        if label == "hurwitz":
            for T, v in zip(Ts, values):
                gap = v - oracle.ingham_main_term(T)
                if not abs(gap) <= oracle.ingham_allowance(T):
                    problems.append(f"hurwitz: mean square {v} at T={T} is {gap:+.3g} from "
                                    f"Ingham's main term, allowance {oracle.ingham_allowance(T):.3g}")
            problems += self._check_prediction(out.get("predict"), Ts)
        return problems

    @staticmethod
    def _check_prediction(text, Ts) -> List[str]:
        """The --predict multi model at r=1, sigma=1/2, a=1 is Ingham's main term."""
        if text is None:
            return ["hurwitz: prediction JSON missing"]
        terms = json.loads(text)["prediction"]["terms"]
        problems = []
        for T in Ts:
            model = sum(c * T ** p * math.log(T) ** q for c, p, q in terms)
            if not abs(model - oracle.ingham_main_term(T)) <= 1e-9 * T * math.log(T):
                problems.append(f"hurwitz: predicted main term {model} at T={T} is not "
                                f"Ingham's {oracle.ingham_main_term(T)}")
        return problems

    def _check_integrand(self) -> List[str]:
        problems = []
        for run in self.runs:
            ts = run["nodes"]
            n = shift_count(float(ts[-1]))
            label, a = run["label"], run["a"]
            if label == "hurwitz":
                got = zetacore.hurwitz_line(0.5, a, ts, n_terms=n)
                refs = [oracle.hurwitz(complex(0.5, t), a, floor_n=n) for t in ts]
            elif label == "multi":
                got = barnes.multi_hurwitz_line(1.5, a, 2, ts, n_terms=n)
                refs = [oracle.multi_hurwitz(complex(1.5, t), a, 2, floor_n=n) for t in ts]
            else:
                got = _lerch_line(0.5, a, 1, 3, ts, n)
                refs = [oracle.lerch(complex(0.5, t), a, 1, 3, floor_n=n) for t in ts]
            for t, v, (ref, scale) in zip(ts, got, refs):
                if not oracle.within(complex(v), ref, scale):
                    problems.append(f"{label}: integrand at t={t} is {v}, mpmath {ref} "
                                    f"(error/scale {abs(v - ref) / scale:.2e})")
        return problems


def _lerch_line(sigma, a, p, q, ts, n):
    """q^(-s) sum_j e(jp/q) zeta_H(s, (j+a)/q) from the public line kernel."""
    total = np.zeros(ts.size, dtype=complex)
    for j in range(q):
        root = np.exp(2j * np.pi * ((j * p) % q) / q)
        total += root * zetacore.hurwitz_line(sigma, (j + a) / q, ts, n_terms=n)
    return total * np.exp(-(sigma + 1j * ts) * math.log(q))


# ---------------------------------------------------------------------------
# barnes_sweep


class BarnesSweep:
    """envelope_multi with weights (1, sqrt 2) at t <= 300, then comparability.

    The calls are fixed; the seed draws the ordinates at which truncated
    values with weights (1, 2) are checked against their closed form.
    """

    name = "barnes_sweep"
    SIGMAS = (1.25, 1.5, 1.75)
    T_MAX = 300.0
    COMPARABILITY_T = 400.0
    SAMPLE_T = 3

    def __init__(self, seed: int, scratch: str):
        rng = random.Random(seed)
        # each call's own grid, and the box size x its truncated values take
        count = int(math.floor(64 * math.log2(self.T_MAX / 2.0)))
        envelope_ts = 2.0 * np.exp2(np.arange(count + 1) / 64.0)
        simpson_ts = meanvalue.simpson_nodes(self.COMPARABILITY_T, 1.0)[0]
        policy = barnes.TruncationPolicy()
        self.samples = []
        for sigmas, ts in ((self.SIGMAS, envelope_ts), ((1.5,), simpson_ts)):
            x = policy.x_for(float(ts[-1]))
            for sigma in sigmas:
                self.samples.append((sigma, x, np.sort(rng.sample(list(ts), self.SAMPLE_T))))

    def run_round(self, latencies):
        calls = (
            lambda: verify.envelope_multi(2, 1.0, "weights", self.SIGMAS, self.T_MAX,
                                          w=(1.0, math.sqrt(2.0))),
            lambda: verify.comparability(2, 1.0, (1.0, 2.0), 1.5, T_checkpoints=(
                self.COMPARABILITY_T / 4, self.COMPARABILITY_T / 2, self.COMPARABILITY_T)),
        )
        records = []
        for call in calls:
            t0 = perf_counter()
            try:
                records.append(call())
            except ZetalineError as exc:
                records.append(exc)
            latencies.append(perf_counter() - t0)
        return records

    def collect(self, records):
        return records

    def bytes_written(self, outputs) -> int:
        return 0

    def check(self, rounds) -> Outcome:
        result = Outcome()
        for records in rounds:
            for rec in records:
                result.attempted += 1
                if isinstance(rec, ZetalineError):
                    result.failed += 1
                elif not rec.passed:
                    result.problems.append(f"{rec.suite} verdict failed: observed "
                                           f"{rec.observed_constant} > {rec.threshold}")
        result.problems += self._check_closed_form()
        return result

    def _check_closed_form(self) -> List[str]:
        """Truncated values with w = (1, 2) lie within x^(r-1-sigma) of the exact value."""
        problems = []
        for sigma, x, ts in self.samples:
            got, _ = barnes.barnes_truncated_line(sigma, 1.0, (1.0, 2.0), ts, x=x)
            bound = x ** (1.0 - sigma)
            for t, v in zip(ts, got):
                ref, _ = oracle.barnes_w12(complex(sigma, t), 1.0)
                if not abs(v - ref) <= bound:
                    problems.append(f"barnes w=(1,2) sigma={sigma} t={t} x={x}: {v} is "
                                    f"{abs(v - ref):.3g} from {ref}, bound {bound:.3g}")
        return problems


# ---------------------------------------------------------------------------
# point_eval


def point_call(kind: str, args) -> complex:
    """One single-value call of the library for a stored point."""
    s = complex(args[0], args[1])
    if kind == "hurwitz":
        return zetacore.hurwitz_zeta_bounded(s, args[2])[0]
    if kind == "lerch":
        return zetacore.lerch_zeta_bounded(s, args[2], Fraction(args[3], args[4]))[0]
    if kind == "multi":
        return barnes.multi_hurwitz(s, args[2], args[3])
    return barnes.barnes_direct(s, args[2], (1.0, 2.0))[0]


def point_error(value, point) -> float:
    """|value - reference| / scale, infinite for a non-finite value."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return math.inf
    return abs(value - complex(*point["ref"])) / point["scale"]


class PointEval:
    """Single-value calls at stored points with mpmath references.

    The seed takes one candidate point from each stratum of the pool and
    shuffles the calls; the fixed band points join every round.
    """

    name = "point_eval"

    def __init__(self, seed: int, scratch: str):
        doc = json.loads(POINT_REFS.read_text())
        rng = random.Random(seed)
        self.ops = [(st["kind"], rng.choice(st["candidates"]), False) for st in doc["strata"]]
        self.ops += [("hurwitz", point, True) for point in doc["band"]]
        rng.shuffle(self.ops)

    def run_round(self, latencies):
        values = []
        for kind, point, _ in self.ops:
            t0 = perf_counter()
            try:
                values.append(point_call(kind, point["args"]))
            except ZetalineError as exc:
                values.append(exc)
            latencies.append(perf_counter() - t0)
        return values

    def collect(self, values):
        return values

    def bytes_written(self, outputs) -> int:
        return 0

    def check(self, rounds) -> Outcome:
        """A call that raises, or a band call that misses the tolerance, failed.

        A call outside the band that returns a value beyond the tolerance
        is a wrong answer and makes the run incorrect.
        """
        result = Outcome()
        for values in rounds:
            for (kind, point, in_band), value in zip(self.ops, values):
                result.attempted += 1
                if isinstance(value, ZetalineError):
                    result.failed += 1
                    continue
                err = point_error(value, point)
                if err <= oracle.TOLERANCE:
                    continue
                if in_band:
                    result.failed += 1
                else:
                    result.problems.append(f"{kind} {point['args']}: error/scale {err:.2e}")
        return result


WORKLOADS = {w.name: w for w in (MeansquareLine, BarnesSweep, PointEval)}
