"""Regenerate data/point_refs.json, the mpmath references of point_eval.

    python3 benchmarks/make_point_refs.py

The pool is drawn from a fixed master seed, so the file only changes when
this script or mpmath does.  Every reference is computed at oracle.DPS and
again at oracle.DPS + 15 digits; the script stops if the two disagree by
more than 1e-20 of the scale.  It then evaluates the library on every
point and prints the points that miss oracle.TOLERANCE: none may lie in the
seeded pool, and every point of the fixed band must; the script exits 1
when either fails, after writing the file.

Layout: ``strata`` holds, per stratum, CANDIDATES points of one kind drawn
from one cell of the domain; a run with seed n takes one candidate per
stratum.  ``band`` holds the fixed points in the failing band that every
run evaluates whatever its seed.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

OUT = HERE / "data" / "point_refs.json"
MASTER_SEED = 20261017
CANDIDATES = 3

HURWITZ_A = (1e-3, 0.3, 1.0, 50.0)
HURWITZ_T_EDGES = (0.0, 1.0, 10.0, 50.0, 100.0, 200.0, 400.0, 600.0, 800.0, 1000.0)
# Re s cells: the failing band (see README) is left to the fixed band set
HURWITZ_SIGMA_CELLS = {
    "small_a": ((-10.0, -8.25), (-8.25, -6.5), (-1.5, 0.0), (0.0, 1.0),
                (1.0, 2.0), (2.0, 4.0), (4.0, 7.0), (7.0, 10.0)),
    "large_a": ((-1.5, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 2.0),
                (2.0, 4.0), (4.0, 5.5), (5.5, 7.0), (7.0, 10.0)),
}
LERCH_Q = (2, 3, 4, 5, 6, 7, 8)
LERCH_A = (0.3, 1.0, 2.5)
LERCH_T_EDGES = (0.0, 20.0, 200.0, 500.0)
LERCH_SIGMA_CELLS = ((-1.0, 0.0), (0.0, 1.0), (1.0, 2.5), (2.5, 4.0))
MULTI_R = (2, 3, 4)
MULTI_A = (0.3, 1.0, 2.5)
MULTI_T_EDGES = (0.0, 10.0, 100.0, 250.0, 500.0)
BARNES_A = (0.5, 1.0, 2.0)
BARNES_T_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
BARNES_SIGMA_CELLS = ((2.2, 3.0), (3.0, 4.0), (4.0, 5.0), (5.0, 6.0))
BAND = [(sig, t, a) for a in HURWITZ_A for t in (600.0, 1000.0) for sig in (-5.0, -4.0)]
BAND += [(-5.0, 100.0, 0.3), (-5.5, 1000.0, 0.3)]


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _signed(rng, lo, hi):
    return _draw(rng, lo, hi) * rng.choice((1.0, -1.0))


def _away_from_poles(sig, t, poles):
    return all(abs(complex(sig, t) - k) >= 0.1 for k in poles)


def _cells(edges):
    return list(zip(edges[:-1], edges[1:]))


def draw_strata(rng):
    strata = []

    def stratum(kind, make, poles):
        cands = []
        while len(cands) < CANDIDATES:
            args = make()
            if _away_from_poles(args[0], args[1], poles):
                cands.append(args)
        strata.append({"kind": kind, "candidates": [{"args": c} for c in cands]})

    for a in HURWITZ_A:
        cells = HURWITZ_SIGMA_CELLS["large_a" if a > 1.0 else "small_a"]
        for tlo, thi in _cells(HURWITZ_T_EDGES):
            for slo, shi in cells:
                stratum("hurwitz", lambda: [_draw(rng, slo, shi), _signed(rng, tlo, thi), a], (1,))
    for q in LERCH_Q:
        for tlo, thi in _cells(LERCH_T_EDGES):
            for slo, shi in LERCH_SIGMA_CELLS:
                def make():
                    p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
                    return [_draw(rng, slo, shi), _signed(rng, tlo, thi), rng.choice(LERCH_A), p, q]
                stratum("lerch", make, (1,))
    for r in MULTI_R:
        for tlo, thi in _cells(MULTI_T_EDGES):
            for k in range(5):
                slo = r - 2.0 + k
                stratum("multi", lambda: [_draw(rng, slo, slo + 1.0), _signed(rng, tlo, thi),
                                          rng.choice(MULTI_A), r], range(1, r + 1))
    for tlo, thi in _cells(BARNES_T_EDGES):
        for slo, shi in BARNES_SIGMA_CELLS:
            stratum("barnes", lambda: [_draw(rng, slo, shi), _signed(rng, tlo, thi),
                                       rng.choice(BARNES_A)], ())
    return strata


def reference(kind, args, dps=oracle.DPS):
    s = complex(args[0], args[1])
    if kind == "hurwitz":
        return oracle.hurwitz(s, args[2], dps=dps)
    if kind == "lerch":
        return oracle.lerch(s, args[2], args[3], args[4], dps=dps)
    if kind == "multi":
        return oracle.multi_hurwitz(s, args[2], args[3], dps=dps)
    return oracle.barnes_w12(s, args[2], dps=dps)


def _fill(kind, point):
    value, scale = reference(kind, point["args"])
    check, _ = reference(kind, point["args"], dps=oracle.DPS + 15)
    if abs(check - value) > 1e-20 * scale:
        raise SystemExit(f"mpmath disagrees with itself at {kind} {point['args']}")
    point["ref"] = [value.real, value.imag]
    point["scale"] = scale


def _library_misses(doc):
    """Points where the library misses the tolerance, as (where, kind, args, error/scale)."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import point_call, point_error

    misses = []
    for where, kind, point in _all_points(doc):
        err = point_error(point_call(kind, point["args"]), point)
        if not err <= oracle.TOLERANCE:
            misses.append((where, kind, point["args"], err))
    return misses


def _all_points(doc):
    for st in doc["strata"]:
        for c in st["candidates"]:
            yield "pool", st["kind"], c
    for b in doc["band"]:
        yield "band", "hurwitz", b


def main() -> int:
    rng = random.Random(MASTER_SEED)
    doc = {
        "generator": "python3 benchmarks/make_point_refs.py",
        "mpmath": mpmath.__version__,
        "dps": oracle.DPS,
        "strata": draw_strata(rng),
        "band": [{"args": [sig, t, a]} for sig, t, a in BAND],
    }
    for i, (_, kind, point) in enumerate(_all_points(doc)):
        _fill(kind, point)
        if i % 100 == 0:
            print(f"{i} references", file=sys.stderr, flush=True)
    misses = _library_misses(doc)
    bad_pool = [m for m in misses if m[0] == "pool"]
    passing_band = len(doc["band"]) - sum(1 for m in misses if m[0] == "band")
    for m in misses:
        print(f"miss {m[0]} {m[1]} {m[2]} error/scale={m[3]:.2e}")
    OUT.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {OUT.name}: {sum(len(s['candidates']) for s in doc['strata'])} pool points, "
          f"{len(doc['band'])} band points; {len(bad_pool)} pool points miss, "
          f"{passing_band} band points pass")
    return 1 if bad_pool or passing_band else 0


if __name__ == "__main__":
    raise SystemExit(main())
