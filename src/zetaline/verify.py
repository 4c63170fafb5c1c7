"""Inequality and growth-bound check suites.

Each suite sweeps a documented deterministic grid, records the empirical
constant it observed, and compares it against a generous threshold: the
underlying statements assert that *some* constant exists, so the artifact
documents what was seen rather than proving anything.  Every suite can
write a CSV sweep plus a JSON verdict whose bytes are reproducible
run-to-run.

Suites:

* growth envelopes for the single and multiple zeta functions against the
  three-branch bounds 1, t^((r-sigma)/2) log t, t^(r-sigma-1/2) log t;
* the bilinear mean-value inequality with logarithmic denominators, on
  fixed-seed random unit coefficient vectors;
* two-sided comparability between general-weight and unit-weight multiple
  zeta values, pointwise and in running mean square;
* the damped oscillatory integral I(T) built from the truncated twisted
  series, checked for boundedness: it tends to a nonzero limit, at distance
  O(T^(-1/2) / log T).

``SUITES`` maps each ``zetaline verify --suite`` name to the sweeps it runs,
and ``run_suites`` runs one name or all of them in table order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .barnes import (
    _commensurate,
    barnes_truncated_line,
    barnes_truncated_line_batch,
    build_lattice_profile,  # unused here; benchmarks/tracing.py patches it at this name
    multi_hurwitz_line,
)
from .combinatorics import MAX_RANK, reduction_coefficients
from .errors import DomainError
from .meanvalue import _prefix_integrals, _simpson_grid, grid_step
from .zetacore import functional_equation_residual, hurwitz_line_batch

__all__ = [
    "VerdictRecord",
    "envelope_hurwitz",
    "envelope_multi",
    "mv_ratio",
    "mv_inequality",
    "mv_suite",
    "comparability",
    "oscillatory_integral",
    "oscillatory_suite",
    "coefficient_identity_suite",
    "functional_equation_suite",
    "envelope_suites",
    "SUITES",
    "run_suites",
]

# generous pass thresholds, recorded in every verdict
_ENVELOPE_THRESHOLD = 10.0
_MV_THRESHOLD = 4.0
_COMPARABILITY_THRESHOLD = 8.0
_OSCILLATORY_SLACK = 1.25
_COEFFICIENT_THRESHOLD = 1e-10
_FUNCEQ_THRESHOLD = 1e-8
# the mv suite's line sigma = 1/2 with a = 1, and its default seeds
_MV_A = 1.0
_MV_SIGMA = 0.5
_MV_SEEDS = tuple(range(20))
# nodes per octave of the envelope sweeps' geometric t-grid
_PER_OCTAVE = 64


@dataclass(frozen=True)
class VerdictRecord:
    """Outcome of one sweep: empirical constant vs threshold.

    ``passed`` holds exactly when every grid point evaluated and the
    observed constant stayed at or below the threshold.  ``artifacts``
    lists file names (CSV sweep, JSON verdict) when the suite was asked
    to write them.
    """

    suite: str
    grid: str
    observed_constant: float
    threshold: float
    passed: bool
    artifacts: Tuple[str, ...] = ()
    details: Tuple[Tuple[str, float], ...] = ()

    def to_json_dict(self) -> Dict:
        return {
            "suite": self.suite,
            "grid": self.grid,
            "observed_constant": self.observed_constant,
            "threshold": self.threshold,
            "passed": self.passed,
            "artifacts": list(self.artifacts),
            "details": {k: v for k, v in self.details},
        }


def _params_hash(text: str) -> str:
    # imported here: hashlib loads OpenSSL, ~3.5 MB of RSS that the
    # meansquare and eval commands, which import this module, never use
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _finish(
    suite: str,
    grid: str,
    observed: float,
    threshold: float,
    out_dir: Optional[str],
    header: Sequence[str],
    rows: Sequence[Sequence],
    details: Tuple[Tuple[str, float], ...] = (),
    passed: Optional[bool] = None,
) -> VerdictRecord:
    passed = observed <= threshold if passed is None else passed
    artifacts: Tuple[str, ...] = ()
    if out_dir is not None:
        tag = _params_hash(grid)
        artifacts = (f"{suite}_{tag}.csv", f"{suite}_{tag}.json")
    record = VerdictRecord(
        suite=suite,
        grid=grid,
        observed_constant=float(observed),
        threshold=float(threshold),
        passed=bool(passed),
        artifacts=artifacts,
        details=tuple((k, float(v)) for k, v in details),
    )
    if out_dir is not None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(
                    repr(float(c)) if isinstance(c, (float, np.floating)) else str(c)
                    for c in row
                )
            )
        with open(os.path.join(out_dir, artifacts[0]), "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(os.path.join(out_dir, artifacts[1]), "w", newline="") as fh:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True, indent=2) + "\n")
    return record


# ---------------------------------------------------------------------------
# growth envelopes


def _t_nodes(t_max: float) -> np.ndarray:
    """Nested geometric grid 2*2^(k/_PER_OCTAVE): extending t_max only adds
    nodes, so observed suprema are monotone in t_max."""
    if not (2.0 <= t_max <= 1e4):
        raise DomainError(f"sweeps need 2 <= t_max <= 1e4, got {t_max}")
    count = int(math.floor(_PER_OCTAVE * math.log2(t_max / 2.0)))
    return 2.0 * np.exp2(np.arange(count + 1, dtype=float) / _PER_OCTAVE)


def _envelope_curve(r: int, sigma: float, ts: np.ndarray) -> np.ndarray:
    if sigma > r:
        return np.ones_like(ts)
    if sigma >= r - 1:
        return ts ** ((r - sigma) / 2.0) * np.log(ts)
    return ts ** (r - sigma - 0.5) * np.log(ts)


def _envelope_sweep(
    suite: str,
    r: int,
    head: str,
    sigma_grid: Sequence[float],
    t_max: float,
    lines_at,
    out_dir: Optional[str],
) -> VerdictRecord:
    """Worst sup over t of |line| / envelope; lines_at(sigmas, ts) -> lines."""
    sigmas = [float(s) for s in sigma_grid]
    if not sigmas:
        raise DomainError("sigma_grid must be nonempty")
    ts = _t_nodes(t_max)
    rows: List[Sequence] = []
    observed = 0.0
    for sigma, line in zip(sigmas, lines_at(sigmas, ts)):
        ratio = np.abs(line) / _envelope_curve(r, sigma, ts)
        idx = int(np.argmax(ratio))
        rows.append((sigma, float(ratio[idx]), float(ts[idx])))
        observed = max(observed, float(ratio[idx]))
    grid = f"{head}t in [2,{t_max}] ({ts.size} geometric nodes), sigma in {sigmas}"
    return _finish(
        suite,
        grid,
        observed,
        _ENVELOPE_THRESHOLD,
        out_dir,
        ("sigma", "sup_ratio", "t_at_sup"),
        rows,
    )


def envelope_hurwitz(
    a: float,
    sigma_grid: Sequence[float],
    t_max: float,
    out_dir: Optional[str] = None,
) -> VerdictRecord:
    """sup over t in [2, t_max] of |zeta_H(sigma+it, a)| / envelope(sigma, t)."""
    return _envelope_sweep(
        "envelope_hurwitz",
        1,
        f"a={a}, ",
        sigma_grid,
        t_max,
        lambda sigmas, ts: hurwitz_line_batch(sigmas, a, ts),
        out_dir,
    )


def envelope_multi(
    r: int,
    a: float,
    kind: str,
    sigma_grid: Sequence[float],
    t_max: float,
    w: Optional[Sequence[float]] = None,
    out_dir: Optional[str] = None,
) -> VerdictRecord:
    """Same sup-ratio sweep for the rank-r function, unit or general weights."""
    if kind not in ("ones", "weights"):
        raise DomainError(f"kind must be 'ones' or 'weights', got {kind!r}")
    if kind == "ones":
        bad = [float(s) for s in sigma_grid if not (-2.0 <= s <= r + 2.0)]
        if bad:
            raise DomainError(f"kind=ones sweeps need sigma in [-2, r+2], got {bad}")
        lines_at = lambda sigmas, ts: [multi_hurwitz_line(x, a, r, ts) for x in sigmas]
    else:
        if w is None:
            raise DomainError("kind=weights needs w")
        bad = [float(s) for s in sigma_grid if s <= r - 1]
        if bad:
            raise DomainError(
                f"kind=weights sweeps need sigma > r-1 (truncation region), got {bad}"
            )
        lines_at = lambda sigmas, ts: barnes_truncated_line_batch(sigmas, a, w, ts)[0]
    wtxt = "" if w is None else f", w={tuple(float(x) for x in w)}"
    return _envelope_sweep(
        "envelope_multi",
        r,
        f"r={r}, a={a}, kind={kind}{wtxt}, ",
        sigma_grid,
        t_max,
        lines_at,
        out_dir,
    )


# ---------------------------------------------------------------------------
# bilinear mean-value inequality


def mv_ratio(coeffs: np.ndarray, a: float, sigma: float) -> float:
    """|off-diagonal bilinear form| / (sum m |a_m|^2 (m+a)^(-2 sigma)).

    The kernel 1/((m+a)^sigma (n+a)^sigma log((m+a)/(n+a))) is antisymmetric,
    so real coefficient vectors give a zero numerator.
    """
    v = np.asarray(coeffs, dtype=complex)
    n = v.size
    if n == 0:
        raise DomainError("coefficient vector must be nonempty")
    if not a > 0:
        raise DomainError("a must be positive")
    m = np.arange(1, n + 1, dtype=float)
    rhs = float(np.sum(m * np.abs(v) ** 2 / (m + a) ** (2.0 * sigma)))
    if n == 1:
        return 0.0
    logs = np.log(m + a)
    denom = logs[:, None] - logs[None, :]
    np.fill_diagonal(denom, 1.0)
    amp = (m + a) ** (-sigma)
    kernel = (amp[:, None] * amp[None, :]) / denom
    np.fill_diagonal(kernel, 0.0)
    lhs = abs(np.dot(v, kernel @ np.conj(v)))
    return float(lhs / rhs)


CoeffSource = Union[str, Tuple[str, int]]


def _coeff_vector(N: int, source: CoeffSource) -> Tuple[np.ndarray, str]:
    if not (1 <= N <= 5000):
        raise DomainError(f"N must lie in 1..5000, got {N}")
    if source == "ones":
        return np.ones(N, dtype=complex), "ones"
    if isinstance(source, str) and source.startswith("random:"):
        source = ("random", int(source.split(":", 1)[1]))
    if isinstance(source, tuple) and len(source) == 2 and source[0] == "random":
        seed = int(source[1])
        rng = np.random.default_rng(seed)
        return np.exp(2j * np.pi * rng.random(N)), f"random:{seed}"
    raise DomainError(f"coeff_source must be 'ones' or ('random', seed), got {source!r}")


def mv_inequality(
    N: int,
    a: float,
    sigma: float,
    coeff_source: CoeffSource,
    out_dir: Optional[str] = None,
) -> VerdictRecord:
    v, tag = _coeff_vector(N, coeff_source)
    ratio = mv_ratio(v, a, sigma)
    grid = f"N={N}, a={a}, sigma={sigma}, coeffs={tag}"
    return _finish(
        "mv_inequality",
        grid,
        ratio,
        _MV_THRESHOLD,
        out_dir,
        ("N", "coeffs", "ratio"),
        [(N, tag, ratio)],
    )


def mv_suite(
    Ns: Sequence[int] = (10, 100, 1000),
    seeds: Sequence[int] = _MV_SEEDS,
    out_dir: Optional[str] = None,
) -> VerdictRecord:
    """Worst ratio over unit-modulus random vectors (plus the all-ones vector)."""
    rows: List[Sequence] = []
    observed = 0.0
    for N in Ns:
        for source in ["ones"] + [("random", seed) for seed in seeds]:
            v, tag = _coeff_vector(N, source)
            ratio = mv_ratio(v, _MV_A, _MV_SIGMA)
            rows.append((N, tag, ratio))
            observed = max(observed, ratio)
    grid = f"N in {list(Ns)}, a={_MV_A}, sigma={_MV_SIGMA}, seeds {list(seeds)} + ones"
    return _finish(
        "mv_inequality",
        grid,
        observed,
        _MV_THRESHOLD,
        out_dir,
        ("N", "coeffs", "ratio"),
        rows,
    )


# ---------------------------------------------------------------------------
# weight comparability


def _abs_sum_curves(
    r: int, a: float, ws: Sequence[Sequence[float]], sigma: float, x: int
) -> List[np.ndarray]:
    """A_w(k) = sum over the box 0 <= m_j <= k of (a + m.w)^(-sigma), k = 1..x,
    for each w in ws.

    Summed shell by shell, shell k holding the m with max m_j = k; this is
    the positive majorant series whose two-sided termwise comparison
    carries the pointwise comparability argument (the oscillating values
    themselves can vanish).  The weights share one shell index.
    """
    m = np.arange(0, x + 1, dtype=float)
    if r == 1:
        return [np.cumsum((a + w[0] * m) ** (-sigma))[1:] for w in ws]
    if r != 2:
        raise DomainError("absolute-sum comparability sweep supports r in {1, 2}")
    i = np.arange(x + 1)
    shell = np.maximum.outer(i, i).ravel()
    curves = []
    for w in ws:
        q, n = _commensurate(w)
        if sum(n) * x + 1 <= (x + 1) ** 2:
            # w = q n: one power per level a + q k, gathered by k = n.m
            levels = np.arange(sum(n) * x + 1, dtype=float)
            box = ((a + q * levels) ** (-sigma))[np.add.outer(n[0] * i, n[1] * i)]
        else:
            box = np.add.outer(a + w[0] * m, w[1] * m) ** (-sigma)
        curves.append(np.cumsum(np.bincount(shell, box.ravel()))[1:])
    return curves


def comparability(
    r: int,
    a: float,
    w: Sequence[float],
    sigma: float,
    T_checkpoints: Sequence[float] = (100.0, 200.0, 400.0),
    out_dir: Optional[str] = None,
) -> VerdictRecord:
    """Two-sided comparability of general-weight vs unit-weight values.

    Pass-determining statistics, both required inside [1/8, 8]:

    * the pointwise ratio A_w(k)/A_1(k) of the truncated absolute-value
      sums over boxes 0 <= m_j <= k (the quantity the termwise comparison
      actually controls);
    * the running mean-square ratio of the two line evaluations at each
      checkpoint T.

    The raw modulus ratio |zeta_r(s,a,w)| / |zeta_r(s,a,1)| is recorded as
    a diagnostic only: both sides oscillate through zeros, so its extremes
    are reported together with the count of near-zero grid points excluded
    (below 1e-6 of the grid mean); more than 1% exclusions fails the suite.
    """
    if not (r - 1 < sigma < r):
        raise DomainError(f"comparability needs r-1 < sigma < r, got {sigma}")
    cps = sorted(float(T) for T in T_checkpoints)
    if not cps:
        raise DomainError("comparability needs a checkpoint")
    ts, h, ks = _simpson_grid(cps, a)
    ones_line = multi_hurwitz_line(sigma, a, r, ts)
    unit_w = all(abs(x - 1.0) <= 1e-12 for x in w)
    if unit_w:
        w_line = ones_line
    else:
        w_line, _ = barnes_truncated_line(sigma, a, list(w), ts)
    abs_ones = np.abs(ones_line)
    abs_w = np.abs(w_line)

    # termwise pointwise statistic: truncated absolute sums
    x = int(math.floor(cps[-1]))
    ws = [[1.0] * r] + ([] if unit_w else [list(map(float, w))])
    curves = _abs_sum_curves(r, a, ws, sigma, x)
    curve_1, curve_w = curves[0], curves[-1]
    abs_ratio = curve_w / curve_1
    abs_max = float(abs_ratio.max())
    abs_min = float(abs_ratio.min())

    # diagnostic: raw modulus ratio with near-zero exclusions
    keep = (abs_ones >= 1e-6 * abs_ones.mean()) & (abs_w >= 1e-6 * abs_w.mean())
    excl = int(ts.size - int(keep.sum()))
    excl_frac = excl / ts.size
    raw = abs_w[keep] / abs_ones[keep]
    raw_max = float(raw.max())
    raw_min = float(raw.min())

    ms_rows: List[Sequence] = []
    ms_dev = 1.0
    nums, dens = (_prefix_integrals(sq, h, ks) for sq in (abs_w ** 2, abs_ones ** 2))
    for (T_eff, num, _), (_, den, _) in zip(nums, dens):
        ratio = num / den
        ms_rows.append((f"meansq_ratio_T={T_eff}", ratio))
        ms_dev = max(ms_dev, ratio, 1.0 / ratio)
    observed = max(abs_max, 1.0 / abs_min, ms_dev)
    grid = (
        f"r={r}, a={a}, w={tuple(float(x) for x in w)}, sigma={sigma}, "
        f"t grid [1,{cps[-1]}] step {h}, checkpoints {cps}; raw modulus "
        f"ratio is diagnostic only (oscillating values pass near zero)"
    )
    ratios = [
        ("abs_sum_ratio_max", abs_max),
        ("abs_sum_ratio_min", abs_min),
        ("raw_modulus_ratio_max", raw_max),
        ("raw_modulus_ratio_min", raw_min),
    ]
    rows = ratios + [("excluded_points", float(excl))] + ms_rows
    details = tuple(ratios + [("exclusion_fraction", excl_frac)] + ms_rows)
    return _finish(
        "comparability",
        grid,
        observed,
        _COMPARABILITY_THRESHOLD,
        out_dir,
        ("quantity", "value"),
        rows,
        details,
        passed=observed <= _COMPARABILITY_THRESHOLD and excl_frac < 0.01,
    )


# ---------------------------------------------------------------------------
# oscillatory integral


def _osc_piece(sigma: float, theta: float, lo: float, hi: float, h: float) -> complex:
    """Simpson integral of t^(sigma/2-1) e^(-i theta t) over [lo, hi]."""
    n = max(4, 2 * int(math.ceil((hi - lo) / (2.0 * h))))
    ts = np.linspace(lo, hi, n + 1)
    f = ts ** (sigma / 2.0 - 1.0) * np.exp((-1j * theta) * ts)
    wts = np.ones(n + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    step = (hi - lo) / n
    return complex(step / 3.0 * np.sum(wts * f))


def oscillatory_integral(
    sigma: float, a: float, lam: Union[float, Fraction], T: float
) -> complex:
    """I(T): integral of t^(sigma/2-1) times the truncated twisted sum.

    The cutoff m <= floor(sqrt(t/(2 pi)) - a) is equivalent to
    t >= 2 pi (m+a)^2, so the sum and integral interchange exactly and each
    m contributes a smooth one-dimensional oscillatory piece.
    """
    if not (0.5 < sigma < 1.0):
        raise DomainError(f"oscillatory integral needs 1/2 < sigma < 1, got {sigma}")
    if not a > 0:
        raise DomainError("a must be positive")
    if not (2.0 <= T <= 5000.0):
        raise DomainError(f"T must lie in [2, 5000], got {T}")
    lam_f = float(lam)
    h = grid_step(T, a)
    total = 0.0 + 0.0j
    m = 0
    while True:
        lo = max(1.0, 2.0 * math.pi * (m + a) ** 2)
        if 2.0 * math.pi * (m + a) ** 2 >= T:
            break
        piece = _osc_piece(sigma, math.log(m + a), lo, T, h)
        total += np.exp(2j * np.pi * ((lam_f * m) % 1.0)) * (m + a) ** (-sigma) * piece
        m += 1
    return complex(total)


def oscillatory_suite(
    sigma: float = 0.75,
    a: float = 0.5,
    lam: Union[float, Fraction] = 1,
    T_grid: Sequence[float] = (400.0, 1600.0, 5000.0),
    out_dir: Optional[str] = None,
) -> VerdictRecord:
    """Boundedness check: |I(T)| should not increase (25% slack).

    Integrating each m-piece by parts once gives
    |int_X^inf t^(sigma/2-1) e^(-i theta t) dt| <= 2 X^(sigma/2-1) / |theta|
    with theta = log(m+a).  For a != 1 no theta vanishes, so I(T) converges
    to a limit I(inf), in general nonzero, and |I(T) - I(inf)| is
    O(T^(-1/2) / log T).  For a = 1 the m = 0 piece has no phase and I(T)
    grows like T^(sigma/2), which this check reports as a failure.

    The observed constant is the largest consecutive ratio of |I(T)|.  The
    products |I(T)| T^(1/2) log T are recorded as a diagnostic: T^(1/2) log T
    is the scale of the distance to the limit, not of I(T) itself.
    """
    cps = [float(T) for T in T_grid]
    if len(cps) < 3 or sorted(cps) != cps:
        raise DomainError("T_grid must be >= 3 increasing values")
    for prev, nxt in zip(cps, cps[1:]):
        if nxt / prev < 1.5:
            raise DomainError("T_grid must be geometrically spaced (ratio >= 1.5)")
    moduli = [abs(oscillatory_integral(sigma, a, lam, T)) for T in cps]
    products = [v * math.sqrt(T) * math.log(T) for T, v in zip(cps, moduli)]
    worst_step = max(b / a_ for a_, b in zip(moduli, moduli[1:]))
    grid = f"sigma={sigma}, a={a}, lam={lam}, T in {cps}"
    details = tuple((f"abs_I_T={T}", v) for T, v in zip(cps, moduli)) + tuple(
        (f"product_T={T}", p) for T, p in zip(cps, products)
    )
    return _finish(
        "oscillatory_integral",
        grid,
        worst_step,
        _OSCILLATORY_SLACK,
        out_dir,
        ("T", "abs_I", "product"),
        list(zip(cps, moduli, products)),
        details,
    )


# ---------------------------------------------------------------------------
# structural identities


def coefficient_identity_suite(
    r_max: int = 8,
    a_values: Sequence[float] = (0.3, 0.5, 1.0),
    n_max: int = 30,
    out_dir: Optional[str] = None,
) -> VerdictRecord:
    """Defining identity of the reduction coefficients,
    sum_j p_{r,j}(a) (n+a)^j = C(n+r-1, r-1) for every lattice count n.

    The identity is checked exactly, on the table at Fraction(a): a float sum
    of it cancels, to 6e-5 of the count at r = 8, a = 99.7.  The float table
    must be that table rounded once.  A row's max_rel_err is the larger of the
    identity's relative residual and the float table's relative distance
    from the exact one."""
    if not (1 <= r_max <= MAX_RANK):
        raise DomainError(f"r_max must lie in 1..{MAX_RANK}, got {r_max}")
    rows: List[Sequence] = []
    observed, rounded = 0.0, True
    for r in range(1, r_max + 1):
        for a in map(float, a_values):
            exact = reduction_coefficients(r, Fraction(a)).coeffs
            table = reduction_coefficients(r, a).coeffs
            worst = max(abs(Fraction(c) - e) / abs(e or 1) for c, e in zip(table, exact))
            for n in range(0, n_max + 1):
                target = math.comb(n + r - 1, r - 1)
                lhs = sum(c * (n + Fraction(a)) ** j for j, c in enumerate(exact))
                worst = max(worst, abs(lhs - target) / target)
            once = table == tuple(map(float, exact))
            rows.append((r, a, float(worst), once))
            observed, rounded = max(observed, float(worst)), rounded and once
    grid = f"r in 1..{r_max}, a in {[float(a) for a in a_values]}, n in 0..{n_max}"
    return _finish(
        "coefficients",
        grid,
        observed,
        _COEFFICIENT_THRESHOLD,
        out_dir,
        ("r", "a", "max_rel_err", "rounded_once"),
        rows,
        passed=rounded and observed <= _COEFFICIENT_THRESHOLD,
    )


def functional_equation_suite(out_dir: Optional[str] = None) -> VerdictRecord:
    """Reflection-formula residuals on a 50-point grid (two a values times
    a 5x5 grid with Re s in [2,4], Im s in [-3,3])."""
    a_values = (Fraction(1, 3), Fraction(1, 2))
    res = [2.0, 2.5, 3.0, 3.5, 4.0]
    ims = [-3.0, -1.5, 0.0, 1.5, 3.0]
    rows: List[Sequence] = []
    observed = 0.0
    for a in a_values:
        for re in res:
            for im in ims:
                resid = functional_equation_residual(complex(re, im), a)
                rows.append((str(a), re, im, resid))
                observed = max(observed, resid)
    grid = "a in [1/3, 1/2], s on 5x5 grid Re in [2,4] x Im in [-3,3]"
    return _finish(
        "funceq",
        grid,
        observed,
        _FUNCEQ_THRESHOLD,
        out_dir,
        ("a", "s_re", "s_im", "residual"),
        rows,
    )


# ---------------------------------------------------------------------------
# suite table


def envelope_suites(out_dir: Optional[str] = None) -> List[VerdictRecord]:
    """The five growth-envelope sweeps of the standard bundle."""
    return [
        envelope_hurwitz(
            1.0, (-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0), 2000.0,
            out_dir=out_dir,
        ),
        envelope_hurwitz(
            0.5, (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0), 2000.0, out_dir=out_dir
        ),
        envelope_multi(
            2, 1.0, "ones", (-1.0, 0.5, 1.25, 1.5, 1.75, 2.5, 3.0, 4.0), 2000.0,
            out_dir=out_dir,
        ),
        envelope_multi(
            2, 1.0, "weights", (1.25, 1.5, 1.75), 2000.0, w=(1.0, 2.0),
            out_dir=out_dir,
        ),
        envelope_multi(
            2, 1.0, "weights", (1.25, 1.5, 1.75), 500.0, w=(1.0, math.sqrt(2.0)),
            out_dir=out_dir,
        ),
    ]


# suite name -> (out_dir, mv seeds) -> records; entries look the suite
# functions up when called, and "all" runs them in this order
SUITES = {
    "coefficients": lambda out_dir, seeds: [coefficient_identity_suite(out_dir=out_dir)],
    "funceq": lambda out_dir, seeds: [functional_equation_suite(out_dir=out_dir)],
    "envelopes": lambda out_dir, seeds: envelope_suites(out_dir),
    "mv": lambda out_dir, seeds: [mv_suite(seeds=seeds, out_dir=out_dir)],
    "comparability": lambda out_dir, seeds: [comparability(2, 1.0, (1.0, 2.0), 1.5, out_dir=out_dir)],
    "oscillatory": lambda out_dir, seeds: [oscillatory_suite(out_dir=out_dir)],
}


def run_suites(name: str, out_dir: Optional[str] = None, seeds=None) -> List[VerdictRecord]:
    """Run SUITES[name], or every suite in table order for "all"; seeds
    replaces the mv suite's default seeds 0..19."""
    if name != "all" and name not in SUITES:
        raise DomainError(f"unknown suite {name!r}, expected one of {[*SUITES, 'all']}")
    seeds = _MV_SEEDS if seeds is None else tuple(seeds)
    names = SUITES if name == "all" else (name,)
    return [rec for n in names for rec in SUITES[n](out_dir, seeds)]
