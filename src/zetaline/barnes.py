"""Barnes multiple zeta functions and their truncated representations.

Every scalar value here that reduces to Hurwitz values is built as groups
for the one evaluator of the package, `zetacore._hurwitz_combination`, which
Hurwitz, Lerch and periodic values share.  Two families are implemented.

* ``multi_hurwitz_bounded`` / ``multi_hurwitz_line``: the equal-weight
  multiple sum ``zeta_r(s, a) = sum_{m1..mr>=0} (a + m1 + ... + mr)^(-s)``,
  collapsed exactly through the binomial lattice count to
  ``sum_{j<r} p_{r,j}(a) zeta_H(s - j, a)``: unit weights are the L = 1
  combination below, whose one polynomial `reduction_coefficients` shifts
  exactly and rounds once.  This form inherits the full analytic
  continuation of the Hurwitz zeta (poles at s = 1, ..., r; ``_check_pole`` is
  the one rank-r guard, shared with the truncated line).  Only nonzero terms are
  evaluated (p_{r,0}(1) = 0 for r >= 2).  The scalar is the Q = 1 case of
  `_hurwitz_combination`, each term gated like ``hurwitz_zeta_bounded``.

* ``barnes_direct`` / ``barnes_truncated_line``: general positive weights ``w``.
  The direct evaluator needs ``Re s > r + 0.1``.  Two generators of Hurwitz
  combination rows feed the one evaluator, `_hurwitz_combination`, whose err
  sums those of all its atoms (absolute, as every err of the package; not
  yet a certified bound).  One count, taken before any value, picks the
  cheaper generator and enforces the budget of Hurwitz values (the rule
  stated in it).  Commensurate weights ``w = q n``
  (integer n, ``L = lcm(n)``): the lattice count d(k) of level k = n.m is a
  quasi-polynomial of period L, so

      zeta_r(s, a; w) = (qL)^(-s) sum_rho sum_i e_{rho,i} zeta_H(s - i, b_rho),
      b_rho = (a/q + rho) / L,

  with exact e_{rho,i} from r counts per residue (`_denumerant_terms`, on
  the generator of :mod:`zetaline.combinatorics`), at most L r rows.  The
  recursion (`_recursion_terms`), for weights such as (1, sqrt 2) whose
  combination costs more, collapses the lattice one coordinate at a time,
  ``F_j(y) = sum_{m>=0} F_(j-1)(y + m w_j)`` from ``F_0(y) = y^(-s)``: the
  points below the threshold ``y_req`` form an explicit window whose
  ``F_(j-1)`` values recurse, and the rest is a tail, one row per term of
  the asymptotic expansion ``F_(j-1)(y) ~ sum_c coef_c y^(-(s+c))``,
  composed through Euler-Maclaurin from the unit series.  Level 1 is its
  tail alone.  Its err adds a bound on the expansion's truncation that
  needs no value (`_truncation_err`).  The truncated evaluator sums the
  finite box ``{0..floor(x)}^r`` (through a compressed ``LatticeProfile``,
  whose counts are an integer convolution for commensurate weights) and
  adds the alternating boundary corrections

      - sum_{E nonempty} (-1)^(#E) (a + x*sum_{e in E} w_e)^(r-s)
        / ((s-1)...(s-r) w_1...w_r),

  which approximates the full sum with error O(x^(r-1-Re s)) as long as
  ``|t| <= x``; by default the box is x = max(1, max |t|).  The scalar
  ``barnes_truncated`` is the one-point line, and the line is the one-row
  ``barnes_truncated_line_batch``, whose rows at several real parts share
  one phase matrix.

``barnes_zeta_bounded`` picks between the two: the direct sum for
``Re s > r + 0.1``, the truncated strip formula for ``r - 1 < Re s`` with
``|t| >= 2``, and DomainError elsewhere.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .combinatorics import MAX_RANK, _box_convolve, _denumerant, _shift, reduction_coefficients
from .errors import (
    DomainError,
    PoleError,
    ResourceBudgetError,
    TruncationValidityError,
    UnsupportedRegionError,
)
from .zetacore import (
    _BERN_FAC,
    DEFAULT_PRECISION,
    Precision,
    _POLE_GUARD,
    _check_hurwitz_domain,
    _hurwitz_combination,
    _ordinate_top,
    _phase_sum,
    hurwitz_line_batch,
)

__all__ = [
    "MAX_RANK",
    "TruncationPolicy",
    "LatticeProfile",
    "build_lattice_profile",
    "multi_hurwitz",
    "multi_hurwitz_bounded",
    "multi_hurwitz_line",
    "barnes_zeta_bounded",
    "barnes_direct",
    "barnes_truncated",
    "barnes_truncated_line",
    "barnes_truncated_line_batch",
]


def _check_weights(w: Sequence[float]) -> Tuple[float, ...]:
    w = tuple(float(x) for x in w)
    if not (1 <= len(w) <= MAX_RANK):
        raise DomainError(f"weights must have rank 1..{MAX_RANK}, got {len(w)}")
    if not all(0.0 < x < math.inf for x in w):
        raise DomainError(f"weights must be positive and finite, got {w}")
    return w


def _check_pole(sigma: float, ts: np.ndarray, r: int) -> None:
    """PoleError when a node sigma + i t lies within _POLE_GUARD of some k in 1..r."""
    if not ts.size:
        return
    t_min = float(np.min(np.abs(ts)))
    for k in range(1, r + 1):
        distance = abs(complex(sigma - k, t_min))
        if distance < _POLE_GUARD:
            raise PoleError(
                f"rank-{r} multiple zeta has a pole at s = {k}", distance=distance
            )


# ---------------------------------------------------------------------------
# equal weights: exact binomial collapse


def _reduction_terms(r: int, a: float) -> list[Tuple[int, float]]:
    """The nonzero terms (j, p_{r,j}(a)); `reduction_coefficients` checks the rank."""
    coefs = [float(c) for c in reduction_coefficients(r, a).coeffs]
    return [(j, cf) for j, cf in enumerate(coefs) if cf != 0.0]


def _combine(terms: Sequence[Tuple[int, complex]], rows) -> np.ndarray:
    """sum_j c_j rows[j], one row per term (the top term never vanishes)."""
    parts = [cf * row for (_, cf), row in zip(terms, rows)]
    return sum(parts[1:], parts[0])


def multi_hurwitz_bounded(
    s: complex, a: float, r: int, prec: Precision = DEFAULT_PRECISION
) -> Tuple[complex, float]:
    """zeta_r(s, a) = sum_{j=0}^{r-1} p_{r,j}(a) zeta_H(s - j, a), with its err.

    The Q = 1 case of `_hurwitz_combination`, one kernel call over the terms
    with p_{r,j} != 0; at r = 1 its err is the Hurwitz err.  Each term is
    gated like `hurwitz_zeta_bounded`, with its DomainError and AccuracyError.
    """
    s = complex(s)
    terms = _reduction_terms(r, a)
    _check_pole(s.real, np.array([s.imag]), r)
    for j, _ in terms:
        _check_hurwitz_domain("hurwitz_zeta", s - j, a)
    return _hurwitz_combination("hurwitz_zeta", s, 1.0, [(a, terms)], prec)


def multi_hurwitz(
    s: complex, a: float, r: int, prec: Precision = DEFAULT_PRECISION
) -> complex:
    """zeta_r(s, a): the value of `multi_hurwitz_bounded`."""
    return multi_hurwitz_bounded(s, a, r, prec)[0]


def multi_hurwitz_line(
    sigma: float,
    a: float,
    r: int,
    ts: np.ndarray,
    prec: Precision = DEFAULT_PRECISION,
    n_terms: int | None = None,
) -> np.ndarray:
    """zeta_r(sigma + i t, a) on a t-grid; the nonzero j-shifts share their phase sums."""
    terms = _reduction_terms(r, a)
    ts = np.asarray(ts, dtype=float)
    _check_pole(sigma, ts, r)
    rows = hurwitz_line_batch([sigma - j for j, _ in terms], a, ts, prec, n_terms)
    return _combine(terms, rows)


# ---------------------------------------------------------------------------
# general weights, direct evaluation (Re s > r + 0.1)

_EXP_DEPTH = 10  # Bernoulli orders per composition level
_EXP_CAP = 24  # highest kept power shift c in y^(-(s+c))
_ATOM_BUDGET = 2_000_000


def _compose_expansion(
    prev: Dict[int, complex], s: complex, wj: float
) -> Dict[int, complex]:
    """Asymptotic series of G(y) = sum_{m>=0} F(y + m wj) from that of F."""
    out: Dict[int, complex] = {}

    def add(c: int, v: complex) -> None:
        if c <= _EXP_CAP:
            out[c] = out.get(c, 0.0 + 0.0j) + v

    for c, coef in prev.items():
        q = s + c
        add(c - 1, coef / ((q - 1.0) * wj))
        add(c, 0.5 * coef)
        poch = q
        for k in range(1, _EXP_DEPTH + 1):
            cc = c + 2 * k - 1
            if cc > _EXP_CAP:
                break
            add(cc, coef * _BERN_FAC[k] * poch * wj ** (2 * k - 1))
            poch = poch * (q + (2 * k - 1)) * (q + 2 * k)
    return out


def _recursion_terms(s: complex, a: float, w: Tuple[float, ...]):
    """The groups (b, terms) of zeta_r(s, a; w) in `_hurwitz_combination`'s
    form (Q = 1) by the composed Euler-Maclaurin collapse, yielded depth first.

    F_j(y) = sum_{m>=0} F_(j-1)(y + m w_j) from F_0(y) = y^(-s): the points
    of F_j(y) below y_req (none at level 1) recurse, and the rest, from the
    first point y' at or above it, is a tail, the group
    (y' / w_j, [(-c, coef_c w_j^(-(s+c)))]) of the asymptotic series
    sum_c coef_c y^(-(s+c)) of F_(j-1).  The tails of a level share its terms.
    """
    y_req = 0.75 * (abs(s.imag) + abs(s.real) + 2 * _EXP_CAP + 4.0) * max(w)
    series = [{0: 1.0}]  # series[j] is that of F_j
    for wj in w[:-1]:
        series.append(_compose_expansion(series[-1], s, wj))
    level_terms = [
        [(-c, coef * cmath.exp(-(s + c) * math.log(wj))) for c, coef in sorted(ser.items())]
        for wj, ser in zip(w, series)
    ]

    def walk(level: int, y: float):
        wj = w[level - 1]
        k_cut = 0 if level == 1 else max(0, int(math.ceil((y_req - y) / wj)))
        for m in range(k_cut):
            if level == 2:  # a level-1 point is its own tail, yielded without a generator
                yield (y + m * wj) / w[0], level_terms[0]
            else:
                yield from walk(level - 1, y + m * wj)
        yield (y + k_cut * wj) / wj, level_terms[level - 1]

    return walk(len(w), a)


def _truncation_err(s: complex, groups) -> float:
    """Twice the last kept orders (c >= _EXP_CAP - 1) of each tail, bounded
    without their values by |zeta_H(x + it, b)| <= b^(-x) + b^(1-x) / (x - 1)."""
    err = 0.0
    for b, terms in groups:
        top = 0.0
        for j, cf in terms:
            if -j >= _EXP_CAP - 1:
                x = s.real - j
                top = max(top, abs(cf) * (b ** -x + b ** (1.0 - x) / (x - 1.0)))
        err += 2.0 * top
    return err


# ---------------------------------------------------------------------------
# commensurate weights: the denumerant as a Hurwitz combination

def _denumerant_terms(a: float, q: float, n: Tuple[int, ...]):
    """(Q, groups) with zeta_r(s, a; q n) = Q^(-s) sum_rho sum_i e_{rho,i}
    zeta_H(s - i, b_rho): Q = q L, b_rho = (a/q + rho) / L, and the nonzero
    e_{rho,i}, each residue's polynomial shifted to powers of u + b_rho
    exactly and rounded once, in `_hurwitz_combination`'s form."""
    L = math.lcm(*n)
    groups = []
    for rho, poly in enumerate(_denumerant(n)):
        b = (a / q + rho) / L
        groups.append((b, [(i, c) for i, c in enumerate(_shift(poly, b)) if c != 0.0]))
    return q * L, groups


def barnes_direct(s: complex, a: float, w: Sequence[float]) -> Tuple[complex, float]:
    """Barnes zeta zeta_r(s, a, w) for Re s > r + 0.1, with an absolute error
    estimate (not yet a certified bound: ROADMAP item 3).

    Two generators of Hurwitz-combination groups, and the one evaluator,
    `_hurwitz_combination`, whose err sums those of all its atoms (rows).

    * combination: commensurate weights w = q n are the Hurwitz combination
      of `_denumerant_terms`, L = lcm(n) residues of at most r rows each.
    * recursion: the composed Euler-Maclaurin collapse (`_recursion_terms`),
      one group per tail.  Its err adds `_truncation_err`, twice the last
      kept expansion orders of every tail, bounded without their values.

    Rule: one count, taken before any value, picks the path and enforces the
    budget: a walk of `_recursion_terms` counts its rows until they pass
    min(L r, _ATOM_BUDGET).  The combination is taken when its L r rows are
    within the budget and fewer than the recursion's; when L r is over the
    budget and the recursion's rows pass it too, ResourceBudgetError is
    raised.  Only a count that holds is followed by a second walk, which
    collects the groups.  Either path evaluates at most _ATOM_BUDGET values.
    So (1, 2) takes the combination, while (1, 37) at small |t|, rank one
    (one row against one atom) and weights such as (1, sqrt 2), whose n_j
    are near 2^52, take the recursion.
    """
    s = complex(s)
    w = _check_weights(w)
    r = len(w)
    if not cmath.isfinite(s):
        raise DomainError(f"barnes_direct needs a finite s, got {s}")
    if not 0.0 < a < math.inf:
        raise DomainError(f"barnes_direct needs 0 < a < inf, got a={a}")
    if s.real <= r + 0.1:
        raise UnsupportedRegionError(
            f"barnes_direct needs Re s > r + 0.1 = {r + 0.1}; "
            "use barnes_truncated for smaller real parts"
        )
    q, n = _commensurate(w)
    rows = math.lcm(*n) * r
    cap = min(rows, _ATOM_BUDGET)
    counts = itertools.accumulate(len(terms) for _, terms in _recursion_terms(s, a, w))
    if any(count > cap for count in counts):
        if rows > _ATOM_BUDGET:
            raise ResourceBudgetError(
                f"barnes_direct needs more than its budget of {_ATOM_BUDGET} Hurwitz values"
            )
        Q, groups = _denumerant_terms(a, q, n)
        return _hurwitz_combination("barnes_direct", s, Q, groups, DEFAULT_PRECISION)
    groups = list(_recursion_terms(s, a, w))
    val, err = _hurwitz_combination("barnes_direct", s, 1.0, groups, DEFAULT_PRECISION)
    return val, err + _truncation_err(s, groups)


# ---------------------------------------------------------------------------
# lattice profiles and the truncated representation

_PROFILE_BUDGET = 100_000_000  # box points, or convolution levels


@dataclass(frozen=True)
class LatticeProfile:
    """Compressed multiset of box-lattice values a + m.w, m in {0..floor(x)}^r.

    values are strictly increasing and counts[i] is the number of lattice
    points at values[i]; total == (floor(x)+1)^r.  For commensurate weights
    w = q n (integer n) the values are a + q k, one per level k = n.m that
    some box point reaches, rounded once from a; otherwise a value stands
    for the points whose chained sums agree within relative 1e-12.
    """

    r: int
    a: float
    w: Tuple[float, ...]
    x: float
    values: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _commensurate(w: Sequence[float]) -> Tuple[float, Tuple[int, ...]]:
    """(q, n) with w_j = q n_j exactly: q is the gcd of the weights as fractions.

    Every float is a dyadic rational, so this always succeeds; irrational
    weights show up as n_j near 2^52, whose level span is out of reach.
    """
    ratios = [x.as_integer_ratio() for x in w]
    den = max(d for _, d in ratios)  # powers of two
    nums = [p * (den // d) for p, d in ratios]
    g = math.gcd(*nums)
    return g / den, tuple(v // g for v in nums)


def _compress(values: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values, kind="stable")
    values = values[order]
    counts = counts[order]
    if values.size == 0:
        return values, counts
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(values), 1e-12 * values[1:], out=keep[1:])
    idx = np.flatnonzero(keep)
    grouped = np.add.reduceat(counts, idx)
    return values[idx], grouped


def build_lattice_profile(
    a: float,
    w: Sequence[float],
    x: float,
) -> LatticeProfile:
    """The box lattice's distinct values and their counts.

    Commensurate weights w = q n take the denumerant: the counts d(k) of the
    levels k = n.m are the r-fold convolution of the indicators of
    {0, n_j, ..., floor(x) n_j}, over sum n_j floor(x) + 1 levels.  That path
    is taken when it is no longer than the box of (floor(x)+1)^r points and
    within _PROFILE_BUDGET.  Otherwise the box is grouped one coordinate at a
    time, sorting and compressing en route, within _PROFILE_BUDGET points.
    """
    w = _check_weights(w)
    if not 0.0 < a < math.inf:
        raise DomainError(f"build_lattice_profile needs 0 < a < inf, got a={a}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"build_lattice_profile needs 0 <= x < inf, got x={x}")
    a = float(a)
    k = int(math.floor(x)) + 1
    points = k ** len(w)
    q, n = _commensurate(w)
    if sum(n) * (k - 1) + 1 <= min(_PROFILE_BUDGET, points) and points < 2 ** 63:
        d = np.ones(1, dtype=np.int64)
        for nj in n:
            d = _box_convolve(d, nj, k)
        levels = np.flatnonzero(d)
        values = a + q * levels.astype(float)
        counts = d[levels].astype(np.uint64)
    else:
        if points > _PROFILE_BUDGET:
            raise ResourceBudgetError(
                f"lattice profile would hold {points} points, budget is {_PROFILE_BUDGET}"
            )
        values = np.array([a], dtype=float)
        counts = np.array([1], dtype=np.uint64)
        for wj in w:
            offs = wj * np.arange(k, dtype=float)
            values = np.add.outer(values, offs).ravel()
            counts = np.repeat(counts, k)
            values, counts = _compress(values, counts)
    return LatticeProfile(
        r=len(w), a=a, w=w, x=float(x), values=values, counts=counts
    )


class TruncationPolicy:
    """The box rule: x(t) = max(1, |t|), so that |t| <= x."""

    @staticmethod
    def x_for(t_max: float) -> float:
        return max(1.0, abs(t_max))


def _check_truncation_window(x: float, t_max: float) -> None:
    if abs(t_max) > x * (1.0 + 1e-9):
        raise TruncationValidityError(
            f"truncated representation valid only for |t| <= x = {x:.6g}; "
            f"got |t| = {abs(t_max):.6g}"
        )


def _boundary_corrections(
    s_arr: np.ndarray, a: float, w: Tuple[float, ...], x: float
) -> np.ndarray:
    """- sum over nonempty subsets E of (-1)^#E (a + x sum w_E)^(r-s) / denom."""
    r = len(w)
    denom = np.ones_like(s_arr)
    for k in range(1, r + 1):
        denom = denom * (s_arr - k)
    denom = denom * math.prod(w)
    out = np.zeros_like(s_arr)
    for mask in range(1, 1 << r):
        ssum = sum(w[i] for i in range(r) if mask >> i & 1)
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        base = a + x * ssum
        out += (-sign) * np.exp((r - s_arr) * math.log(base))
    return out / denom


def barnes_truncated(
    s: complex,
    a: float,
    w: Sequence[float],
    x: float,
    profile: LatticeProfile | None = None,
) -> Tuple[complex, float]:
    """Box sum to floor(x) plus boundary corrections; error scale x^(r-1-sigma).

    The one-point case of `barnes_truncated_line`.
    """
    s = complex(s)
    vals, err = barnes_truncated_line(
        s.real, a, w, np.array([s.imag]), x, profile
    )
    return complex(vals[0]), err


def _check_profile_match(
    profile: LatticeProfile, a: float, w: Tuple[float, ...], x: float
) -> None:
    if (
        profile.r != len(w)
        or abs(profile.a - a) > 1e-12 * max(1.0, abs(a))
        or any(abs(pw - ww) > 1e-12 * ww for pw, ww in zip(profile.w, w))
        or abs(profile.x - x) > 1e-9 * max(1.0, x)
    ):
        raise DomainError(
            "supplied LatticeProfile does not match (a, w, x) of this evaluation"
        )


def barnes_truncated_line(
    sigma: float,
    a: float,
    w: Sequence[float],
    ts: np.ndarray,
    x: float | None = None,
    profile: LatticeProfile | None = None,
) -> Tuple[np.ndarray, float]:
    """Truncated Barnes values on a t-grid sharing one lattice profile.

    When x is omitted it is fixed from max |t| by the box rule, so a whole
    mean-square run reuses a single box.  The one-row case of
    `barnes_truncated_line_batch`.
    """
    rows, errs = barnes_truncated_line_batch([sigma], a, w, ts, x, profile)
    return rows[0], errs[0]


def barnes_truncated_line_batch(
    sigmas: Sequence[float],
    a: float,
    w: Sequence[float],
    ts: np.ndarray,
    x: float | None = None,
    profile: LatticeProfile | None = None,
) -> Tuple[np.ndarray, list]:
    """Rows of truncated Barnes values at each sigma_i, with errs[i] = x^(r-1-sigma_i).

    The window check, the lattice profile and log(values) are done once, and
    every phase chunk pays its exp once for all sigma_i.
    """
    w = _check_weights(w)
    r = len(w)
    ts = np.asarray(ts, dtype=float)
    t_max = _ordinate_top(ts)
    if x is None:
        x = TruncationPolicy.x_for(t_max)
    _check_truncation_window(x, t_max)
    for sigma in sigmas:
        _check_pole(sigma, ts, r)
    if profile is None:
        profile = build_lattice_profile(a, w, x)
    else:
        _check_profile_match(profile, a, w, x)
    logv = np.log(profile.values)
    counts = profile.counts.astype(float)
    rows = _phase_sum(logv, [counts * np.exp(-sigma * logv) for sigma in sigmas], ts)
    for row, sigma in zip(rows, sigmas):
        row += _boundary_corrections(sigma + 1j * ts, a, w, x)
    return rows, [float(x ** (r - 1 - sigma)) for sigma in sigmas]


def barnes_zeta_bounded(s: complex, a: float, w: Sequence[float]) -> Tuple[complex, float]:
    """zeta_r(s, a, w) with its bound, in whichever regime covers s.

    Re s > r + 0.1 takes `barnes_direct`; r - 1 < Re s with |t| >= 2 takes
    `barnes_truncated` on the box x = max(1, |t|), whose bound is the error
    scale x^(r-1-sigma).  Anything else is a DomainError.
    """
    s = complex(s)
    r = len(_check_weights(w))
    if s.real > r + 0.1:
        return barnes_direct(s, a, w)
    if s.real > r - 1 and abs(s.imag) >= 2.0:
        return barnes_truncated(s, a, w, TruncationPolicy.x_for(s.imag))
    raise DomainError(
        f"barnes evaluation needs sigma > r + 0.1 = {r + 0.1} (direct sum), or "
        f"sigma > r - 1 = {r - 1} with |t| >= 2 (truncated strip formula)"
    )
