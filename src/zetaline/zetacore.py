"""Hurwitz and Lerch zeta functions on vertical lines.

Evaluation strategy
-------------------
``zeta_H(s, a) = sum_{m>=0} (m+a)^(-s)`` is continued by Euler-Maclaurin:
an explicit sum of ``N`` terms, the integral tail ``(N+a)^(1-s)/(s-1)``, the
midpoint term ``(N+a)^(-s)/2`` and ``_EM_DEPTH`` Bernoulli corrections

    B(2k)/(2k)! * s(s+1)...(s+2k-2) * (N+a)^(-s-2k+1),

with the remainder estimated by the first omitted correction.  Every err
returned is absolute, that remainder plus the rounding of the sums; the
gate reads it relative.  The shift count
``N = ceil(shift_count_factor*(|t|+10))`` keeps the correction ratio
``(|s+2k| / (2*pi*(N+a)))^2`` far below one over the whole supported region.
The floor is the rounding of ``t*log(m+a)``, which err omits (ROADMAP item 3):
4.7e-13 relative at 1/2 + 1000i and 5.0e-11 at 1/2 + 10^4 i, against mpmath.

The Lerch function ``zeta_L(s, a, lambda) = sum_m e^(2*pi*i*m*lambda) (m+a)^(-s)``
is evaluated for rational ``lambda = p/q`` by the exact q-fold reduction

    zeta_L(s, a, p/q) = q^(-s) * sum_{j=0}^{q-1} e^(2*pi*i*j*p/q) zeta_H(s, (j+a)/q)

which inherits the full analytic continuation; irrational ``lambda`` is
summed directly (absolutely convergent region only) with an Abel-summation
tail bound.  ``_rational_twist`` is the one parser of ``lambda`` (and of the
periodic zeta's ``x``) and holds the one denominator cap, q <= 1024, for
values (`lerch_zeta_bounded`) and vertical lines (`lerch_line`) alike;
``_twist_groups`` is the one q-fold and ``_periodic`` the one periodic zeta.
``_hurwitz_combination`` is the one evaluator of every value that is a sum
of Hurwitz values: Hurwitz, rational Lerch and periodic values here, rank-r
and Barnes values in :mod:`zetaline.barnes`; its callers only build groups.

Vertical-line batches (`hurwitz_line`, `hurwitz_line_batch`) share the phase
sums ``sum_m (m+a)^(-sigma) exp(-i t log(m+a))`` across all requested real
parts, and every line evaluator of the package goes through `_phase_sum`.  It
has two paths.  Long lines take a nonuniform FFT by Gaussian gridding
(Greengard & Lee, SIAM Review 46 (2004) 443-454), the numpy form of
Odlyzko & Schoenhage's multi-evaluation: an evenly spaced t-grid (the Simpson
grids of the mean squares) is the mode set of one type-1 transform, and any
other grid (the geometric sweeps) is interpolated from a uniform auxiliary
grid.  Single points and short grids take the direct phase matrix;
`_phase_sum` states the rule.  Rows with sigma <= 0 take a shift count per
octave of |t| (`_hurwitz_rows`), so their partial sums stay near the value.
The transform costs O(N + nodes) plus an FFT instead of nodes x N.  Each
term spreads onto the 2 _SPREAD grid points around its cell with Gaussian
weights.  Where the terms are dense on the grid, as the ~90,000 lattice
values of a Barnes box are (over 41 per occupied cell), the terms of one
cell share those weights instead: the Hermite expansion
exp(-C (u + x)^2) = sum_p g_p(x) u^p of the Gaussian in the offset u from
the cell's centre carries the cell's first _MOMENTS moments sum amp u^p to
its grid points (`_grid_sums` states the rule, `_MOMENTS` the bound).  All
reductions are bincounts, FFTs and numpy pairwise sums in a fixed order,
with no BLAS, so repeated runs are bit-identical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence, Tuple, Union

import numpy as np

from .combinatorics import bernoulli
from .errors import (
    AccuracyError,
    DomainError,
    PoleError,
    ResourceBudgetError,
    UnsupportedRegionError,
)

__all__ = [
    "Precision",
    "DEFAULT_PRECISION",
    "hurwitz_zeta",
    "hurwitz_zeta_bounded",
    "hurwitz_line",
    "hurwitz_line_batch",
    "riemann_zeta",
    "lerch_zeta",
    "lerch_zeta_bounded",
    "lerch_line",
    "periodic_zeta",
    "functional_equation_residual",
    "gen_euler_constant",
]

LambdaLike = Union[int, float, Fraction]

_POLE_GUARD = 1e-8


@dataclass(frozen=True)
class Precision:
    """The accuracy gate of the Euler-Maclaurin kernel.

    rel_tol:            target relative accuracy (>= 1e-13).
    shift_count_factor: N = ceil(1.2 (|t| + 10)) explicit terms, a constant.
    """

    rel_tol: float = 1e-12
    shift_count_factor: ClassVar[float] = 1.2

    def __post_init__(self):
        if not (1e-13 <= self.rel_tol <= 1e-2):
            raise DomainError("Precision.rel_tol must lie in [1e-13, 1e-2]")


DEFAULT_PRECISION = Precision()

# number of Bernoulli correction terms in the Euler-Maclaurin kernel
_EM_DEPTH = 12

# B(2k)/(2k)! as floats, k = 0.._EM_DEPTH+1 (index k)
_BERN_FAC = tuple(
    float(bernoulli(2 * k) / math.factorial(2 * k)) for k in range(_EM_DEPTH + 2)
)

# chunk size target for the (t x m) phase matrix, in elements
_CHUNK_ELEMS = 4_000_000


def _shift_count(t_scale: float) -> int:
    return max(4, int(math.ceil(Precision.shift_count_factor * (t_scale + 10.0))))


def _phase_sum(logv: np.ndarray, amps, ts: np.ndarray) -> np.ndarray:
    """Rows sum_m amps[i, m] exp(-i t logv[m]) for every ordinate t in ts.

    Two paths, chosen from the inputs alone:

    * transform (`_grid_sums`): ts of the exact form t_a + k h are the modes
      of one Gaussian-gridding type-1 FFT.  Any other ts is interpolated
      (`_interpolate`) from the sums on the auxiliary grid j 2^-p, the
      largest power of two at most pi / (2 max|logv|), so at least twice the
      band's Nyquist rate.  Its operation count is 2 _SPREAD N + Mr log2 Mr,
      plus 2 _TAPS per node when interpolating, where N = logv.size and the
      FFT length Mr is at least 4K for the half-width K of the window of
      modes (`_mode_window`).
    * direct (`_direct_sum`): the phase matrix, nodes x N complex exps.

    Rule: the direct path takes the whole call when nodes x N does not exceed
    the transform's count (single points, short grids); otherwise every row
    takes the transform.  It errs by a few ulp of sum |amps| at each node,
    less than the matrix, which also rounds each t logv.  Rows do not depend
    on one another, and every sum runs in a fixed order without BLAS.
    """
    nt, n = ts.size, logv.size
    plan = _transform_plan(logv, ts) if nt > 1 and n else None
    if plan is None or plan[-1] >= nt * n:
        return _direct_sum(logv, amps, ts)
    t_a, step, j_lo, j_hi, on_grid, _ = plan
    out = _grid_sums(logv, amps, t_a, step, j_lo, j_hi)
    return out if on_grid else _interpolate(out, ts / step - j_lo)


def _direct_sum(logv: np.ndarray, amps, ts: np.ndarray) -> np.ndarray:
    """The phase matrix in chunks of _CHUNK_ELEMS, each row a pairwise sum."""
    out = np.empty((len(amps), ts.size), dtype=complex)
    rows = max(1, _CHUNK_ELEMS // max(logv.size, 1))
    for lo in range(0, ts.size, rows):
        phases = np.exp((-1j) * np.multiply.outer(ts[lo : lo + rows], logv))
        for i, amp in enumerate(amps):
            out[i, lo : lo + rows] = (phases * amp).sum(axis=1)
    return out


# Gaussian gridding: each source spreads onto 2*_SPREAD points of a grid
# oversampled >= 2x, which leaves a truncation error near e^(-0.75 pi _SPREAD)
# ~ 4e-17 of sum |amps| (Greengard & Lee, SIAM Review 46 (2004) 443-454).
# Interpolation from a 2x oversampled grid takes 2*_TAPS samples per node,
# with error near e^(-pi _TAPS / 4) ~ 4e-17 of the nearby |sums|.
_SPREAD = 16
_TAPS = 48
_TWO_PI = Fraction("6.283185307179586476925286766559005768394")


def _transform_plan(logv: np.ndarray, ts: np.ndarray):
    """(t_a, step, j_lo, j_hi, on_grid, cost): the grid t_a + j step the
    transform uses, whether ts is that grid, and the operation count."""
    nt, n = ts.size, logv.size
    step = ts[1] - ts[0]
    if step != 0 and np.array_equal(ts, ts[0] + step * np.arange(nt)):
        t_a, j_lo, j_hi, on_grid = float(ts[0]), 0, nt - 1, True
    else:
        lmax = float(np.max(np.abs(logv)))
        if lmax == 0.0:
            return None
        # a power of two: theta = step logv and t / step are then exact
        step = 2.0 ** math.floor(math.log2(math.pi / (2.0 * lmax)))
        t_a, on_grid = 0.0, False
        j_lo = int(math.floor(float(np.min(ts)) / step)) - _TAPS
        j_hi = int(math.floor(float(np.max(ts)) / step)) + _TAPS + 1
    mr = 4 * _mode_window(j_lo, j_hi)[1]  # the FFT length, to within _fft_length's rounding
    cost = 2 * _SPREAD * n + mr * mr.bit_length() + (0 if on_grid else 2 * _TAPS * nt)
    return t_a, float(step), j_lo, j_hi, on_grid, cost


def _mode_window(j_lo: int, j_hi: int) -> Tuple[int, int]:
    """(c, K) with j_lo..j_hi inside c + [-K, K), c = 0 or the power of two
    that makes K least; c times a float is exact, so centring costs no rounding."""
    mid = (j_lo + j_hi) // 2
    p, sign = abs(mid).bit_length(), 1 if mid > 0 else -1

    def half_width(c: int) -> int:
        return max(c - j_lo, j_hi + 1 - c)

    c = min([0] + [sign << e for e in (p - 1, p) if e >= 0], key=half_width)
    return c, half_width(c)


def _exact_phase(t: float, logv: np.ndarray) -> np.ndarray:
    """exp(-i t logv) with the product t logv carried exactly (Dekker)."""
    arg, err = _two_product(t, logv)
    return np.exp(-1j * arg) * (1.0 - 1j * err)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length np.fft handles fast."""
    best, p2 = 1 << max(n - 1, 0).bit_length(), 1
    while p2 < best:
        p3 = p2
        while p3 < best:
            p5 = p3
            while p5 < n:
                p5 *= 5
            best = min(best, p5)
            p3 *= 3
        p2 *= 2
    return best


def _grid_sums(logv, amps, t_a: float, step: float, j_lo: int, j_hi: int) -> np.ndarray:
    """Rows sum_m amps[i, m] exp(-i (t_a + j step) logv[m]) for j_lo <= j <= j_hi.

    A type-1 nonuniform FFT by Gaussian gridding: with theta_m = step logv[m]
    and modes j = c + k, |k| < K (`_mode_window`), the sources
    amps exp(-i (t_a + c step) logv) are spread with weights
    exp(-(theta - xi)^2 / (4 tau)) onto the grid xi_n = 2 pi n / Mr, Mr >= 4K;
    an FFT and the factor sqrt(pi/tau) e^(k^2 tau) / Mr then give the modes.
    tau comes from the achieved oversampling Mr / 2K.

    Spreading has two paths with the same weights.  Sparse sources each pay
    the 2 _SPREAD weights of their cell (`_spread_taps`).  Sources dense on
    the grid (the lattice values of a Barnes box) share them: a run of
    sources in one cell is reduced to _MOMENTS moments, which the Hermite
    expansion of the Gaussian carries to the cell's taps (`_spread_moments`).
    Per row and real or imaginary part the taps cost 2 _SPREAD N and the
    moments 2 _MOMENTS N + 2 _SPREAD _MOMENTS G for G runs; the cheaper
    one is taken, i.e. the moments when N > ~41 G.

    The phases carry no rounding of their own: t_a logv, (c step) logv and
    each source's grid position step logv Mr / (2 pi) are formed exactly
    (Dekker's product, 2 pi to 40 digits), so mode j sees j theta_m to about
    one ulp of a grid cell.  The direct matrix instead rounds t logv once
    per element.
    """
    c, K = _mode_window(j_lo, j_hi)
    mr = _fft_length(4 * K)
    ratio = mr / (2.0 * K)
    tau = math.pi * _SPREAD / (4.0 * K * K * ratio * (ratio - 0.5))
    pre = _exact_phase(c * step, logv)
    if t_a:
        pre = _exact_phase(t_a, logv) * pre
    cells = Fraction(step) * mr / _TWO_PI
    cells_hi = float(cells)
    pos, pos_err = _two_product(cells_hi, logv)
    pos_err += float(cells - Fraction(cells_hi)) * logv
    cell = np.floor(pos)
    frac = (pos - cell) + pos_err
    # grid cell first + l sits at offset l - (_SPREAD - 1) from the source
    first = (cell.astype(np.intp) - (_SPREAD - 1)) % mr
    coef = -((math.pi / mr) ** 2) / tau
    grids = np.zeros((len(amps), mr + 2 * _SPREAD), dtype=complex)
    runs = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    if _MOMENTS * logv.size + 2 * _SPREAD * _MOMENTS * runs.size < 2 * _SPREAD * logv.size:
        _spread_moments(grids, amps, pre, frac - 0.5, first[runs], runs, coef)
    else:
        _spread_taps(grids, amps, pre, frac, first, coef)
    ks = np.arange(j_lo - c, j_hi + 1 - c)
    scale = np.exp((ks * ks) * tau) * (math.sqrt(math.pi / tau) / mr)
    out = np.empty((len(amps), ks.size), dtype=complex)
    for i, g in enumerate(grids):
        g[: 2 * _SPREAD] += g[mr:]
        out[i] = np.fft.fft(g[:mr])[ks % mr] * scale
    return out


def _spread_taps(grids, amps, pre, frac, first, coef: float) -> None:
    """Each source adds amp pre exp(coef dist^2) to its 2 _SPREAD taps."""
    taps = np.arange(2 * _SPREAD)
    block = max(1, _CHUNK_ELEMS // (8 * _SPREAD))
    for start in range(0, frac.size, block):
        sl = slice(start, start + block)
        dist = frac[sl, None] + ((_SPREAD - 1) - taps)
        weight = np.exp(dist * dist * coef)
        idx = (first[sl, None] + taps).ravel()
        for g, amp in zip(grids, amps):
            src = amp[sl] * pre[sl]
            g.real += np.bincount(idx, (weight * src.real[:, None]).ravel(), g.size)
            g.imag += np.bincount(idx, (weight * src.imag[:, None]).ravel(), g.size)


# Dense spreading: with u = frac - 1/2 and the taps at x_l = _SPREAD - 1/2 - l,
# exp(-C (u + x_l)^2) = sum_p g_p(x_l) u^p, g_p(x) = e^(-C x^2) (-sqrt C)^p
# H_p(sqrt C x) / p!, with C = -coef = pi (ratio - 1/2) / (ratio _SPREAD).
# Cramer's bound |H_p(y)| e^(-y^2/2) <= 1.0865 sqrt(2^p p!), |u| <= 1/2 and
# C < pi / _SPREAD (any oversampling ratio) bound the terms past _MOMENTS by
# 1.09 sum_{p >= _MOMENTS} (pi / (2 _SPREAD))^(p/2) / sqrt(p!) = 1.09 sum
# 0.313^p / sqrt(p!) ~ 1.2e-17 of each weight: 18 is the least count below
# the ~4e-17 that _SPREAD meets (17 gives 1.7e-16).
_MOMENTS = 18


def _spread_moments(grids, amps, pre, u, first, runs, coef: float) -> None:
    """Each run of sources in one cell adds its moments sum src u^p, through
    the table g_p(x_l), to the 2 _SPREAD taps of that cell."""
    x = (_SPREAD - 0.5) - np.arange(2 * _SPREAD)
    table = np.empty((_MOMENTS, x.size))
    table[0] = np.exp(x * x * coef)
    table[1] = (2.0 * coef) * x * table[0]
    for p in range(1, _MOMENTS - 1):  # H_(p+1)(y) = 2y H_p(y) - 2p H_(p-1)(y)
        table[p + 1] = (2.0 * coef / (p + 1)) * (x * table[p] + table[p - 1])
    idx = (first[:, None] + np.arange(x.size)).ravel()
    for g, amp in zip(grids, amps):
        src = amp * pre
        for part, dest in ((src.real.copy(), g.real), (src.imag.copy(), g.imag)):
            taps = np.zeros((runs.size, x.size))
            for p in range(_MOMENTS):
                taps += np.add.reduceat(part, runs)[:, None] * table[p]
                part *= u
            dest += np.bincount(idx, taps.ravel(), g.size)


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker, 1971)."""
    p = a * b
    a_hi, a_lo = _veltkamp_split(a)
    b_hi, b_lo = _veltkamp_split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _veltkamp_split(x):
    """x = hi + lo with each part 26 bits wide, so their products are exact."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _interpolate(samples: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows at the fractional sample positions x, by Gaussian-regularised
    Shannon sampling: sum_n f(n) sinc(x - n) exp(-(x - n)^2 / (2 r^2)) over
    the 2 _TAPS nearest n, r^2 = 2 _TAPS / pi for a band of half the Nyquist
    rate (Qian, Proc. AMS 131 (2003) 1169-1176).
    """
    base = np.floor(x)
    offs = np.arange(1 - _TAPS, _TAPS + 1)
    u = (x - base)[:, None] - offs
    weight = np.sinc(u) * np.exp(u * u * (-math.pi / (4.0 * _TAPS)))
    cols = base.astype(np.intp)[:, None] + offs
    return np.stack([(row[cols] * weight).sum(axis=1) for row in samples])


def _groups(keys: list) -> list:
    """(key, ix, sel) for each distinct key, in order of first appearance: ix
    lists the rows with that key, and sel selects them from row arrays: a
    lone row as its index (a one-dimensional view), consecutive rows as a
    slice (a view), other rows as the list (a copy)."""
    if len(keys) == 1:
        return [(keys[0], [0], 0)]
    found: dict = {}
    for i, key in enumerate(keys):
        found.setdefault(key, []).append(i)
    return [(key, ix, _selector(ix)) for key, ix in found.items()]


def _selector(ix: list):
    if len(ix) == 1:
        return ix[0]
    return slice(ix[0], ix[-1] + 1) if ix[-1] - ix[0] == len(ix) - 1 else ix


def _tail_constants(sig: float, shifts: list, sums: list, N: int, ulps: float):
    """Per shift a, with z = N + a: log z, z^-2, z^(-sig - 2 _EM_DEPTH - 1),
    z^(-sig), the rounding ulps max(a^-sig, z^-sig) and ulps sum |amps| of the
    row.  Floats for one shift, else (m, 1) columns; each is a Python float
    op, as numpy's log and power need not round alike."""
    per = []
    for a, total in zip(shifts, sums):
        z = N + a
        per.append((math.log(z), z ** -2.0, z ** (-sig - 2 * _EM_DEPTH - 1), z ** (-sig),
                    ulps * max(a ** (-sig), z ** (-sig)), ulps * total))
    return per[0] if len(per) == 1 else [np.array(c)[:, None] for c in zip(*per)]


def _em_kernel(
    rows: Sequence[Tuple[float, float]],
    ts: np.ndarray,
    n_terms: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler-Maclaurin evaluation of zeta_H(sigma_i + i t_j, a_i) for rows
    (sigma_i, a_i) at the ordinates ts.

    Returns (values[R, T], err[R, T, 2], cancel[R, T]), per node: err[..., 0]
    is the first omitted correction plus summation rounding, relative to the
    scale max(|value|, (N+a)^(-sigma)), for the gate; err[..., 1] is that,
    absolute, plus the rounding of the kernel's sum, eps log2(N+2) sum |amps|;
    cancel is that rounding relative to |value|, which flags cancellation
    (partial sums far above the value) and zeros of the function.
    Rows with one shift share a `_phase_sum`; rows with one sigma share one
    pass of the tail and the Bernoulli corrections, over a (shifts x nodes)
    array, and each row's bits are those it has when evaluated alone.
    """
    N = n_terms
    terms = np.arange(N, dtype=float)
    amp_sums = [0.0] * len(rows)
    blocks = []
    for a, ix, sel in _groups([a for _, a in rows]):
        base = terms + a
        amps = [np.power(base, -rows[i][0]) for i in ix]
        blocks.append((sel, _phase_sum(np.log(base), amps, ts)))
        for i, amp in zip(ix, amps):
            amp_sums[i] = float(np.sum(amp))
    if len(blocks) == 1:
        out = blocks[0][1]
    else:
        out = np.empty((len(rows), ts.size), dtype=complex)
        for sel, block in blocks:
            out[sel] = block
    errs, cancels = np.zeros((2,) + out.shape), np.zeros(out.shape)
    ulps = 1e-16 * math.log2(N + 2.0)
    for sig, ix, sel in _groups([sig for sig, _ in rows]):
        s = sig + 1j * ts
        # |s - 1| >= |sigma - 1|, so only a sigma near 1 needs the nodes
        if abs(sig - 1.0) < _POLE_GUARD and np.any(np.abs(s - 1.0) < _POLE_GUARD):
            raise PoleError(
                f"zeta_H pole guard: s within {_POLE_GUARD} of 1 "
                f"(sigma={sig})",
                distance=float(np.min(np.abs(s - 1.0))),
            )
        logz, invz2, z_last, z_sig, rounding, sum_ulps = _tail_constants(
            sig, [rows[i][1] for i in ix], [amp_sums[i] for i in ix], N, ulps
        )
        if len(ix) > 1:
            # numpy may take another inner loop for a broadcast operand, whose
            # complex product need not round like the contiguous one; tiled to
            # a contiguous (shifts x nodes) array, s meets every factor as in
            # a one-shift call
            s = np.tile(s, (len(ix), 1))
        val = out[sel]
        val += np.exp((1.0 - s) * logz) / (s - 1.0)
        val += 0.5 * np.exp(-s * logz)
        poch = s.astype(complex)
        zpow = np.exp(-(s + 1.0) * logz)
        for k in range(1, _EM_DEPTH + 1):
            val += (_BERN_FAC[k] * zpow) * poch
            # numpy's SIMD complex multiply is not bitwise commutative, and
            # from 256 KiB on its temporary elision would evaluate
            # poch * (f) as f * poch, so the array's size would pick the
            # order; np.multiply fixes it at poch * f
            poch = np.multiply(poch, (s + (2 * k - 1)) * (s + 2 * k))
            zpow = zpow * invz2
        omitted = _BERN_FAC[_EM_DEPTH + 1] * np.abs(poch) * z_last
        size = np.abs(val)
        scale = np.maximum(size, z_sig)
        mag = np.maximum(size, 1e-300)
        if isinstance(sel, list):
            out[sel] = val  # a list gathers a copy
        err = omitted + rounding
        errs[0][sel], errs[1][sel] = err / scale, err + sum_ulps
        cancels[sel] = sum_ulps / mag
    return out, errs.transpose(1, 2, 0), cancels


def _hurwitz_rows(
    rows: Sequence[Tuple[float, float]],
    ts: np.ndarray,
    prec: Precision,
    n_terms: int | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Rows zeta_H(sigma_i + i t, a_i) for (sigma, shift) pairs, and each
    row's largest err, relative and absolute, as (R, 2) columns: the one path
    of Hurwitz values and lines, one kernel call for the rows of a value up
    to `_hurwitz_combination`'s chunk.  A shift enters numpy as a float.
    The Euler-Maclaurin kernel and the reflection fallback node by node.  N
    comes from max |t| unless n_terms is given, but without n_terms the nodes
    of sigma <= 0 rows split into octaves of |t| + 10, each with N from its
    own top: those rows' partial sums reach ~N^(1 - sigma), which a far top
    node makes cancel at small |t|."""
    for _, a in rows:
        if not a > 0:
            raise DomainError(f"zeta_H needs a > 0, got a={a}")
    rows = [(sig, float(a)) for sig, a in rows]
    ts = np.asarray(ts, dtype=float)
    top = _ordinate_top(ts)
    n = n_terms if n_terms is not None else _shift_count(top)
    low = [i for i, (sig, _) in enumerate(rows) if sig <= 0.0]
    octave = np.frexp(np.abs(ts) + 10.0)[1] if low and n_terms is None and ts.size > 1 else None
    if octave is None or np.all(octave == octave[0]):
        vals, errs, cancels = _em_kernel(rows, ts, n)
    else:
        vals = np.empty((len(rows), ts.size), dtype=complex)
        errs, cancels = np.empty(vals.shape + (2,)), np.empty(vals.shape)
        high = [i for i, (sig, _) in enumerate(rows) if sig > 0.0]
        bands = [(low, octave == e) for e in np.unique(octave)]
        # sigma > 0 rows keep one band over every node, N from the top node
        for band, cols in [(high, np.ones(ts.size, bool))] + bands:
            if band:
                block, top = np.ix_(band, cols), float(np.max(np.abs(ts[cols])))
                vals[block], errs[block], cancels[block] = _em_kernel(
                    [rows[i] for i in band], ts[cols], _shift_count(top)
                )
    for i, (sig, a) in enumerate(rows):
        if sig < -0.5:
            # cancellation-dominated nodes (the kernel's sum far above the
            # value): reflect to Re = 1 - sigma where the series converges fast
            for k in np.flatnonzero(cancels[i] > 8.0 * prec.rel_tol):
                vals[i, k], errs[i, k] = _hurwitz_reflected(complex(sig, ts[k]), a, prec)
    return vals, errs.max(axis=1, initial=0.0)


def _ordinate_top(ts: np.ndarray) -> float:
    """max |t| over the ordinates ts (0 for none); DomainError unless every t
    is finite.  The max is NaN when any t is, so one reduction checks both."""
    top = float(np.max(np.abs(ts), initial=0.0))
    if not math.isfinite(top):
        raise DomainError(f"the ordinates ts must be finite, got max |t| = {top}")
    return top


def _gate(name: str, errs, prec: Precision) -> None:
    """The accuracy gate of Hurwitz values and lines: relative err <= 64 rel_tol."""
    worst = float(np.max(errs, initial=0.0))
    if worst > 64.0 * prec.rel_tol:
        raise AccuracyError(
            f"{name}: remainder estimate {worst:.3e} above tolerance", achieved=worst
        )


# rows per `_hurwitz_rows` call of `_hurwitz_combination`, so a large value
# holds one chunk's kernel arrays at a time; a row keeps its bits in any chunk
_COMBINATION_ROWS = 4096


def _hurwitz_combination(
    name: str,
    s: complex,
    Q: float,
    groups: Sequence[Tuple[float, Sequence[Tuple[int, complex]]]],
    prec: Precision,
) -> Tuple[complex, float]:
    """Q^(-s) sum over groups (b, terms) of sum_j c_j zeta_H(s - j, b), with its err.

    The one evaluator of values that reduce to Hurwitz values; its callers
    only build the groups.  The (sigma - j, b) rows go to `_hurwitz_rows`
    _COMBINATION_ROWS at a time and are gated once under name.  Each group is
    summed from 0 in Python complex, then the group sums from 0; Q^(-s) is
    not applied at Q = 1, where it could flip a zero's sign.  err is the one
    err of the package, absolute: |Q^(-s)| (sum_k |c_k| err_k + (n - 1) 2^-52
    sum_k |c_k v_k|) over the n terms, err_k being v_k's absolute err.
    """
    rows = [(s.real - j, b) for b, terms in groups for j, _ in terms]
    ts = np.array([s.imag])
    chunks = [_hurwitz_rows(rows[lo : lo + _COMBINATION_ROWS], ts, prec)
              for lo in range(0, len(rows), _COMBINATION_ROWS)]
    errs = np.concatenate([e for _, e in chunks])
    _gate(name, errs[:, 0], prec)
    atoms = zip(np.concatenate([v[:, 0] for v, _ in chunks]).tolist(), errs[:, 1].tolist())
    total, err, size = 0.0 + 0.0j, 0.0, 0.0
    for _, terms in groups:
        part = 0.0 + 0.0j
        for (_, c), (v, e) in zip(terms, atoms):
            x = c * v
            part += x
            err += abs(c) * e
            size += abs(x)
        total += part
    factor = cmath.exp(-s * math.log(Q))
    err = abs(factor) * (err + (len(rows) - 1) * 2.0**-52 * size)
    return (total if Q == 1 else factor * total), err


def _hurwitz_reflected(
    s: complex, a: float, prec: Precision
) -> Tuple[complex, Tuple[float, float]]:
    """zeta_H(s, a) by Hurwitz's functional equation from F(+-a, 1 - s) (`_periodic`),
    with its err, relative and absolute, as the kernel gives them."""
    shift_sum = 0.0 + 0.0j
    aa = a
    while aa > 1.0:
        aa -= 1.0
        shift_sum += cmath.exp(-s * cmath.log(aa))
    sp = 1.0 - s
    log_pref = _lgamma_right(sp) - sp * math.log(2.0 * math.pi)
    f_plus, ep = _periodic(aa, sp, prec)
    f_minus, em_ = _periodic(1 - aa, sp, prec)
    c_plus = cmath.exp(log_pref - 0.5j * math.pi * sp)
    c_minus = cmath.exp(log_pref + 0.5j * math.pi * sp)
    val = c_plus * f_plus + c_minus * f_minus - shift_sum
    # relative to the term scale: near a zero the value is still accurate at scale * err
    term_scale = abs(c_plus * f_plus) + abs(c_minus * f_minus) + abs(shift_sum)
    err = abs(c_plus) * ep + abs(c_minus) * em_
    scale = max(abs(val), term_scale, 1e-300)
    rel = err / scale + 1e-15
    return val, (rel, rel * scale)


def _check_hurwitz_domain(name: str, s: complex, a: float) -> None:
    """The public domain of the Hurwitz kernel and the values reduced to it:
    0 < a <= 1e4, -10 <= Re s <= 10 and |Im s| <= 1e5."""
    if not (0.0 < a <= 1e4):
        raise DomainError(f"{name} supports 0 < a <= 1e4, got a={a}")
    if not (-10.0 <= s.real <= 10.0):
        raise DomainError(f"{name} supports -10 <= Re s <= 10, got {s.real}")
    if not abs(s.imag) <= 1e5:
        raise DomainError(f"{name} supports |Im s| <= 1e5, got {s.imag}")


def hurwitz_zeta_bounded(
    s: complex, a: float, prec: Precision = DEFAULT_PRECISION
) -> Tuple[complex, float]:
    """zeta_H(s, a) with its absolute err: `_hurwitz_combination`'s group (a, [(0, 1)])."""
    s = complex(s)
    _check_hurwitz_domain("hurwitz_zeta", s, a)
    return _hurwitz_combination("hurwitz_zeta", s, 1, [(a, [(0, 1.0)])], prec)


def hurwitz_zeta(s: complex, a: float, prec: Precision = DEFAULT_PRECISION) -> complex:
    """Hurwitz zeta zeta_H(s, a), continued to all s away from the pole s=1."""
    return hurwitz_zeta_bounded(s, a, prec)[0]


def riemann_zeta(s: complex, prec: Precision = DEFAULT_PRECISION) -> complex:
    """Riemann zeta: `hurwitz_zeta` at a = 1, domain and accuracy gate included."""
    return hurwitz_zeta(s, 1.0, prec)


def hurwitz_line(
    sigma: float,
    a: float,
    ts: np.ndarray,
    prec: Precision = DEFAULT_PRECISION,
    n_terms: int | None = None,
) -> np.ndarray:
    """zeta_H(sigma + i t, a) for an array of ordinates t.

    One shift count (from max |t|) serves a sigma > 0 batch, so the integrand
    of a quadrature run is a single smooth family; at sigma <= 0 each octave
    of |t| takes its own.  At sigma < -0.5, nodes where the kernel cancels
    take the reflection fallback one by one.
    """
    return hurwitz_line_batch([sigma], a, ts, prec, n_terms)[0]


def hurwitz_line_batch(
    sigmas: Sequence[float],
    a: float,
    ts: np.ndarray,
    prec: Precision = DEFAULT_PRECISION,
    n_terms: int | None = None,
) -> np.ndarray:
    """Rows zeta_H(sigma_i + i t, a) sharing their phase sums across sigma_i,
    by octave of |t| at sigma <= 0, with reflection node by node (`_hurwitz_rows`)."""
    vals, errs = _hurwitz_rows([(sig, a) for sig in sigmas], ts, prec, n_terms)
    _gate("hurwitz_line", errs[:, 0], prec)
    return vals


# ---------------------------------------------------------------------------
# Lerch zeta


_MAX_TWIST_DENOMINATOR = 1024
_LERCH_MAX_TERMS = 1 << 25  # explicit-sum cap of the direct series


def _rational_twist(lam: LambdaLike) -> Fraction | None:
    """lambda mod 1 as a Fraction, or None for a float that is not an integer.

    Ints and Fractions are exact; a float counts as rational only within
    1e-15 of an integer.  Denominators past _MAX_TWIST_DENOMINATOR raise
    ResourceBudgetError, since the q-fold reduction costs q Hurwitz values.
    """
    if isinstance(lam, (int, Fraction)) and not isinstance(lam, bool):
        fr = Fraction(lam) % 1
    elif abs(float(lam) - round(float(lam))) < 1e-15:
        fr = Fraction(0)
    else:
        return None
    if fr.denominator > _MAX_TWIST_DENOMINATOR:
        raise ResourceBudgetError(
            f"rational twist reduction limited to denominators <= "
            f"{_MAX_TWIST_DENOMINATOR}, got {fr.denominator}"
        )
    return fr


def _twist_groups(a: LambdaLike, fr: Fraction, first: int = 0) -> list:
    """The q groups ((j + a)/q, [(0, e(j p/q))]), j = first..first+q-1, of the q-fold
    q^(-s) sum_j e(j p/q) zeta_H(s, (j + a)/q) at p/q, for `_hurwitz_combination` with
    Q = q: zeta_L(s, a, p/q) at first = 0 and F(p/q, s) at a = 0, first = 1."""
    q, p = fr.denominator, fr.numerator
    return [((j + a) / q, [(0, cmath.exp(2j * math.pi * ((j * p) % q) / q))])
            for j in range(first, first + q)]


def lerch_zeta_bounded(
    s: complex,
    a: float,
    lam: LambdaLike,
    prec: Precision = DEFAULT_PRECISION,
) -> Tuple[complex, float]:
    """zeta_L(s, a, lambda) with its absolute err.

    Rational lambda, integers too: exact q-fold Hurwitz reduction (`_twist_groups`),
    gated like hurwitz_zeta, on its domain (0 < a <= 1e4, -10 <= Re s <= 10,
    |Im s| <= 1e5; DomainError outside).  Other lambda: direct series, needs Re s > 1; raises
    UnsupportedRegionError otherwise and AccuracyError when the Abel tail
    bound, its err, cannot reach the tolerance within ``_LERCH_MAX_TERMS``.
    """
    s = complex(s)
    if not a > 0:
        raise DomainError(f"lerch_zeta needs a > 0, got a={a}")
    fr = _rational_twist(lam)
    if fr is None:
        return _lerch_direct(s, a, float(lam), prec)
    _check_hurwitz_domain("lerch_zeta with rational lambda", s, a)
    return _hurwitz_combination("lerch_zeta", s, fr.denominator, _twist_groups(a, fr), prec)


def lerch_line(
    sigma: float,
    a: float,
    lam: LambdaLike,
    ts: np.ndarray,
    prec: Precision,
) -> np.ndarray:
    """zeta_L(sigma+it, a, lam) on a grid; rational lam only (q-fold batch)."""
    fr = _rational_twist(lam)
    if fr is None:
        raise UnsupportedRegionError(
            "line evaluation of the twisted series needs rational lam "
            "(pass a Fraction)"
        )
    ts = np.asarray(ts, dtype=float)
    total = np.zeros(ts.size, dtype=complex)
    for shifted, ((_, root),) in _twist_groups(a, fr):
        total += root * hurwitz_line(sigma, shifted, ts, prec)
    # q^(-s) = q^(-sigma) e^(-i t log q)
    q = fr.denominator
    return total * (q ** (-sigma) * np.exp((-1j * math.log(q)) * ts))


def lerch_zeta(
    s: complex,
    a: float,
    lam: LambdaLike,
    prec: Precision = DEFAULT_PRECISION,
) -> complex:
    """Lerch zeta zeta_L(s, a, lambda) = sum_m e^(2*pi*i*m*lambda)(m+a)^(-s)."""
    return lerch_zeta_bounded(s, a, lam, prec)[0]


def _lerch_direct(
    s: complex, a: float, lam: float, prec: Precision
) -> Tuple[complex, float]:
    """Direct series with accelerated oscillatory tail, Re s > 1 only.

    After the explicit sum over m < M the remainder T = sum_{m>=M} e(m lam) g(m),
    g(m) = (m+a)^(-s), is collapsed by L rounds of partial summation

        T_k = [e((M+k) lam) D^k g(M+k) + T_{k+1}] / (1 - u),   u = e(lam),

    where D is the backward difference.  The dropped T_L obeys the exact
    mean-value bound |D^L g(m)| <= |s|(|s|+1)...(|s|+L-1) (m-L+a)^(-sigma-L).
    """
    sigma, a = s.real, float(a)
    if sigma <= 1.0 + 1e-3:
        raise UnsupportedRegionError(
            "lerch_zeta: direct series for non-rational lambda needs Re s > 1"
        )
    frac = lam - math.floor(lam)
    u = cmath.exp(2j * math.pi * frac)
    gap = abs(1.0 - u)
    depth = 6
    rise = 1.0
    for j in range(depth):
        rise *= abs(s) + j
    scale = a ** (-sigma)

    def tail_bound(m_cut: float) -> float:
        body = (m_cut + a - depth) ** (1.0 - sigma - depth)
        body *= 1.0 / (sigma + depth - 1.0) + 1.0 / (m_cut + a - depth)
        return rise * body / gap ** depth

    m_need = 64.0 + depth
    target = prec.rel_tol * scale
    while tail_bound(m_need) > target and m_need < _LERCH_MAX_TERMS:
        m_need *= 2.0
    if tail_bound(m_need) > target:
        raise AccuracyError(
            f"lerch_zeta: accelerated tail bound {tail_bound(m_need):.3e} "
            f"above tolerance within the {_LERCH_MAX_TERMS}-term budget",
            achieved=tail_bound(m_need),
        )
    m_cut = int(m_need)
    total = 0.0 + 0.0j
    block, sub = 1 << 18, 1 << 12
    for lo in range(0, m_cut, block):
        # each block is one pairwise sum; its terms are formed sub-block by
        # sub-block, so only the terms array outlives its elementwise temporaries
        terms = np.empty(min(m_cut - lo, block), dtype=complex)
        for start in range(0, terms.size, sub):
            mm = np.arange(lo + start, lo + min(terms.size, start + sub), dtype=float)
            phase_arg = np.mod(mm * frac, 1.0)
            terms[start : start + sub] = np.exp(2j * np.pi * phase_arg) * np.exp((-s) * np.log(mm + a))
        total += complex(terms.sum())
    # acceleration rounds
    inv = 1.0 / (1.0 - u)
    tail = 0.0 + 0.0j
    coef = inv
    for k in range(depth):
        diff = 0.0 + 0.0j
        sign = 1.0
        for j in range(k + 1):
            diff += sign * math.comb(k, j) * cmath.exp(
                -s * math.log(m_cut + k - j + a)
            )
            sign = -sign
        phase = cmath.exp(2j * math.pi * (((m_cut + k) * frac) % 1.0))
        tail += coef * phase * diff
        coef *= inv
    total += tail
    return total, tail_bound(float(m_cut))


def periodic_zeta(
    x: LambdaLike, s: complex, prec: Precision = DEFAULT_PRECISION
) -> complex:
    """Periodic zeta F(x, s) = sum_{m>=1} e^(2*pi*i*m*x) m^(-s).

    Rational x uses the exact reduction q^(-s) sum_{j=1}^{q} e(j p/q) zeta_H(s, j/q)
    on hurwitz_zeta's domain in s (DomainError outside), gated like it; other x
    needs Re s > 1.
    """
    s = complex(s)
    if _rational_twist(x) is not None:
        _check_hurwitz_domain("periodic_zeta with rational x", s, 1.0)
    return _periodic(x, s, prec)[0]


def _periodic(x: LambdaLike, s: complex, prec: Precision) -> Tuple[complex, float]:
    """F(x, s) with its err: the q-fold `_twist_groups` at rational x, otherwise
    e(x) times the direct series at a = 1 (Re s > 1)."""
    fr = _rational_twist(x)
    if fr is not None:
        return _hurwitz_combination(
            "periodic_zeta", s, fr.denominator, _twist_groups(0.0, fr, first=1), prec
        )
    xf = float(x)
    val, err = _lerch_direct(s, 1.0, xf, prec)
    return cmath.exp(2j * math.pi * (xf - math.floor(xf))) * val, err


def functional_equation_residual(
    s: complex,
    a: LambdaLike,
    lam: LambdaLike = 1,
    prec: Precision = DEFAULT_PRECISION,
) -> float:
    """Scaled residual of the reflection formula relating 1-s to s.

    For lambda = 1 (Hurwitz case) the classical formula

        zeta_H(1-s, a) = Gamma(s) (2*pi)^(-s) *
            { e^(-pi*i*s/2) F(a, s) + e^(pi*i*s/2) F(-a, s) }

    with the periodic zeta F is checked, its right-hand side by `_hurwitz_reflected`;
    for rational lambda in (0, 1) the Lerch transformation formula

        zeta_L(1-s, a, lambda) = Gamma(s) (2*pi)^(-s) *
            { e^(pi*i*s/2 - 2*pi*i*a*lambda) zeta_L(s, lambda, 1-a)
            + e^(-pi*i*s/2 + 2*pi*i*a*(1-lambda)) zeta_L(s, 1-lambda, a) }

    is checked.  Returns |LHS - RHS| / max(|LHS|, |RHS|, 1e-6).  Requires
    0 < a < 1 and Re s > 1 so every series-side factor is evaluable.
    """
    s = complex(s)
    a_val = float(a)
    a_is_rat = isinstance(a, (int, Fraction)) and not isinstance(a, bool)
    if not (0.0 < a_val < 1.0):
        raise DomainError("functional_equation_residual needs 0 < a < 1")
    if s.real <= 1.0:
        raise DomainError("functional_equation_residual needs Re s > 1")
    if abs(s.imag) > 1e3:
        raise DomainError("functional_equation_residual supports |Im s| <= 1e3")
    lam_frac = _rational_twist(lam)
    if lam_frac is None:
        raise UnsupportedRegionError(
            "functional_equation_residual needs rational lambda "
            "(pass a Fraction); the 1-s side has no convergent series otherwise"
        )

    if lam_frac == 0:
        lhs = _hurwitz_combination("hurwitz_zeta", 1.0 - s, 1, [(a_val, [(0, 1.0)])], prec)[0]
        rhs = _hurwitz_reflected(1.0 - s, a if a_is_rat else a_val, prec)[0]
    else:
        log_pref = _lgamma_right(s) - s * math.log(2.0 * math.pi)
        lam_v = float(lam_frac)
        comp_a = 1 - Fraction(a) if a_is_rat else 1.0 - a_val
        lhs = lerch_zeta(1.0 - s, a_val, lam_frac, prec)
        term1 = cmath.exp(
            log_pref + 0.5j * math.pi * s - 2j * math.pi * a_val * lam_v
        ) * lerch_zeta(s, lam_v, comp_a, prec)
        term2 = cmath.exp(
            log_pref - 0.5j * math.pi * s + 2j * math.pi * a_val * (1.0 - lam_v)
        ) * lerch_zeta(s, 1.0 - lam_v, Fraction(a) if a_is_rat else a_val, prec)
        rhs = term1 + term2
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-6)


# ---------------------------------------------------------------------------
# Stirling log Gamma and generalized Euler constants

# B(2k) / (2k (2k-1)) for the Stirling series of log Gamma
_LGAM_COEF = tuple(
    float(bernoulli(2 * k) / (2 * k * (2 * k - 1))) for k in range(1, 16)
)


def _lgamma_right(z: complex) -> complex:
    """log Gamma on Re z > 0 (analytic branch), by shift + Stirling series."""
    shift = 0.0 + 0.0j
    while abs(z) < 24.0:
        shift -= cmath.log(z)
        z += 1.0
    zi = 1.0 / z
    zi2 = zi * zi
    ser = 0.0 + 0.0j
    for c in reversed(_LGAM_COEF):
        ser = ser * zi2 + c
    ser = ser * zi
    return (
        (z - 0.5) * cmath.log(z)
        - z
        + 0.5 * math.log(2.0 * math.pi)
        + ser
        + shift
    )


def gen_euler_constant(a: float) -> float:
    """Generalized Euler constant gamma(a) = lim_M (sum_{m<=M} 1/(m+a) - log(M+a)).

    Computed digamma-style: shift a upward by unit steps, then the asymptotic
    series log x - 1/(2x) - sum_k B(2k)/(2k) x^(-2k); gamma(1) is Euler's
    constant and gamma(1/2) = gamma + 2 log 2.
    """
    if not a > 0:
        raise DomainError("gen_euler_constant needs a > 0")
    acc = 0.0
    x = float(a)
    while x < 16.0:
        acc += 1.0 / x
        x += 1.0
    x2 = 1.0 / (x * x)
    ser = 0.0
    for k in range(8, 0, -1):
        ser = ser * x2 + float(bernoulli(2 * k)) / (2 * k)
    ser *= x2
    psi_x = math.log(x) - 0.5 / x - ser
    return acc - psi_x
