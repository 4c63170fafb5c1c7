"""Exact combinatorial tables: Bernoulli numbers, lattice counts (the
denumerant), and the coefficients that reduce unit-weight multiple zeta sums
to single Hurwitz zeta values.

Conventions:

* ``bernoulli(n)`` follows the ``B(1) = -1/2`` convention; odd indices above
  one give zero.
* ``_denumerant(n)`` gives the count d(k) of the m >= 0 with n.m = k as one
  exact polynomial per residue of k mod lcm(n); ``_shift`` rewrites such a
  polynomial in powers of u + b, exactly.
* ``reduction_coefficients(r, a)`` returns the polynomial values
  ``p[0](a), ..., p[r-1](a)`` such that for every integer ``n >= 0``

      sum_j p[j](a) * (n + a)**j  ==  binomial(n + r - 1, r - 1),

  i.e. the multiplicity of the value ``n + a`` in the r-fold sum
  ``a + m_1 + ... + m_r`` over nonnegative integers: the denumerant of
  n = (1, ..., 1), whose period is L = 1, shifted by a.  The table is exact
  (``fractions.Fraction``) whenever ``a`` is an int or a Fraction, and each
  exact coefficient rounded once otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError

__all__ = [
    "bernoulli",
    "CoefficientTable",
    "reduction_coefficients",
    "MAX_RANK",
]

MAX_RANK = 16  # the highest rank of every rank-r table, sum and check


_bernoulli_cache: List[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B(n) as an exact Fraction, with B(1) = -1/2."""
    if n < 0:
        raise DomainError("bernoulli: n must be >= 0")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        # sum_{j=0}^{m} C(m+1, j) B(j) = 0  for m >= 1
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def _box_convolve(d: np.ndarray, n: int, k: int) -> np.ndarray:
    """d convolved with the indicator of {0, n, ..., (k-1) n}, exact in d's integer dtype.

    A running sum of width k along each residue class mod n: O(len) instead
    of np.convolve's O(len * k).
    """
    if k == 1:
        return d  # a one-point box; padding to a multiple of n could be huge
    size = d.size + n * (k - 1)
    e = np.zeros(-(-size // n) * n, dtype=d.dtype)
    e[: d.size] = d
    c = np.cumsum(e.reshape(-1, n), axis=0)
    c[k:] -= c[:-k]
    return c.ravel()[:size]


def _fit(ys: Sequence[int]) -> list:
    """Exact coefficients, in powers of u, of the polynomial through (u, ys[u])
    for u = 0..len(ys)-1: Newton's forward differences times binomial(u, k)."""
    coefs = [Fraction(0)] * len(ys)
    basis = [Fraction(1)]  # binomial(u, k) in powers of u
    diffs = list(ys)
    for k in range(len(ys)):
        for i, c in enumerate(basis):
            coefs[i] += diffs[0] * c
        diffs = [y1 - y0 for y0, y1 in zip(diffs, diffs[1:])]
        basis = [(lo - k * hi) / (k + 1) for lo, hi in zip([0] + basis, basis + [0])]
    return coefs


def _shift(coefs: Sequence[Fraction], b) -> list:
    """The same polynomial in powers of x = u + b, exact: Fractions for an int
    or Fraction b, and each exact coefficient rounded once for a float b.

    With b = p/q and coefs[k] = C_k/D over integers, Horner's rule runs in
    integers on y = q x: sum_k C_k q^(deg-k) (y - p)^k = sum_j E_j y^j, so the
    coefficient of x^j is E_j / (D q^(deg-j)), for a float one int / int true
    division, which rounds correctly.
    """
    p, q = b.as_integer_ratio()
    ratios = [c.as_integer_ratio() for c in coefs]
    D = math.lcm(*(den for _, den in ratios))
    acc: list = []
    for i, (num, den) in enumerate(reversed(ratios)):  # C_(deg-i) q^i
        acc = [lo - p * hi for lo, hi in zip([0] + acc, acc + [0])]
        acc[0] += num * (D // den) * q ** i
    div = Fraction if isinstance(b, (int, Fraction)) else int.__truediv__
    deg = len(coefs) - 1
    return [div(e, D * q ** (deg - j)) for j, e in enumerate(acc)]


_denumerant_cache: Dict[Tuple[int, ...], list] = {}


def _denumerant(n: Tuple[int, ...]) -> list:
    """d(L u + rho) as exact polynomials in u, one per residue rho mod L = lcm(n).

    d(k) counts the m >= 0 with n.m = k.  It is a quasi-polynomial of degree
    r - 1 and period L for every k >= 0 (Beck & Robins, Computing the
    Continuous Discretely, ch. 1), so the r counts d(L u + rho), u < r, that
    `_box_convolve` gives fix each residue's polynomial.  Built on first use
    and cached per n; the counts are Python ints, so none overflows.
    """
    if n not in _denumerant_cache:
        L = math.lcm(*n)
        size = L * len(n)
        d = np.zeros(size, dtype=object)
        d[0] = 1
        for nj in n:
            d = _box_convolve(d, nj, (size - 1) // nj + 1)[:size]
        _denumerant_cache[n] = [_fit(list(d[rho::L])) for rho in range(L)]
    return _denumerant_cache[n]


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients p[0..r-1] reducing an r-fold unit-weight sum to single
    Hurwitz zeta values: zeta_r(s, a) = sum_j p[j] * zeta_H(s - j, a)."""

    r: int
    a: object  # Fraction for exact tables, float otherwise
    coeffs: tuple

    def identity_residual(self, n: int):
        """binomial(n+r-1, r-1) minus the polynomial side, exact when the
        table is exact; zero certifies the defining identity at n."""
        lhs = math.comb(n + self.r - 1, self.r - 1)
        x = n + self.a
        poly = 0
        for j in reversed(range(self.r)):
            poly = poly * x + self.coeffs[j]
        return lhs - poly


def reduction_coefficients(r: int, a) -> CoefficientTable:
    """Table of p[j](a), j = 0..r-1, for the r-fold unit-weight reduction.

    The coefficients of C(x - a + r - 1, r - 1) in powers of x: the L = 1
    denumerant of n = (1, ..., 1), C(u + r - 1, r - 1), shifted by a
    (`_shift`).  Exact Fractions for an int or Fraction a; for any other a,
    float(a) is taken and each exact coefficient is rounded once.
    """
    if not 1 <= r <= MAX_RANK:
        raise DomainError(f"reduction_coefficients: need 1 <= r <= {MAX_RANK}, got {r}")
    exact = isinstance(a, (int, Fraction)) and not isinstance(a, bool)
    aa = Fraction(a) if exact else float(a)
    if not (exact or math.isfinite(aa)):
        raise DomainError(f"reduction_coefficients: need a finite a, got {a}")
    coeffs = _shift(_denumerant((1,) * r)[0], aa)
    return CoefficientTable(r=r, a=aa, coeffs=tuple(coeffs))
