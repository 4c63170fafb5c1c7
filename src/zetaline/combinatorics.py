"""Exact combinatorial tables: Stirling numbers, Bernoulli numbers, and the
coefficients that reduce unit-weight multiple zeta sums to single Hurwitz
zeta values.

Conventions:

* ``stirling_first(n, k)`` is the *signed* Stirling number of the first kind,
  ``s(0, 0) = 1`` and ``s(n+1, k) = s(n, k-1) - n*s(n, k)``.  Row ``n = 4``
  is ``[0, -6, 11, -6, 1]``.
* ``bernoulli(n)`` follows the ``B(1) = -1/2`` convention; odd indices above
  one give zero.
* ``reduction_coefficients(r, a)`` returns the polynomial values
  ``p[0](a), ..., p[r-1](a)`` such that for every integer ``n >= 0``

      sum_j p[j](a) * (n + a)**j  ==  binomial(n + r - 1, r - 1),

  i.e. the multiplicity of the value ``n + a`` in the r-fold sum
  ``a + m_1 + ... + m_r`` over nonnegative integers.  Arithmetic is exact
  (``fractions.Fraction``) whenever ``a`` is an int or a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Union

from .errors import DomainError

__all__ = [
    "stirling_first",
    "stirling_row",
    "bernoulli",
    "CoefficientTable",
    "reduction_coefficients",
    "MAX_RANK",
]

Rational = Union[int, Fraction]

MAX_RANK = 16  # the highest rank of every rank-r table, sum and check

_stirling_rows: List[List[int]] = [[1]]  # row n holds s(n, 0..n)


def stirling_row(n: int) -> Sequence[int]:
    """Signed Stirling numbers of the first kind s(n, 0..n) as exact ints."""
    if n < 0:
        raise DomainError("stirling_row: n must be >= 0")
    while len(_stirling_rows) <= n:
        prev = _stirling_rows[-1]
        m = len(_stirling_rows) - 1  # we are building row m+1
        row = [0] * (m + 2)
        for k in range(m + 2):
            left = prev[k - 1] if 1 <= k <= m + 1 else 0
            right = prev[k] if k <= m else 0
            row[k] = left - m * right
        _stirling_rows.append(row)
    return tuple(_stirling_rows[n])


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"stirling_first: need 0 <= k <= n, got n={n} k={k}")
    return stirling_row(n)[k]


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

    p[j](a) = (1/(r-1)!) * sum_{l=j}^{r-1} (-1)^(r+1-j) C(l, j) s(r, l+1) a^(l-j)
    with s the signed Stirling number of the first kind.  The sign factor is
    independent of l because the sign of s(r, l+1) itself supplies the
    alternation; the defining identity (see class docstring) pins the
    convention and is enforced by the test suite for r up to 8.
    """
    if not 1 <= r <= MAX_RANK:
        raise DomainError(f"reduction_coefficients: need 1 <= r <= {MAX_RANK}, got {r}")
    exact = isinstance(a, (int, Fraction)) and not isinstance(a, bool)
    aa = Fraction(a) if exact else float(a)
    row = stirling_row(r)
    fact = math.factorial(r - 1)
    coeffs = []
    for j in range(r):
        sign = -1 if (r + 1 - j) % 2 else 1
        acc = Fraction(0) if exact else 0.0
        for l in range(j, r):
            term = math.comb(l, j) * row[l + 1] * aa ** (l - j)
            acc += term
        acc = sign * acc
        coeffs.append(acc / fact if exact else acc / float(fact))
    return CoefficientTable(r=r, a=aa, coeffs=tuple(coeffs))
