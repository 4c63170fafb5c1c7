"""Reference values computed with mpmath, apart from zetaline.

Every reference function returns ``(value, scale)``: the value as a Python
complex and the magnitude an error is measured against.  The scale is the
sum of the moduli of the Hurwitz terms the value is made of: ``|value|``
for a single Hurwitz value, and more for the combinations (rank reduction,
q-fold Lerch reduction, the closed form of the Barnes function with
weights (1, 2)), since such a sum can cancel to a value far below its
terms.

With ``floor_n = N`` each Hurwitz term zeta(s', b) counts at least
(N + b)^(-Re s'): that is the scale relative to which the library's line
kernel, run with N explicit terms, states its error.  It keeps a grid node
that happens to sit next to a zero of the function from failing on a
relative error that the mean square never sees.

``mpmath.lerchphi`` is not used: at lambda = 1/3, s = 1/2 + 300i, a = 1 it
returns a value of modulus 4.2e6 at 30 digits, for a value of modulus
0.963.  The q-fold sum of ``mpmath.zeta`` values below is exact for
rational lambda.
"""

from __future__ import annotations

import math

import mpmath

DPS = 30

# the library's acceptance factor 64 * rel_tol at its default rel_tol = 1e-12
TOLERANCE = 64.0 * 1e-12


def _combine(s: complex, parts, floor_n) -> tuple:
    """sum of coef * zeta(s - shift, b) over parts = [(coef, shift, b)]."""
    total = mpmath.mpc(0)
    scale = mpmath.mpf(0)
    for coef, shift, b in parts:
        sp = mpmath.mpc(s.real - shift, s.imag)
        z = mpmath.zeta(sp, b)
        total += coef * z
        mag = abs(z)
        if floor_n is not None:
            mag = max(mag, mpmath.power(floor_n + b, -sp.real))
        scale += abs(coef) * mag
    return complex(total), float(scale)


def hurwitz(s: complex, a: float, floor_n=None, dps: int = DPS) -> tuple:
    """zeta_H(s, a) = sum_{m >= 0} (m + a)^(-s)."""
    with mpmath.workdps(dps):
        return _combine(s, [(1, 0, mpmath.mpf(a))], floor_n)


def multi_coefficients(r: int, a: float) -> list:
    """Coefficients c_j with C(n+r-1, r-1) = sum_j c_j (n+a)^j, as mpf.

    C(n+r-1, r-1) = prod_{i=1}^{r-1} (x + i - a) / (r-1)!  with x = n + a,
    expanded in powers of x.
    """
    poly = [mpmath.mpf(1)]
    for i in range(1, r):
        root = mpmath.mpf(i) - mpmath.mpf(a)
        nxt = [mpmath.mpf(0)] * (len(poly) + 1)
        for j, c in enumerate(poly):
            nxt[j] += c * root
            nxt[j + 1] += c
        poly = nxt
    return [c / mpmath.factorial(r - 1) for c in poly]


def multi_hurwitz(s: complex, a: float, r: int, floor_n=None, dps: int = DPS) -> tuple:
    """zeta_r(s, a) = sum_{m in N^r} (a + m_1 + ... + m_r)^(-s)
    = sum_j c_j zeta_H(s - j, a); at r = 2, zeta(s-1, a) + (1-a) zeta(s, a)."""
    with mpmath.workdps(dps):
        b = mpmath.mpf(a)
        parts = [(c, j, b) for j, c in enumerate(multi_coefficients(r, a)) if c != 0]
        return _combine(s, parts, floor_n)


def lerch(s: complex, a: float, p: int, q: int, floor_n=None, dps: int = DPS) -> tuple:
    """sum_m e(m p/q) (m+a)^(-s) = q^(-s) sum_{j<q} e(j p/q) zeta_H(s, (j+a)/q)."""
    with mpmath.workdps(dps):
        pref = mpmath.power(q, -mpmath.mpc(s.real, s.imag))
        parts = [
            (pref * mpmath.expjpi(mpmath.mpf(2 * ((j * p) % q)) / q), 0,
             (j + mpmath.mpf(a)) / q)
            for j in range(q)
        ]
        return _combine(s, parts, floor_n)


def barnes_w12(s: complex, a: float, dps: int = DPS) -> tuple:
    """Barnes zeta with weights (1, 2): sum_{m1, m2 >= 0} (a + m1 + 2 m2)^(-s).

    n = m1 + 2 m2 has floor(n/2) + 1 representations.  Splitting n by
    parity and writing k + 1 = (k + b) + (1 - b) gives
    2^(-s) [zeta(s-1, b0) + (1-b0) zeta(s, b0) + zeta(s-1, b1) + (1-b1) zeta(s, b1)]
    with b0 = a/2, b1 = (a+1)/2.  At a = 1 this is
    2^(-s) [zeta(s-1, 1/2) + zeta(s, 1/2)/2 + zeta(s-1)].
    """
    with mpmath.workdps(dps):
        pref = mpmath.power(2, -mpmath.mpc(s.real, s.imag))
        parts = []
        for b in (mpmath.mpf(a) / 2, (mpmath.mpf(a) + 1) / 2):
            parts.append((pref, 1, b))
            if b != 1:
                parts.append((pref * (1 - b), 0, b))
        return _combine(s, parts, None)


def ingham_main_term(T: float) -> float:
    """Ingham: int_0^T |zeta(1/2+it)|^2 dt = T log(T/2pi) + (2 gamma - 1) T + E(T)."""
    return T * math.log(T / (2.0 * math.pi)) + (2.0 * float(mpmath.euler) - 1.0) * T


def ingham_allowance(T: float) -> float:
    """|E(T)| <= T^(1/2) log T, plus 3 for the piece of the integral over [0, 1]."""
    return math.sqrt(T) * math.log(T) + 3.0


def within(value: complex, ref: complex, scale: float) -> bool:
    """|value - ref| <= TOLERANCE * scale; false for a non-finite value."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return False
    return abs(value - ref) <= TOLERANCE * scale
