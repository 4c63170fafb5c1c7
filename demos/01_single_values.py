"""Single values of the four zeta families, with error estimates.

Every evaluator returns a value plus an error estimate; the bounded variants
expose both.  The estimate is absolute for every family alike (an estimate
of |value - true value| that still falls short at some points, not yet a
bound), so the printed errs compare directly.  Two structural identities make good smoke tests: the rank-1
multiple function is the plain Hurwitz function, and at a = 1 with unit
weights the rank-r function telescopes down to the Riemann zeta function
shifted by r - 1.
"""

from fractions import Fraction

from zetaline.barnes import barnes_direct, multi_hurwitz
from zetaline.zetacore import (
    hurwitz_zeta_bounded,
    lerch_zeta_bounded,
    riemann_zeta,
)

s = complex(2.0, 0.0)

val, err = hurwitz_zeta_bounded(s, 1.0)
print(f"hurwitz  zeta_H(2, 1)          = {val.real:.17g}  (err <= {err:.2e})")
print(f"          pi^2/6               = {3.141592653589793**2 / 6:.17g}")

val, err = lerch_zeta_bounded(complex(1.5, 2.0), 0.5, Fraction(1, 3))
print(f"lerch    zeta_L(1.5+2i, 1/2, 1/3) = {val:.17g}  (err <= {err:.2e})")

# rank-1 collapse: same algorithm, same bits
print(f"multi    zeta_1(2, 1)          = {multi_hurwitz(s, 1.0, 1).real:.17g}")

# ladder identity at a=1, w=(1,1): zeta_2(s, 1) = zeta(s-1)
s = complex(3.5, 4.0)
lhs = multi_hurwitz(s, 1.0, 2)
rhs = riemann_zeta(s - 1)
print(f"ladder   zeta_2(3.5+4i, 1)     = {lhs:.17g}")
print(f"         zeta(2.5+4i)          = {rhs:.17g}")
print(f"         |difference|          = {abs(lhs - rhs):.2e}")

# general weights need the direct lattice sum (sigma > r here)
val, err = barnes_direct(complex(2.5, 0.0), 1.0, (1.0, 1.0))
print(f"barnes   zeta_2(2.5, 1, (1,1)) = {val.real:.17g}  (err <= {err:.2e})")
print(f"         zeta(1.5)             = {riemann_zeta(complex(1.5, 0)).real:.17g}")
