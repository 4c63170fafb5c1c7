"""Truncated Barnes sums: overlap with the direct series, and lattice profiles.

Inside the strip r - 1 < sigma <= r the direct lattice series diverges,
but the box sum to x plus boundary corrections approximates the function
with error on the scale x^(r-1-sigma).  Where both methods apply they must
agree, and the error should shrink as x grows.  The weights (1, 2) are
commensurate, so the "direct" value is the exact Hurwitz combination
2^(-s) sum_b [zeta_H(s-1, b) + (1-b) zeta_H(s, b)], b = a/2, (a+1)/2, that
`barnes_direct` takes for them; its err is absolute.
"""

import math

from zetaline.barnes import (
    barnes_direct,
    barnes_truncated,
    barnes_truncated_line,
    build_lattice_profile,
)

W = (1.0, 2.0)
S = complex(2.3, 5.0)

print(f"overlap at s = {S}, w = {W} (direct series still converges)")
direct, direct_err = barnes_direct(S, 1.0, W)
print(f"  direct    {direct:.15g}   err {direct_err:.1e} (Hurwitz combination)")
for x in (10.0, 40.0, 160.0):
    approx, err = barnes_truncated(S, 1.0, W, x)
    print(f"  x={x:5.0f}    {approx:.15g}   bound {err:.1e}   "
          f"actual {abs(approx - direct):.1e}")

print()
print("inside the strip (sigma = 1.5): only the truncated formula applies")
ts = [5.0, 10.0, 20.0, 40.0]
import numpy as np
line, err = barnes_truncated_line(1.5, 1.0, W, np.array(ts))
for t, v in zip(ts, line):
    print(f"  t={t:5.1f}  zeta_2(1.5+it, 1, (1,2)) = {v:.12g}")

print()
print("incommensurate weights produce many more distinct lattice values")
for w in ((1.0, 2.0), (1.0, math.sqrt(2.0))):
    profile = build_lattice_profile(1.0, w, 200.0)
    print(f"  w={w}: {profile.values.size} atoms for x=200")

