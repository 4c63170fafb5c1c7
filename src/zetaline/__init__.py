"""zetaline: Hurwitz, Lerch and Barnes multiple zeta functions on vertical
lines, with mean-square statistics and verification suites.

The package is organised bottom-up:

* :mod:`zetaline.combinatorics` - exact Bernoulli tables, lattice counts and
  the coefficients reducing unit-weight multiple sums to Hurwitz zeta values.
* :mod:`zetaline.zetacore` - Hurwitz and Lerch zeta evaluation on vertical
  lines (Euler-Maclaurin continuation), functional-equation residuals,
  generalized Euler constants.
* :mod:`zetaline.barnes` - multiple zeta functions: exact unit-weight
  reduction, convergent-region direct evaluation, truncated-lattice strip
  evaluation with reusable lattice profiles.
* :mod:`zetaline.meanvalue` - mean-square and mixed-moment integrals on
  vertical segments, asymptotic predictions, residual reports.
* :mod:`zetaline.verify` - growth-envelope, bilinear-inequality,
  comparability and oscillatory-integral check suites.
* :mod:`zetaline.cli` - ``zetaline`` command line front end.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    DomainError,
    PoleError,
    ResourceBudgetError,
    TruncationValidityError,
    UnsupportedRegionError,
    ZetalineError,
)
from .combinatorics import (
    CoefficientTable,
    bernoulli,
    reduction_coefficients,
)

__all__ = [
    "__version__",
    "ZetalineError",
    "DomainError",
    "PoleError",
    "UnsupportedRegionError",
    "TruncationValidityError",
    "AccuracyError",
    "ResourceBudgetError",
    "CoefficientTable",
    "bernoulli",
    "reduction_coefficients",
]
