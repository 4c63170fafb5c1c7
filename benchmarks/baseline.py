"""Re-measure the reference table of ROADMAP item 1 (one process, one thread).

    python3 benchmarks/baseline.py

Each row is timed once, in this order, with perf_counter; Tier-1 pytest is
not run here.  Takes about a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from zetaline import verify  # noqa: E402
from zetaline.meanvalue import MeanSquareRequest, mean_square  # noqa: E402


def _mean_square(**kw):
    return lambda: mean_square(MeanSquareRequest(**kw))


def _default_bundle_without_weighted_envelope():
    # the default bundle's suites other than envelope_multi with w = (1, sqrt 2)
    verify.envelope_hurwitz(1.0, (-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0), 2000.0)
    verify.envelope_hurwitz(0.5, (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0), 2000.0)
    verify.envelope_multi(2, 1.0, "ones", (-1.0, 0.5, 1.25, 1.5, 1.75, 2.5, 3.0, 4.0), 2000.0)
    verify.envelope_multi(2, 1.0, "weights", (1.25, 1.5, 1.75), 2000.0, w=(1.0, 2.0))
    verify.mv_suite()
    verify.comparability(2, 1.0, (1.0, 2.0), 1.5)
    verify.oscillatory_suite()


ROWS = (
    ("mean_square hurwitz sigma=1/2 a=1 T=1000",
     _mean_square(kind="hurwitz", sigma=0.5, a=1.0, T=1000.0)),
    ("same at T=2000", _mean_square(kind="hurwitz", sigma=0.5, a=1.0, T=2000.0)),
    ("same at T=5000", _mean_square(kind="hurwitz", sigma=0.5, a=1.0, T=5000.0)),
    ("mean_square multi r=2 sigma=1.5 T=2000",
     _mean_square(kind="multi_hurwitz", sigma=1.5, a=1.0, T=2000.0, r=2)),
    ("mean_square lerch lambda=1/3 sigma=1/2 T=1000",
     _mean_square(kind="lerch", sigma=0.5, a=1.0, T=1000.0, lam=Fraction(1, 3))),
    ("envelope_multi w=(1,sqrt 2), 3 sigma, t <= 500",
     lambda: verify.envelope_multi(2, 1.0, "weights", (1.25, 1.5, 1.75), 500.0,
                                   w=(1.0, math.sqrt(2.0)))),
    ("other 7 suites of the default bundle, together", _default_bundle_without_weighted_envelope),
)


def main() -> int:
    print("| workload | s |\n| --- | --- |")
    for label, call in ROWS:
        t0 = time.perf_counter()
        call()
        print(f"| {label} | {time.perf_counter() - t0:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
