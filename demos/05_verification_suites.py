"""Run every verification sweep and show the verdict table.

Each suite records the worst constant it observed against a generous
threshold and writes CSV + JSON artifacts.  The damped oscillatory integral
I(T) tends to a nonzero constant, so its suite checks that |I(T)| stays
bounded; the artifact also keeps the products |I(T)| sqrt(T) log T, whose
growth shows that sqrt(T) log T is the scale of the distance to the limit,
not of I(T) itself.  Any failing suite prints its details below its line.
"""

import tempfile

from zetaline.verify import run_suites

with tempfile.TemporaryDirectory() as out:
    records = run_suites("all", out)

    width = max(len(r.suite) for r in records)
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status}  {rec.suite:<{width}}  observed {rec.observed_constant:12.6g}"
              f"  threshold {rec.threshold:g}")
        if not rec.passed:
            for key, val in rec.details:
                print(f"      {key} = {val:.4f}")
    print()
    print(f"artifacts written: {sum(len(r.artifacts) for r in records)} files")
