"""Acceptance gate: one test per release criterion.

Each test prints a single summary line (visible with -v as its pass/fail
status) and enforces the stated tolerance.  Exact small-scale identities
are checked directly; asymptotic statements are checked as trends on desk
scale grids; determinism is checked byte-for-byte on the emitted files.
"""

import json
import math
import os
import time
from fractions import Fraction

import pytest

from zetaline.barnes import barnes_direct, barnes_truncated
from zetaline.cli import main as cli_main
from zetaline.meanvalue import (
    MeanSquareRequest,
    mean_square_grid,
    mixed_mean,
    predict_multi_mean_square,
    residual_report,
    simpson_nodes,
)
from zetaline.verify import (
    coefficient_identity_suite,
    functional_equation_suite,
    run_suites,
)
from zetaline.zetacore import functional_equation_residual, hurwitz_zeta

PI2_6 = 1.6449340668482264


def _line(num: int, ok: bool, detail: str) -> str:
    tag = "PASS" if ok else "FAIL"
    msg = f"criterion {num}: {tag} - {detail}"
    print(msg)
    return msg


# ---------------------------------------------------------------------------
# fixtures shared with the determinism criterion


@pytest.fixture(scope="session")
def critical_line_runs(tmp_path_factory):
    """The r=1 critical-line pipeline, run twice through the CLI."""
    paths = []
    for tag in ("one", "two"):
        d = tmp_path_factory.mktemp(f"crit_{tag}")
        out = str(d / "crit.csv")
        code = cli_main([
            "meansquare", "--kind", "hurwitz", "--sigma", "0.5", "--a", "1",
            "--T-grid", "250,500,1000,2000", "--predict", "thm11",
            "--out", out,
        ])
        assert code == 0
        paths.append(out)
    return paths


@pytest.fixture(scope="session")
def verification_bundle_runs(tmp_path_factory):
    """The full verification bundle, run twice with artifacts."""
    d1 = str(tmp_path_factory.mktemp("bundle_one"))
    d2 = str(tmp_path_factory.mktemp("bundle_two"))
    suites = ("envelopes", "mv", "comparability", "oscillatory")
    records = [rec for name in suites for rec in run_suites(name, out_dir=d1)]
    for name in suites:
        run_suites(name, out_dir=d2)
    return records, d1, d2


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_coefficient_identity():
    t0 = time.perf_counter()
    rec = coefficient_identity_suite(r_max=8, a_values=(0.3, 0.5, 1.0), n_max=30)
    wall = time.perf_counter() - t0
    ok = rec.passed and rec.observed_constant <= 1e-10 and wall < 1.0
    msg = _line(1, ok, f"max rel err {rec.observed_constant:.3e} in {wall:.2f}s")
    assert ok, msg


def test_criterion_02_continuation_oracle():
    t0 = time.perf_counter()
    anchors = [complex(2, 3), complex(2, -3), complex(3, 0),
               complex(4, 1), complex(4, -1)]
    worst = 0.0
    for a in (Fraction(1, 3), Fraction(1, 2)):
        for s in anchors:
            worst = max(worst, functional_equation_residual(s, a))
    suite = functional_equation_suite()
    worst = max(worst, suite.observed_constant)
    special_ok = (
        abs(hurwitz_zeta(complex(0, 0), 1.0 / 3.0).real - (0.5 - 1.0 / 3.0)) <= 1e-10
        and abs(hurwitz_zeta(complex(0, 0), 0.5).real - 0.0) <= 1e-10
        and abs(hurwitz_zeta(complex(2, 0), 1.0).real - PI2_6) <= 1e-10
    )
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and special_ok and wall < 5.0
    msg = _line(2, ok, f"max residual {worst:.3e}, special values ok={special_ok}, "
                       f"{wall:.2f}s")
    assert ok, msg


def test_criterion_03_barnes_overlap():
    t0 = time.perf_counter()
    x = 50.0
    worst_margin = 0.0
    for weights in ((1.0,), (2.0,), (math.sqrt(2.0),),
                    (1.0, 1.0), (1.0, 2.0), (1.0, math.sqrt(2.0))):
        r = len(weights)
        for sigma in (r + 0.3, r + 1.0):
            for t in (5.0, 20.0):
                s = complex(sigma, t)
                direct, _ = barnes_direct(s, 1.0, weights)
                approx, _ = barnes_truncated(s, 1.0, weights, x)
                bound = 10.0 * x ** (r - 1 - sigma)
                worst_margin = max(worst_margin, abs(approx - direct) / bound)
    wall = time.perf_counter() - t0
    ok = worst_margin <= 1.0 and wall < 30.0
    msg = _line(3, ok, f"worst |trunc-direct|/bound {worst_margin:.3e} in {wall:.1f}s")
    assert ok, msg


def test_criterion_04_critical_line_rank_one(critical_line_runs):
    blob = json.load(open(os.path.splitext(critical_line_runs[0])[0] + ".predict.json"))
    rep = blob["report"]
    ratios = rep["ratios"]
    ok = (
        blob["prediction"]["branch"] == "critical"
        and 0.85 <= ratios[-1] <= 1.15
        and rep["monotone_ok"]
        and rep["fitted_exponent"] <= 0.65
        and rep["passed"]
    )
    msg = _line(4, ok, f"ratio(2000)={ratios[-1]:.4f}, ratios={['%.4f' % r for r in ratios]}, "
                       f"fitted exponent {rep['fitted_exponent']:.3f}")
    assert ok, msg


def test_criterion_05_off_line_strips():
    details = []
    ok = True
    for sigma in (0.75, 0.25):
        req = MeanSquareRequest(kind="hurwitz", sigma=sigma, a=1.0, T=2000.0)
        measured = mean_square_grid(req, (250.0, 500.0, 1000.0, 2000.0))
        pred = predict_multi_mean_square(1, sigma, 1.0)
        rep = residual_report(measured, pred)
        ratio_top = measured[-1][1].value / pred.value_at(measured[-1][0])
        limit = (1.0 - sigma) + 0.15
        ok = ok and 0.85 <= ratio_top <= 1.15 and rep.fitted_exponent <= limit
        details.append(f"sigma={sigma}: ratio {ratio_top:.4f}, "
                       f"exponent {rep.fitted_exponent:.3f} <= {limit:.2f}")
    msg = _line(5, ok, "; ".join(details))
    assert ok, msg


def test_criterion_06_rank_two_branches():
    grid = (250.0, 500.0, 1000.0, 2000.0)
    cases = (
        (1.5, "critical", None),
        (1.75, "linear_dominant", 2 - 1.75 + 0.15),
        (1.25, "power_dominant", 2 * 2 - 2 * 1.25 - 1 + 0.15),
    )
    details = []
    ok = True
    for sigma, branch, exp_limit in cases:
        req = MeanSquareRequest(kind="multi_hurwitz", sigma=sigma, a=1.0, r=2, T=2000.0)
        measured = mean_square_grid(req, grid)
        pred = predict_multi_mean_square(2, sigma, 1.0)
        rep = residual_report(measured, pred)
        ratio_top = measured[-1][1].value / pred.value_at(measured[-1][0])
        case_ok = pred.branch == branch and 0.8 <= ratio_top <= 1.2
        if exp_limit is not None:
            case_ok = case_ok and rep.fitted_exponent <= exp_limit
        ok = ok and case_ok
        details.append(f"sigma={sigma} ({branch}): ratio {ratio_top:.4f}"
                       + ("" if exp_limit is None
                          else f", exponent {rep.fitted_exponent:.3f} <= {exp_limit:.2f}"))
    msg = _line(6, ok, "; ".join(details))
    assert ok, msg


def test_criterion_07_general_weight_order():
    grid = (100.0, 200.0, 400.0)
    details = []
    ok = True
    for sigma, norm in ((1.25, "power"), (1.5, "tlogt")):
        req = MeanSquareRequest(kind="barnes", sigma=sigma, a=1.0,
                                w=(1.0, 2.0), T=400.0)
        measured = mean_square_grid(req, grid)
        windows = []
        for T_eff, res in measured:
            if norm == "power":
                windows.append(res.value / T_eff ** (2 * 2 - 2 * sigma))
            else:
                windows.append(res.value / (T_eff * math.log(T_eff)))
        spread = max(windows) / min(windows)
        ok = ok and spread <= 4.0
        details.append(f"sigma={sigma}: window spread {spread:.3f} <= 4")
    msg = _line(7, ok, "; ".join(details))
    assert ok, msg


def test_criterion_08_mixed_means():
    sigma, T = 1.6, 500.0
    details = []
    ok = True
    _, _, T_eff = simpson_nodes(T, 1.0)
    for (k, l), tol in (((0, 0), 0.02), ((0, 1), 0.05)):
        value = mixed_mean(k, l, sigma, 1.0, T)
        target = hurwitz_zeta(complex(2 * sigma - k - l, 0), 1.0).real * (T_eff - 1.0)
        rel = abs(value.real - target) / abs(target)
        ok = ok and rel <= tol
        details.append(f"(k,l)=({k},{l}): rel dev {rel:.4f} <= {tol}")
    msg = _line(8, ok, "; ".join(details))
    assert ok, msg


def test_criterion_09_inequality_suites(verification_bundle_runs):
    records, _, _ = verification_bundle_runs
    by_suite = {}
    for rec in records:
        by_suite.setdefault(rec.suite, []).append(rec)
    mv_ok = all(r.passed for r in by_suite["mv_inequality"])
    env_ok = all(
        r.passed for r in by_suite["envelope_hurwitz"] + by_suite["envelope_multi"]
    )
    comp_ok = all(r.passed for r in by_suite["comparability"])
    osc = by_suite["oscillatory_integral"][0]
    ok = mv_ok and env_ok and comp_ok and osc.passed
    moduli = ", ".join(f"{k.split('=')[1]}: {v:.3f}" for k, v in osc.details
                       if k.startswith("abs_I_T="))
    msg = _line(9, ok, f"mv={mv_ok}, envelopes={env_ok}, comparability={comp_ok}, "
                       f"oscillatory={osc.passed} (|I(T)| at T = {moduli}; "
                       f"worst consecutive ratio {osc.observed_constant:.3f} vs "
                       f"non-increasing within {osc.threshold})")
    assert ok, msg


def test_criterion_10_determinism(critical_line_runs, verification_bundle_runs):
    out1, out2 = critical_line_runs
    same = open(out1, "rb").read() == open(out2, "rb").read()
    p1 = os.path.splitext(out1)[0] + ".predict.json"
    p2 = os.path.splitext(out2)[0] + ".predict.json"
    same = same and open(p1, "rb").read() == open(p2, "rb").read()
    m1 = json.load(open(out1 + ".manifest.json"))
    m2 = json.load(open(out2 + ".manifest.json"))
    for m in (m1, m2):
        m.pop("timing_wall_seconds")
        # these embed the run-specific tmp directory, not run content
        m.pop("outputs")
        m.pop("command_line")
    same = same and m1 == m2

    _, d1, d2 = verification_bundle_runs
    names1 = sorted(os.listdir(d1))
    same = same and names1 == sorted(os.listdir(d2))
    compared = 0
    for name in names1:
        b1 = open(os.path.join(d1, name), "rb").read()
        b2 = open(os.path.join(d2, name), "rb").read()
        same = same and b1 == b2
        compared += 1
    msg = _line(10, same, f"mean-square artifacts + {compared} verification files "
                          f"byte-identical across reruns")
    assert same, msg
