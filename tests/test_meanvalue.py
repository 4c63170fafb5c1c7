"""Mean-square quadrature, prediction models and residual reports."""

import json
import math

import numpy as np
import pytest

import zetaline.meanvalue
from zetaline.errors import DomainError, UnsupportedRegionError
from zetaline.meanvalue import (
    MeanSquareRequest,
    MeanSquareResult,
    Prediction,
    _prefix_integrals,
    _simpson_grid,
    grid_step,
    mean_square,
    mean_square_grid,
    measurement_row,
    mixed_mean,
    predict_lerch_mean_square,
    predict_multi_mean_square,
    render_manifest,
    residual_report,
    simpson_nodes,
    write_measurements_csv,
)
from zetaline.zetacore import DEFAULT_PRECISION, hurwitz_line, hurwitz_zeta, lerch_line, lerch_zeta

from fractions import Fraction

EULER = 0.5772156649015329
ZETA15 = 2.612375348685488
ZETA05 = -1.4603545088095868


def test_step_rule_snaps_to_dyadic():
    h = grid_step(2000.0, 1.0)
    assert h == math.floor(0.05 * 2 ** 20) / 2 ** 20
    assert float(h * 2 ** 20).is_integer()
    # large T: the oscillation-aware cap takes over
    h5 = grid_step(5000.0, 1.0)
    target = math.pi / (8.0 * math.log(5003.0))
    assert target - 2 ** -20 < h5 <= target
    assert float(h5 * 2 ** 20).is_integer()


def test_constant_integrand_is_exact_length(monkeypatch):
    req = MeanSquareRequest(kind="hurwitz", sigma=3.0, a=1.0, T=101.0)
    monkeypatch.setattr(zetaline.meanvalue, "_line_values", lambda req, ts, prec: np.ones_like(ts))
    res = mean_square(req)
    # length of the snapped interval, bit-for-bit
    assert res.value == res.T_effective - 1.0
    assert res.richardson_err == 0.0
    assert not res.accuracy_warning


def test_absolute_regime_diagonal_constant():
    # far right of the strip the mean square is the diagonal sum zeta(6)
    req = MeanSquareRequest(kind="hurwitz", sigma=3.0, a=1.0, T=200.0)
    res = mean_square(req)
    target = (math.pi ** 6 / 945.0) * (res.T_effective - 1.0)
    assert 0.98 <= res.value / target <= 1.02
    assert not res.accuracy_warning


def test_monotone_in_T():
    req = MeanSquareRequest(kind="hurwitz", sigma=1.5, a=0.7, T=200.0)
    out = mean_square_grid(req, [50.0, 100.0, 200.0])
    vals = [res.value for _, res in out]
    assert vals == sorted(vals)
    assert all(v >= 0 for v in vals)


def test_halving_step_within_richardson_budget():
    # |zeta(1/2 + it)|^2 over [1, 100] by Simpson on t = 1 + k h, h = 0.05 and h / 2
    runs = []
    for h in (0.05, 0.025):
        k = int(round(99.0 / h))
        ts = 1.0 + h * np.arange(k + 1, dtype=float)
        runs.append(_prefix_integrals(np.abs(hurwitz_line(0.5, 1.0, ts)) ** 2, h, [k])[0])
    (T_coarse, coarse, coarse_err), (T_fine, fine, _) = runs
    assert T_coarse == T_fine == 100.0
    assert abs(coarse - fine) <= 4.0 * coarse_err + 1e-12


def test_grid_matches_single_runs():
    req = MeanSquareRequest(kind="hurwitz", sigma=0.75, a=0.6, T=150.0)
    grid = mean_square_grid(req, [50.0, 150.0])
    for T, res in grid:
        single = mean_square(
            MeanSquareRequest(kind="hurwitz", sigma=0.75, a=0.6, T=T)
        )
        # shared-grid runs pin the series length from the largest T, so the
        # agreement is near machine level but not bitwise
        assert res.value == pytest.approx(single.value, rel=1e-8)
    again = mean_square_grid(req, [50.0, 150.0])
    assert [r.value for _, r in again] == [r.value for _, r in grid]


def test_critical_line_full_pipeline_passes():
    req = MeanSquareRequest(kind="hurwitz", sigma=0.5, a=1.0, T=2000.0)
    out = mean_square_grid(req, [250.0, 500.0, 1000.0, 2000.0])
    pred = predict_multi_mean_square(1, 0.5, 1.0)
    T_top, res_top = out[-1]
    assert res_top.value == pytest.approx(pred.value_at(T_top), rel=0.10)
    report = residual_report(out, pred)
    assert report.monotone_ok
    assert report.exponent_ok
    assert report.passed


def test_prediction_r1_critical_terms():
    pred = predict_multi_mean_square(1, 0.5, 1.0)
    assert pred.branch == "critical"
    assert pred.error_exponent == 0.5 and pred.error_log == 1
    (c1, p1, q1), (c2, p2, q2) = pred.terms
    assert (c1, p1, q1) == (1.0, 1.0, 1)
    assert (p2, q2) == (1.0, 0)
    assert c2 == pytest.approx(2.0 * EULER - 1.0 - math.log(2.0 * math.pi), rel=1e-12)


def test_prediction_r2_upper_branch_single_linear_term():
    # at a=1 the weight polynomial kills every product except the top shift
    pred = predict_multi_mean_square(2, 1.75, 1.0)
    assert pred.branch == "linear_dominant"
    (c1, p1, q1), (c2, p2, q2) = pred.terms
    assert (p1, q1) == (1.0, 0)
    assert c1 == pytest.approx(ZETA15, rel=1e-12)
    assert (p2, q2) == (0.5, 0)
    assert c2 == pytest.approx(math.sqrt(2.0 * math.pi) * ZETA05 / 0.5, rel=1e-12)
    assert pred.error_exponent == pytest.approx(0.25)


def test_prediction_r2_lower_branch_order():
    pred = predict_multi_mean_square(2, 1.25, 1.0)
    assert pred.branch == "power_dominant"
    (c1, p1, _), (c2, p2, _) = pred.terms
    assert p1 == pytest.approx(1.5) and p2 == 1.0
    assert c1 == pytest.approx(ZETA15 / (math.sqrt(2.0 * math.pi) * 1.5), rel=1e-12)
    assert c2 == pytest.approx(ZETA05, rel=1e-12)
    assert pred.error_exponent == pytest.approx(0.75)


def test_prediction_lerch_branches():
    up = predict_lerch_mean_square(0.75, 1.0, 1)
    assert [t[1:] for t in up.terms] == [(1.0, 0), (0.5, 0)]
    assert up.terms[0][0] == pytest.approx(ZETA15, rel=1e-12)
    assert up.terms[1][0] == pytest.approx(math.sqrt(2.0 * math.pi) * ZETA05 / 0.5, rel=1e-12)
    assert up.error_exponent == pytest.approx(0.25)

    lo = predict_lerch_mean_square(0.25, 0.5, 1)
    assert lo.branch == "power_dominant"
    (c1, p1, _), (c2, p2, _) = lo.terms
    assert p1 == pytest.approx(1.5) and p2 == 1.0
    assert c1 == pytest.approx(ZETA15 / (math.sqrt(2.0 * math.pi) * 1.5), rel=1e-12)
    # zeta_H(1/2, 1/2) = (sqrt 2 - 1) zeta(1/2)
    assert c2 == pytest.approx((math.sqrt(2.0) - 1.0) * ZETA05, rel=1e-12)


def test_prediction_consistency_rank_one():
    for sigma in (0.6, 0.75, 0.9):
        pm = predict_multi_mean_square(1, sigma, 0.8)
        pl = predict_lerch_mean_square(sigma, 0.8, 1)
        assert pm.error_exponent == pl.error_exponent
        for (ca, pa, qa), (cb, pb, qb) in zip(pm.terms, pl.terms):
            assert ca == pytest.approx(cb, rel=1e-13)
            assert (pa, qa) == (pb, qb)
    crit_m = predict_multi_mean_square(1, 0.5, 0.8)
    crit_l = predict_lerch_mean_square(0.5, 0.8, 1)
    for (ca, pa, qa), (cb, pb, qb) in zip(crit_m.terms, crit_l.terms):
        assert ca == pytest.approx(cb, rel=1e-13)
        assert (pa, qa) == (pb, qb)


def test_prediction_domain_guards():
    with pytest.raises(DomainError):
        predict_multi_mean_square(2, 1.0, 1.0)
    with pytest.raises(DomainError):
        predict_multi_mean_square(2, 2.0, 1.0)
    with pytest.raises(DomainError):
        predict_multi_mean_square(0, 0.5, 1.0)
    with pytest.raises(DomainError):
        predict_lerch_mean_square(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        predict_lerch_mean_square(1.0, 1.0, 1)
    with pytest.raises(DomainError):
        predict_lerch_mean_square(0.75, 1.0, 0.0)


def test_residual_report_exact_prediction():
    pred = Prediction(terms=((2.0, 1.0, 0),), error_exponent=0.5, error_log=0, branch="linear_dominant")
    measured = []
    for T in (100.0, 200.0, 400.0, 800.0):
        measured.append(
            (T, MeanSquareResult(value=pred.value_at(T), step=0.05, richardson_err=0.0,
                                 samples=1, T_effective=T))
        )
    report = residual_report(measured, pred)
    assert all(r == 1.0 for r in report.ratios)
    assert report.passed
    assert report.fitted_exponent is None


def test_residual_report_recovers_synthetic_exponent():
    pred = Prediction(terms=((2.0, 1.0, 0),), error_exponent=0.5, error_log=0, branch="linear_dominant")
    measured = [
        (T, MeanSquareResult(value=pred.value_at(T) + 3.0 * T ** 0.4, step=0.05,
                             richardson_err=0.0, samples=1, T_effective=T))
        for T in (100.0, 200.0, 400.0, 800.0)
    ]
    report = residual_report(measured, pred)
    assert report.fitted_exponent == pytest.approx(0.4, abs=1e-9)
    assert report.fitted_constant == pytest.approx(3.0, rel=1e-9)
    assert report.passed

    tight = Prediction(terms=((2.0, 1.0, 0),), error_exponent=0.2, error_log=0, branch="linear_dominant")
    report2 = residual_report(measured, tight)
    assert not report2.exponent_ok
    assert not report2.passed


def test_residual_report_needs_enough_samples():
    pred = Prediction(terms=((1.0, 1.0, 0),), error_exponent=0.5, error_log=0, branch="linear_dominant")
    rows = [
        (T, MeanSquareResult(value=T, step=0.05, richardson_err=0.0, samples=1, T_effective=T))
        for T in (100.0, 200.0, 400.0)
    ]
    with pytest.raises(DomainError):
        residual_report(rows, pred)
    rows.append(rows[-1])
    with pytest.raises(DomainError):
        residual_report(rows, pred)


def test_mixed_mean_diagonal_equals_mean_square():
    val = mixed_mean(0, 0, 1.6, 1.0, 60.0)
    ref = mean_square(MeanSquareRequest(kind="hurwitz", sigma=1.6, a=1.0, T=60.0))
    assert val.imag == 0.0
    assert val.real == ref.value


def test_mixed_mean_off_diagonal_linear_term():
    val = mixed_mean(0, 1, 1.6, 1.0, 500.0)
    _, h, t_eff = simpson_nodes(500.0, 1.0)
    target = hurwitz_zeta(complex(2.2, 0.0), 1.0).real * t_eff
    assert val.real == pytest.approx(target, rel=0.05)
    assert abs(val.imag) < 0.05 * abs(val.real)


def test_mixed_mean_domain_guards():
    with pytest.raises(DomainError):
        mixed_mean(1, 1, 1.6, 1.0, 100.0)  # excluded top diagonal
    with pytest.raises(DomainError):
        mixed_mean(0, 0, 2.0, 1.0, 100.0)  # integer sigma
    with pytest.raises(DomainError):
        mixed_mean(0, 2, 1.6, 1.0, 100.0)  # shift beyond rank
    with pytest.raises(DomainError):
        mixed_mean(0, 0, 1.6, 1.5, 100.0)  # a outside (0, 1]


def test_every_T_is_checked_and_nan_is_a_domain_error():
    nan = float("nan")
    with pytest.raises(DomainError):
        simpson_nodes(nan, 1.0)
    with pytest.raises(DomainError):
        mixed_mean(0, 1, 1.6, 1.0, nan)
    req = MeanSquareRequest(kind="hurwitz", sigma=0.5, a=1.0, T=200.0)
    for T_values in ([-50.0, 1.0, 100.0, 200.0], [100.0, nan, 200.0], [nan, 200.0]):
        with pytest.raises(DomainError):
            mean_square_grid(req, T_values)
    for T in (1.0, nan):
        with pytest.raises(DomainError):
            _simpson_grid([3.0, T], 1.0)
    # every T snaps below the last node, which is the largest T's
    ts, h, ks = _simpson_grid([2.0, 50.0], 1.0)
    assert ks == [20, ts.size - 1]
    ref_ts, ref_h, ref_T = simpson_nodes(50.0, 1.0)
    assert np.array_equal(ts, ref_ts) and h == ref_h and 1.0 + h * ks[-1] == ref_T


def test_a_bad_lower_T_is_rejected_before_the_line_is_evaluated(monkeypatch):
    def no_line(*args):
        raise AssertionError("the line was evaluated before every T was checked")

    monkeypatch.setattr(zetaline.meanvalue, "_line_values", no_line)
    for req in (
        MeanSquareRequest(kind="hurwitz", sigma=0.5, a=1.0, T=500.0),
        MeanSquareRequest(kind="barnes", sigma=1.5, a=1.0, T=500.0, w=(1.0, math.sqrt(2.0))),
    ):
        with pytest.raises(DomainError):
            mean_square_grid(req, [1.0, 500.0])


def test_lerch_line_matches_scalar():
    ts = np.linspace(1.0, 12.0, 23)
    # the line shares the values' denominator cap of 1024, so q = 65 runs too
    for lam in (Fraction(1, 3), Fraction(2, 65)):
        row = lerch_line(0.75, 0.7, lam, ts, DEFAULT_PRECISION)
        for idx in (0, 7, 22):
            ref = lerch_zeta(complex(0.75, ts[idx]), 0.7, lam)
            assert row[idx] == pytest.approx(ref, rel=1e-10)
    # at q = 1 the fold is the Hurwitz line
    for lam in (0, 1):
        assert np.all(lerch_line(0.75, 0.7, lam, ts, DEFAULT_PRECISION) == hurwitz_line(0.75, 0.7, ts))


def test_lerch_kind_irrational_rejected():
    req = MeanSquareRequest(kind="lerch", sigma=0.75, a=1.0, T=50.0, lam=0.30001)
    with pytest.raises(UnsupportedRegionError):
        mean_square(req)


def test_barnes_kind_runs_and_grows():
    req = MeanSquareRequest(kind="barnes", sigma=1.5, a=1.0, T=100.0, w=(1.0, 2.0))
    out = mean_square_grid(req, [50.0, 100.0])
    assert out[0][1].value < out[1][1].value
    assert out[0][1].value > 0


def test_request_validation():
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="zeta", sigma=0.5, a=1.0, T=100.0)
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="hurwitz", sigma=0.5, a=-1.0, T=100.0)
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="hurwitz", sigma=0.5, a=1.0, T=5001.0)
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="barnes", sigma=1.5, a=1.0, T=600.0, w=(1.0, 2.0))
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="lerch", sigma=0.5, a=1.0, T=100.0)
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="multi_hurwitz", sigma=1.5, a=1.0, T=100.0)
    # a parameter of another kind would be ignored yet written to the CSV
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="hurwitz", sigma=0.5, a=1.0, T=50.0,
                          lam=Fraction(1, 3), w=(1.0, 2.0))
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="lerch", sigma=0.5, a=1.0, T=50.0, lam=Fraction(1, 3), r=2)
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="barnes", sigma=1.5, a=1.0, T=50.0, w=(1.0, 2.0), lam=1)
    with pytest.raises(DomainError):
        MeanSquareRequest(kind="multi_hurwitz", sigma=1.5, a=1.0, T=50.0, r=2, w=(1.0,))


def test_measurement_csv_and_manifest(tmp_path):
    req = MeanSquareRequest(kind="hurwitz", sigma=0.5, a=1.0, T=64.0)
    res = mean_square(req)
    row = measurement_row(req, res)
    path = tmp_path / "rows.csv"
    write_measurements_csv(path, [row])
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "T,sigma,a,kind,params,value,step,richardson_err"
    cells = lines[1].split(",")
    assert float(cells[0]) == res.T_effective
    assert float(cells[5]) == res.value
    assert cells[3] == "hurwitz"

    txt1 = render_manifest({"sigma": 0.5, "T": [64.0]})
    txt2 = render_manifest({"sigma": 0.5, "T": [64.0]})
    assert txt1 == txt2
    payload = json.loads(txt1)
    assert payload["library_version"]
    assert "deterministic" in payload["determinism"] or "byte-identical" in payload["determinism"]
