"""Verification sweeps: envelopes, bilinear inequality, comparability,
oscillatory boundedness, and the artifact format they share."""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

import zetaline.verify
from zetaline.barnes import barnes_truncated_line
from zetaline.combinatorics import CoefficientTable
from zetaline.errors import DomainError
from zetaline.meanvalue import MeanSquareRequest, mean_square_grid
from zetaline.verify import (
    VerdictRecord,
    coefficient_identity_suite,
    comparability,
    envelope_hurwitz,
    envelope_multi,
    envelope_suites,
    mv_inequality,
    mv_ratio,
    mv_suite,
    oscillatory_integral,
    oscillatory_suite,
    run_suites,
    _abs_sum_curves,
    _envelope_curve,
    _t_nodes,
)

PI2_6 = 1.6449340668482264


# ---------------------------------------------------------------------------
# growth envelopes


def test_envelope_grid_is_nested_geometric():
    short = _t_nodes(100.0)
    long = _t_nodes(400.0)
    assert np.array_equal(long[: short.size], short)
    assert short[0] == 2.0
    # per-octave spacing: consecutive ratio constant
    assert np.allclose(np.diff(np.log2(long)), 1.0 / 64.0)


def test_envelope_hurwitz_absolutely_convergent_region():
    # sigma=2, a=1: |zeta(2+it)| <= zeta(2) and the envelope is the constant 1
    rec = envelope_hurwitz(1.0, (2.0,), 200.0)
    assert rec.passed
    assert rec.observed_constant <= PI2_6 + 1e-9
    assert rec.suite == "envelope_hurwitz"
    assert rec.artifacts == ()


def test_envelope_hurwitz_all_branches_pass():
    rec = envelope_hurwitz(0.5, (-1.0, 0.0, 0.5, 1.0, 2.0), 200.0)
    assert rec.passed and rec.observed_constant <= 10.0
    assert "a=0.5" in rec.grid


def test_envelope_sup_monotone_in_t_range():
    # nested grids: extending t_max only adds candidate nodes; shared nodes
    # may move by ~1e-15 because the longer line picks a longer truncation
    lo = envelope_hurwitz(1.0, (0.5,), 100.0)
    hi = envelope_hurwitz(1.0, (0.5,), 800.0)
    assert hi.observed_constant >= lo.observed_constant * (1.0 - 1e-12)


def test_envelope_hurwitz_empty_grid_rejected():
    with pytest.raises(DomainError):
        envelope_hurwitz(1.0, (), 100.0)
    with pytest.raises(DomainError):
        envelope_hurwitz(1.0, (0.5,), 1e6)


def test_envelope_suites_sigma_minus_one_rows_match_mpmath(tmp_path):
    # each sup sits at t = 2, where the t <= 2000 line takes the reflection
    mpmath = pytest.importorskip("mpmath")
    records = envelope_suites(out_dir=str(tmp_path))[:3]
    with mpmath.workdps(30):
        values = [abs(mpmath.zeta(mpmath.mpc(-1, 2), 1)), abs(mpmath.zeta(mpmath.mpc(-1, 2), 0.5)),
                  abs(mpmath.zeta(mpmath.mpc(-2, 2), 1))]  # zeta_2(s, 1) = zeta(s - 1)
    for rec, r, value in zip(records, (1, 1, 2), values):
        row = (tmp_path / rec.artifacts[0]).read_text().splitlines()[1].split(",")
        assert (float(row[0]), float(row[2])) == (-1.0, 2.0)
        want = float(value) / _envelope_curve(r, -1.0, np.array([2.0]))[0]
        assert abs(float(row[1]) - want) <= 64e-12 * want, rec.grid


def test_envelope_multi_ones_absolute_region():
    # rank 2, unit weights, sigma=3: value equals zeta(2 + it) shifted down,
    # so the sup of |.|/1 cannot exceed zeta(2)
    rec = envelope_multi(2, 1.0, "ones", (3.0,), 100.0)
    assert rec.passed
    assert rec.observed_constant <= PI2_6 + 1e-9


def test_envelope_multi_weights_runs():
    rec = envelope_multi(2, 1.0, "weights", (1.5,), 200.0, w=(1.0, 2.0))
    assert rec.passed and rec.observed_constant <= 10.0


def test_envelope_multi_weights_rows_match_per_sigma_lines(tmp_path):
    """The shared-phase sweep writes the rows per-sigma truncated lines give."""
    sigmas, w = (1.25, 1.5, 1.75), (1.0, math.sqrt(2.0))
    rec = envelope_multi(2, 1.0, "weights", sigmas, 40.0, w=w, out_dir=str(tmp_path))
    ts = _t_nodes(40.0)
    want = []
    for sigma in sigmas:
        line, _ = barnes_truncated_line(sigma, 1.0, w, ts)
        ratio = np.abs(line) / _envelope_curve(2, sigma, ts)
        idx = int(np.argmax(ratio))
        want.append((sigma, float(ratio[idx]), float(ts[idx])))
    lines = (tmp_path / rec.artifacts[0]).read_text().splitlines()
    assert lines[0] == "sigma,sup_ratio,t_at_sup"
    assert [tuple(float(c) for c in ln.split(",")) for ln in lines[1:]] == want
    assert rec.observed_constant == max(sup for _, sup, _ in want)


def test_envelope_multi_domain_guards():
    with pytest.raises(DomainError):
        envelope_multi(2, 1.0, "weights", (0.5,), 100.0, w=(1.0, 2.0))  # sigma <= r-1
    with pytest.raises(DomainError):
        envelope_multi(2, 1.0, "weights", (1.5,), 100.0)  # missing w
    with pytest.raises(DomainError):
        envelope_multi(2, 1.0, "ones", (5.0,), 100.0)  # outside [-2, r+2]
    with pytest.raises(DomainError):
        envelope_multi(2, 1.0, "primes", (1.5,), 100.0)


def test_envelope_artifacts_deterministic(tmp_path):
    out = str(tmp_path)
    rec = envelope_hurwitz(1.0, (0.5, 2.0), 100.0, out_dir=out)
    assert len(rec.artifacts) == 2
    csv_name, json_name = rec.artifacts
    assert csv_name.startswith("envelope_hurwitz_") and csv_name.endswith(".csv")
    assert json_name == csv_name[:-4] + ".json"
    csv_path = os.path.join(out, csv_name)
    with open(csv_path) as fh:
        first = fh.readline().strip()
    assert first == "sigma,sup_ratio,t_at_sup"
    with open(os.path.join(out, json_name)) as fh:
        blob = json.load(fh)
    assert blob == rec.to_json_dict()
    assert blob["passed"] is True
    # rerun: byte-identical artifacts
    before = open(csv_path, "rb").read()
    rec2 = envelope_hurwitz(1.0, (0.5, 2.0), 100.0, out_dir=out)
    assert rec2 == rec
    assert open(csv_path, "rb").read() == before


# ---------------------------------------------------------------------------
# bilinear mean-value inequality


def test_mv_real_coefficients_vanish():
    # antisymmetric kernel: real vectors cancel the numerator, up to the
    # roundoff of the summation order
    assert mv_ratio(np.ones(2), 1.0, 1.0) <= 1e-14
    assert mv_ratio(np.ones(500), 1.0, 0.5) <= 1e-12
    assert mv_ratio(np.arange(1.0, 8.0), 0.5, 0.75) <= 1e-14
    assert mv_ratio(np.ones(1), 1.0, 0.5) == 0.0  # no off-diagonal pairs at all


def test_mv_scale_invariance():
    rng = np.random.default_rng(3)
    v = np.exp(2j * np.pi * rng.random(50))
    base = mv_ratio(v, 1.0, 0.5)
    scaled = mv_ratio(1e7 * v, 1.0, 0.5)
    assert abs(scaled - base) <= 1e-12 * base


def test_mv_inequality_reproducible():
    r1 = mv_inequality(100, 1.0, 0.5, ("random", 7))
    r2 = mv_inequality(100, 1.0, 0.5, "random:7")
    assert r1 == r2
    assert r1.passed and 0.0 < r1.observed_constant <= 4.0


def test_mv_suite_passes():
    rec = mv_suite(Ns=(10, 50), seeds=range(5))
    assert rec.passed
    assert rec.observed_constant <= 4.0
    assert rec.suite == "mv_inequality"


def test_mv_domain_guards():
    with pytest.raises(DomainError):
        mv_inequality(0, 1.0, 0.5, "ones")
    with pytest.raises(DomainError):
        mv_inequality(6000, 1.0, 0.5, "ones")
    with pytest.raises(DomainError):
        mv_inequality(10, -1.0, 0.5, "ones")
    with pytest.raises(DomainError):
        mv_inequality(10, 1.0, 0.5, "gaussian")


# ---------------------------------------------------------------------------
# weight comparability


def test_comparability_unit_weights_exact():
    rec = comparability(2, 1.0, (1.0, 1.0), 1.5, T_checkpoints=(50.0,))
    assert rec.passed
    det = dict(rec.details)
    # both sides are the same array, so every ratio is exactly 1
    assert det["abs_sum_ratio_max"] == 1.0
    assert det["abs_sum_ratio_min"] == 1.0
    assert det["raw_modulus_ratio_max"] == 1.0
    assert det["exclusion_fraction"] == 0.0
    assert rec.observed_constant == 1.0


def test_comparability_general_weights():
    rec = comparability(2, 1.0, (1.0, 2.0), 1.5, T_checkpoints=(50.0, 100.0))
    assert rec.passed
    det = dict(rec.details)
    assert 1.0 / 8.0 <= det["abs_sum_ratio_min"] <= det["abs_sum_ratio_max"] <= 8.0
    assert det["exclusion_fraction"] < 0.01
    for key, val in rec.details:
        if key.startswith("meansq_ratio_T="):
            assert 1.0 / 8.0 <= val <= 8.0
    # raw modulus extremes stay in the record even when wild
    assert "raw_modulus_ratio_max" in det and "raw_modulus_ratio_min" in det


def test_comparability_mean_square_ratio_is_the_mean_square_grid_ratio():
    details = dict(comparability(2, 1.0, (1.0, 2.0), 1.5, T_checkpoints=(50.0, 100.0)).details)
    barnes, multi = (
        mean_square_grid(MeanSquareRequest(kind=kind, sigma=1.5, a=1.0, T=100.0, **extra),
                         [50.0, 100.0])
        for kind, extra in (("barnes", {"w": (1.0, 2.0)}), ("multi_hurwitz", {"r": 2}))
    )
    for (T_eff, num), (_, den) in zip(barnes, multi):
        assert details[f"meansq_ratio_T={T_eff}"] == num.value / den.value


def test_comparability_checks_every_checkpoint():
    for cps in ((float("nan"),), (50.0, float("nan"), 100.0), (1.0, 50.0)):
        with pytest.raises(DomainError):
            comparability(2, 1.0, (1.0, 2.0), 1.5, T_checkpoints=cps)


def test_comparability_checks_its_checkpoints_before_any_line(monkeypatch):
    def no_line(*args, **kwargs):
        raise AssertionError("a line was evaluated before every checkpoint was checked")

    monkeypatch.setattr(zetaline.verify, "multi_hurwitz_line", no_line)
    monkeypatch.setattr(zetaline.verify, "barnes_truncated_line", no_line)
    with pytest.raises(DomainError):
        comparability(2, 1.0, (1.0, math.sqrt(2.0)), 1.5, T_checkpoints=(1.0, 400.0))


def test_comparability_rank_one():
    rec = comparability(1, 0.7, (2.0,), 0.5, T_checkpoints=(50.0,))
    assert rec.passed


@pytest.mark.parametrize(
    "r, w",
    [(1, (math.sqrt(2.0),)), (2, (1.0, math.sqrt(2.0))), (2, (1.0, 1.0)), (2, (1.0, 2.0))],
)
def test_abs_sum_curve_matches_brute_force_boxes(r, w):
    a, sigma, x = 1.0, 1.5, 12
    curve = _abs_sum_curves(r, a, [w], sigma, x)[0]
    for k in range(1, x + 1):
        box = [(a + sum(wj * mj for wj, mj in zip(w, m))) ** -sigma
               for m in np.ndindex(*([k + 1] * r))]
        ref = math.fsum(box)
        assert abs(curve[k - 1] - ref) <= 1e-15 * ref, (k, curve[k - 1], ref)


@pytest.mark.parametrize("w", [(1.0, 1.0), (1.0, 2.0)])
def test_abs_sum_curve_by_levels_keeps_the_box_sum_bits_at_a_1(w):
    # comparability's curves: one power per level, the same floats as the box
    a, sigma, x = 1.0, 1.5, 400
    m = np.arange(x + 1, dtype=float)
    box = np.add.outer(a + w[0] * m, w[1] * m) ** (-sigma)
    shell = np.maximum.outer(np.arange(x + 1), np.arange(x + 1))
    want = np.cumsum(np.bincount(shell.ravel(), box.ravel()))[1:]
    assert np.array_equal(_abs_sum_curves(2, a, [w], sigma, x)[0], want)


def test_comparability_domain_guards():
    with pytest.raises(DomainError):
        comparability(2, 1.0, (1.0, 2.0), 2.5)  # needs r-1 < sigma < r
    with pytest.raises(DomainError):
        comparability(2, 1.0, (1.0, 2.0), 1.5, T_checkpoints=())
    with pytest.raises(DomainError):
        comparability(2, 1.0, (1.0, 2.0), 1.5, T_checkpoints=(1.0,))


# ---------------------------------------------------------------------------
# oscillatory integral


def test_oscillatory_triangle_bound():
    # crude modulus bound: |I(T)| <= sum_m (m+a)^(-sigma) int_1^T t^(sigma/2-1) dt
    for sigma, a, T in ((0.75, 0.5, 20.0), (0.6, 1.0, 50.0)):
        val = oscillatory_integral(sigma, a, 1, T)
        bound = 0.0
        m = 0
        while 2.0 * math.pi * (m + a) ** 2 < T:
            bound += (m + a) ** (-sigma)
            m += 1
        bound *= (T ** (sigma / 2.0) - 1.0) / (sigma / 2.0)
        assert abs(val) <= bound


def test_oscillatory_single_term_explicit():
    # a=1: only m=0 contributes below 8 pi and log(m+a)=0 kills the phase,
    # so I(T) is the real elementary integral of t^(sigma/2-1) from 2 pi to T
    sigma = 0.75
    T = 20.0
    val = oscillatory_integral(sigma, 1.0, 1, T)
    exact = (T ** (sigma / 2.0) - (2.0 * math.pi) ** (sigma / 2.0)) / (sigma / 2.0)
    assert abs(val.imag) <= 1e-12
    assert val.real == pytest.approx(exact, rel=1e-8)


def test_oscillatory_suite_records_growing_products():
    # at a=1 the m=0 piece has no phase, so I(T) grows like T^(sigma/2):
    # |I(T)| increases along the grid and the non-increasing check fails;
    # the suite must report that honestly rather than pass
    rec = oscillatory_suite(a=1.0, T_grid=(400.0, 1600.0, 5000.0))
    assert rec.suite == "oscillatory_integral"
    products = [v for k, v in rec.details if k.startswith("product_T=")]
    assert len(products) == 3
    assert products[0] < products[1] < products[2]
    assert rec.observed_constant > rec.threshold
    assert not rec.passed


def test_oscillatory_integral_matches_incomplete_gamma():
    # Each m-piece has the closed form
    #   int_L^U t^b e^(-i theta t) dt
    #     = (i theta)^(-(b+1)) [Gamma(b+1, i theta L) - Gamma(b+1, i theta U)]
    # with b = sigma/2 - 1, theta = log(m+a).  Integrating by parts once
    # bounds the tail from X by 2 X^b / |theta|, so |I(T) - I(inf)| <= B(T)
    # with B(T) of order T^(-1/2) / log T, while I(inf) stays away from zero.
    mp = pytest.importorskip("mpmath")
    sigma, a = 0.75, 0.5
    b = sigma / 2.0 - 1.0

    def coeff(m):
        return mp.power(m + a, -sigma)

    def lower(m):
        return max(1.0, 2.0 * math.pi * (m + a) ** 2)

    def piece(m, lo, hi):
        z = 1j * mp.log(m + a)
        upper = mp.inf if hi == mp.inf else z * hi
        return mp.power(z, -(b + 1)) * mp.gammainc(b + 1, z * lo, upper)

    # I(inf) summed over m < M; every omitted m has 2 pi (m+a)^2 >= T below,
    # so the truncation is covered by the second sum of B(T)
    M = 200
    I_inf = complex(mp.fsum(coeff(m) * piece(m, lower(m), mp.inf) for m in range(M)))
    tail = 1.0 / (math.log(M + a) * (M - 1 + a))  # >= sum_{m>=M} (m+a)^-2 / log(m+a)
    assert abs(I_inf) - 2.0 * (2.0 * math.pi) ** b * tail > 1.0

    for T in (400.0, 1600.0, 5000.0):
        val = oscillatory_integral(sigma, a, 1, T)
        inside = [m for m in range(M) if 2.0 * math.pi * (m + a) ** 2 < T]
        ref = complex(mp.fsum(coeff(m) * piece(m, lower(m), T) for m in inside))
        assert abs(val - ref) <= 1e-6 * abs(ref)

        first = sum((m + a) ** (-sigma) / abs(math.log(m + a)) for m in inside)
        second = sum(
            (m + a) ** (-2) / abs(math.log(m + a)) for m in range(len(inside), M)
        ) + tail
        bound = 2.0 * T ** b * first + 2.0 * (2.0 * math.pi) ** b * second
        assert abs(val - I_inf) <= bound


def test_oscillatory_domain_guards():
    with pytest.raises(DomainError):
        oscillatory_integral(1.2, 0.5, 1, 100.0)  # sigma outside (1/2, 1)
    with pytest.raises(DomainError):
        oscillatory_integral(0.75, 0.5, 1, 9000.0)
    with pytest.raises(DomainError):
        oscillatory_suite(T_grid=(400.0, 1600.0))
    with pytest.raises(DomainError):
        oscillatory_suite(T_grid=(400.0, 500.0, 600.0))  # not geometric


def test_run_suites_rejects_unknown_name():
    with pytest.raises(DomainError):
        run_suites("envelope")


# ---------------------------------------------------------------------------
# coefficient identity


def _float_product_table(r, a):
    """C(x - a + r - 1, r - 1) expanded in floats, prod_k (x - a + k) / (r - 1)!:
    close to the exact table, but not each coefficient rounded once."""
    coefs = [1.0]
    for k in range(1, r):
        coefs = [lo + (k - a) * hi for lo, hi in zip([0.0] + coefs, coefs + [0.0])]
    return CoefficientTable(r=r, a=a, coeffs=tuple(c / math.factorial(r - 1) for c in coefs))


@pytest.mark.parametrize(
    "wrong",
    [
        lambda right, r, a: right(r, a) if isinstance(a, Fraction) else _float_product_table(r, a),
        lambda right, r, a: right(r, a + Fraction(1, 10**9) if isinstance(a, Fraction) else a),
    ],
    ids=["float_table_not_rounded_once", "exact_table_off_by_1e-9_in_a"],
)
def test_coefficient_suite_tells_a_wrong_table(monkeypatch, wrong):
    # a float evaluation of the identity cancels to 6e-5 at a = 99.7, so the
    # suite checks the exact table and the float table's rounding instead
    grid = dict(r_max=8, a_values=(0.3, 5.29, 37.7, 99.7))
    rec = coefficient_identity_suite(**grid)
    assert rec.passed and rec.observed_constant <= 2.0**-53
    right = zetaline.verify.reduction_coefficients
    monkeypatch.setattr(zetaline.verify, "reduction_coefficients",
                        lambda r, a: wrong(right, r, a))
    assert not coefficient_identity_suite(**grid).passed


# ---------------------------------------------------------------------------
# record format


def test_verdict_record_json_shape():
    rec = VerdictRecord(
        suite="demo",
        grid="g",
        observed_constant=1.5,
        threshold=2.0,
        passed=True,
        details=(("x", 1.0),),
    )
    blob = rec.to_json_dict()
    assert set(blob) == {
        "suite",
        "grid",
        "observed_constant",
        "threshold",
        "passed",
        "artifacts",
        "details",
    }
    assert blob["details"] == {"x": 1.0}
    assert blob["passed"] is (blob["observed_constant"] <= blob["threshold"])
