"""Tests for the Hurwitz/Lerch evaluation core.

Expected values were frozen from 40-digit independent computations and from
closed forms (Bernoulli polynomials at nonpositive integers, pi-power values
at even integers, digamma identities for the generalized Euler constants).
"""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline import zetacore as zc
from zetaline.barnes import barnes_truncated_line, multi_hurwitz_line
from zetaline.errors import (
    AccuracyError,
    DomainError,
    PoleError,
    ResourceBudgetError,
    UnsupportedRegionError,
)
from zetaline.meanvalue import MeanSquareRequest, mean_square, simpson_nodes

EULER = 0.57721566490153286


# ---------------------------------------------------------------------------
# closed forms


def test_hurwitz_even_integer_values():
    assert zc.hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert zc.hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi ** 2 / 2, rel=1e-13)
    assert zc.riemann_zeta(3.0).real == pytest.approx(1.2020569031595943, rel=1e-13)


def test_hurwitz_nonpositive_integers_are_bernoulli_polynomials():
    # zeta_H(0, a) = 1/2 - a, zeta_H(-1, a) = -(a^2 - a + 1/6)/2
    for a in (0.2, 0.5, 0.93, 1.0, 1.6):
        assert zc.hurwitz_zeta(0.0, a).real == pytest.approx(0.5 - a, abs=1e-12)
        assert zc.hurwitz_zeta(-1.0, a).real == pytest.approx(
            -(a * a - a + 1.0 / 6.0) / 2.0, abs=1e-12
        )


def test_hurwitz_frozen_spot_values():
    cases = [
        (complex(0.5, 6.0), 0.25, complex(-0.54994761827618964, 1.2425156846634998)),
        (complex(-1.5, 0.0), 2.0 / 3.0, complex(0.024112035355845899, 0.0)),
        (complex(2.5, -3.0), 1.75, complex(-0.10707354137815031, 0.20207961049437681)),
    ]
    for s, a, want in cases:
        got = zc.hurwitz_zeta(s, a)
        assert abs(got - want) <= 5e-12 * abs(want)


def test_trivial_zero_is_absolutely_small():
    assert abs(zc.hurwitz_zeta(-6.0, 1.0)) < 1e-14


def test_pole_and_domain_guards():
    with pytest.raises(PoleError):
        zc.hurwitz_zeta(1.0 + 1e-12j, 0.5)
    with pytest.raises(DomainError):
        zc.hurwitz_zeta(2.0, -0.3)
    with pytest.raises(DomainError):
        zc.hurwitz_zeta(12.5, 0.5)
    with pytest.raises(DomainError):
        zc.hurwitz_zeta(complex(0.5, 2e5), 0.5)


def test_riemann_zeta_is_gated_hurwitz_at_one():
    with pytest.raises(DomainError):
        zc.riemann_zeta(complex(0.5, 2e5))
    for s in (complex(0.5, 14.134725), complex(-3.5, 20.0), 3.0):
        got, want = zc.riemann_zeta(s), zc.hurwitz_zeta(s, 1.0)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_remainder_estimate_dominates_true_error():
    # doubling the explicit-term count changes the value by no more than
    # the reported estimate, which is absolute
    s, a = complex(0.5, 37.0), 0.71
    v1, e1 = zc.hurwitz_zeta_bounded(s, a)
    n = 2 * zc._shift_count(abs(s.imag))
    v2 = zc.hurwitz_line(s.real, a, np.array([s.imag]), n_terms=n)[0]
    assert abs(v1 - v2) <= e1


# ---------------------------------------------------------------------------
# vertical-line batches


def test_line_matches_scalar():
    ts = np.linspace(1.0, 120.0, 601)
    row = zc.hurwitz_line(0.75, 0.3, ts)
    for idx in (0, 300, 600):
        want = zc.hurwitz_zeta(complex(0.75, ts[idx]), 0.3)
        assert abs(row[idx] - want) <= 1e-10 * abs(want)


def test_line_batch_shares_rows_bitwise():
    ts = np.linspace(1.0, 80.0, 257)
    single = zc.hurwitz_line(1.5, 0.3, ts, n_terms=400)
    multi = zc.hurwitz_line_batch([0.5, 1.5], 0.3, ts, n_terms=400)
    assert single.tobytes() == multi[1].tobytes()


@pytest.mark.parametrize(
    "rows, ts, reflects",
    [
        # one node, where the sigma = -4 rows reflect
        ([(-4.0, 0.0375), (0.5, 1.0), (-4.0, 0.5375), (0.5, 0.0375), (2.5, 1.0), (-4.0, 1.0)],
         np.array([5.0]), True),
        # a Simpson grid of 19,981 nodes: past numpy's 256 KiB temporary elision,
        # and the sigma <= 0 rows split into octaves of |t|
        ([(0.5, 1.0), (0.5, 0.3), (-0.5, 1.0), (2.0, 0.3), (0.0, 0.3), (-0.5, 0.3)],
         simpson_nodes(1000.0, 1.0)[0], False),
        # 9,981 nodes: each row under the 256 KiB of numpy's temporary elision,
        # each sigma's (shifts x nodes) pass over it
        ([(0.5, 1.0), (1.5, 0.3), (0.5, 0.3), (1.5, 2.5), (1.5, 1.0)],
         simpson_nodes(500.0, 1.0)[0], False),
        # sigma <= 0 rows over several octaves, and sigma < -0.5 nodes that reflect
        ([(-1.5, 0.5), (0.75, 0.5), (-1.5, 2.5), (-0.25, 0.5), (0.75, 2.5), (-3.0, 0.5)],
         np.array([0.0, 2.0, 7.0, 30.0, 90.0, 250.0]), True),
    ],
    ids=["one_node", "simpson_grid", "elision_straddle", "octaves"],
)
def test_batched_rows_equal_each_row_alone(monkeypatch, rows, ts, reflects):
    reflected = []
    original = zc._hurwitz_reflected
    monkeypatch.setattr(zc, "_hurwitz_reflected",
                        lambda s, a, prec: reflected.append(s) or original(s, a, prec))
    vals, errs = zc._hurwitz_rows(rows, ts, zc.DEFAULT_PRECISION)
    assert bool(reflected) == reflects
    for i, row in enumerate(rows):
        alone, err = zc._hurwitz_rows([row], ts, zc.DEFAULT_PRECISION)
        assert vals[i].tobytes() == alone[0].tobytes()
        assert errs[i].tobytes() == err[0].tobytes()
    # N = 30 is short, so the Bernoulli corrections carry the kernel's values
    # and per-node errs, and a 1-ulp change in one of their factors shows
    batched = zc._em_kernel(rows, ts, 30)
    for i, row in enumerate(rows):
        for got, alone in zip(batched, zc._em_kernel([row], ts, 30)):
            assert got[i].tobytes() == alone[0].tobytes()


def test_a_lerch_value_is_one_kernel_call(monkeypatch):
    calls = []
    rows = zc._hurwitz_rows
    monkeypatch.setattr(zc, "_hurwitz_rows",
                        lambda *args, **kwargs: calls.append(len(args[0])) or rows(*args, **kwargs))
    zc.lerch_zeta_bounded(complex(0.5, 20.0), 0.3, Fraction(3, 8))
    assert calls == [8]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "line",
    [
        lambda ts: zc.hurwitz_line(0.5, 1.0, ts),
        lambda ts: zc.hurwitz_line_batch([0.5, 1.5], 1.0, ts),
        lambda ts: zc.lerch_line(0.5, 1.0, Fraction(1, 3), ts, zc.DEFAULT_PRECISION),
        lambda ts: multi_hurwitz_line(1.5, 1.0, 2, ts),
        lambda ts: barnes_truncated_line(1.5, 1.0, (1.0, 2.0), ts),
    ],
    ids=["hurwitz_line", "hurwitz_line_batch", "lerch_line", "multi_hurwitz_line",
         "barnes_truncated_line"],
)
def test_non_finite_ordinates_are_domain_errors(line, bad):
    with pytest.raises(DomainError, match="ordinates ts"):
        line(np.array([1.0, bad, 5.0]))


def test_line_gate_reads_every_node():
    # N = 4 terms serve t = 1 but not t = 50, and the gate must see that node
    ts = np.array([1.0, 50.0])
    zc.hurwitz_line(0.5, 1.0, ts[:1], n_terms=4)
    with pytest.raises(AccuracyError):
        zc.hurwitz_line_batch([1.5, 0.5], 1.0, ts, n_terms=4)


def test_line_reruns_are_bit_identical():
    ts = np.linspace(1.0, 200.0, 2001)
    r1 = zc.hurwitz_line(0.5, 1.0, ts)
    r2 = zc.hurwitz_line(0.5, 1.0, ts)
    assert r1.tobytes() == r2.tobytes()


_SIMPSON_LINE_SCRIPT = (
    "import sys\n"
    "from zetaline.meanvalue import simpson_nodes\n"
    "from zetaline.zetacore import hurwitz_line\n"
    "ts = simpson_nodes(1000.0, 1.0)[0]\n"
    "sys.stdout.buffer.write(hurwitz_line(0.5, 1.0, ts).tobytes())\n"
)


def test_factored_line_reruns_are_bit_identical():
    # the Simpson grid is exactly arithmetic, so it takes the type-1
    # transform; its bincounts and FFTs use no BLAS, so its bits do not
    # depend on the number of threads a BLAS library would use
    ts = simpson_nodes(1000.0, 1.0)[0]
    assert np.array_equal(ts, ts[0] + (ts[1] - ts[0]) * np.arange(ts.size))
    r1 = zc.hurwitz_line(0.5, 1.0, ts)
    assert zc.hurwitz_line(0.5, 1.0, ts).tobytes() == r1.tobytes()
    src = os.path.dirname(os.path.dirname(os.path.abspath(zc.__file__)))
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _SIMPSON_LINE_SCRIPT],
                              env=env, capture_output=True, check=True)
        assert proc.stdout == r1.tobytes()


@pytest.mark.parametrize(
    "line",
    [lambda ts: zc.hurwitz_line(0.5, 0.5, ts),
     lambda ts: multi_hurwitz_line(1.5, 0.5, 2, ts)],
    ids=["hurwitz", "multi_r2"],
)
def test_factored_phases_match_direct_path(line):
    ts = simpson_nodes(1000.0, 0.5)[0]
    # the same nodes in an order that is not arithmetic take the other
    # transform, interpolated from an auxiliary grid
    order = np.roll(np.arange(ts.size), 1)
    direct = np.empty(ts.size, dtype=complex)
    direct[order] = line(ts[order])
    factored = line(ts)
    # both transforms form their phases exactly, so they differ by ~6e-15
    # of max |value| here; the direct matrix, which rounds each t log(m+a)
    # ~ 7e3 to its ulp (9e-13), is ~2e-13 away from either
    assert np.max(np.abs(factored - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_factored_line_matches_mpmath_near_t_1000():
    mpmath = pytest.importorskip("mpmath")
    sigma, a = 0.5, 0.5
    ts = simpson_nodes(1000.0, a)[0][-20:]
    n = zc._shift_count(float(ts[-1]))
    got = zc.hurwitz_line(sigma, a, ts)
    tol = 64.0 * zc.DEFAULT_PRECISION.rel_tol
    with mpmath.workdps(30):
        for t, value in zip(ts, got):
            ref = complex(mpmath.zeta(mpmath.mpc(sigma, float(t)), a))
            # the line kernel states its error against this scale
            scale = max(abs(ref), (n + a) ** -sigma)
            assert abs(value - ref) <= tol * scale, t


# ---------------------------------------------------------------------------
# Lerch


def test_lerch_alternating_series():
    # lambda = 1/2, a = 1: sum (-1)^m/(m+1)^2 = pi^2/12
    got = zc.lerch_zeta(2.0, 1.0, Fraction(1, 2))
    assert got.real == pytest.approx(math.pi ** 2 / 12, rel=1e-13)
    assert abs(got.imag) < 1e-14


def test_lerch_frozen_value():
    got = zc.lerch_zeta(3.0, 0.5, Fraction(1, 3))
    want = complex(7.8370270231168524, 0.20643842913792823)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_lerch_direct_sum_oracle():
    # independent check: raw partial sum plus Abel-summation tail interval
    s, a, lam = 3.5, 0.7, math.sqrt(2) - 1.0
    cut = 2000
    m = np.arange(cut, dtype=float)
    partial = complex(np.sum(np.exp(2j * np.pi * np.mod(m * lam, 1.0)) * (m + a) ** (-s)))
    got = zc.lerch_zeta(s, a, lam)
    tail = (1.0 + 1.0) / abs(math.sin(math.pi * lam)) * (cut + a) ** (-s)
    assert abs(got - partial) <= tail + 1e-14


def test_lerch_integer_lambda_is_hurwitz():
    s = complex(1.7, 4.0)
    assert zc.lerch_zeta(s, 0.4, 1) == zc.hurwitz_zeta(s, 0.4)
    assert zc.lerch_zeta(s, 0.4, Fraction(2, 1)) == zc.hurwitz_zeta(s, 0.4)


def test_lerch_direct_needs_convergent_region():
    with pytest.raises(UnsupportedRegionError):
        zc.lerch_zeta(complex(0.8, 3.0), 0.5, math.sqrt(2) - 1.0)


def test_lerch_rational_reduction_matches_direct_series():
    for lam in (Fraction(1, 3), Fraction(2, 5)):
        for s in (2.4, complex(1.6, 7.0)):
            red = zc.lerch_zeta(s, 0.6, lam)
            direct = zc.lerch_zeta(s, 0.6, float(lam))
            assert abs(red - direct) <= 1e-10 * abs(red)


def test_twist_denominator_cap_is_shared():
    lam = Fraction(1, 1025)
    with pytest.raises(ResourceBudgetError):
        zc.lerch_zeta_bounded(complex(0.5, 3.0), 0.7, lam)
    with pytest.raises(ResourceBudgetError):
        zc.periodic_zeta(lam, complex(2.0, 3.0))
    req = MeanSquareRequest(kind="lerch", sigma=0.5, a=1.0, T=10.0, lam=lam)
    with pytest.raises(ResourceBudgetError):
        mean_square(req)


def test_rational_twists_share_the_hurwitz_domain():
    third = Fraction(1, 3)
    for call in (lambda: zc.lerch_zeta_bounded(complex(12.5, 3.0), 0.7, third),
                 lambda: zc.lerch_zeta_bounded(complex(0.5, 2e5), 0.7, third),
                 lambda: zc.periodic_zeta(third, complex(0.5, 2e5))):
        with pytest.raises(DomainError):
            call()
    # in-domain values keep the bits they had before the gate
    for args, want in (
        ((0.5 + 3j, 0.7, third), ("0x1.01990c5a79c42p+0", "0x1.ffb860c282941p+0")),
        ((-2.5 + 40j, 0.3, Fraction(2, 5)), ("0x1.87c11da863dc7p+9", "-0x1.8a98a7aecb89dp+12")),
        ((9.5 - 7j, 2.5, 0), ("0x1.4d0c21377f94ep-13", "0x1.a648de0a46ebfp-16")),
    ):
        got = zc.lerch_zeta_bounded(*args)[0]
        assert (got.real.hex(), got.imag.hex()) == want
    for args, want in (
        ((third, 0.5 + 2j), ("-0x1.225df98cf582dp+0", "0x1.445902a40cb9ep-1")),
        ((Fraction(3, 4), -1.5 + 10j), ("-0x1.270be0573ef05p+2", "-0x1.0c2aa24828cd7p+1")),
    ):
        got = zc.periodic_zeta(*args)
        assert (got.real.hex(), got.imag.hex()) == want


def test_rational_twists_at_q7_and_q8_keep_their_bits(monkeypatch):
    reflected = []
    original = zc._hurwitz_reflected

    def spy(s, a, prec):
        reflected.append(a)
        return original(s, a, prec)

    monkeypatch.setattr(zc, "_hurwitz_reflected", spy)
    for args, want, reflections in (
        # at Re s = -4 every residue (j + 0.3)/q cancels and takes the reflection
        ((-4 + 5j, 0.3, Fraction(1, 7)), ("0x1.7749db19c9fafp+11", "-0x1.2590ddc8fb824p+13"), 7),
        ((-4 + 5j, 0.3, Fraction(3, 8)), ("-0x1.3c7292b71094cp+6", "0x1.552b8aa313580p+0"), 8),
        ((0.5 + 3j, 0.7, Fraction(2, 7)), ("0x1.7492a824284eep+0", "0x1.f720167f8547ep+0"), 0),
        ((-1.2 + 300j, 0.3, Fraction(3, 7)), ("-0x1.bf7cfddd3589cp+9", "-0x1.21bed070937eap+12"), 0),
        ((0.5 + 3j, 0.7, Fraction(1, 8)), ("0x1.26559f76477a0p+1", "-0x1.71ab1803ac960p+0"), 0),
        ((2.5 - 40j, 1.5, Fraction(5, 8)), ("-0x1.b5e3190d753a7p-2", "-0x1.610529f174f52p-4"), 0),
    ):
        reflected.clear()
        got = zc.lerch_zeta_bounded(*args)[0]
        assert (got.real.hex(), got.imag.hex()) == want
        assert len(reflected) == reflections
    for args, want in (
        ((Fraction(2, 7), 0.5 + 2j), ("-0x1.03bf79dc10bd7p+0", "0x1.22244cf12eee6p+0")),
        ((Fraction(3, 7), -1.5 + 10j), ("-0x1.931b1a41ac149p+3", "-0x1.2516e7759d9f7p+4")),
        ((Fraction(1, 7), 3.25 - 30j), ("0x1.0af54500a6793p-1", "0x1.6dbd11b9e2574p-1")),
    ):
        got = zc.periodic_zeta(*args)
        assert (got.real.hex(), got.imag.hex()) == want


def test_periodic_zeta_frozen_value():
    got = zc.periodic_zeta(Fraction(1, 3), 2.2)
    want = complex(-0.54585145798685945, 0.69874140549167006)
    assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# reflection identities


def test_reflection_residual_grid():
    residuals = []
    for a in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        for s in (1.5, complex(2.0, 3.0), complex(3.7, -2.0), complex(5.0, 40.0)):
            residuals.append(zc.functional_equation_residual(s, a, 1))
    for a, lam in ((Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 3))):
        for s in (1.5, complex(2.0, 3.0), complex(3.0, 25.0)):
            residuals.append(zc.functional_equation_residual(s, a, lam))
    assert max(residuals) <= 1e-9


# points where the kernel cancels and the value takes the reflection fallback
_REFLECTING = [(1.5, complex(-3.0, 0.5)), (2.7, complex(-6.0, 2.0)), (7.25, complex(-9.5, 0.0))]


@pytest.mark.parametrize("a, s", _REFLECTING)
def test_reflection_shifts_a_above_one(monkeypatch, a, s):
    # the reflection holds for 0 < a <= 1; a > 1 first peels off (a-1)^(-s), (a-2)^(-s), ...
    mpmath = pytest.importorskip("mpmath")
    seen = []
    reflected = zc._hurwitz_reflected

    def spy(s_, a_, prec):
        seen.append(a_)
        return reflected(s_, a_, prec)

    monkeypatch.setattr(zc, "_hurwitz_reflected", spy)
    got = zc.hurwitz_zeta(s, a)
    assert seen == [a]
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), a))
    assert abs(got - ref) <= 64e-12 * abs(ref)


@pytest.mark.parametrize("a, s", _REFLECTING)
def test_scalar_is_its_one_point_line_where_it_reflects(a, s):
    line = zc.hurwitz_line_batch([s.real], a, np.array([s.imag]))
    assert line[0, 0] == zc.hurwitz_zeta_bounded(s, a)[0]


@pytest.mark.parametrize("sigma", [-9.5, -5.0, -2.0, -1.0])
@pytest.mark.parametrize("a", [0.3, 1.0])
def test_line_reflects_its_small_t_nodes(sigma, a):
    # N comes from the top node t = 2000, so at small t the kernel's partial
    # sums reach ~N^(1 - sigma) and cancel; those nodes take the reflection
    mpmath = pytest.importorskip("mpmath")
    ts = np.array([0.5, 1.0, 2.0, 2000.0])
    got = zc.hurwitz_line(sigma, a, ts)
    tol = 64.0 * zc.DEFAULT_PRECISION.rel_tol
    with mpmath.workdps(30):
        for t, value in zip(ts[:-1], got):
            ref = complex(mpmath.zeta(mpmath.mpc(sigma, float(t)), a))
            assert abs(value - ref) <= tol * abs(ref), t


# small-t nodes under a far top node: each octave of |t| takes its own shift count
_OCTAVE_GRID = np.concatenate([[0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
                               np.linspace(200.0, 2000.0, 7)])


def _assert_line_matches_mpmath(sigma, a, ts, got):
    mpmath = pytest.importorskip("mpmath")
    tol = 64.0 * zc.DEFAULT_PRECISION.rel_tol
    with mpmath.workdps(30):
        for t, value in zip(ts, got):
            ref = complex(mpmath.zeta(mpmath.mpc(sigma, float(t)), a))
            assert abs(value - ref) <= tol * abs(ref), (float(t), abs(value - ref) / abs(ref))


@pytest.mark.parametrize("sigma", [-1.0, -0.5])
@pytest.mark.parametrize("a", [0.3, 1.0])
def test_negative_sigma_line_meets_its_tolerance_at_every_node(sigma, a):
    _assert_line_matches_mpmath(sigma, a, _OCTAVE_GRID, zc.hurwitz_line(sigma, a, _OCTAVE_GRID))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3(b): at t = 1400 the line is 1.6e-10 "
                   "off, and its estimate leaves out the rounding of t log(m+a)")
def test_line_at_sigma_minus_two_meets_its_tolerance_or_raises():
    try:
        got = zc.hurwitz_line(-2.0, 0.3, _OCTAVE_GRID)
    except AccuracyError:
        return
    _assert_line_matches_mpmath(-2.0, 0.3, _OCTAVE_GRID, got)


@pytest.mark.parametrize("s, a", [(complex(-5.0, 100.0), 0.3), (complex(-5.5, 1000.0), 0.3),
                                  (complex(-10.0, 50.0), 50.0), (complex(-8.0, 75.0), 50.0)])
def test_band_scalars_reflect_to_their_tolerance(s, a):
    # the kernel's partial sums there reach sum (m+a)^(-sigma), far above the value
    mpmath = pytest.importorskip("mpmath")
    got = zc.hurwitz_zeta(s, a)
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), a))
    assert abs(got - ref) <= 64.0 * zc.DEFAULT_PRECISION.rel_tol * abs(ref)


def test_nonpositive_sigma_simpson_line_leaves_the_phase_matrix(monkeypatch):
    # only the lowest octave (t < 6, N = 20 terms) is short enough for the
    # matrix; the rest of the 19,981 nodes take the transform
    calls = []
    direct = zc._direct_sum
    monkeypatch.setattr(zc, "_direct_sum", lambda logv, amps, ts:
                        calls.append((float(np.max(ts)), logv.size)) or direct(logv, amps, ts))
    zc.hurwitz_line(0.0, 1.0, simpson_nodes(1000.0, 1.0)[0])
    assert all(t_top < 6.0 and n <= zc._shift_count(6.0) for t_top, n in calls)


def test_reflection_residual_rejects_bad_domain():
    with pytest.raises(DomainError):
        zc.functional_equation_residual(0.5, Fraction(1, 2), 1)
    with pytest.raises(DomainError):
        zc.functional_equation_residual(2.0, 1.5, 1)
    with pytest.raises(UnsupportedRegionError):
        zc.functional_equation_residual(2.0, Fraction(1, 2), 0.318309886)


@pytest.mark.parametrize("a", [Fraction(1, 3), 1.0 / 3.0])
def test_reflection_residual_holds_past_the_periodic_zeta_domain(a):
    # Re s = 10.5 lies past periodic_zeta's rational domain, but the residual's
    # domain is Re s > 1: a rational a must not raise where a float a does not
    assert zc.functional_equation_residual(complex(10.5, 2.0), a) <= 1e-14


# ---------------------------------------------------------------------------
# generalized Euler constants


def test_gen_euler_constant_values():
    assert zc.gen_euler_constant(1.0) == pytest.approx(EULER, abs=1e-14)
    assert zc.gen_euler_constant(0.5) == pytest.approx(1.9635100260214235, abs=1e-13)
    assert zc.gen_euler_constant(0.25) == pytest.approx(4.2274535333762654, rel=1e-14)
    with pytest.raises(DomainError):
        zc.gen_euler_constant(0.0)


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.floats(min_value=-4.0, max_value=6.0),
    t=st.floats(min_value=-30.0, max_value=30.0),
    a=st.floats(min_value=0.05, max_value=5.0),
)
def test_conjugation_symmetry(sigma, t, a):
    s = complex(sigma, t)
    if abs(s - 1.0) < 1e-3:
        return
    v = zc.hurwitz_zeta(s, a)
    w = zc.hurwitz_zeta(s.conjugate(), a)
    assert cmath.isclose(v.conjugate(), w, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.floats(min_value=-2.0, max_value=5.0),
    t=st.floats(min_value=0.0, max_value=40.0),
    a=st.floats(min_value=0.1, max_value=3.0),
)
def test_shift_recurrence(sigma, t, a):
    # zeta_H(s, a) = zeta_H(s, a+1) + a^(-s)
    s = complex(sigma, t)
    if abs(s - 1.0) < 1e-3:
        return
    lhs = zc.hurwitz_zeta(s, a)
    rhs = zc.hurwitz_zeta(s, a + 1.0) + cmath.exp(-s * math.log(a))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=7),
    q=st.integers(min_value=2, max_value=9),
    sigma=st.floats(min_value=1.2, max_value=4.0),
    t=st.floats(min_value=-20.0, max_value=20.0),
)
def test_lerch_rational_vs_float_agree(p, q, sigma, t):
    if math.gcd(p, q) != 1 or p >= q:
        return
    s = complex(sigma, t)
    red = zc.lerch_zeta(s, 0.8, Fraction(p, q))
    direct = zc.lerch_zeta(s, 0.8, p / q)
    assert abs(red - direct) <= 1e-8 * max(abs(red), 1e-6)
