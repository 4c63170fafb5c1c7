"""Tests for the multiple/Barnes zeta evaluators and lattice profiles."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline import barnes as bz
from zetaline import zetacore as zc
from zetaline.errors import (
    DomainError,
    PoleError,
    ResourceBudgetError,
    TruncationValidityError,
    UnsupportedRegionError,
)
from zetaline.meanvalue import simpson_nodes
from zetaline.verify import _t_nodes


# ---------------------------------------------------------------------------
# multi_hurwitz (equal weights)


def test_multi_rank_one_is_hurwitz():
    s = complex(2.5, 7.0)
    assert bz.multi_hurwitz(s, 0.7, 1) == zc.hurwitz_zeta(s, 0.7)


def test_multi_matches_cumulative_count_oracle():
    # rank 3: the number of lattice points with m1+m2+m3 = n is C(n+2,2),
    # obtainable independently as a double cumulative sum of ones
    s, a, r = complex(4.5, 0.0), 0.7, 3
    M = 4000
    counts = np.cumsum(np.cumsum(np.ones(M)))
    partial = float(np.sum(counts * (np.arange(M) + a) ** (-s.real)))
    got = bz.multi_hurwitz(s, a, r)
    # integral bound on the dropped tail: sum_{n>=M} C(n+2,2) (n+a)^-sigma
    tail = (M + 2) ** 2 / 2.0 * (M + a) ** (1 - s.real) / (s.real - 3.0) * 1.5
    assert abs(got.imag) < 1e-12
    assert abs(got.real - partial) <= tail
    assert tail < 2e-4  # the check is actually sharp


def test_multi_pole_guard():
    for r in (1, 2, 3):
        for k in range(1, r + 1):
            with pytest.raises(PoleError):
                bz.multi_hurwitz(complex(k, 0.0), 0.5, r)
            with pytest.raises(PoleError):
                bz.multi_hurwitz_line(float(k), 0.5, r, np.linspace(-1.0, 1.0, 5))


def test_multi_is_gated_like_its_hurwitz_terms():
    # the j = 1 term of rank 2 sits at Re s - 1 = -10.5, outside hurwitz_zeta's domain
    with pytest.raises(DomainError):
        bz.multi_hurwitz(complex(-9.5, 2.0), 0.7, 2)
    with pytest.raises(DomainError):
        bz.multi_hurwitz(complex(10.5, 2.0), 0.7, 2)
    val, err = bz.multi_hurwitz_bounded(complex(-9.5, 2.0), 0.7, 1)
    assert val == bz.multi_hurwitz(complex(-9.5, 2.0), 0.7, 1)
    assert err == zc.hurwitz_zeta_bounded(complex(-9.5, 2.0), 0.7)[1]


@pytest.mark.parametrize("a", [0.7, 1.0])  # at a = 1, p_{2,0} = 1 - a vanishes
def test_multi_is_its_one_point_line_where_a_row_reflects(a):
    s = complex(-3.0, 0.5)  # both rows, Re s and Re s - 1, take the reflection
    assert bz.multi_hurwitz_line(s.real, a, 2, np.array([s.imag]))[0] == bz.multi_hurwitz(s, a, 2)


def test_multi_line_matches_scalar():
    ts = np.linspace(1.0, 60.0, 241)
    row = bz.multi_hurwitz_line(1.75, 0.7, 2, ts)
    for idx in (0, 120, 240):
        want = bz.multi_hurwitz(complex(1.75, ts[idx]), 0.7, 2)
        assert abs(row[idx] - want) <= 1e-10 * abs(want)


def test_multi_line_evaluates_only_its_nonzero_terms(monkeypatch):
    # at a = 1, p_{2,0} = -0.0 and p_{3,0} = 0: the Re s row is never evaluated
    seen = []
    batch = bz.hurwitz_line_batch

    def spy(sigmas, *args):
        seen.append(list(sigmas))
        return batch(sigmas, *args)

    monkeypatch.setattr(bz, "hurwitz_line_batch", spy)
    ts = np.linspace(1.0, 200.0, 797)
    rank_two = bz.multi_hurwitz_line(1.5, 1.0, 2, ts)
    bz.multi_hurwitz_line(2.5, 1.0, 3, ts)
    assert seen == [[0.5], [1.5, 0.5]]
    # zeta_2(s, 1) = sum_n (n + 1)^(1 - s) = zeta_H(s - 1, 1), bit for bit
    assert np.array_equal(rank_two, zc.hurwitz_line(0.5, 1.0, ts))


@pytest.mark.parametrize("r", [0, 17])
def test_multi_rank_outside_one_to_sixteen_is_a_domain_error(r):
    with pytest.raises(DomainError):
        bz.multi_hurwitz_bounded(complex(20.5, 1.0), 0.5, r)
    with pytest.raises(DomainError):
        bz.multi_hurwitz_line(20.5, 0.5, r, np.linspace(1.0, 2.0, 3))


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_multi_non_finite_a_is_a_domain_error(a):
    with pytest.raises(DomainError):
        bz.multi_hurwitz_bounded(complex(3.5, 1.0), a, 2)
    with pytest.raises(DomainError):
        bz.multi_hurwitz_line(3.5, a, 2, np.linspace(1.0, 2.0, 3))


@pytest.mark.parametrize("s", [8.5 + 3j, 7.5 + 40j])
def test_multi_at_rank_eight_is_within_its_err_of_mpmath(s):
    # the reduction coefficients cancel at r = 8, a = 5.29; each is the exact
    # table rounded once, so the value stays within its err
    mpmath = pytest.importorskip("mpmath")
    r, a = 8, 5.29
    got, err = bz.multi_hurwitz_bounded(s, a, r)
    with mpmath.workdps(40):
        poly = [mpmath.mpf(1)]  # prod_{i<r} (x - a + i) in powers of x
        for i in range(1, r):
            c = i - mpmath.mpf(a)
            poly = [lo + c * hi for lo, hi in zip([0] + poly, poly + [0])]
        z = mpmath.mpc(s.real, s.imag)
        ref = complex(mpmath.fsum(pj * mpmath.zeta(z - j, mpmath.mpf(a))
                                  for j, pj in enumerate(poly)) / mpmath.factorial(r - 1))
    assert abs(got - ref) <= err


# ---------------------------------------------------------------------------
# barnes_direct


def brute_box_sum(s, a, w, m_cut):
    grids = np.meshgrid(*[np.arange(m_cut) for _ in w], indexing="ij")
    vals = a + sum(wi * g for wi, g in zip(w, grids))
    return complex(np.sum(np.exp(-s * np.log(vals.ravel()))))


def test_direct_matches_brute_sum_with_tail_interval():
    s, a, w = complex(4.5, 2.0), 0.7, (1.0, math.sqrt(2.0))
    got, est = bz.barnes_direct(s, a, w)
    m_cut = 800
    partial = brute_box_sum(s, a, w, m_cut)
    # everything outside the box is positive-measure controlled by an integral
    tail = 6.0 * (m_cut * min(w)) ** (2 - s.real)
    assert abs(got - partial) <= tail
    assert est < 1e-10


def test_direct_agrees_with_binomial_collapse():
    # equal weights: entirely independent evaluation route
    for r in (1, 2, 3, 4):
        s = complex(r + 2.5, 3.0)
        v_direct, est = bz.barnes_direct(s, 0.7, (1.0,) * r)
        v_multi = bz.multi_hurwitz(s, 0.7, r)
        assert abs(v_direct - v_multi) <= max(1e-11 * abs(v_multi), 1e-13)


def test_direct_homogeneity():
    # zeta_r(s, c a, c w) = c^(-s) zeta_r(s, a, w)
    s, a, w, c = complex(3.7, 4.0), 0.6, (1.0, 0.8), 1.9
    v1, _ = bz.barnes_direct(s, c * a, tuple(c * x for x in w))
    v2, _ = bz.barnes_direct(s, a, w)
    scale = np.exp(-s * np.log(c))
    assert abs(v1 - scale * v2) <= 1e-10 * abs(v1)


def test_direct_permutation_invariance():
    s, a = complex(3.4, 1.5), 0.9
    v1, _ = bz.barnes_direct(s, a, (0.5, 1.0, 1.7))
    v2, _ = bz.barnes_direct(s, a, (1.7, 0.5, 1.0))
    assert abs(v1 - v2) <= 1e-10 * abs(v1)


def test_direct_region_guard():
    with pytest.raises(UnsupportedRegionError):
        bz.barnes_direct(complex(2.05, 1.0), 0.7, (1.0, 1.0))
    with pytest.raises(DomainError):
        bz.barnes_direct(complex(4.0, 0.0), -0.5, (1.0, 1.0))


@pytest.mark.parametrize("a", [100.0, 250.0, 1000.0])
@pytest.mark.parametrize("s", [2.15, 3.5 + 5j, 4 - 20j])
def test_direct_far_from_the_origin_matches_closed_form(s, a):
    # most of these a lie at or past y_req, so the top level is a tail alone;
    # w = (1, 2) counts floor(n/2) + 1 points at a + n, which splits by parity
    # into 2^-s sum_b [zeta(s-1, b) + (1-b) zeta(s, b)] over b = a/2, (a+1)/2
    mpmath = pytest.importorskip("mpmath")
    s = complex(s)
    got, _ = bz.barnes_direct(s, a, (1.0, 2.0))

    def closed_form(z):
        return complex(mpmath.power(2, -z) * sum(
            mpmath.zeta(z - 1, b) + (1 - b) * mpmath.zeta(z, b)
            for b in (mpmath.mpf(a) / 2, (mpmath.mpf(a) + 1) / 2)
        ))

    with mpmath.workdps(30):
        ref = closed_form(mpmath.mpc(s.real, s.imag))
        # the sum of the terms' moduli: rounding is relative to it, and it
        # exceeds |ref| 67-fold at s = 4 - 20i, a = 100
        scale = closed_form(mpmath.mpf(s.real)).real
    assert abs(got - ref) <= 1e-14 * scale


@pytest.mark.parametrize(
    "s, a, w, want",
    [
        (1.15 + 3j, 0.7, (math.sqrt(2.0),), 0.45198907705441643 + 1.2113780893441006j),
        # (1, 2) takes the Hurwitz combination, closer to mpmath than the recursion
        # was: 3.6e-16 and 1.6e-16 relative, against 1.2e-15 and 4.9e-16
        (2.15 + 10j, 1.0, (1.0, 2.0), 1.1649351194082458 - 0.0033290075015521836j),
        (5 - 7j, 0.3, (1.0, 2.0), -223.44141317728196 - 345.35958889284734j),
        (2.5 + 40j, 1.0, (1.0, math.sqrt(2.0)), 0.8083360268598899 + 0.033923383950875095j),
        # rank 3: the recursion's rows are summed in one flat order, within err
        # of the nested level-by-level sums (8.5e-16 and 6.6e-16 away)
        (3.15 + 2j, 0.9, (0.5, 1.0, 1.7), 1.3142756421189203 - 0.2788744639546148j),
        (6 + 25j, 1.5, (0.5, 1.0, 1.7), -0.07199119608462777 + 0.07820961783981249j),
        # more commensurate weights, each one Hurwitz combination over L residues
        (2.6 + 7j, 1.0, (2.0, 3.0), 0.9945789429034703 - 0.04443843107974717j),
        (4 - 3j, 0.3, (2.0, 3.0), -110.08683281889037 + 55.96130713641033j),
        (3.5 + 10j, 1.0, (1.0, 2.0, 3.0), 1.0702737924266796 - 0.026143619694847575j),
        (3.25 - 40j, 2.5, (1.0, 2.0, 3.0), 0.04236477399040643 - 0.0752004364507041j),
        (3.5 + 10j, 1.0, (2.0, 3.0, 5.0), 1.0012859574278692 + 0.016679512684964648j),
        (5 + 2j, 0.7, (2.0, 3.0, 5.0), 4.494219369148216 + 3.8867546055065034j),
    ],
)
def test_direct_keeps_its_bits(s, a, w, want):
    # recorded with repr: a change to the direct sum's arithmetic shows here first
    assert bz.barnes_direct(s, a, w)[0] == want


COMMENSURATE = [((1.0, 2.0), 1.0, (1, 2)), ((0.5, 1.5), 0.5, (1, 3)),
                ((2.0, 3.0), 1.0, (2, 3)), ((1.0, 2.0, 3.0), 1.0, (1, 2, 3))]


def mpmath_commensurate(s, a, q, n):
    """(value, sum of |terms|) of zeta_r(s, a; q n) = (qL)^(-s) sum_rho sum_i e_{rho,i}
    zeta(s - i, b_rho), from brute-force box counts and a Vandermonde solve in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    r, L = len(n), math.lcm(*n)
    m = np.indices([L * r // nj + 1 for nj in n]).reshape(r, -1)
    d = np.bincount(np.dot(n, m), minlength=L * r)
    z = mpmath.mpc(s.real, s.imag)
    pref = mpmath.power(mpmath.mpf(q) * L, -z)
    value, scale = 0, 0
    for rho in range(L):
        b = (mpmath.mpf(a) / mpmath.mpf(q) + rho) / L
        e = mpmath.lu_solve(mpmath.matrix([[(u + b) ** i for i in range(r)] for u in range(r)]),
                            mpmath.matrix([int(d[L * u + rho]) for u in range(r)]))
        for i in range(r):
            term = pref * e[i] * mpmath.zeta(z - i, b)
            value += term
            scale += abs(term)
    return complex(value), float(scale)


@pytest.mark.parametrize("a", [0.01, 0.3, 1.0, 100.0])
@pytest.mark.parametrize("w, q, n", COMMENSURATE)
def test_direct_at_commensurate_weights_matches_mpmath(w, q, n, a):
    mpmath = pytest.importorskip("mpmath")
    r = len(w)
    for s in (complex(r + 0.25, 300.0), complex(r + 1.5, -20.0)):
        got, err = bz.barnes_direct(s, a, w)
        with mpmath.workdps(30):
            ref, scale = mpmath_commensurate(s, a, q, n)
        assert abs(got - ref) <= 64.0 * zc.DEFAULT_PRECISION.rel_tol * scale
        assert type(got) is complex and type(err) is float


@pytest.mark.parametrize("s, a", [(3.5 + 5j, 1000.0), (3.5 + 5j, 100.0), (4 - 20j, 100.0)])
def test_combination_err_counts_the_rounding_of_its_sum(s, a):
    # at w = (1, 2) the terms' moduli sum to ~11 times the value, and the sum's
    # rounding, not the Hurwitz remainders, sets the error
    mpmath = pytest.importorskip("mpmath")
    got, err = bz.barnes_direct(s, a, (1.0, 2.0))
    with mpmath.workdps(40):
        ref, _ = mpmath_commensurate(s, a, 1.0, (1, 2))
    assert abs(got - ref) <= err


# (1, 29) takes the combination at these points, where the recursion's
# window needs more than its L r = 58 rows
_COMBINATION_AT_29 = {(0.3, 2.5 + 10j), (0.3, 4 - 20j), (1.0, 2.5 + 10j), (1.0, 4 - 20j),
                      (100.0, 4 - 20j)}


@pytest.mark.parametrize(
    "n, a, s",
    [(n, a, complex(s)) for n in ((1, 37), (1, 29)) for a in (0.3, 1.0, 100.0, 1000.0)
     for s in (2.15, 2.5 + 10j, 3.5 + 5j, 4 - 20j, 5 + 2j)
     if n == (1, 37) or (a, s) not in _COMBINATION_AT_29],
)
def test_recursion_err_counts_the_rounding_of_its_sum(monkeypatch, n, a, s):
    # commensurate weights whose recursion is cheaper, so an exact reference
    # exists; the err of every atom's sum, window and tails, must cover it
    mpmath = pytest.importorskip("mpmath")
    combined = []
    denumerant = bz._denumerant_terms
    monkeypatch.setattr(bz, "_denumerant_terms",
                        lambda *args: combined.append(args) or denumerant(*args))
    got, err = bz.barnes_direct(s, a, tuple(map(float, n)))
    assert combined == []
    with mpmath.workdps(40):
        ref, _ = mpmath_commensurate(s, a, 1.0, n)
    assert abs(got - ref) <= err


@pytest.mark.parametrize("s", [0.5 + 14.134725j, 0.5 + 14.134725141734693j])
def test_rank_one_err_covers_the_error_near_a_zero(s):
    # |value| is 1e-7 and 2e-15 here, far below the Euler-Maclaurin scale
    # (N + 1)^(-1/2) and the partial sums; an absolute err must not shrink with it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
    for got, err in (zc.hurwitz_zeta_bounded(s, 1.0), bz.multi_hurwitz_bounded(s, 1.0, 1),
                     zc.lerch_zeta_bounded(s, 1.0, 0)):
        assert abs(got - ref) <= err


@pytest.mark.parametrize("s, a", [(2.5 + 3j, 0.7), (3.25 - 40j, 2.5)])
def test_every_rank_one_err_is_the_hurwitz_err(s, a):
    # one absolute unit: each evaluator that reduces to one Hurwitz value
    # returns its value and its err, bit for bit
    want = zc.hurwitz_zeta_bounded(s, a)
    for got in (zc.lerch_zeta_bounded(s, a, 0), zc.lerch_zeta_bounded(s, a, Fraction(1)),
                bz.multi_hurwitz_bounded(s, a, 1), bz.barnes_direct(s, a, (1.0,))):
        assert got[0] == want[0]
        assert got[1].hex() == want[1].hex()


@pytest.mark.parametrize("n", [(1,), (1, 1), (1, 2), (2, 3), (1, 3), (2, 5), (1, 1, 2),
                               (1, 2, 3), (3, 5, 7), (1, 2, 3, 4)])
def test_denumerant_polynomials_reproduce_the_counts(n):
    # the r fitted counts per residue fix each polynomial; it must hold to k = 3 L r
    L, r = math.lcm(*n), len(n)
    size = 3 * L * r + 1
    d = np.ones(1, dtype=np.int64)
    for nj in n:
        d = bz._box_convolve(d, nj, (size - 1) // nj + 1)[:size]
    polys = bz._denumerant(n)
    assert len(polys) == L
    for k in range(size):
        u, poly = k // L, polys[k % L]
        assert all(type(c) is Fraction for c in poly)
        assert sum(c * u ** i for i, c in enumerate(poly)) == int(d[k])


@pytest.mark.parametrize(
    "w, s, combination",
    [
        ((1.0, 2.0), 2.5 + 10j, True),  # 4 rows against ~60 atoms
        ((37.0, 1.0), 2.5 + 10j, True),  # the window runs over w_2 = 1
        ((1.0, 37.0), 2.5 + 10j, False),  # 74 rows against ~60 atoms
        ((1.0, 37.0), 2.5 + 300j, True),  # the window grows with |t|
        ((math.sqrt(2.0),), 1.15 + 3j, False),  # one row against one atom
        ((1.0, math.sqrt(2.0)), 2.5 + 40j, False),  # L near 2^52
    ],
)
def test_direct_takes_the_cheaper_path(monkeypatch, w, s, combination):
    # the path is the generator whose groups reach the one evaluator
    made, fed = {"combination": [], "recursion": []}, []
    denumerant, recursion, evaluate = (bz._denumerant_terms, bz._recursion_terms,
                                       bz._hurwitz_combination)

    def spy_denumerant(*args):
        Q, groups = denumerant(*args)
        made["combination"].append(groups)
        return Q, groups

    def spy_recursion(*args):
        made["recursion"].append([])
        for group in recursion(*args):
            made["recursion"][-1].append(group)
            yield group

    monkeypatch.setattr(bz, "_denumerant_terms", spy_denumerant)
    monkeypatch.setattr(bz, "_recursion_terms", spy_recursion)
    monkeypatch.setattr(bz, "_hurwitz_combination",
                        lambda *args: fed.append(args[3]) or evaluate(*args))
    bz.barnes_direct(s, 1.0, w)
    taken = [path for path, outputs in made.items() if fed[0] in outputs]
    assert len(fed) == 1 and taken == ["combination" if combination else "recursion"]


def test_a_commensurate_value_is_one_kernel_call(monkeypatch):
    calls = []
    rows = zc._hurwitz_rows
    monkeypatch.setattr(zc, "_hurwitz_rows",
                        lambda *args, **kwargs: calls.append(len(args[0])) or rows(*args, **kwargs))
    bz.barnes_direct(3.5 + 10j, 1.0, (2.0, 3.0, 5.0))
    # L = lcm(2, 3, 5) = 30 residues, at most r = 3 rows each
    assert len(calls) == 1 and 30 <= calls[0] <= 90


@pytest.mark.parametrize(
    "w, s",
    [((math.sqrt(2.0),), 1.15 + 3j), ((1.0, math.sqrt(2.0)), 2.5 + 40j),
     ((0.5, 1.0, 1.7), 3.15 + 2j)],
)
def test_atoms_count_the_hurwitz_values_of_the_recursion(monkeypatch, w, s):
    # the budget is checked on the count alone, so the count must be the rows
    # that the one kernel call then evaluates
    walks, calls = [], []
    recursion, rows = bz._recursion_terms, zc._hurwitz_rows

    def spy_recursion(*args):
        walks.append(0)
        for group in recursion(*args):
            walks[-1] += len(group[1])
            yield group

    monkeypatch.setattr(bz, "_recursion_terms", spy_recursion)
    monkeypatch.setattr(zc, "_hurwitz_rows",
                        lambda *args: calls.append(len(args[0])) or rows(*args))
    bz.barnes_direct(s, 0.9, w)
    assert len(calls) == 1 and walks == [calls[0], calls[0]] and calls[0] > 0


def test_direct_over_budget_raises_before_any_value(monkeypatch):
    evaluated = []
    rows = zc._hurwitz_rows

    def spy_rows(*args):
        evaluated.append("rows")
        return rows(*args)

    monkeypatch.setattr(bz, "_ATOM_BUDGET", 1000)
    monkeypatch.setattr(zc, "_hurwitz_rows", spy_rows)
    with pytest.raises(ResourceBudgetError):
        bz.barnes_direct(3.5 + 10j, 1.0, (1.0, math.sqrt(2.0), math.sqrt(3.0)))
    assert evaluated == []


# ---------------------------------------------------------------------------
# lattice profiles


def test_profile_counts_equal_weights():
    p = bz.build_lattice_profile(0.3, (1.0, 1.0), 2.0)
    assert p.counts.tolist() == [1, 2, 3, 2, 1]
    assert p.total == 9
    assert np.all(np.diff(p.values) > 0)


def test_profile_commensurate_collapse():
    # w = (1, 2): values a + i + 2j over 0..10 squared collapse to 31 levels
    p = bz.build_lattice_profile(0.5, (1.0, 2.0), 10.0)
    assert p.total == 121
    assert p.values.size == 31


def test_profile_generic_weights_do_not_collapse():
    p = bz.build_lattice_profile(0.5, (1.0, math.sqrt(2.0)), 9.0)
    assert p.total == 100
    assert p.values.size == 100


@pytest.mark.parametrize("a", [1.0, 0.5, 0.3])
@pytest.mark.parametrize(
    "w, q, n",
    [
        ((1.0, 2.0), 1.0, (1, 2)),
        ((2.0, 3.0), 1.0, (2, 3)),
        ((0.5, 1.5), 0.5, (1, 3)),
        ((1.0, 1.0, 2.0), 1.0, (1, 1, 2)),
        ((1.0, 2.0, 3.0), 1.0, (1, 2, 3)),
    ],
)
def test_commensurate_profile_matches_brute_force_box(w, q, n, a):
    # every point m of the box sits at level k = n.m, i.e. at a + q k
    x = 7.5
    p = bz.build_lattice_profile(a, w, x)
    m = np.indices([8] * len(w)).reshape(len(w), -1)
    levels, counts = np.unique(np.dot(n, m), return_counts=True)
    assert np.array_equal(p.counts, counts)
    assert np.array_equal(p.values, a + q * levels)
    # the same multiset as the box's float sums, to the last bit or two
    sums = np.sort(a + np.dot(w, m))
    spread = np.repeat(p.values, counts)
    assert np.all(np.abs(spread - sums) <= 2.5e-16 * sums)


def test_rank_three_box_budget_counts_levels_for_commensurate_weights():
    # (1, 2, 3) at x = 2000 is 8e9 box points but 12,001 levels
    p = bz.build_lattice_profile(1.0, (1.0, 2.0, 3.0), 2000.0)
    assert p.total == 2001 ** 3
    assert p.values.size == 6 * 2000 + 1
    # partitions of k into parts 1, 2, 3
    assert p.counts[:8].tolist() == [1, 1, 2, 3, 4, 5, 7, 8]
    with pytest.raises(ResourceBudgetError):
        bz.build_lattice_profile(1.0, (1.0, math.e, math.pi), 2000.0)


# ---------------------------------------------------------------------------
# barnes_truncated


def test_truncated_overlaps_direct():
    pol = bz.TruncationPolicy()
    for r, w in ((1, (1.0,)), (2, (1.0, 2.0)), (2, (1.0, math.sqrt(2.0)))):
        sigma = r + 0.4
        for t in (6.0, 18.0):
            x = pol.x_for(t)
            s = complex(sigma, t)
            vd, _ = bz.barnes_direct(s, 0.7, w)
            vt, scale = bz.barnes_truncated(s, 0.7, w, x)
            assert abs(vd - vt) <= 10.0 * scale


def test_bounded_picks_the_regime():
    w = (1.0, math.sqrt(2.0))
    s = complex(2.15, 3.0)
    assert bz.barnes_zeta_bounded(s, 0.7, w) == bz.barnes_direct(s, 0.7, w)
    for s in (complex(2.1, 3.0), complex(1.05, -30.0)):
        assert bz.barnes_zeta_bounded(s, 0.7, w) == bz.barnes_truncated(s, 0.7, w, abs(s.imag))
    for s in (complex(1.0, 30.0), complex(2.05, 1.5)):
        with pytest.raises(DomainError):
            bz.barnes_zeta_bounded(s, 0.7, w)


def test_truncated_validity_window():
    with pytest.raises(TruncationValidityError):
        bz.barnes_truncated(complex(2.5, 50.0), 0.7, (1.0, 1.0), 10.0)


def test_truncated_pole_guard():
    with pytest.raises(PoleError):
        bz.barnes_truncated(complex(2.0, 0.0), 0.7, (1.0, 1.0), 10.0)
    for k in (1, 2):
        with pytest.raises(PoleError):
            bz.barnes_truncated_line(float(k), 0.7, (1.0, 1.0), np.linspace(-4.0, 4.0, 9))


def test_truncated_line_matches_scalar():
    ts = np.array([3.0, 11.0, 19.5])
    x = 25.0
    w = (1.0, 1.5)
    prof = bz.build_lattice_profile(0.7, w, x)
    row, _ = bz.barnes_truncated_line(1.5, 0.7, w, ts, x=x, profile=prof)
    for i, t in enumerate(ts):
        want, _ = bz.barnes_truncated(complex(1.5, t), 0.7, w, x, profile=prof)
        assert abs(row[i] - want) <= 1e-11 * abs(want)


def test_truncated_line_default_x_from_policy():
    ts = np.linspace(1.0, 40.0, 17)
    row, scale = bz.barnes_truncated_line(1.5, 0.7, (1.0, 1.0), ts)
    assert row.shape == (17,)
    assert scale == pytest.approx(40.0 ** (2 - 1 - 1.5), rel=1e-12)


def test_truncated_profile_mismatch_rejected():
    prof = bz.build_lattice_profile(0.7, (1.0, 1.0), 10.0)
    with pytest.raises(DomainError):
        bz.barnes_truncated(complex(2.5, 3.0), 0.9, (1.0, 1.0), 10.0, profile=prof)


def test_truncated_reruns_bit_identical():
    ts = np.linspace(1.0, 30.0, 301)
    r1, _ = bz.barnes_truncated_line(1.25, 0.7, (1.0, 2.0), ts)
    r2, _ = bz.barnes_truncated_line(1.25, 0.7, (1.0, 2.0), ts)
    assert r1.tobytes() == r2.tobytes()


BATCH_SIGMAS = (1.25, 1.5, 1.75)
BATCH_W = (1.0, math.sqrt(2.0))


def _per_sigma_rows(ts):
    return [bz.barnes_truncated_line(sigma, 0.7, BATCH_W, ts) for sigma in BATCH_SIGMAS]


def test_truncated_batch_matches_per_sigma_lines_on_geometric_grid():
    ts = _t_nodes(40.0)  # not evenly spaced: the direct phase matrix
    rows, errs = bz.barnes_truncated_line_batch(BATCH_SIGMAS, 0.7, BATCH_W, ts)
    assert rows.shape == (len(BATCH_SIGMAS), ts.size)
    for row, err, (want, want_err) in zip(rows, errs, _per_sigma_rows(ts)):
        assert np.array_equal(row, want)
        assert err == want_err


def test_truncated_batch_matches_per_sigma_lines_on_simpson_grid():
    ts = simpson_nodes(60.0, 0.7)[0]
    h = ts[1] - ts[0]
    assert np.array_equal(ts, ts[0] + h * np.arange(ts.size))  # the factored phases
    rows, _ = bz.barnes_truncated_line_batch(BATCH_SIGMAS, 0.7, BATCH_W, ts)
    for row, (want, _) in zip(rows, _per_sigma_rows(ts)):
        assert np.array_equal(row, want)


def test_truncated_batch_error_scales():
    ts = np.linspace(1.0, 40.0, 17)
    x = bz.TruncationPolicy().x_for(40.0)
    _, errs = bz.barnes_truncated_line_batch(BATCH_SIGMAS, 0.7, BATCH_W, ts)
    assert errs == [x ** (2 - 1 - sigma) for sigma in BATCH_SIGMAS]
    assert all(type(e) is float for e in errs)


def test_truncated_batch_guards():
    with pytest.raises(PoleError):
        bz.barnes_truncated_line_batch((1.5, 2.0), 0.7, BATCH_W, np.linspace(-4.0, 4.0, 9))
    with pytest.raises(TruncationValidityError):
        bz.barnes_truncated_line_batch(
            BATCH_SIGMAS, 0.7, BATCH_W, np.array([5.0, 50.0]), x=10.0
        )


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=2.0),
    scale=st.floats(min_value=0.5, max_value=3.0),
    t=st.floats(min_value=-10.0, max_value=10.0),
)
def test_homogeneity_property(a, scale, t):
    s = complex(3.6, t)
    w = (1.0, 1.3)
    v1, _ = bz.barnes_direct(s, scale * a, tuple(scale * x for x in w))
    v2, _ = bz.barnes_direct(s, a, w)
    pref = np.exp(-s * np.log(scale))
    assert abs(v1 - pref * v2) <= 1e-9 * max(abs(v1), 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=12.0),
    w2=st.floats(min_value=0.3, max_value=3.0),
)
def test_profile_total_is_exact_power(x, w2):
    p = bz.build_lattice_profile(0.4, (1.0, w2), x)
    assert p.total == (int(math.floor(x)) + 1) ** 2
