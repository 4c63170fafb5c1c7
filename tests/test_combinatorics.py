"""Tests for Bernoulli numbers and reduction coefficients."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline.combinatorics import (
    CoefficientTable,
    bernoulli,
    reduction_coefficients,
)
from zetaline.errors import DomainError


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(13) == 0


def test_bernoulli_worpitzky_oracle():
    # B_n = sum_{k<=n} (-1)^k k! S2(n,k) / (k+1) via an independent
    # double-sum for the second-kind Stirling numbers
    def stirling2(n, k):
        return sum(
            (-1) ** (k - j) * math.comb(k, j) * j ** n for j in range(k + 1)
        ) // math.factorial(k)

    for n in (0, 1, 2, 4, 8, 12):
        want = sum(
            Fraction((-1) ** k * math.factorial(k) * stirling2(n, k), k + 1)
            for k in range(n + 1)
        )
        assert bernoulli(n) == want


def test_reduction_coefficients_small_cases():
    # r = 1: single coefficient 1 (binomial C(n,0) = 1)
    t1 = reduction_coefficients(1, Fraction(1, 2))
    assert t1.coeffs == (Fraction(1),)
    # r = 2, a = 1/2: C(n+1,1) = n + 1 = 1/2 + (n + 1/2)
    t2 = reduction_coefficients(2, Fraction(1, 2))
    assert t2.coeffs == (Fraction(1, 2), Fraction(1))
    # r = 3, a = 1: C(n+2,2) = (n+1)(n+2)/2 = ((n+1)^2 + (n+1))/2
    t3 = reduction_coefficients(3, 1)
    assert t3.coeffs == (Fraction(0), Fraction(1, 2), Fraction(1, 2))


def test_reduction_identity_exact_for_rationals():
    for r in (1, 2, 3, 5, 8):
        for a in (Fraction(3, 10), Fraction(1, 2), 1, Fraction(7, 3)):
            table = reduction_coefficients(r, a)
            for n in range(0, 31):
                assert table.identity_residual(n) == 0


def test_reduction_identity_float_mode():
    table = reduction_coefficients(4, 0.37)
    for n in (0, 1, 5, 20):
        assert abs(table.identity_residual(n)) <= 1e-9 * math.comb(n + 3, 3)


@pytest.mark.parametrize("a", [0.01, 0.3, 5.29, 37.7, 99.7])
def test_float_tables_are_the_exact_table_rounded_once(a):
    # one generator: a float a gives the exact table at Fraction(a), each
    # coefficient rounded once, for every rank
    for r in range(1, 17):
        exact = reduction_coefficients(r, Fraction(a)).coeffs
        assert reduction_coefficients(r, a).coeffs == tuple(float(c) for c in exact)


def test_reduction_domain():
    with pytest.raises(DomainError):
        reduction_coefficients(0, 0.5)
    with pytest.raises(DomainError):
        reduction_coefficients(17, 0.5)


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_reduction_needs_a_finite_a(a):
    # the exact shift takes a's integer ratio, which a non-finite a lacks
    with pytest.raises(DomainError):
        reduction_coefficients(3, a)


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=9),
    num=st.integers(min_value=1, max_value=40),
    den=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=0, max_value=60),
)
def test_reduction_identity_property(r, num, den, n):
    a = Fraction(num, den)
    table = reduction_coefficients(r, a)
    assert table.identity_residual(n) == 0
