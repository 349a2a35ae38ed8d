"""Incomplete beta and the binomial tail draws built on it."""

import math
import random

import pytest

from rps import betainc
from rps.errors import RpsError
from rps.betainc import (
    _DIRECT_MAX_TRIALS,
    _largest_above,
    binomial_survival,
    binomial_survival_direct,
    realisations_from_uniform,
    reg_inc_beta,
)


def test_reg_inc_beta_fixture_points():
    # I_0.5(1, 3) = 1 - (1 - 0.5)^3
    assert reg_inc_beta(1, 3, 0.5) == pytest.approx(0.875, abs=1e-12)
    # I_x(1, b) = 1 - (1-x)^b and I_x(a, 1) = x^a
    for x in (0.1, 0.37, 0.9):
        assert reg_inc_beta(1, 4, x) == pytest.approx(1 - (1 - x) ** 4, abs=1e-12)
        assert reg_inc_beta(3, 1, x) == pytest.approx(x**3, abs=1e-12)
    # symmetric point of the symmetric distribution
    assert reg_inc_beta(5, 5, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_reg_inc_beta_bounds_and_domain():
    assert reg_inc_beta(2, 3, 0.0) == 0.0
    assert reg_inc_beta(2, 3, 1.0) == 1.0
    with pytest.raises(ValueError):
        reg_inc_beta(0, 1, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1, -2, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1, 1, 1.5)


def test_reg_inc_beta_symmetry():
    rng = random.Random(4)
    for _ in range(300):
        a = rng.uniform(0.5, 40)
        b = rng.uniform(0.5, 40)
        x = rng.random()
        assert reg_inc_beta(a, b, x) == pytest.approx(
            1 - reg_inc_beta(b, a, 1 - x), abs=1e-12
        )


def test_reg_inc_beta_monotone_in_x():
    for a, b in ((1, 1), (2, 7), (13, 3), (40, 40)):
        prev = 0.0
        for i in range(1, 100):
            cur = reg_inc_beta(a, b, i / 100)
            assert cur >= prev - 1e-15
            prev = cur


def test_beta_matches_direct_binomial_sum():
    # the identity P(Bin(k, p) >= n) = I_p(n, k-n+1), both routes independent
    rng = random.Random(31337)
    for _ in range(400):
        k = rng.randint(1, 64)
        n = rng.randint(1, k)
        p = rng.uniform(1e-6, 1 - 1e-6)
        direct = binomial_survival_direct(n, k, p)
        via_beta = reg_inc_beta(n, k - n + 1, p)
        assert via_beta == pytest.approx(direct, abs=1e-10, rel=1e-10)


def test_binomial_survival_edges():
    assert binomial_survival(0, 5, 0.3) == 1.0
    assert binomial_survival(-2, 5, 0.3) == 1.0
    assert binomial_survival(6, 5, 0.3) == 0.0
    assert binomial_survival(3, 5, 0.0) == 0.0
    assert binomial_survival(3, 5, 1.0) == 1.0
    with pytest.raises(ValueError):
        binomial_survival(1, -1, 0.5)
    with pytest.raises(ValueError):
        binomial_survival(1, 5, 1.5)
    # large-k path goes through the continued fraction
    assert binomial_survival(50, 200, 0.25) == pytest.approx(
        reg_inc_beta(50, 151, 0.25), rel=1e-12
    )


def test_realisations_from_uniform_is_exact_binomial():
    # the draw inverts the survival function: over x in [0, 1) the count m
    # occupies an interval of exactly P(Bin(k, p) = m)
    for k in (1, 2, 10, 40):
        for p in (0.05, 0.3, 0.73, 1.0):
            for m in range(0, k + 1):
                s_m = binomial_survival(m, k, p)
                s_next = binomial_survival(m + 1, k, p)
                if s_m > s_next:  # m has positive mass
                    if s_m < 1.0:
                        assert realisations_from_uniform(k, p, s_m) == m
                    mid = (s_m + s_next) / 2
                    if mid < s_m:
                        assert realisations_from_uniform(k, p, mid) == m
    assert realisations_from_uniform(5, 0.0, 0.3) == 0
    assert realisations_from_uniform(5, 1.0, 0.999) == 5
    with pytest.raises(ValueError):
        realisations_from_uniform(5, 0.5, 1.0)


def test_reject_first_matches_the_search(monkeypatch):
    # rejecting on S(1) < x up front gives what the binary search over
    # [0 .. k] gives, on both sides of the direct/continued-fraction switch
    # and with x at S(1) and one float either side of it
    for k in (1, 2, 10, _DIRECT_MAX_TRIALS - 1, _DIRECT_MAX_TRIALS,
              _DIRECT_MAX_TRIALS + 1, 100, 1000):
        for p in (1e-4, 0.003, 0.05, 0.3, 0.73, 0.999, 1.0):
            s1 = binomial_survival(1, k, p)
            xs = [0.0, 1e-9, 0.001, 0.1, 0.5, 0.9, 0.999]
            xs += [s1, math.nextafter(s1, 0.0), math.nextafter(s1, 1.0)]
            for x in xs:
                if x < 1.0:
                    assert realisations_from_uniform(k, p, x) == _largest_above(
                        k, p, x
                    ), (k, p, x)

    calls = []
    original = betainc.binomial_survival
    monkeypatch.setattr(
        betainc, "binomial_survival", lambda *a: calls.append(a) or original(*a)
    )
    assert realisations_from_uniform(1000, 1e-4, 0.5) == 0
    assert calls == [(1, 1000, 1e-4)]


def test_a_decision_that_does_not_converge_is_a_typed_refusal():
    # the continued fraction stops after _MAX_ITER terms, which at p = 0.5
    # last up to k = 373 998; past it the decision is refused, not miscounted
    for x in (0.01, 0.25, 0.5, 0.75, 0.99):
        assert 0 < realisations_from_uniform(373_998, 0.5, x) <= 373_998
        with pytest.raises(RpsError, match="did not converge for a=.*, b=.*, x="):
            realisations_from_uniform(373_999, 0.5, x)
    with pytest.raises(RpsError):
        realisations_from_uniform(400_000, 0.5, 0.5)


def test_realisations_from_uniform_mean():
    # E[m] = k p with x uniform; deterministic grid keeps this exact-ish
    k, p = 10, 0.37
    grid = 200_000
    total = sum(realisations_from_uniform(k, p, (i + 0.5) / grid) for i in range(grid))
    assert total / grid == pytest.approx(k * p, abs=2e-4)
