"""Incomplete beta and the binomial tail draws built on it."""

import math
import random
import time
from fractions import Fraction
from statistics import NormalDist

import pytest

from rps import betainc
from rps.engine import MAX_CAPACITY
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
    # at k = 2.5 and p = 1 the search used to reach lo = 2, hi = 2.5 and
    # retry mid = 2 forever
    for k in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=f"reservoir capacity must be an int, got {k!r}"):
            realisations_from_uniform(k, 1.0, 0.5)


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


def test_a_decision_past_300_terms_returns_a_count():
    # the continued fraction used to stop after 300 terms, which at p = 0.5
    # lasted up to k = 373 998; its limit now grows with k, and the counts
    # lie where a normal approximation of Bin(k, 0.5) puts them
    for k in (373_998, 373_999, 400_000):
        sd = math.sqrt(k * 0.25)
        for x in (0.01, 0.25, 0.5, 0.75, 0.99):
            m = realisations_from_uniform(k, 0.5, x)
            assert abs(m - (k / 2 + NormalDist().inv_cdf(1 - x) * sd)) < 2, (k, x)


def _exact_inverse(k, p, xs):
    # x -> (the largest m with P(Bin(k, p) >= m) >= x, with p read exactly
    # as the float it is, and S(m), S(m + 1) as floats).  Over the common
    # denominator D^k of p = P / D, the tail gains C(k, m) P^m (D - P)^(k-m)
    # as m walks down from k
    num, den = Fraction(p).as_integer_ratio()
    scale = den**k
    term, tail, out = num**k, 0, {}
    todo = sorted(map(Fraction, xs))
    for m in range(k, -1, -1):
        above, tail = tail, tail + term
        while todo and tail * todo[0].denominator >= todo[0].numerator * scale:
            out[float(todo.pop(0))] = (m, tail / scale, above / scale)
        if not todo:
            return out
        term = term * (den - num) * m // ((k - m + 1) * num)
    raise AssertionError("S(0) = 1 holds every x")


def _near(x, s):
    # x within 1e-9 of the threshold s > 0, relative to s or to 1 - s,
    # whichever is smaller, or within 1e-15 s (a few floats at s near 1)
    return s > 0 and abs(x - s) <= 1e-9 * min(s, 1 - s) + 1e-15 * s


def test_every_capacity_decides_on_a_log_grid():
    # k from 1 to MAX_CAPACITY, p across (0, 1), x across [0, 1): every call
    # returns within 0.25 s of CPU (about 7 ms at most on a 2-core VM), the
    # count does not grow with x, and up to k = 3000 it is the exact inverse
    # CDF, but where x is near a threshold S(m) (_near), which the float
    # survival may put on either side of x: at k = 65, p = 0.5, S(33) is 0.5
    # exactly and a float below it
    ks = (1, 3, 10, 30, 64, 65, 100, 300, 1000, 3000, 10**4, 10**5, 10**6, MAX_CAPACITY)
    ps = (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6)
    xs = (0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1 - 1e-9)
    checked = near = 0
    for k in ks:
        for p in ps:
            exact = _exact_inverse(k, p, xs) if k <= 3000 else None
            last = k
            for x in xs:
                start = time.process_time()
                m = realisations_from_uniform(k, p, x)
                assert time.process_time() - start < 0.25, (k, p, x)
                assert 0 <= m <= last, (k, p, x)
                last = m
                if exact is not None:
                    want, at, above = exact[x]
                    if _near(x, at) or _near(x, above):
                        near += 1
                    else:
                        assert m == want, (k, p, x)
                        checked += 1
    assert checked > 50 * near


def test_realisations_from_uniform_mean():
    # E[m] = k p with x uniform; deterministic grid keeps this exact-ish
    k, p = 10, 0.37
    grid = 200_000
    total = sum(realisations_from_uniform(k, p, (i + 0.5) / grid) for i in range(grid))
    assert total / grid == pytest.approx(k * p, abs=2e-4)
