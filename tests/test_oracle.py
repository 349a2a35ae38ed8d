"""The enumeration oracle itself: counts, utilities, laws, fixture values,
and the replacement-count rules kept for comparison."""

import math
import random

import pytest

from rps import betainc, oracle
from rps.betainc import binomial_survival
from rps.errors import ConfigurationError
from rps.measures import BaseMeasure, MeasureSpec
from rps.model import (
    Batch,
    pattern,
    plain_itemset,
    sequence,
    weighted_itemset,
)

from conftest import A, B, C, D, E

FREQ = MeasureSpec(BaseMeasure.FREQ)
AREA = MeasureSpec(BaseMeasure.AREA)
UTIL = MeasureSpec(BaseMeasure.UTIL)
AVGUTIL = MeasureSpec(BaseMeasure.AVGUTIL)


def test_enumerate_itemset_counts():
    assert len(oracle.enumerate_patterns(plain_itemset([A, B, C]))) == 7
    assert len(oracle.enumerate_patterns(weighted_itemset({A: 1.0, B: 2.0}))) == 3
    capped = oracle.enumerate_patterns(plain_itemset([A, B, C]), max_norm=2)
    assert len(capped) == 6


def test_enumerate_sequence_counts(seq_stream):
    (z1, z2), (z3,) = seq_stream[0].instances, seq_stream[1].instances
    assert len(oracle.enumerate_patterns(z1)) == 27
    assert len(oracle.enumerate_patterns(z2)) == 49
    assert len(oracle.enumerate_patterns(z3)) == 13
    union = (
        oracle.enumerate_patterns(z1)
        | oracle.enumerate_patterns(z2)
        | oracle.enumerate_patterns(z3)
    )
    assert len(union) == 68


def test_enumeration_guard():
    with pytest.raises(ValueError):
        oracle.enumerate_patterns(plain_itemset(range(15)))


def test_pattern_utility():
    z = weighted_itemset({B: 2.0, C: 1.0, D: 2.0, E: 1.0})
    assert oracle.pattern_utility(pattern([[B, C]]), z) == 3.0
    assert oracle.pattern_utility(pattern([[A, B]]), z) == 0.0
    assert oracle.pattern_utility(pattern([[B], [C]]), z) == 0.0
    z3 = sequence([[B], [A, C], [A]])
    assert oracle.pattern_utility(pattern([[B], [A]]), z3) == 1.0
    assert oracle.pattern_utility(pattern([[A], [C]]), z3) == 0.0


def test_pattern_measure_applies_norm_factor():
    z = plain_itemset([A, B, C])
    x = pattern([[A, B]])
    assert oracle.pattern_measure(x, z, AREA) == 2.0
    banded = MeasureSpec(BaseMeasure.AREA, min_norm=3)
    assert oracle.pattern_measure(x, z, banded) == 0.0


def test_global_utility_fixture_sequences(seq_stream):
    x = pattern([[A], [C]])
    assert oracle.global_utility(seq_stream, x, FREQ) == 2.0
    assert oracle.global_utility(seq_stream, x, AREA) == 4.0
    damped = oracle.global_utility(seq_stream, x, AREA, gamma=0.1)
    assert damped == pytest.approx(4 * math.exp(-0.1), rel=1e-12)
    assert damped == pytest.approx(3.6, abs=0.05)


def test_global_utility_fixture_weighted(weighted_stream):
    x = pattern([[B, C]])
    assert oracle.global_utility(weighted_stream, x, UTIL) == 6.5
    assert oracle.global_utility(weighted_stream, x, AVGUTIL) == 3.25
    damped = oracle.global_utility(weighted_stream, x, UTIL, gamma=0.1)
    assert damped == pytest.approx(3.5 * math.exp(-0.1) + 3.0, rel=1e-12)
    assert damped == pytest.approx(6.2, abs=0.05)


def test_batch_law_normalizes(plain_batch):
    law = oracle.batch_law(plain_batch, FREQ)
    assert math.fsum(law.values()) == pytest.approx(1.0, rel=1e-12)
    # {A,C} sits in both instances: mass 2 of total 10
    assert law[pattern([[A, C]])] == pytest.approx(0.2, rel=1e-12)
    assert law[pattern([[A, B]])] == pytest.approx(0.1, rel=1e-12)


def test_stream_law_is_damped_mixture(seq_stream):
    gamma = 0.3
    law = oracle.stream_law(seq_stream, FREQ, gamma=gamma)
    assert math.fsum(law.values()) == pytest.approx(1.0, rel=1e-12)
    # stream law = batch-weight-proportional mixture of batch laws
    w1 = 27 + 49
    w2 = 13
    d1 = math.exp(-gamma * 1.0)
    mix_b = (w2 * 1.0) / (w1 * d1 + w2)
    b_only = pattern([[B], [A, C], [A]])  # only in z3
    assert law[b_only] == pytest.approx(mix_b / 13, rel=1e-9)


def test_stream_law_respects_norm_band(seq_stream):
    spec = MeasureSpec(BaseMeasure.FREQ, min_norm=1, max_norm=2)
    law = oracle.stream_law(seq_stream, spec)
    assert all(x.norm <= 2 for x in law)
    assert math.fsum(law.values()) == pytest.approx(1.0, rel=1e-12)


def test_total_variation_and_frequencies():
    p = {pattern([[A]]): 0.5, pattern([[B]]): 0.5}
    q = {pattern([[A]]): 1.0}
    assert oracle.total_variation(p, p) == 0.0
    assert oracle.total_variation(p, q) == pytest.approx(0.5)
    freqs = oracle.frequencies([pattern([[A]]), pattern([[A]]), pattern([[B]])])
    assert freqs[pattern([[A]])] == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        oracle.frequencies([])
    with pytest.raises(ValueError):
        oracle.batch_law(Batch(1.0, ()), FREQ)


def test_damping():
    assert oracle.damping(0.0, 10.0, 3.0) == 1.0
    assert oracle.damping(0.1, 2.0, 1.0) == pytest.approx(math.exp(-0.1), rel=1e-15)
    assert oracle.damping(1.0, 5.0, 5.0) == 1.0
    with pytest.raises(ValueError):
        oracle.damping(0.1, 1.0, 2.0)  # t_then after t_now
    with pytest.raises(ConfigurationError):
        oracle.damping(-0.1, 2.0, 1.0)
    with pytest.raises(ConfigurationError):
        oracle.damping(1.1, 2.0, 1.0)


def test_inv_draw_realisations_fixture():
    # k=2, p=0.6, x=0.5: P(Bin(1, 0.6) >= 1) = 0.6 >= 0.5, so both slots
    assert oracle.inv_draw_realisations(2, 0.6, 0.5) == 2
    assert oracle.inv_draw_realisations(2, 0.6, 0.59) == 2
    assert oracle.inv_draw_realisations(1, 0.42, 0.1) == 1
    assert oracle.inv_draw_realisations(3, 1.0, 0.999) == 3


def test_inv_draw_realisations_domain():
    with pytest.raises(ValueError):
        oracle.inv_draw_realisations(0, 0.5, 0.1)
    with pytest.raises(ValueError):
        oracle.inv_draw_realisations(2, 0.0, 0.0)
    with pytest.raises(ValueError):
        oracle.inv_draw_realisations(2, 0.5, 0.5)  # x must be below p
    with pytest.raises(ValueError):
        oracle.inv_draw_realisations(2, 0.5, -0.1)


def test_conditional_draw_law():
    k, p = 6, 0.4
    rng = random.Random(7)
    n = 100_000
    counts = [0] * (k + 1)
    for _ in range(n):
        counts[oracle.draw_realisations_conditional(k, p, rng)] += 1
    assert counts[0] == 0
    s1 = binomial_survival(1, k, p)
    for m in range(1, k + 1):
        pm = (binomial_survival(m, k, p) - binomial_survival(m + 1, k, p)) / s1
        assert counts[m] / n == pytest.approx(pm, abs=0.01)
    with pytest.raises(ValueError):
        oracle.draw_realisations_conditional(0, 0.4, rng)
    with pytest.raises(ValueError):
        oracle.draw_realisations_conditional(3, 0.0, rng)


def test_rejected_rules_agree_with_the_engine_rule_at_k1():
    # at capacity 1 every rule replaces the one slot when x < p and the
    # engine's rule rejects past p, so all rules give the same reservoir
    for p in (0.05, 0.3, 13 / 89, 0.73, 1.0):
        for i in range(50):
            x = p * i / 50
            assert (
                oracle.inv_draw_realisations(1, p, x)
                == betainc.realisations_from_uniform(1, p, x)
                == 1
            )
            assert oracle.draw_realisations_conditional(1, p, random.Random(i)) == 1
            above = p + (1.0 - p) * (i + 1) / 51
            if above < 1.0:
                assert betainc.realisations_from_uniform(1, p, above) == 0
