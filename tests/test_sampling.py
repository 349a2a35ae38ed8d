"""Staged draws: index sampling, norm draws, pattern draws, batch draws."""

import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from rps import model, oracle, weighting
from rps.engine import sample_distinct_indices, sample_from_batch
from rps.errors import ConfigurationError, WeightOverflowError
from rps.measures import BaseMeasure, MeasureSpec
from rps.model import Batch, Pattern, PlainItemset, matches, plain_itemset, sequence
from rps.model import weighted_itemset
from rps.weighting import _subset, batch_weight, draw_pattern_of_norm, weight_table

import streamgen
from conftest import A, B, C, D

FREQ = MeasureSpec(BaseMeasure.FREQ)
UTIL = MeasureSpec(BaseMeasure.UTIL)


def test_sample_distinct_indices_basics():
    rng = random.Random(1)
    for n, k in ((5, 0), (5, 5), (9, 3), (1, 1)):
        out = sample_distinct_indices(rng, n, k)
        assert len(out) == k == len(set(out))
        assert all(0 <= i < n for i in out)
    assert sorted(sample_distinct_indices(rng, 6, 6)) == list(range(6))
    with pytest.raises(ValueError):
        sample_distinct_indices(rng, 3, 4)
    with pytest.raises(ValueError):
        sample_distinct_indices(rng, 3, -1)


def _randrange_indices(rng, n, k):
    """The partial Fisher-Yates with one randrange(i, n) per index."""
    swap = {}
    out = []
    for i in range(k):
        j = rng.randrange(i, n)
        out.append(swap.get(j, j))
        swap[j] = swap.get(i, i)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 1000, 2**31 + 1])
def test_sample_distinct_indices_consume_as_randrange(n):
    # same indices and same generator state after, for every k; several
    # seeds and calls in a row reach the retries of a width just past a
    # power of two
    for seed in range(4):
        ours, ref = random.Random(seed), random.Random(seed)
        for k in range(min(n, 40) + 1):
            assert sample_distinct_indices(ours, n, k) == _randrange_indices(ref, n, k)
            assert ours.getstate() == ref.getstate(), (seed, k)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 1000, 2**31 + 1, 2**200 + 3])
def test_below_consumes_as_randrange(n):
    # the same value and generator state after, several calls in a row
    ours, ref = random.Random(n), random.Random(n)
    for _ in range(20):
        assert weighting._below(ours, n) == ref.randrange(n)
        assert ours.getstate() == ref.getstate()


def test_below_refuses_an_empty_range():
    # getrandbits(0) is 0, so a bare retry loop below 0 would never end
    for n in (0, -3):
        with pytest.raises(ValueError, match="empty range"):
            weighting._below(random.Random(1), n)


def test_sample_distinct_indices_uniform():
    # all 2-subsets of range(4) equally likely
    rng = random.Random(2)
    counts = Counter(
        tuple(sorted(sample_distinct_indices(rng, 4, 2))) for _ in range(30_000)
    )
    assert len(counts) == 6
    for pair, c in counts.items():
        assert c / 30_000 == pytest.approx(1 / 6, abs=0.01), pair


def _indexed_subset(items, sums, ell, rng):
    """An itemset pattern drawn by indices: sample_distinct_indices, then the
    items at them, skipping a weighted row's pivot."""
    if sums is None:
        chosen = [items[i] for i in sample_distinct_indices(rng, len(items), ell)]
    else:
        pivot = bisect_right(sums, rng.random() * sums[-1])
        rest = sample_distinct_indices(rng, len(items) - 1, ell - 1)
        chosen = [items[pivot], *(items[i if i < pivot else i + 1] for i in rest)]
    return (tuple(sorted(chosen)),)


def _subset_cases():
    # every ell for small n; around powers of two, where widths need
    # retries, and up to 1000, the ends and a few ells between
    for n in range(1, 34):
        yield from ((n, ell) for ell in range(1, n + 1))
    for n in (63, 64, 65, 127, 128, 129, 255, 256, 257, 1000):
        yield from ((n, ell) for ell in sorted({1, 2, 3, n // 3, n // 2, n - 2, n - 1, n}))


def test_an_itemset_draw_takes_the_items_and_bits_of_the_indexed_draw():
    # the in-place shuffle over the row's items against the draw by
    # indices: the same pattern and the same generator state after each
    # draw, plain and weighted, with the pivot first, last or drawn
    rng = random.Random(21)
    for n, ell in _subset_cases():
        items = tuple(sorted(rng.sample(range(5 * n), n)))
        weights = list(itertools.accumulate(rng.random() + 0.1 for _ in range(n)))
        first = [1.0] * n  # every point lands on item 0
        last = [0.0] * (n - 1) + [1.0]  # every point lands on item n - 1
        for sums in (None, first, last, weights):
            seed = rng.getrandbits(32)
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):  # draws in a row from the same items
                assert _subset(items, sums, ell, ours) == _indexed_subset(items, sums, ell, ref)
                assert ours.getstate() == ref.getstate(), (n, ell, sums is None)
    assert _subset((A,), [1.0], 1, rng) == ((A,),)
    for sums, ell in ((None, 3), (None, -1), ([1.0, 2.0], 3), ([1.0, 2.0], 0)):
        with pytest.raises(ValueError):
            _subset((A, B), sums, ell, rng)


def test_draw_instance_proportional():
    # under min_norm=2, {A,B} has mass 1, {C} none and {A,C,D} mass 4;
    # no pattern is shared between them, so each draw names its instance
    rng = random.Random(3)
    pairs = MeasureSpec(BaseMeasure.FREQ, min_norm=2)
    batch = Batch(1.0, tuple(plain_itemset(z) for z in ([A, B], [C], [A, C, D])))
    counts = Counter(sample_from_batch(batch, pairs, 40_000, rng))
    acd = {Pattern((z,)) for z in ((A, C), (A, D), (C, D), (A, C, D))}
    assert set(counts) == acd | {Pattern(((A, B),))}
    assert counts[Pattern(((A, B),))] / 40_000 == pytest.approx(0.2, abs=0.01)
    assert sum(counts[q] for q in acd) / 40_000 == pytest.approx(0.8, abs=0.01)


def test_draw_norm_follows_table():
    rng = random.Random(4)
    z = plain_itemset([A, B, C])
    assert weight_table(z, FREQ) == {1: 3, 2: 3, 3: 1}
    counts = Counter(x.norm for x in sample_from_batch(Batch(1.0, (z,)), FREQ, 70_000, rng))
    assert counts[1] / 70_000 == pytest.approx(3 / 7, abs=0.01)
    assert counts[2] / 70_000 == pytest.approx(3 / 7, abs=0.01)
    assert counts[3] / 70_000 == pytest.approx(1 / 7, abs=0.01)
    empty = Batch(1.0, (plain_itemset([A]),))
    with pytest.raises(ValueError):
        sample_from_batch(empty, MeasureSpec(BaseMeasure.FREQ, min_norm=2), 1, rng)


def test_plain_pattern_draw_uniform_within_norm():
    rng = random.Random(5)
    z = plain_itemset([A, B, C])
    counts = Counter(
        draw_pattern_of_norm(z, 2, FREQ, rng).elements[0] for _ in range(30_000)
    )
    assert len(counts) == 3
    for pair, c in counts.items():
        assert c / 30_000 == pytest.approx(1 / 3, abs=0.01), pair


def test_weighted_pattern_draw_proportional_to_summed_weights():
    # fixture: P({A,C} | norm 2) = (2+2) / (5.5 * C(2,1)) = 4/11
    rng = random.Random(6)
    z = weighted_itemset({A: 2.0, B: 1.5, C: 2.0})
    n = 60_000
    counts = Counter(
        draw_pattern_of_norm(z, 2, UTIL, rng).elements[0] for _ in range(n)
    )
    assert counts[(A, C)] / n == pytest.approx(4 / 11, abs=0.01)
    assert counts[(A, B)] / n == pytest.approx(3.5 / 11, abs=0.01)
    assert counts[(B, C)] / n == pytest.approx(3.5 / 11, abs=0.01)


def test_sequence_pattern_draw_uniform_over_distinct():
    rng = random.Random(7)
    z = sequence([[A], [B], [A, C], [B]])
    spec = FREQ
    support = {x for x in oracle.enumerate_patterns(z) if x.norm == 2}
    n = 40_000
    counts = Counter(draw_pattern_of_norm(z, 2, spec, rng) for _ in range(n))
    assert set(counts) == support
    for x, c in counts.items():
        assert c / n == pytest.approx(1 / len(support), abs=0.01), x


def _exact_law(draw) -> Counter:
    """The law of draw(rng) when rng only calls randrange: every path of
    outcomes is replayed once, weighted by the product of 1/n over its
    calls."""
    law: Counter = Counter()
    script: list[int] = []
    while True:
        sizes: list[int] = []

        def randrange(n: int) -> int:
            if len(sizes) == len(script):
                script.append(0)
            sizes.append(n)
            return script[len(sizes) - 1]

        x = draw(SimpleNamespace(randrange=randrange))
        law[x] += math.prod(Fraction(1, n) for n in sizes)
        # next path: advance the last outcome below its bound, drop the rest
        while script and script[-1] == sizes[len(script) - 1] - 1:
            script.pop()
        if not script:
            return law
        script[-1] += 1


def test_sequence_pattern_draw_law_is_exact(monkeypatch):
    # repeated, nested and overlapping itemsets, then seeded random ones;
    # each index the draw takes is replayed as the randrange call whose bits
    # weighting._below takes (test_below_consumes_as_randrange)
    monkeypatch.setattr(weighting, "_below", lambda rng, n: rng.randrange(n))
    rng = random.Random(12)
    cases = [
        sequence([[A], [A], [A]]),
        sequence([[A, B], [A], [A, B]]),
        sequence([[A, B, C], [A], [A, B]]),
        sequence([[A, B], [B, C], [A, C]]),
        sequence([[A], [B], [A], [B], [A]]),
    ] + [streamgen.random_sequence(rng, alphabet=3, max_norm=6) for _ in range(8)]
    for z in cases:
        patterns = oracle.enumerate_patterns(z)
        for ell in range(1, z.norm + 1):
            support = {x for x in patterns if x.norm == ell}
            law = _exact_law(lambda rng: draw_pattern_of_norm(z, ell, FREQ, rng))
            assert law == {x: Fraction(1, len(support)) for x in support}, (z, ell)


def test_pattern_draw_respects_first_occurrence_dedup():
    # <{A}{A}> has exactly one pattern of norm 2
    rng = random.Random(8)
    z = sequence([[A], [A]])
    for _ in range(50):
        assert draw_pattern_of_norm(z, 2, FREQ, rng) == Pattern(((A,), (A,)))
    with pytest.raises(ValueError):
        draw_pattern_of_norm(z, 3, FREQ, rng)


def test_a_norm_of_no_mass_is_refused():
    rng = random.Random(14)
    plain = plain_itemset([A, B, C])
    # a tx row stands for its plain itemset in a batch, but is not an instance
    for row in ({A, B, C}, (A, B, C)):
        with pytest.raises(TypeError, match=f"not an instance: {type(row).__name__}"):
            draw_pattern_of_norm(row, 2, FREQ, rng)
    # util is not defined for plain itemsets, as weight_table says
    with pytest.raises(ConfigurationError):
        weight_table(plain, UTIL)
    with pytest.raises(ConfigurationError):
        draw_pattern_of_norm(plain, 2, UTIL, rng)
    # a mass past the float range is refused as weight_table refuses it,
    # and a norm band that keeps it finite draws again
    wide = plain_itemset(range(1100))
    with pytest.raises(WeightOverflowError):
        weight_table(wide, FREQ)
    with pytest.raises(WeightOverflowError):
        draw_pattern_of_norm(wide, 2, FREQ, rng)
    assert draw_pattern_of_norm(wide, 2, MeasureSpec(BaseMeasure.FREQ, max_norm=5), rng).norm == 2
    # a norm above max_norm or below min_norm weighs nothing, for each variant
    for z, base in (
        (plain, BaseMeasure.FREQ),
        (weighted_itemset({A: 1.0, B: 2.0, C: 3.0}), BaseMeasure.UTIL),
        (sequence([[A], [B, C]]), BaseMeasure.FREQ),
    ):
        band = MeasureSpec(base, min_norm=2, max_norm=2)
        for ell in (1, 3):
            state = rng.getstate()
            with pytest.raises(ValueError, match=rf"norm {ell} outside \[2, 2\]"):
                draw_pattern_of_norm(z, ell, band, rng)
            assert rng.getstate() == state
        assert draw_pattern_of_norm(z, 2, band, rng).norm == 2
        with pytest.raises(ValueError, match=r"norm 1 outside \[2, 3\]"):
            draw_pattern_of_norm(z, 1, MeasureSpec(base, min_norm=2), rng)


def test_sample_from_batch_follows_batch_law():
    rng = random.Random(9)
    batch = Batch(1.0, (plain_itemset([A, B, C]), plain_itemset([A, C])))
    want = oracle.batch_law(batch, FREQ)
    draws = sample_from_batch(batch, FREQ, 80_000, rng)
    got = oracle.frequencies(draws)
    assert oracle.total_variation(got, want) < 0.01
    assert sample_from_batch(batch, FREQ, 0, rng) == []
    with pytest.raises(ValueError):
        sample_from_batch(batch, FREQ, -1, rng)
    with pytest.raises(ValueError, match="1 masses for 2 instances"):
        sample_from_batch(batch, FREQ, 1, rng, [7.0])


def test_sample_from_batch_zero_mass():
    rng = random.Random(10)
    spec = MeasureSpec(BaseMeasure.FREQ, min_norm=9)
    with pytest.raises(ValueError):
        sample_from_batch(Batch(1.0, (plain_itemset([A, B]),)), spec, 1, rng)
    with pytest.raises(ValueError):
        sample_from_batch(Batch(1.0, ()), FREQ, 1, rng)


def test_draws_are_seed_deterministic():
    batch = Batch(1.0, (sequence([[A], [B, C], [A, C]]),))
    a = sample_from_batch(batch, FREQ, 500, random.Random(42))
    # the masses batch_weight gives are the ones a draw weighs itself
    masses = batch_weight(batch, FREQ)[1]
    b = sample_from_batch(batch, FREQ, 500, random.Random(42), masses)
    c = sample_from_batch(batch, FREQ, 500, random.Random(43))
    assert a == b
    assert a != c


def test_batch_draw_norm_band():
    rng = random.Random(11)
    spec = MeasureSpec(BaseMeasure.FREQ, min_norm=2, max_norm=3)
    batch = Batch(1.0, (sequence([[A], [B], [A, C], [B]]),))
    for x in sample_from_batch(batch, spec, 2_000, rng):
        assert 2 <= x.norm <= 3


def test_weighted_batch_draw_builds_no_table():
    # the norm comes from prefix sums equal to the table's, bit for bit, so
    # the draws are those of a bisect over weight_table with the same seed
    rng = random.Random(13)
    batch = Batch(1.0, tuple(streamgen.random_weighted(rng, 30, 12) for _ in range(20)))
    for spec in (UTIL, MeasureSpec(BaseMeasure.AVGUTIL, min_norm=2, max_norm=5)):
        ref = random.Random(5)
        cum = list(itertools.accumulate(batch_weight(batch, spec)[1]))
        want = []
        for _ in range(300):
            z = batch.instances[bisect_right(cum, ref.random() * cum[-1])]
            table = weight_table(z, spec)
            sums = list(itertools.accumulate(table.values()))
            ell = list(table)[bisect_right(sums, ref.random() * sums[-1])]
            want.append(draw_pattern_of_norm(z, ell, spec, ref))
        got = sample_from_batch(batch, spec, 300, random.Random(5))
        assert got == want


def test_a_draw_builds_no_row(monkeypatch):
    # 100 tx rows of two items each, no item shared, so each drawn pattern
    # names the row it came from
    built = []

    def counting(row):
        built.append(row)
        return PlainItemset(tuple(sorted(row)))

    monkeypatch.setattr(model, "instance_of", counting)
    rows = tuple({2 * i, 2 * i + 1} for i in range(100))
    eager = Batch(1.0, tuple(plain_itemset(row) for row in rows))
    lazy = Batch(1.0, rows)
    for seed in range(5):
        ours, ref = random.Random(seed), random.Random(seed)
        got = sample_from_batch(lazy, FREQ, 30, ours)
        assert got == sample_from_batch(eager, FREQ, 30, ref)
        assert ours.getstate() == ref.getstate()
        assert 1 < len({x.elements[0][0] // 2 for x in got}) < 30
    assert built == []


def test_drawn_patterns_pass_the_checked_constructor():
    # draws build their patterns without Pattern's checks
    rng = random.Random(14)
    for variant in streamgen.VARIANTS:
        for spec in streamgen.base_measures(variant):
            for _ in range(20):
                batch = streamgen.random_batch(rng, variant)
                for x in sample_from_batch(batch, spec, 20, rng):
                    checked = Pattern(x.elements)
                    assert x == checked and hash(x) == hash(checked)
                    assert any(matches(x, z) for z in batch.instances)
