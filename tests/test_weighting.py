"""Weight tables: frozen fixture values, dual-route equivalence, counting DP."""

import gc
import itertools
import math
import random
import time
import tracemalloc

import pytest

from rps import oracle, weighting
from rps.engine import ReservoirSampler, sample_from_batch
from rps.errors import ConfigurationError, WeightOverflowError
from rps.measures import BaseMeasure, MeasureSpec, parse_measure
from rps.model import (
    Batch,
    PlainItemset,
    Sequence,
    WeightedItemset,
    plain_itemset,
    sequence,
    weighted_itemset,
)
from rps.weighting import (
    SequenceCounts,
    _row_plan,
    _total,
    batch_weight,
    instance_weight,
    sequence_counts,
    weight_table,
)

import streamgen
from conftest import A, B, C

FREQ = MeasureSpec(BaseMeasure.FREQ)
AREA = MeasureSpec(BaseMeasure.AREA)
UTIL = MeasureSpec(BaseMeasure.UTIL)
AVGUTIL = MeasureSpec(BaseMeasure.AVGUTIL)


def test_plain_tables_fixture():
    z = plain_itemset([A, B, C])
    t = weight_table(z, FREQ)
    assert t == {1: 3, 2: 3, 3: 1}
    assert instance_weight(z, FREQ) == 7
    assert weight_table(z, AREA) == {1: 3, 2: 6, 3: 3}
    assert instance_weight(z, AREA) == 12
    half = MeasureSpec(BaseMeasure.DECAY, alpha=0.5)
    assert weight_table(z, half) == {1: 1.5, 2: 0.75, 3: 0.125}


def test_plain_tables_norm_band():
    z = plain_itemset([A, B, C])
    banded = weight_table(z, MeasureSpec(BaseMeasure.FREQ, max_norm=2))
    assert banded == {1: 3, 2: 3}
    floor = weight_table(z, MeasureSpec(BaseMeasure.FREQ, min_norm=2))
    assert floor == {2: 3, 3: 1}
    # floor above the instance norm leaves nothing
    above = MeasureSpec(BaseMeasure.FREQ, min_norm=4)
    assert weight_table(z, above) == {} and instance_weight(z, above) == 0.0


def test_weighted_tables_fixture():
    z = weighted_itemset({A: 2.0, B: 1.5, C: 2.0})
    t = weight_table(z, UTIL)
    assert t == {1: 5.5, 2: 11.0, 3: 5.5}
    assert instance_weight(z, UTIL) == 22.0
    avg = weight_table(z, AVGUTIL)
    assert avg == pytest.approx({1: 5.5, 2: 5.5, 3: 5.5 / 3})


def test_table_lookup_helpers():
    z = plain_itemset([A, B, C])
    t = weight_table(z, FREQ)
    assert t.get(2, 0.0) == 3
    assert t.get(4, 0.0) == 0.0
    assert _row_plan(z, FREQ)[0][2] == (3, 6, 7)


def test_variant_base_mismatch():
    with pytest.raises(ConfigurationError):
        weight_table(weighted_itemset({A: 1.0}), FREQ)
    with pytest.raises(ConfigurationError):
        weight_table(sequence([[A], [B]]), UTIL)
    with pytest.raises(ConfigurationError):
        weight_table(plain_itemset([A, B, C]), UTIL)
    with pytest.raises(ConfigurationError):
        instance_weight(plain_itemset([A, B, C]), AVGUTIL)
    for z in ((A, B), [[A], [B]], frozenset({A})):
        with pytest.raises(TypeError, match=f"not an instance: {type(z).__name__}"):
            weight_table(z, FREQ)


def test_sequence_counts_fixture():
    # z3 = <{B}{A,C}{A}>: 3 singles, 5 pairs, 4 triples, 1 quadruple
    z3 = sequence([[B], [A, C], [A]])
    t = weight_table(z3, FREQ)
    assert t == {1: 3, 2: 5, 3: 4, 4: 1}
    assert instance_weight(z3, FREQ) == 13
    # repeated itemset: <{A}{A}> holds only {A} and <{A}{A}>
    rep = sequence([[A], [A]])
    assert weight_table(rep, FREQ) == {1: 1, 2: 1}
    counts = sequence_counts(z3, 4)
    assert [counts.count(ell) for ell in (1, 2, 3, 4)] == [3, 5, 4, 1]
    with pytest.raises(ValueError):
        counts.count(5)
    with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
        SequenceCounts(z3.elements, -1)
    for i, j in ((-2, 0), (0, 0), (1, 0), (1, 3), (2, 3)):
        with pytest.raises(ValueError, match=f"no block at {j} after {i}"):
            counts.ways(i, j)
    for i in (-2, 3):
        with pytest.raises(ValueError, match=f"no position {i}"):
            counts.row(i)
    # the edges that are in range: {A} at 2 counts after {A, C}, not before it
    assert counts.ways(1, 2) == (0, 1) and counts.ways(-1, 2) == (0, 0)
    assert counts.row(2) == (1, 0, 0, 0, 0)


def test_sequence_counts_gap_suppression():
    # a block equal to an intermediate itemset is never placed late:
    # in <{A,B}{A}{A,B}> the pattern <{A,B}> only counts once
    z = sequence([[A, B], [A], [A, B]])
    counts = sequence_counts(z, 5)
    # norm 1: {A}, {B}; norm 5: <{A,B}{A}{A,B}> only
    assert counts.count(1) == 2
    assert counts.count(5) == 1


def _nested_sequence(rng: random.Random, alphabet: int, length: int) -> Sequence:
    # itemsets that repeat, nest in one another and overlap, so that gaps
    # merge, cancel and cover each other
    elements: list[tuple[int, ...]] = []
    for _ in range(length):
        roll = rng.random()
        if elements and roll < 0.25:
            elements.append(rng.choice(elements))
        elif elements and roll < 0.5:
            parent = rng.choice(elements)
            elements.append(rng.sample(parent, rng.randint(1, len(parent))))
        elif elements and roll < 0.6:
            extra = rng.sample(range(alphabet), rng.randint(1, 3))
            elements.append(sorted(set(rng.choice(elements)) | set(extra)))
        else:
            size = rng.randint(1, min(alphabet, 6))
            elements.append(rng.sample(range(alphabet), size))
    return sequence(elements)


def _covering_sequence(rng: random.Random, alphabet: int, length: int) -> Sequence:
    # itemsets that repeat earlier ones or hold them, so that many blocks
    # lie behind an itemset that holds them, where their counting stops
    elements: list[list[int]] = [rng.sample(range(alphabet), rng.randint(1, 3))]
    for _ in range(length - 1):
        earlier = rng.choice(elements)
        roll = rng.random()
        if roll < 0.35:
            elements.append(list(earlier))
        elif roll < 0.7:
            extra = rng.sample(range(alphabet), rng.randint(1, 2))
            elements.append(sorted(set(earlier) | set(extra)))
        else:
            elements.append(rng.sample(range(alphabet), rng.randint(1, 3)))
    return sequence(elements)


def _held(z: Sequence, i: int, j: int) -> bool:
    # an itemset between positions i and j holds the whole of elements[j]
    return any(set(z.elements[j]) <= set(e) for e in z.elements[i + 1 : j])


def test_block_ways_equal_admissible_enumeration():
    rng = random.Random(3140)
    cases = [
        _nested_sequence(rng, rng.choice((3, 6, 10)), rng.randint(1, 9)) for _ in range(150)
    ]
    cases += [_covering_sequence(rng, rng.choice((4, 6)), rng.randint(2, 9)) for _ in range(60)]
    across = 0
    for z in cases:
        counts = SequenceCounts(z.elements, rng.randint(1, z.norm))
        for j, base in enumerate(z.elements):
            for i in range(-1, j):
                ways = counts.ways(i, j)
                assert len(ways) == min(counts.cap, len(base)) + 1
                across += _held(z, i, j)
                for q in range(1, len(ways)):
                    want = oracle.admissible_blocks(base, z.elements[i + 1 : j], q)
                    assert ways[q] == len(want), (z, i, j, q)
                    got = [counts.block(i, j, q, r) for r in range(ways[q])]
                    assert got == want, (z, i, j, q)
    # block pairs with an itemset between them that holds the block
    assert across > 500


def test_sequence_counts_match_enumeration_on_nested_itemsets():
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        z = _nested_sequence(rng, 5, rng.randint(1, 6))
        if z.norm > 12:  # past the oracle's enumeration limit
            continue
        checked += 1
        want = streamgen.enumeration_table(z, FREQ)
        assert weight_table(z, FREQ) == want, z


def _direct_sum_table(counts: SequenceCounts) -> list[list[int]]:
    # reference fill: continuation(i, ell) summed directly over every later
    # block j and every q, with no row copied and no term skipped
    n, cap = len(counts.elements), counts.cap
    table = [[1] + [0] * cap for _ in range(n + 1)]
    for i in range(n - 1, -2, -1):
        for j in range(i + 1, n):
            for q, ways in enumerate(counts.ways(i, j)):
                for ell in range(q, cap + 1):
                    table[i + 1][ell] += ways * table[j + 1][ell - q]
    return table


def test_sequence_counts_table_equals_the_direct_sum():
    rng = random.Random(2718)
    cases = [
        _nested_sequence(rng, rng.choice((3, 5, 8)), rng.randint(1, 10)) for _ in range(120)
    ]
    # one itemset: a single ways vector, masked below its size at each cap
    cases += [sequence([range(size)]) for size in range(1, 13)]
    # blocks behind itemsets that hold them drop out of the rows left of those
    cases += [_covering_sequence(rng, rng.choice((3, 5)), rng.randint(2, 10)) for _ in range(60)]
    assert sum(_held(z, -1, j) for z in cases for j in range(len(z.elements))) > 100
    for z in cases:
        for cap in range(z.norm + 1):
            counts = SequenceCounts(z.elements, cap)
            rows = [list(counts.row(i)) for i in range(-1, len(z.elements))]
            assert rows == _direct_sum_table(counts), (z, cap)


def test_distinct_one_item_itemsets_fill_the_widest_digit():
    # n distinct one-item itemsets hold C(n, ell) patterns of norm ell, the
    # largest count of that norm, so the binomial bound on a digit is met
    for n in range(1, 41):
        elements = tuple((item,) for item in range(n))
        for cap in range(n + 1):
            counts = SequenceCounts(elements, cap)
            rows = [counts.row(i) for i in range(-1, n)]
            assert rows == [
                tuple(math.comb(n - 1 - i, ell) for ell in range(cap + 1))
                for i in range(-1, n)
            ], (n, cap)


def _table_walk(counts: SequenceCounts, ell: int, rng: random.Random) -> tuple:
    # a draw that reads the decoded rows and ways vectors, j then q ascending
    parts, i, remaining = [], -1, ell
    while remaining:
        r = rng.randrange(counts.row(i)[remaining])
        for j in range(i + 1, len(counts.elements)):
            after, ways = counts.row(j), counts.ways(i, j)
            for q in range(1, min(remaining, len(ways) - 1) + 1):
                if r < ways[q] * after[remaining - q]:
                    break
                r -= ways[q] * after[remaining - q]
            else:
                continue
            break
        parts.append(counts.block(i, j, q, rng.randrange(ways[q])))
        i, remaining = j, remaining - q
    return tuple(parts)


def test_sequence_draw_reads_what_a_table_walk_reads():
    # same blocks and same generator state, on small blocks, on blocks of up
    # to 90 items with wide digits (decoded by halving) and on 40 one-item
    # itemsets (each row read through a one-digit window)
    rng = random.Random(777)
    cases = [_nested_sequence(rng, 8, rng.randint(1, 8)) for _ in range(40)]
    cases += [sequence([range(90)]), sequence([range(60), range(30, 90), [5, 70]])]
    cases += [sequence([[i % 7] for i in range(40)])]
    for z in cases:
        counts = SequenceCounts(z.elements, z.norm)
        for ell in range(1, z.norm + 1):
            if counts.count(ell):
                got, want = random.Random(ell), random.Random(ell)
                assert counts.draw(ell, got) == _table_walk(counts, ell, want), (z, ell)
                assert got.getstate() == want.getstate()


def test_sequence_counts_stress_bound():
    # 40 itemsets of 12 items out of 16: every block after the first sees
    # dozens of overlapping gaps (a 2^gaps inclusion-exclusion took 16 s)
    rng = random.Random(40)
    elements = tuple(tuple(sorted(rng.sample(range(16), 12))) for _ in range(40))
    start = time.process_time()
    counts = SequenceCounts(elements, 12)
    assert time.process_time() - start < 2.0
    assert counts.count(1) == 16
    # any two items in a row, or any two together
    assert counts.count(2) == 16 * 16 + math.comb(16, 2)
    assert counts.count(12) > 0


def _counted_folds(monkeypatch) -> list[int]:
    # the gap of every _fold call SequenceCounts makes while counting
    gaps: list[int] = []
    fold = weighting._fold
    monkeypatch.setattr(weighting, "_fold", lambda tally, gap: gaps.append(gap) or fold(tally, gap))
    return gaps


def test_blocks_that_share_no_earlier_item_are_not_folded(monkeypatch):
    gaps = _counted_folds(monkeypatch)
    disjoint = sequence([[0], [1, 2], [3], [4, 5, 6], [7]])
    assert weight_table(disjoint, FREQ) == streamgen.enumeration_table(disjoint, FREQ)
    # nor walked: 5000 distinct items would pass 12.5 million empty gaps
    start = time.process_time()
    counts = SequenceCounts(tuple((item,) for item in range(5000)), 5)
    assert time.process_time() - start < 0.5
    assert counts.count(5) == math.comb(5000, 5) and gaps == []
    # one shared item is enough to fold
    SequenceCounts(((0,), (1,), (0, 2)), 3)
    assert gaps == [0b001]


def test_a_block_stops_folding_at_an_itemset_that_holds_it(monkeypatch):
    gaps = _counted_folds(monkeypatch)
    # each {0} is held by the one right before it: one fold per block, not
    # one per earlier position
    counts = SequenceCounts(((0,),) * 40, 5)
    assert len(gaps) == 39
    assert [counts.count(ell) for ell in range(1, 6)] == [1] * 5
    assert all(counts.ways(i, j) == (0, 0) for j in range(40) for i in range(-1, j - 1))
    # the last {0, 1} is held by {0, 1, 3} two places back and folds that
    # gap alone: the {0, 1} and {0} before it are never reached
    prefix = ((0, 1), (0,), (2,), (0, 1, 3), (2,))
    del gaps[:]
    SequenceCounts(prefix, 5)
    prefix_folds = len(gaps)
    del gaps[:]
    counts = SequenceCounts(prefix + ((0, 1),), 5)
    assert len(gaps) == prefix_folds + 1 and gaps[-1] == 0b0011
    z = sequence(prefix + ((0, 1),))
    for i in range(-1, 5):
        want = [len(oracle.admissible_blocks((0, 1), z.elements[i + 1 : 5], q)) for q in (1, 2)]
        assert list(counts.ways(i, 5)[1:]) == want, i
    assert counts.ways(2, 5) == (0, 0, 0) and counts.ways(3, 5) == (0, 2, 1)


def test_a_block_is_unranked_from_the_gaps_at_its_change_marks(monkeypatch):
    gaps = _counted_folds(monkeypatch)
    # forty {0} gaps before {0, 1}: only the last changed its tally while
    # counting, so unranking folds that one gap, not forty
    elements = ((0,),) * 40 + ((0, 1),)
    counts = SequenceCounts(elements, 5)
    del gaps[:]
    assert counts.block(-1, 40, 1, 0) == (1,) and len(gaps) == 1
    for i in range(-1, 40):
        ways = counts.ways(i, 40)
        for q in (1, 2):
            del gaps[:]
            got = [counts.block(i, 40, q, r) for r in range(ways[q])]
            assert got == oracle.admissible_blocks((0, 1), elements[i + 1 : 40], q), (i, q)
            assert len(gaps) == len(got) * (i < 39), (i, q)


def test_a_long_sequence_is_counted_without_a_table():
    # 20 000 one-item itemsets over 100 items at cap 5: a table of ways(i,
    # j) ints would hold 2 * 10^8 of them; the change lists hold one per
    # block, as each block stops at the last itemset that held its item.
    # Every word of 5 items occurs in so long a random line
    rng = random.Random(20000)
    elements = tuple((rng.randrange(100),) for _ in range(20000))

    def count_and_draw() -> tuple:
        counts = SequenceCounts(elements, 5)
        draws = random.Random(5)
        return counts.count(5), [counts.draw(5, draws) for _ in range(20)]

    start = time.process_time()
    patterns, drawn = count_and_draw()
    assert time.process_time() - start < 2.0
    assert patterns == 100**5 and all(sum(map(len, x)) == 5 for x in drawn)
    tracemalloc.start()
    try:
        assert count_and_draw() == (patterns, drawn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_sequence_state_lives_with_the_sequence():
    earlier = [o for o in gc.get_objects() if isinstance(o, SequenceCounts)]
    built = sequence_counts.cache_info().misses
    rng = random.Random(12)
    sampler = ReservoirSampler(FREQ, capacity=10, damping=0.05, seed=3)
    fresh = 0
    for t in range(1, 301):
        batch = Batch(float(t), tuple(streamgen.random_sequence(rng) for _ in range(5)))
        fresh += len(batch.instances)
        sampler.process_batch(batch)
    del batch
    # weighing and every draw reuse the counts built for each sequence
    assert sampler.batches_accepted > 10
    assert sequence_counts.cache_info().misses - built == fresh
    gc.collect()
    left = [
        o
        for o in gc.get_objects()
        if isinstance(o, SequenceCounts) and not any(o is e for e in earlier)
    ]
    assert left == []


def test_batch_weight_fixture():
    batch = Batch(1.0, (plain_itemset([A, B, C]), plain_itemset([A, C])))
    assert batch_weight(batch, FREQ) == (10.0, [7.0, 3.0])
    assert instance_weight(plain_itemset([A, C]), FREQ) == 3.0
    assert batch_weight(Batch(1.0, ()), FREQ) == (0.0, [])


def test_plain_rows_weigh_as_their_itemsets():
    rng = random.Random(12)
    specs = [FREQ, AREA, parse_measure("decay:0.5"), MeasureSpec(BaseMeasure.FREQ, min_norm=3)]
    for _ in range(30):
        rows = tuple(
            set(rng.sample(range(40), rng.randint(1, 12))) for _ in range(rng.randint(1, 9))
        )
        eager = Batch(1.0, tuple(map(plain_itemset, rows)))
        for spec in specs:
            assert batch_weight(Batch(1.0, rows), spec) == batch_weight(eager, spec)
    with pytest.raises(ConfigurationError):
        batch_weight(Batch(1.0, ({A},)), UTIL)


def test_admissible_blocks_count_equals_enumeration():
    rng = random.Random(8141)
    for _ in range(200):
        base = tuple(sorted(rng.sample(range(8), rng.randint(1, 6))))
        gaps = [
            tuple(sorted(rng.sample(range(8), rng.randint(1, 6))))
            for _ in range(rng.randint(0, 4))
        ]
        counts = SequenceCounts(tuple(gaps) + (base,), len(base))
        ways = counts.ways(-1, len(gaps))
        for q in range(1, len(base) + 1):
            want = oracle.admissible_blocks(base, gaps, q)
            assert ways[q] == len(want), (base, gaps, q)
            got = [counts.block(-1, len(gaps), q, r) for r in range(ways[q])]
            assert got == want, (base, gaps, q)


def test_block_of_more_than_1024_subsets_unranks_to_the_enumeration():
    # a 16-item block after 8-14-item gaps: C(16, 8) = 12870 subsets, where
    # draws once switched from enumeration to rejection sampling
    rng = random.Random(1024)
    gaps = tuple(
        tuple(sorted(rng.sample(range(16), rng.randint(8, 14)))) for _ in range(4)
    )
    counts = SequenceCounts(gaps + (tuple(range(16)),), 8)
    want = oracle.admissible_blocks(tuple(range(16)), gaps, 8)
    assert math.comb(16, 8) > 1024 and len(want) > 1024
    assert counts.ways(-1, 4)[8] == len(want)
    assert [counts.block(-1, 4, 8, r) for r in range(len(want))] == want
    with pytest.raises(ValueError):
        counts.block(-1, 4, 8, len(want))


def test_tables_match_enumeration_randomized():
    # dual route: closed forms / counting DP vs exhaustive pattern sums
    rng = random.Random(20260814)
    for variant in streamgen.VARIANTS:
        for _ in range(60):
            z = streamgen.random_instance(rng, variant)
            for base_spec in streamgen.base_measures(variant):
                for mn, mx in streamgen.NORM_SETTINGS:
                    spec = streamgen.with_norms(base_spec, mn, mx)
                    got = weight_table(z, spec)
                    want = streamgen.enumeration_table(z, spec)
                    assert got.keys() == want.keys(), (z, spec)
                    for ell in want:
                        assert got[ell] == pytest.approx(want[ell], rel=1e-9), (
                            z,
                            spec,
                            ell,
                        )


def test_weight_table_is_cached():
    z = plain_itemset([A, B])
    assert _row_plan(z, FREQ)[0] is _row_plan(plain_itemset([B, A]), FREQ)[0]
    # a plain itemset's table depends only on its size
    assert _row_plan(z, FREQ)[0] is _row_plan(plain_itemset([C, 7]), FREQ)[0]


def test_a_tx_row_is_planned_and_drawn_as_its_plain_itemset():
    # a tx row, a set of ids, has its PlainItemset's cached plan, and its
    # drawer takes the same patterns on the same bits
    rng = random.Random(23)
    specs = (FREQ, AREA, MeasureSpec(BaseMeasure.DECAY, alpha=0.5, min_norm=2, max_norm=4))
    for n in (1, 2, 3, 7, 20, 64):
        row = set(rng.sample(range(1000), n))
        z = plain_itemset(row)
        for spec in specs:
            (plan, draw), (want_plan, want_draw) = _row_plan(row, spec), _row_plan(z, spec)
            assert plan is want_plan, (n, spec)
            for seed in range(4):
                ours, ref = random.Random(seed), random.Random(seed)
                for ell in plan[0] * 3:
                    assert draw(ell, ours) == want_draw(ell, ref), (n, spec, ell)
                assert ours.getstate() == ref.getstate()
        with pytest.raises(ConfigurationError):
            _row_plan(row, UTIL)


def test_weighted_tables_are_the_closed_form_bit_for_bit():
    rng = random.Random(17)
    specs = [UTIL, AVGUTIL, MeasureSpec(BaseMeasure.AVGUTIL, min_norm=2, max_norm=5)]
    for _ in range(200):
        z = streamgen.random_weighted(rng, alphabet=40, max_items=30)
        total = math.fsum(z.weights)
        for spec in specs:
            want = {
                ell: total * math.comb(z.norm - 1, ell - 1) * spec.norm_utility(ell)
                for ell in range(spec.min_norm, spec.norm_cap(z.norm) + 1)
            }
            t = weight_table(z, spec)
            assert t == want
            sums = _row_plan(z, spec)[0][2]
            assert sums == tuple(itertools.accumulate(want.values()))
            assert instance_weight(z, spec) == (sums[-1] if sums else 0.0)


def test_itemset_memo_holds_one_entry_per_shape():
    weighting._plain_plan.cache_clear()
    weighting._itemset_terms.cache_clear()
    rng = random.Random(8)
    shapes = set()
    # the weighing alone looks one plan, or one size's terms, up per distinct
    # size of a batch, for plain and weighted itemsets alike
    weighed = 0
    for variant, spec, make in (
        (PlainItemset, FREQ, lambda: streamgen.random_plain(rng, 300, 40)),
        (WeightedItemset, UTIL, lambda: streamgen.random_weighted(rng, 300, 40)),
    ):
        sampler = ReservoirSampler(spec, capacity=20, seed=1)
        for t in range(1, 101):
            batch = Batch(float(t), tuple(make() for _ in range(50)))
            sizes = [z.norm for z in batch.instances]
            shapes.update((variant, n, spec) for n in sizes)
            before = sum(weight_table.cache_info())
            batch_weight(batch, spec)
            assert sum(weight_table.cache_info()) - before == len(set(sizes)), (variant, t)
            weighed += len(set(sizes))
            sampler.process_batch(batch)
    info = weight_table.cache_info()
    currsize = sum(
        f.cache_info().currsize for f in (weighting._plain_plan, weighting._itemset_terms)
    )
    assert currsize == info.misses == len(shapes)
    # each batch is weighed here and again by process_batch, whose draws look up more
    assert info.hits + info.misses >= 2 * weighed > 11_000


@pytest.mark.parametrize(
    "measure, largest", [("freq", 1024), ("area", 1015), ("decay:0.5", 1029)]
)
def test_plain_itemset_size_limit(measure, largest):
    # a plain itemset's mass grows like 2^n; past the float range the table
    # is refused with a typed error that names the size
    spec = parse_measure(measure)
    assert math.isfinite(instance_weight(plain_itemset(range(largest)), spec))
    with pytest.raises(WeightOverflowError, match=f"{largest + 1}-item PlainItemset"):
        instance_weight(plain_itemset(range(largest + 1)), spec)


def test_sequence_float_limit():
    # a one-itemset sequence of n items holds 2^n - 1 patterns; past the
    # float range it is refused by name before any sampler state moves
    start = time.process_time()
    assert math.isfinite(batch_weight(Batch(1.0, (sequence([range(1020)]),)), FREQ)[0])
    assert time.process_time() - start < 1.0
    sampler = ReservoirSampler(FREQ, capacity=2, damping=0.05, seed=3)
    sampler.process_batch(Batch(1.0, (sequence([[A], [B]]),)))

    def state():
        return sampler.snapshot(), sampler.batches_seen, sampler.rng.getstate()

    before = state()
    for weigh in (
        lambda z: batch_weight(Batch(1.0, (z,)), FREQ),
        lambda z: weight_table(z, FREQ),
        lambda z: sampler.process_batch(Batch(2.0, (z,))),
    ):
        start = time.process_time()
        with pytest.raises(WeightOverflowError, match="1030-item Sequence"):
            weigh(sequence([range(1030)]))
        assert time.process_time() - start < 1.0
    assert state() == before


def test_block_unranking_carries_the_binomial():
    # 50 draws from a 1020-item itemset, blocks of about 510 items: unranking
    # carries its binomial from item to item; a math.comb per item, on ints
    # as wide as the block, took 0.84-0.96 s of CPU on a 2-core VM, and the
    # carried one 0.075-0.086 s
    batch = Batch(1.0, (sequence([range(1020)]),))
    masses = batch_weight(batch, FREQ)[1]
    start = time.process_time()
    drawn = sample_from_batch(batch, FREQ, 50, random.Random(7), masses)
    assert time.process_time() - start < 0.3
    assert len(drawn) == 50 and all(x.is_itemset for x in drawn)


def _left_to_right(values) -> float:
    # the builtin sum over floats is compensated from Python 3.12 on
    total = 0.0
    for v in values:
        total += v
    return total


def test_masses_equal_the_plan_bit_for_bit():
    # batch_weight weighs each kind of row (tx rows, plain instances, weighted
    # itemsets, sequences) as instance_weight does, as the last prefix sum
    # of its draw plan and as its table summed left to right, bit for bit;
    # decay:1e-30 underflows to 0.0 from norm 11, so those norms drop
    rng = random.Random(4242)
    seqs = [
        _nested_sequence(rng, rng.choice((3, 6, 10)), rng.randint(1, 10)) for _ in range(60)
    ]
    seqs += [streamgen.random_sequence(rng) for _ in range(60)]
    seqs += [sequence([range(n)]) for n in (1, 5, 14)]
    plain = [streamgen.random_plain(rng, 40, 30) for _ in range(60)]
    plain += [plain_itemset(range(n)) for n in (1, 5, 14, 200)]
    weighted = [streamgen.random_weighted(rng, 40, 30) for _ in range(60)]
    specs = [
        FREQ,
        AREA,
        parse_measure("decay:0.5"),
        parse_measure("decay:1e-30"),
        MeasureSpec(BaseMeasure.FREQ, min_norm=3),
        MeasureSpec(BaseMeasure.AREA, max_norm=4),
        MeasureSpec(BaseMeasure.DECAY, alpha=0.5, min_norm=2, max_norm=5),
    ]
    weighted_specs = [
        UTIL,
        AVGUTIL,
        MeasureSpec(BaseMeasure.UTIL, min_norm=3),
        MeasureSpec(BaseMeasure.AVGUTIL, min_norm=2, max_norm=5),
    ]
    batches = [
        (Batch(1.0, tuple(set(z.items) for z in plain)), specs),
        (Batch(1.0, tuple(plain)), specs),
        (Batch(1.0, tuple(weighted)), weighted_specs),
        (Batch(1.0, tuple(seqs)), specs),
    ]
    dropped = 0
    for batch, batch_specs in batches:
        for spec in batch_specs:
            masses = batch_weight(batch, spec)[1]
            for z, mass in zip(batch.instances, masses):
                table = weight_table(z, spec)
                assert instance_weight(z, spec).hex() == mass.hex(), (z, spec)
                assert _left_to_right(table.values()).hex() == mass.hex(), (z, spec)
                if table:
                    norms, _, sums = _row_plan(z, spec)[0]
                    assert norms == tuple(table), (z, spec)
                    assert sums == tuple(itertools.accumulate(table.values())), (z, spec)
                    assert sums[-1].hex() == mass.hex(), (z, spec)
                dropped += spec.alpha == 1e-30 and max(table) < z.norm
    assert dropped > 10
    # a sequence shorter than min_norm weighs 0.0 without building counts
    short = (sequence([[1], [2]]), sequence([range(2)]), sequence([[7]]))
    built = sequence_counts.cache_info()
    assert batch_weight(Batch(1.0, short), specs[4]) == (0.0, [0.0] * 3)
    assert instance_weight(short[0], specs[4]) == 0.0 and weight_table(short[0], specs[4]) == {}
    assert sequence_counts.cache_info() == built and not any(z.memo for z in short)


def test_summation_order_is_pinned():
    # masses add left to right; math.fsum would give 0x1.3894c447c30d3p-1
    z = plain_itemset(range(5))
    assert instance_weight(z, parse_measure("decay:0.1")).hex() == "0x1.3894c447c30d2p-1"


def test_weighted_and_batch_overflow_are_typed():
    heavy = weighted_itemset({i: 1e300 for i in range(30)})
    with pytest.raises(WeightOverflowError, match="30-item WeightedItemset"):
        weight_table(heavy, UTIL)
    with pytest.raises(WeightOverflowError, match="30-item WeightedItemset"):
        instance_weight(heavy, UTIL)
    big = plain_itemset(range(1020))
    assert math.isfinite(instance_weight(big, FREQ))
    with pytest.raises(WeightOverflowError, match="batch of 300 instances"):
        batch_weight(Batch(1.0, (big,) * 300), FREQ)


def test_non_finite_item_weight_is_refused_by_the_model():
    # an inf weight used to get as far as the util table, whose overflow
    # error blamed the itemset's size
    with pytest.raises(ValueError, match=r"must be finite: \(inf, 1.0\)"):
        instance_weight(weighted_itemset({0: math.inf, 1: 1.0}), UTIL)
    for bad in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            WeightedItemset((0,), (bad,))


def test_total_weight_decomposition():
    # instance weight must equal the sum of its table entries
    rng = random.Random(99)
    for variant in streamgen.VARIANTS:
        for _ in range(20):
            z = streamgen.random_instance(rng, variant)
            spec = streamgen.base_measures(variant)[0]
            t = weight_table(z, spec)
            total = _total(_row_plan(z, spec)[0])
            assert total == pytest.approx(math.fsum(t.values()), rel=1e-12)
            assert instance_weight(z, spec) == total


def test_total_weight_is_the_w_of_the_util_table():
    # sum((0.1, 0.2, 0.3)) is 0.6000000000000001; W is the correctly
    # rounded 0.6 wherever the sampler reads it
    z = weighted_itemset({A: 0.1, B: 0.2, C: 0.3})
    assert z.total_weight == 0.6
    assert weight_table(z, UTIL).get(1, 0.0) == z.total_weight
