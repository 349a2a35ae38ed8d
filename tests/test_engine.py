"""Reservoir engine: acceptance probabilities, eviction, determinism."""

import csv
import math
import pickle
import random
import time

import pytest

from rps.cli import main as cli_main
from rps.engine import MAX_CAPACITY, Featurizer, ReservoirSampler, sample_from_batch
from rps.errors import (
    ConfigurationError,
    ReservoirNotReady,
    StreamOrderError,
    WeightOverflowError,
)
from rps import betainc, engine, model
from rps.formats import write_snapshot
from rps.measures import BaseMeasure, MeasureSpec
from rps.model import (
    Batch,
    Catalog,
    Sequence,
    matches,
    pattern,
    plain_itemset,
    sequence,
    weighted_itemset,
)
from rps.weighting import batch_weight

import streamgen
from conftest import A, B, C, D, E

FREQ = MeasureSpec(BaseMeasure.FREQ)


def _plain_batches(weights_per_batch):
    # one {A,B,C} itemset has freq weight 7; single-item instances weigh 1
    out = []
    for t, count in enumerate(weights_per_batch, start=1):
        out.append(Batch(float(t), tuple(plain_itemset([A]) for _ in range(count))))
    return out


def test_init_validation():
    with pytest.raises(ConfigurationError):
        ReservoirSampler(FREQ, capacity=0)
    assert ReservoirSampler(FREQ, capacity=MAX_CAPACITY).capacity == MAX_CAPACITY
    with pytest.raises(ConfigurationError, match=f"capacity must be in \\[1, {MAX_CAPACITY}\\]"):
        ReservoirSampler(FREQ, capacity=MAX_CAPACITY + 1)
    with pytest.raises(ConfigurationError):
        ReservoirSampler(FREQ, capacity=3, damping=1.5)
    # one replacement rule, nothing to select
    with pytest.raises(TypeError):
        ReservoirSampler(FREQ, 3, realisation_mode="binomial-cdf")
    # 2.5 used to be taken, and its first decision then bisected between 2
    # and 2.5 forever; 3.0 decided, and filling range(3.0) raised TypeError
    for capacity in (2.5, 3.0, True, "3", None):
        with pytest.raises(ConfigurationError, match=f"capacity must be an int, got {capacity!r}"):
            ReservoirSampler(FREQ, capacity=capacity)
    # refused by type before the range test, which would raise TypeError or take True as 1
    for damping in ("0.1", None, True):
        with pytest.raises(
            ConfigurationError, match=f"damping must be an int or a float, got {damping!r}"
        ):
            ReservoirSampler(FREQ, capacity=3, damping=damping)
    assert ReservoirSampler(FREQ, capacity=3, damping=1).damping == 1


def test_first_batch_fills_reservoir():
    s = ReservoirSampler(FREQ, capacity=5, seed=1)
    report = s.process_batch(Batch(1.0, (plain_itemset([A, B, C]),)))
    assert report.accepted
    assert report.probability == 1.0
    assert report.realisations == 5
    assert report.evicted == (0, 1, 2, 3, 4)
    assert s.reservoir_full
    assert len(s.snapshot()) == 5
    assert all(t == 1.0 for t, _ in s.snapshot())


def test_acceptance_probability_fixture():
    # batch weights 10 then 3: second acceptance probability is 3/13
    s = ReservoirSampler(FREQ, capacity=1, seed=0)
    b1 = Batch(1.0, (plain_itemset([A, B, C]), plain_itemset([A, C])))
    b2 = Batch(2.0, (plain_itemset([A, B]),))
    assert batch_weight(b1, FREQ) == (10.0, [7.0, 3.0])
    assert batch_weight(b2, FREQ) == (3.0, [3.0])
    r1 = s.process_batch(b1)
    r2 = s.process_batch(b2)
    assert r1.probability == 1.0
    assert r2.probability == 3.0 / 13.0


def test_a_rejected_batch_of_rows_builds_no_instance(monkeypatch):
    built = []

    def counting(row):
        built.append(row)
        return model.PlainItemset(tuple(sorted(row)))

    monkeypatch.setattr(model, "instance_of", counting)
    s = ReservoirSampler(FREQ, capacity=2, seed=4)
    twin = ReservoirSampler(FREQ, capacity=2, seed=4)
    accepted = []
    rows = ({B, A}, {C})
    for t in range(1, 30):
        report = s.process_batch(Batch(float(t), rows))
        twin_batch = Batch(float(t), (plain_itemset([A, B]), plain_itemset([C])))
        assert report == twin.process_batch(twin_batch)
        assert s.rng.getstate() == twin.rng.getstate()
        accepted.append(report.accepted)
    # neither a rejected batch nor an accepted one's draws build a row
    assert built == []
    assert s.snapshot() == twin.snapshot()
    assert True in accepted[1:] and False in accepted


def test_a_bad_set_row_is_refused_before_any_state_moves():
    s = ReservoirSampler(FREQ, capacity=3, seed=5)
    s.process_batch(Batch(1.0, ({A, B}, {C})))
    before = (s.batches_seen, s.batches_accepted, s.rng.getstate(), s.snapshot())
    for rows in (({-1, 2},) * 50, ({A}, set()), ({A}, {B, "c"})):
        with pytest.raises(ValueError):
            s.process_batch(Batch(2.0, rows))
    assert (s.batches_seen, s.batches_accepted, s.rng.getstate(), s.snapshot()) == before


def test_damped_acceptance_probability():
    # equal unit weights one time unit apart: p2 = 1 / (1 + e^{-gamma})
    s = ReservoirSampler(FREQ, capacity=1, damping=0.1, seed=0)
    s.process_batch(Batch(1.0, (plain_itemset([A]),)))
    r2 = s.process_batch(Batch(2.0, (plain_itemset([A]),)))
    assert r2.probability == pytest.approx(1 / (1 + math.exp(-0.1)), rel=1e-14)
    assert r2.probability == pytest.approx(0.52498, abs=5e-6)


def test_scaled_normalizer_matches_naive_sum():
    # the incremental normalizer must equal the anchored damped sum
    rng = random.Random(12)
    for _ in range(30):
        gamma = rng.choice([0.0, 0.05, 0.3, 1.0])
        s = ReservoirSampler(FREQ, capacity=2, damping=gamma, seed=3)
        t = 0.0
        seen: list[tuple[float, float]] = []
        for _ in range(rng.randint(2, 12)):
            t += rng.uniform(0.1, 4.0)
            count = rng.randint(1, 5)
            batch = Batch(t, tuple(plain_itemset([A]) for _ in range(count)))
            report = s.process_batch(batch)
            seen.append((t, float(count)))
            naive = math.fsum(
                w * math.exp(-gamma * (t - tj)) for tj, w in seen
            )
            assert report.probability == pytest.approx(count / naive, rel=1e-12)


def test_stream_order_enforced():
    s = ReservoirSampler(FREQ, capacity=2, seed=0)
    s.process_batch(Batch(2.0, (plain_itemset([A]),)))
    with pytest.raises(StreamOrderError):
        s.process_batch(Batch(2.0, (plain_itemset([B]),)))
    with pytest.raises(StreamOrderError):
        s.process_batch(Batch(1.5, (plain_itemset([B]),)))


def test_zero_weight_batches_are_skipped():
    spec = MeasureSpec(BaseMeasure.FREQ, min_norm=3)
    s = ReservoirSampler(spec, capacity=1, seed=5)
    # norm < min_norm: weight 0, no acceptance, no normalizer update
    r = s.process_batch(Batch(1.0, (plain_itemset([A, B]),)))
    assert not r.accepted and r.weight == 0.0 and r.probability == 0.0
    r = s.process_batch(Batch(2.0, ()))  # empty batch, same treatment
    assert not r.accepted
    assert s.batches_seen == 2 and s.batches_accepted == 0
    # first real mass still enters with probability 1
    r = s.process_batch(Batch(3.0, (plain_itemset([A, B, C]),)))
    assert r.accepted and r.probability == 1.0
    # ordering is still enforced across skipped batches
    with pytest.raises(StreamOrderError):
        s.process_batch(Batch(3.0, (plain_itemset([A, B, C]),)))


def test_zero_weight_skip_keeps_normalizer():
    spec = MeasureSpec(BaseMeasure.FREQ, max_norm=1)
    s = ReservoirSampler(spec, capacity=1, damping=0.5, seed=6)
    s.process_batch(Batch(1.0, (plain_itemset([A]),)))          # weight 1
    s.process_batch(Batch(2.0, ()))                              # skipped
    r3 = s.process_batch(Batch(3.0, (plain_itemset([B]),)))     # weight 1
    # the gap spans t=1 to t=3 regardless of the skipped batch
    assert r3.probability == pytest.approx(1 / (1 + math.exp(-0.5 * 2)), rel=1e-12)


def test_counters_and_reports():
    s = ReservoirSampler(FREQ, capacity=3, seed=9)
    reports = s.process_stream(_plain_batches([2, 3, 1, 4]))
    assert s.batches_seen == 4
    assert s.batches_accepted == sum(1 for r in reports if r.accepted)
    assert s.insertions == sum(r.realisations for r in reports)
    assert s.insertions >= 3  # first fill
    for r in reports:
        assert len(r.evicted) == r.realisations
        assert len(set(r.evicted)) == len(r.evicted)
        assert all(0 <= i < 3 for i in r.evicted)


def test_measure_variant_mismatch_raises():
    s = ReservoirSampler(MeasureSpec(BaseMeasure.UTIL), capacity=1, seed=0)
    with pytest.raises(ConfigurationError):
        s.process_batch(Batch(1.0, (plain_itemset([A]),)))
    s2 = ReservoirSampler(FREQ, capacity=1, seed=0)
    with pytest.raises(ConfigurationError):
        s2.process_batch(Batch(1.0, (weighted_itemset({A: 1.0}),)))


def test_same_seed_same_snapshot():
    stream = _plain_batches([3, 1, 5, 2, 4, 1, 1, 6])

    def run(seed):
        s = ReservoirSampler(FREQ, capacity=4, seed=seed)
        s.process_stream(stream)
        return s.snapshot()

    assert run(123) == run(123)
    assert run(123) != run(124)


def test_all_modes_fill_and_replace():
    stream = _plain_batches([3, 1, 5, 2, 4, 1, 1, 6])
    s = ReservoirSampler(FREQ, capacity=5, seed=11)
    reports = s.process_stream(stream)
    assert reports[0].realisations == 5
    assert s.reservoir_full
    for r in reports:
        assert 0 <= r.realisations <= 5


def test_feature_vector():
    s = ReservoirSampler(FREQ, capacity=4, seed=2)
    with pytest.raises(ReservoirNotReady):
        s.feature_vector(plain_itemset([A]))
    z1 = sequence([[A], [B], [A, C], [B]])
    z3 = sequence([[B], [A, C], [A]])
    s.process_batch(Batch(1.0, (z1,)))
    bits = s.feature_vector(z3)
    assert bits == [1 if matches(x, z3) else 0 for _, x in s.snapshot()]
    assert len(bits) == 4
    assert set(bits) <= {0, 1}


def _containment(patterns, z):
    return [1 if matches(x, z) else 0 for x in patterns]


def test_featurizer_equals_containment_on_made_cases():
    # one pattern in two slots, three patterns starting with A, and probe
    # items (E) that start no pattern
    itemsets = [pattern([[A, B]]), pattern([[A]]), pattern([[A, B]]),
                pattern([[A, C]]), pattern([[D]])]
    featurize = Featurizer(itemsets)
    for z, want in (
        (plain_itemset([A, B, E]), [1, 1, 1, 0, 0]),
        (weighted_itemset({A: 1.0, C: 2.0, E: 1.0}), [0, 1, 0, 1, 0]),
        (plain_itemset([E]), [0, 0, 0, 0, 0]),
    ):
        assert featurize(z) == want == _containment(itemsets, z)
    # C, the first item of <{C}{A}> and <{C}{B}>, is only in the probe's
    # second itemset; A starts a pattern and also comes after C
    sequences = [pattern([[C], [A]]), pattern([[A], [B]]), pattern([[C], [A]]),
                 pattern([[B, C]]), pattern([[B], [B]]), pattern([[C], [B]]),
                 pattern([[A]])]
    z = sequence([[A], [B, C], [A], [E]])
    assert Featurizer(sequences)(z) == [1, 1, 1, 1, 0, 0, 1]
    assert Featurizer(sequences)(z) == _containment(sequences, z)


# (pattern, probe, its bit).  Every probe but those of the last group holds
# all the pattern's items, so the item screen passes and matches decides
SCREENED = [
    # the right items in the wrong order
    (pattern([[B], [A]]), sequence([[A], [B]]), 0),
    (pattern([[A], [B]]), sequence([[A], [B]]), 1),
    # two elements that both fit only the probe's first itemset
    (pattern([[A], [B]]), sequence([[A, B], [C]]), 0),
    (pattern([[A], [B]]), sequence([[A, B], [C], [B]]), 1),
    # a repeated element against A in a single itemset
    (pattern([[A], [A]]), sequence([[A, B], [C]]), 0),
    (pattern([[A], [A]]), sequence([[A, B], [C], [A]]), 1),
    # one-element patterns against multi-itemset probes
    (pattern([[A, C]]), sequence([[A], [C]]), 0),
    (pattern([[A, C]]), sequence([[B], [A, C]]), 1),
    (pattern([[C]]), sequence([[A], [B, C]]), 1),
    # one-itemset probes, screened like the others
    (pattern([[A], [B]]), sequence([[A, B]]), 0),
    (pattern([[A], [A]]), sequence([[A]]), 0),
    (pattern([[A, B]]), sequence([[A, B, C]]), 1),
    # an item the probe lacks fails the screen
    (pattern([[A], [D]]), sequence([[A], [B]]), 0),
    (pattern([[A], [D]]), sequence([[A, B]]), 0),
    (pattern([[A, D]]), sequence([[A, B]]), 0),
]


def test_featurizer_screen_leaves_the_bit_to_matches():
    patterns = [x for x, _, _ in SCREENED]
    featurize = Featurizer(patterns)
    for slot, (x, z, bit) in enumerate(SCREENED):
        assert matches(x, z) == bool(bit), (x, z)
        got = featurize(z)
        assert got[slot] == bit, (x, z)
        assert got == _containment(patterns, z)


def test_feature_vector_screen_leaves_the_bit_to_matches():
    for x, z, bit in SCREENED:
        # the only norm-|x| pattern of the sequence x is x itself
        spec = MeasureSpec(BaseMeasure.FREQ, min_norm=x.norm, max_norm=x.norm)
        s = ReservoirSampler(spec, capacity=1)
        s.process_batch(Batch(1.0, (Sequence(x.elements),)))
        assert s.snapshot() == [(1.0, x)]
        assert s.feature_vector(z) == [bit], (x, z)


def test_rps_featurize_screen_leaves_the_bit_to_matches(tmp_path):
    tokens = Catalog(["a", "b", "c", "d", "e"])
    snap = tmp_path / "snap.tsv"
    with snap.open("w", encoding="utf-8") as fh:
        write_snapshot(fh, [(1.0, x) for x, _, _ in SCREENED], tokens)
    stream = tmp_path / "probes.spmf"
    stream.write_text("".join(
        f"{slot}|"
        + "".join(" ".join(map(tokens.token, e)) + " -1 " for e in z.elements)
        + "-2\n"
        for slot, (_, z, _) in enumerate(SCREENED)
    ), encoding="utf-8")
    out = tmp_path / "features.csv"
    assert cli_main([
        "featurize", "--snapshot", str(snap), "--input", str(stream),
        "--format", "seq-spmf", "--output", str(out),
    ]) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
    patterns = [x for x, _, _ in SCREENED]
    assert len(rows) == len(SCREENED)
    for slot, (row, (_, z, bit)) in enumerate(zip(rows, SCREENED)):
        assert row[-1] == str(slot)
        assert row[slot] == str(bit)
        assert row[:-1] == list(map(str, _containment(patterns, z)))


@pytest.mark.parametrize("variant", streamgen.VARIANTS)
def test_featurizer_equals_containment_on_random_reservoirs(variant):
    rng = random.Random(f"featurize/{variant}")
    one_itemset = random.Random(f"featurize/{variant}/one-itemset")
    spec = streamgen.base_measures(variant)[0]
    # probes draw from a wider alphabet than the stream, so some of their
    # items are in no pattern
    probe = {
        "plain": lambda: streamgen.random_plain(rng, alphabet=14),
        "weighted": lambda: streamgen.random_weighted(rng, alphabet=14),
        "sequence": lambda: streamgen.random_sequence(rng, alphabet=7),
    }[variant]
    for trial in range(20):
        s = ReservoirSampler(spec, capacity=rng.choice((1, 5, 30)), damping=0.1, seed=trial)
        for t in range(1, 6):
            s.process_batch(Batch(float(t), streamgen.random_batch(rng, variant).instances))
        patterns = [x for _, x in s.snapshot()]
        featurize = Featurizer(patterns)
        probes = [probe() for _ in range(20)]
        if variant == "sequence":
            # one-itemset probes too, from their own rng so that the probes
            # above stay as they were
            probes += [
                sequence([one_itemset.sample(range(7), one_itemset.randint(1, 7))])
                for _ in range(20)
            ]
        for z in probes:
            want = _containment(patterns, z)
            assert featurize(z) == want
            assert s.feature_vector(z) == want


@pytest.mark.parametrize("variant", streamgen.VARIANTS)
def test_matches_runs_only_for_slots_that_pass_the_screen(monkeypatch, variant):
    rng = random.Random(f"featurize/calls/{variant}")
    spec = streamgen.base_measures(variant)[0]
    probe = {
        "plain": lambda: streamgen.random_plain(rng),
        "weighted": lambda: streamgen.random_weighted(rng),
        "sequence": lambda: streamgen.random_sequence(rng, alphabet=7),
    }[variant]
    calls = []

    def counted(x, z):
        calls.append(x)
        return matches(x, z)

    monkeypatch.setattr(engine, "matches", counted)
    for trial in range(10):
        s = ReservoirSampler(spec, capacity=rng.choice((1, 5, 30)), damping=0.1, seed=trial)
        for t in range(1, 6):
            s.process_batch(Batch(float(t), streamgen.random_batch(rng, variant).instances))
        featurize = Featurizer([x for _, x in s.snapshot()])
        for _ in range(40):
            z = probe()
            calls.clear()
            bits = featurize(z)
            items = set().union(*z.elements)
            # no call for a pattern with an item the probe lacks, and one
            # for every 1 bit
            assert all(items.issuperset(e) for x in calls for e in x.elements)
            assert sum(bits) <= len(calls)
            if variant != "sequence":
                # an itemset holding a pattern's items contains the pattern
                assert len(calls) == sum(bits)


def _forced(patterns, by_masks):
    # a featurizer whose switch sends every probe one way: no probe hits
    # more buckets than there are slots, and every probe hits more than -1
    featurize = Featurizer(patterns)
    if by_masks:
        featurize._slot_masks()
    featurize._least = -1 if by_masks else len(patterns)
    return featurize


def _probe_of(variant, items):
    items = sorted(items)
    if variant == "plain":
        return plain_itemset(items)
    if variant == "weighted":
        return weighted_itemset({i: 1.0 + i for i in items})
    # the items in one itemset, then again one by one
    return sequence([items] + [[i] for i in items])


@pytest.mark.parametrize("variant", streamgen.VARIANTS)
def test_each_screen_gives_containment_on_the_same_reservoirs(variant):
    rng = random.Random(f"featurize/screens/{variant}")
    spec = streamgen.base_measures(variant)[0]
    alphabet = 7 if variant == "sequence" else 10
    probe = {
        "plain": lambda: streamgen.random_plain(rng, alphabet=14),
        "weighted": lambda: streamgen.random_weighted(rng, alphabet=14),
        "sequence": lambda: streamgen.random_sequence(rng, alphabet=10),
    }[variant]
    went = set()
    for trial in range(15):
        s = ReservoirSampler(spec, capacity=rng.choice((1, 5, 30)), damping=0.1, seed=trial)
        for t in range(1, 6):
            s.process_batch(Batch(float(t), streamgen.random_batch(rng, variant).instances))
        patterns = [x for _, x in s.snapshot()]
        featurize = Featurizer(patterns)
        by_buckets, by_masks = _forced(patterns, False), _forced(patterns, True)
        held = set().union(*(e for x in patterns for e in x.elements))
        starts = featurize._buckets.keys()
        # random probes, some with items no slot holds (alphabet or more);
        # probes of items that start no pattern, which hit no bucket; and
        # the reservoir's whole alphabet
        probes = [probe() for _ in range(20)] + [
            _probe_of(variant, (held - starts) | {alphabet + 1}),
            _probe_of(variant, {alphabet, alphabet + 3}),
            _probe_of(variant, held),
        ]
        for z in probes:
            want = _containment(patterns, z)
            assert by_buckets(z) == by_masks(z) == featurize(z) == want, z
            items = set().union(*z.elements)
            went.add(not items & starts)
    assert went == {True, False}  # some probes hit no bucket


def test_the_switch_goes_by_masks_only_for_a_small_alphabet(monkeypatch):
    went = []
    screen = Featurizer._by_masks

    def counted(self, *args):
        went.append(self)
        return screen(self, *args)

    monkeypatch.setattr(Featurizer, "_by_masks", counted)
    # 30 slots over 3 items: a probe of all of them expects 30 candidates
    narrow = [pattern([[a], [b]]) for a in (A, B, C) for b in (A, B, C)] * 3
    narrow += [pattern([[A, B, C]])] * 3
    # 30 slots over 60 items, each the first item of its own bucket
    wide = [pattern([[i, 30 + i]]) for i in range(30)]
    for patterns, masks in ((narrow, True), (wide, False)):
        featurize = Featurizer(patterns)
        z = sequence([[i] for i in sorted(set().union(*(x.elements[0] for x in patterns)))])
        went.clear()
        assert featurize(z) == _containment(patterns, z)
        assert went == ([featurize] if masks else [])


def test_the_masks_are_built_on_the_first_probe_that_could_go_by_them(monkeypatch):
    # 27 slots over 3 items, so every probe that hits a bucket goes by masks
    patterns = [pattern([[a], [b]]) for a in (A, B, C) for b in (A, B, C)] * 3
    featurize = Featurizer(patterns)
    assert featurize._masks is None
    z = sequence([[D], [E]])
    assert featurize(z) == _containment(patterns, z)
    assert featurize._masks is None
    z = sequence([[A], [B, C], [A, C]])
    assert featurize(z) == _containment(patterns, z)
    holds = [set().union(*x.elements) for x in patterns]
    assert featurize._masks == {
        item: sum(1 << slot for slot, got in enumerate(holds) if item in got) for item in (A, B, C)
    }
    # 6 slots over 2 buckets: a probe that hits one could go by masks
    # until they count 7 items, 2 * 7 // 6 = 2, so it goes by buckets
    patterns = [pattern([[a], [b]]) for a, b in ((A, C), (A, D), (A, E), (B, 5), (B, 6), (B, C))]
    featurize = Featurizer(patterns)
    assert featurize._least == 0 and featurize._masks is None
    monkeypatch.setattr(Featurizer, "_by_masks", None)  # not called
    z = sequence([[A], [C]])
    assert featurize(z) == _containment(patterns, z) == [1, 0, 0, 0, 0, 0]
    assert len(featurize._masks) == 7 and featurize._least == 2
    # a wide reservoir never builds them
    wide = Featurizer([pattern([[i, 30 + i]]) for i in range(30)])
    for z in (sequence([[i] for i in range(60)]), plain_itemset(range(60)), sequence([[99]])):
        wide(z)
    assert wide._masks is None


def _ored_masks(patterns):
    # each slot's bit ORed into the masks of its items, one by one
    masks = {}
    for slot, x in enumerate(patterns):
        for item in set().union(*x.elements):
            masks[item] = masks.get(item, 0) | 1 << slot
    return masks


@pytest.mark.parametrize("variant", streamgen.VARIANTS)
def test_the_masks_are_the_ored_slot_bits(variant):
    rng = random.Random(f"featurize/masks/{variant}")
    spec = streamgen.base_measures(variant)[0]
    for trial in range(10):
        # capacities across byte boundaries of the bitmaps
        k = rng.choice((1, 7, 8, 9, 17, 64, 300))
        s = ReservoirSampler(spec, capacity=k, damping=0.1, seed=trial)
        for t in range(1, 6):
            s.process_batch(Batch(float(t), streamgen.random_batch(rng, variant).instances))
        patterns = [x for _, x in s.snapshot()]
        featurize = Featurizer(patterns)
        featurize._slot_masks()
        assert featurize._masks == _ored_masks(patterns)


def test_the_masks_of_300_000_slots_are_built_in_linear_time():
    # 1-4-item patterns over 1000 items: ORing bit by bit into growing ints
    # took 2.0-3.0 s of CPU on a 2-core VM, the bitmaps 0.3-0.7 s
    rng = random.Random(300_000)
    kinds = [pattern([rng.sample(range(1000), rng.randint(1, 4))]) for _ in range(20_000)]
    patterns = [rng.choice(kinds) for _ in range(300_000)]
    featurize = Featurizer(patterns)
    start = time.process_time()
    featurize._slot_masks()
    assert time.process_time() - start < 1.0
    some = rng.sample(sorted(featurize._masks), 3)
    assert {i: featurize._masks[i] for i in some} == {
        i: sum(1 << s for s, x in enumerate(patterns) if i in x.elements[0]) for i in some
    }


def test_feature_vector_follows_accepted_batches():
    s = ReservoirSampler(FREQ, capacity=3, seed=0)
    s.process_batch(Batch(1.0, (plain_itemset([A]),)))
    probe = plain_itemset([B])
    assert s.feature_vector(probe) == [0, 0, 0]
    t = 1.0
    while True:
        t += 1.0
        if s.process_batch(Batch(t, (plain_itemset([B]),) * 5)).accepted:
            break
        assert s.feature_vector(probe) == [0, 0, 0]
    got = s.feature_vector(probe)
    assert got == _containment([x for _, x in s.snapshot()], probe)
    assert 1 in got


def test_pickled_sampler_gives_the_same_vectors():
    rng = random.Random(8)
    stream = [streamgen.random_batch(rng, "sequence") for _ in range(6)]
    probes = [streamgen.random_sequence(rng, alphabet=7) for _ in range(30)]
    s = ReservoirSampler(FREQ, capacity=20, damping=0.1, seed=8)
    for t, batch in enumerate(stream[:5], start=1):
        s.process_batch(Batch(float(t), batch.instances))
    unread = pickle.loads(pickle.dumps(s))
    want = [s.feature_vector(z) for z in probes]
    read = pickle.loads(pickle.dumps(s))
    for clone in (unread, read):
        assert [clone.feature_vector(z) for z in probes] == want
    # and each clone follows its reservoir as the original does
    last = Batch(6.0, stream[5].instances)
    for sampler in (s, unread, read):
        sampler.process_batch(last)
    want = [s.feature_vector(z) for z in probes]
    assert want == [_containment([x for _, x in s.snapshot()], z) for z in probes]
    for clone in (unread, read):
        assert clone.snapshot() == s.snapshot()
        assert [clone.feature_vector(z) for z in probes] == want


def test_snapshot_is_a_copy():
    s = ReservoirSampler(FREQ, capacity=2, seed=0)
    s.process_batch(Batch(1.0, (plain_itemset([A, B]),)))
    snap = s.snapshot()
    snap[0] = (99.0, snap[0][1])
    assert s.snapshot()[0][0] == 1.0


def _state(s: ReservoirSampler):
    return (
        s.snapshot(), s._scaled_mass, s._t_mass, s._t_seen,
        s.batches_seen, s.batches_accepted, s.insertions, s.rng.getstate(),
    )


def test_failed_batch_changes_nothing():
    s = ReservoirSampler(FREQ, capacity=3, damping=0.1, seed=4)
    s.process_batch(Batch(1.0, (plain_itemset([A, B, C]),)))
    s.process_batch(Batch(2.0, (plain_itemset([A, B]),)))
    before = _state(s)
    bad = [
        # the table of a 1100-item transaction does not fit a float
        (WeightOverflowError, Batch(3.0, (plain_itemset(range(1100)),))),
        (StreamOrderError, Batch(math.nan, (plain_itemset([A]),))),
        (StreamOrderError, Batch(math.inf, (plain_itemset([A]),))),
        (StreamOrderError, Batch(2.0, (plain_itemset([A]),))),
    ]
    for error, batch in bad:
        with pytest.raises(error):
            s.process_batch(batch)
        assert _state(s) == before
    # the stream goes on as if the bad batches never came
    twin = ReservoirSampler(FREQ, capacity=3, damping=0.1, seed=4)
    for t, items in ((1.0, [A, B, C]), (2.0, [A, B]), (3.0, [B, C])):
        twin.process_batch(Batch(t, (plain_itemset(items),)))
    s.process_batch(Batch(3.0, (plain_itemset([B, C]),)))
    assert _state(s) == _state(twin)


def _stream_state(s: ReservoirSampler):
    # every attribute a batch writes but rng
    return (
        s.snapshot(), s._scaled_mass, s._t_mass, s._t_seen, s._variant,
        s.batches_seen, s.batches_accepted, s.insertions,
    )


def _forced_failure(*args):
    raise RuntimeError("forced")


def _fails_after_one_pattern(*args):
    # the batch's draws as an iterable that breaks off after its first
    # pattern, so the entries fail while they are being built
    yield sample_from_batch(*args)[0]
    raise RuntimeError("forced")


def test_a_batch_that_fails_after_weighing_changes_nothing_but_rng(monkeypatch):
    """A failure at the decision, the eviction, the draw or while the drawn
    patterns are made into entries leaves every attribute the batch would
    write as it was.  All four stages come after the decision uniform is
    drawn, so each of them has advanced rng.

    Only the decision can fail in practice (see the next test).  The
    eviction picks n <= k distinct slots of k, and every row a draw can pick
    was weighed to a positive, finite mass."""
    stages = {
        "decide": (betainc, "realisations_from_uniform", _forced_failure),
        "evict": (engine, "sample_distinct_indices", _forced_failure),
        "draw": (engine, "sample_from_batch", _forced_failure),
        "build": (engine, "sample_from_batch", _fails_after_one_pattern),
    }
    # e^-100 leaves p == 1.0 at t = 101: unforced, every slot is evicted and drawn
    late = Batch(101.0, (plain_itemset([D, E]),))
    for stage, failure in stages.items():
        s = ReservoirSampler(FREQ, capacity=3, damping=1.0, seed=4)
        s.process_batch(Batch(1.0, (plain_itemset([A, B, C]),)))
        s.feature_vector(plain_itemset([A, B]))
        featurizer, before, rng = s._featurizer, _stream_state(s), s.rng.getstate()
        with monkeypatch.context() as m:
            m.setattr(*failure)
            with pytest.raises(RuntimeError, match="forced"):
                s.process_batch(late)
        assert _stream_state(s) == before and s._featurizer is featurizer, stage
        assert s.rng.getstate() != rng, stage  # the decision uniform is drawn
        report = s.process_batch(late)
        assert report.realisations == 3 and sorted(report.evicted) == [0, 1, 2], stage
    # the first batch fills the reservoir with no eviction: decide, draw, build
    for stage in ("decide", "draw", "build"):
        s = ReservoirSampler(FREQ, capacity=3, seed=4)
        before, rng = _stream_state(s), s.rng.getstate()
        with monkeypatch.context() as m:
            m.setattr(*stages[stage])
            with pytest.raises(RuntimeError, match="forced"):
                s.process_batch(late)
        assert _stream_state(s) == before and s.rng.getstate() != rng, stage
        assert s.process_batch(late).realisations == 3


def test_a_decision_at_400_000_slots_is_processed():
    # at k = 400 000 the second batch has p = 0.5, past the 300 terms the
    # continued fraction of the n_r decision used to stop at
    s = ReservoirSampler(FREQ, capacity=400_000, seed=3)
    s.process_batch(Batch(1.0, (plain_itemset([0, 1]),)))
    report = s.process_batch(Batch(2.0, (plain_itemset([2, 3]),)))
    assert report.probability == 0.5 and report.accepted
    # Bin(k, 1/2) has a standard deviation of about 316 here
    assert abs(report.realisations - 200_000) < 5 * 316
    assert (s.batches_seen, s._scaled_mass, s._t_mass, s._t_seen) == (2, 6.0, 2.0, 2.0)
    stamps = [t for t, _ in s.snapshot()]
    assert len(stamps) == 400_000 and stamps.count(2.0) == report.realisations


def test_stream_variant_is_pinned_at_its_first_non_empty_batch():
    # under freq a plain itemset {A} and a sequence <{A}> would both weigh
    # in, and their patterns would mix in one reservoir
    s = ReservoirSampler(FREQ, capacity=3, damping=0.1, seed=4)
    s.process_batch(Batch(1.0, ()))
    s.process_batch(Batch(2.0, (plain_itemset([A, B]),)))
    s.process_batch(Batch(3.0, ()))
    before = _state(s)
    with pytest.raises(ConfigurationError, match="Sequence batch in a stream of Plain"):
        s.process_batch(Batch(4.0, (sequence([[A], [B]]),)))
    assert _state(s) == before
    s.process_batch(Batch(4.0, (plain_itemset([A]),)))
    # the first non-empty batch pins the variant, whatever it is
    seq = ReservoirSampler(FREQ, capacity=3, seed=4)
    seq.process_batch(Batch(1.0, (sequence([[A], [B]]),)))
    with pytest.raises(ConfigurationError):
        seq.process_batch(Batch(2.0, (plain_itemset([A]),)))


def test_normalizer_overflow_is_typed_and_changes_nothing():
    # each batch fits a float (2^1023 - 1), their landmark sum does not
    heavy = Batch(1.0, (plain_itemset(range(1023)),))
    s = ReservoirSampler(FREQ, capacity=2, seed=0)
    s.process_batch(heavy)
    before = _state(s)
    with pytest.raises(WeightOverflowError, match="damped stream mass"):
        s.process_batch(Batch(2.0, heavy.instances))
    assert _state(s) == before
