"""Seeded mutation fuzz: every refusal is an RpsError, and a refused batch
leaves the sampler as it was.

Valid lines of each format are mutated by dropping, duplicating, swapping
or replacing a few characters.  The lines stay as short as the seeds, so
no mutant makes sequence counting slow; that cost has its own tests.
"""

import io
import math
import random

import pytest

from rps.engine import ReservoirSampler
from rps.errors import RpsError
from rps.formats import FORMATS, iter_batches, parse_instance, read_snapshot, write_snapshot
from rps.measures import parse_measure
from rps.model import Catalog, Sequence, WeightedItemset

SEEDS = {
    "tx": ["a b c|x", "b c", "a|y", "c d e a"],
    "wtx": ["a b:3:1 2", "a c d:6:1 2 3|x", "b:0.5:0.5", "c a:2e0:1.5 .5"],
    "seq-spmf": ["1 2 -1 3 -1 -2", "p|2 -1 1 3 -1 -2", "3 -1 1 -1 -2", "1 -1 1 2 -1 -2"],
}
SNAPSHOT_SEEDS = ["1\t{a}\t1", "2\t{a,b}\t2.5", "3\t<{a}{b,c}>\t3", "2\t<{a}{a}>\t1e0"]
# characters that mean something to some reader, plus a few that mean nothing
ALPHABET = "ab12 -:|.,{}<>\t0e9#x+"
MEASURES = ["freq", "area", "decay:0.5", "util", "avgutil"]


def _mutate(rng, line):
    chars = list(line)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars)) if chars else 0
        op = rng.randrange(4) if chars else 3
        if op == 0:
            del chars[i]
        elif op == 1:
            chars.insert(i, chars[i])
        elif op == 2:
            j = rng.randrange(len(chars))
            chars[i], chars[j] = chars[j], chars[i]
        else:
            chars[i:i + 1] = rng.choice(ALPHABET)
    return "".join(chars)


# tokens for random lines, in an order that is not their id order
TOKENS = ["b", "a", "d", "10", "c", "2", "x", "1", "e9", "f"]


def _random_line(rng, fmt):
    """A valid wtx or seq-spmf line of a few items in shuffled token order."""
    if fmt == "wtx":
        tokens = rng.sample(TOKENS, rng.randint(1, 6))
        weights = [rng.choice([str(rng.randint(1, 9)), f"{rng.uniform(0.01, 50):.3f}"])
                   for _ in tokens]
        total = math.fsum(map(float, weights))
        return f"{' '.join(tokens)}:{total!r}:{' '.join(weights)}"
    groups = [rng.choices(TOKENS, k=rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
    return " ".join(" ".join(g) + " -1" for g in groups) + " -2"


def _stream(rng, fmt, explicit):
    """A short stream of seed and mutated lines with batch markers."""
    lines = []
    for n in range(rng.randint(1, 6)):
        line = rng.choice(SEEDS[fmt])
        if explicit:
            line = f"{n // 2 + 1} {line}"
        lines.append(_mutate(rng, line) if rng.random() < 0.3 else line)
        if rng.random() < 0.3:
            lines.append("")
    return lines


def _refused(call):
    """Run call(); False if it returned, True if it raised an RpsError.  Any
    other exception fails the test."""
    try:
        call()
    except RpsError:
        return True
    return False


@pytest.mark.parametrize("fmt", FORMATS)
def test_mutated_lines_raise_only_rps_errors(fmt):
    rng = random.Random(f"lines-{fmt}")
    refused = 0
    for _ in range(10000):
        line = _mutate(rng, rng.choice(SEEDS[fmt]))
        refused += _refused(lambda: parse_instance(line, fmt, Catalog()))
    # the mutants reach both outcomes
    assert 0 < refused < 10000


def test_mutated_snapshot_lines_raise_only_rps_errors():
    rng = random.Random("snapshot")
    refused = 0
    for _ in range(5000):
        lines = [_mutate(rng, rng.choice(SNAPSHOT_SEEDS)) for _ in range(rng.randint(1, 3))]
        refused += _refused(lambda: read_snapshot(lines, Catalog()))
    assert 0 < refused < 5000


@pytest.mark.parametrize("explicit", [False, True], ids=["ordinal", "explicit"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_mutated_streams_raise_only_rps_errors(fmt, explicit):
    rng = random.Random(f"streams-{fmt}-{explicit}")
    timestamps = "explicit" if explicit else "ordinal"
    refused = 0
    for _ in range(1000):
        lines = _stream(rng, fmt, explicit)
        size = rng.choice(["marker", 2])
        refused += _refused(lambda: list(iter_batches(lines, fmt, Catalog(), size, timestamps)))
    assert 0 < refused < 1000


def _state(sampler):
    return (
        sampler.snapshot(),
        sampler.batches_seen,
        sampler.batches_accepted,
        sampler.insertions,
        sampler.rng.getstate(),
    )


def test_refused_batch_leaves_the_sampler_as_it_was():
    """Batches of parsed mutant streams of mixed formats, out of order and
    under measures that may not fit, through one sampler per run."""
    rng = random.Random("process_batch")
    refusals = 0
    for run in range(1000):
        catalog = Catalog()
        batches = []
        for _ in range(rng.randint(1, 3)):
            fmt, explicit = rng.choice(FORMATS), rng.random() < 0.5
            lines = _stream(rng, fmt, explicit)
            timestamps = "explicit" if explicit else "ordinal"
            try:
                batches += iter_batches(lines, fmt, catalog, "marker", timestamps)
            except RpsError:
                pass
        spec = parse_measure(rng.choice(MEASURES), 1, rng.choice([None, 2]))
        sampler = ReservoirSampler(spec, rng.choice([1, 3]), rng.choice([0.0, 0.5]), seed=run)
        for batch in batches:
            before = _state(sampler)
            if _refused(lambda: sampler.process_batch(batch)):
                refusals += 1
                assert _state(sampler) == before
    assert refusals > 0


@pytest.mark.parametrize("fmt", FORMATS)
def test_accepted_streams_round_trip_through_a_snapshot(fmt):
    """The snapshot of every stream the sampler accepts reads back, into its
    own catalog and into a fresh one as rps featurize reads it, as the same
    stamps and patterns."""
    rng = random.Random(f"round-trip-{fmt}")
    spec = parse_measure("util" if fmt == "wtx" else "freq")
    trips = 0
    for run in range(500):
        explicit = rng.random() < 0.5
        lines = _stream(rng, fmt, explicit)
        catalog = Catalog()
        sampler = ReservoirSampler(spec, 3, seed=run)
        timestamps = "explicit" if explicit else "ordinal"
        try:
            for batch in iter_batches(lines, fmt, catalog, "marker", timestamps):
                sampler.process_batch(batch)
        except RpsError:
            continue
        out = io.StringIO()
        write_snapshot(out, sampler.snapshot(), catalog)
        text = out.getvalue().splitlines()
        assert read_snapshot(text, catalog) == sampler.snapshot(), lines
        fresh = Catalog()

        def spelled(entries, cat):
            return [(t, [sorted(map(cat.token, e)) for e in x.elements]) for t, x in entries]

        assert spelled(read_snapshot(text, fresh), fresh) == spelled(sampler.snapshot(), catalog)
        trips += 1
    assert trips > 100


@pytest.mark.parametrize("fmt", ["wtx", "seq-spmf"])
def test_parsed_rows_equal_the_checked_constructors(fmt):
    """wtx and seq-spmf rows are built without the constructors' checks; every
    row a parser accepts must pass them and equal what they build."""
    rng = random.Random(f"trusted-{fmt}")
    catalog = Catalog()
    accepted = 0
    while accepted < 1000:
        line = rng.choice(SEEDS[fmt]) if rng.random() < 0.3 else _random_line(rng, fmt)
        if rng.random() < 0.5:
            line = _mutate(rng, line)
        try:
            z, _ = parse_instance(line, fmt, catalog)
        except RpsError:
            continue
        if fmt == "wtx":
            checked = WeightedItemset(z.items, z.weights)
        else:
            checked = Sequence(z.elements)
            assert z.memo == {} and z.memo is not checked.memo
        assert z == checked and hash(z) == hash(checked), line
        accepted += 1
