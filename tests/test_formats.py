"""Line formats, pattern text, batch assembly, snapshots."""

import io
import random

import pytest

from rps.engine import ReservoirSampler
from rps.errors import ConfigurationError, ParseError
from rps.formats import (
    iter_batches,
    parse_instance,
    parse_pattern,
    pattern_text,
    read_instances,
    read_snapshot,
    serialize_instance,
    write_snapshot,
)
from rps.measures import parse_measure
from rps.model import (
    Catalog,
    Pattern,
    PlainItemset,
    Sequence,
    WeightedItemset,
    canon_items,
    pattern,
)

import streamgen


def test_parse_tx():
    cat = Catalog()
    z, label = parse_instance("a b c|sports", "tx", cat)
    assert isinstance(z, PlainItemset)
    assert [cat.token(i) for i in z.items] == ["a", "b", "c"]
    assert label == "sports"
    z2, label2 = parse_instance("c a a", "tx", cat)
    assert z2.norm == 2 and label2 is None
    with pytest.raises(ParseError):
        parse_instance("|label-only", "tx", cat)


def test_parse_wtx():
    cat = Catalog()
    z, label = parse_instance("2 3 5:10:2 3 5", "wtx", cat)
    assert isinstance(z, WeightedItemset)
    assert z.total_weight == 10.0
    assert z.weight_of(cat.id_of("5")) == 5.0
    assert label is None
    z2, label2 = parse_instance("a b:3.5:2 1.5|shop", "wtx", cat)
    assert label2 == "shop"
    assert z2.weights == (2.0, 1.5)
    with pytest.raises(ParseError):
        parse_instance("a b:9:2 1.5", "wtx", cat)  # declared total mismatch
    with pytest.raises(ParseError):
        parse_instance("a b:3.5:2", "wtx", cat)  # weight count mismatch
    with pytest.raises(ParseError):
        parse_instance("a a:4:2 2", "wtx", cat)  # duplicate item
    with pytest.raises(ParseError):
        parse_instance("a b c:6:2 2 x", "wtx", cat)  # bad number
    with pytest.raises(ParseError):
        parse_instance("a:1", "wtx", cat)  # missing a section


@pytest.mark.parametrize(
    "line, message",
    [
        ("a b:1e308:1e308 1e308", "exceeds the largest float"),  # fsum overflow
        ("a b:1:inf -inf", "must be finite"),
        ("a:inf:inf", "must be finite"),
        ("a b:inf:1 inf", "must be finite"),
        ("a:nan:nan", "must be finite"),
        ("a:1e309:1", "declared total utility inf"),
        ("a:0:0", "must be positive"),
        ("a b:1:2 -1", "must be positive"),
    ],
)
def test_parse_wtx_refuses_non_finite_weights(line, message):
    with pytest.raises(ParseError, match=message):
        parse_instance(line, "wtx", Catalog())
    # read from lines, the error names the line
    with pytest.raises(ParseError, match=f"line 2: .*{message}"):
        list(read_instances(["a:1:1", line], "wtx", Catalog()))


def test_parse_seq_spmf():
    cat = Catalog()
    z, label = parse_instance("1 2 -1 3 -1 -2", "seq-spmf", cat)
    assert isinstance(z, Sequence)
    assert len(z.elements) == 2
    assert [cat.token(i) for i in z.elements[0]] == ["1", "2"]
    assert label is None
    z2, label2 = parse_instance("greet|5 -1 -2", "seq-spmf", cat)
    assert label2 == "greet" and z2.norm == 1
    # a line may end with a bare -2 after items
    z3, _ = parse_instance("1 -1 3 -2", "seq-spmf", cat)
    assert len(z3.elements) == 2
    with pytest.raises(ParseError):
        parse_instance("1 2 -1 3 -1", "seq-spmf", cat)  # missing -2
    with pytest.raises(ParseError):
        parse_instance("1 -1 -2 4", "seq-spmf", cat)  # content after -2
    with pytest.raises(ParseError):
        parse_instance("-1 -2", "seq-spmf", cat)  # empty itemset
    with pytest.raises(ParseError):
        parse_instance("", "seq-spmf", cat)


def test_unknown_format():
    with pytest.raises(ParseError):
        parse_instance("a b", "csv", Catalog())
    with pytest.raises(ParseError, match="unknown format 'csv'"):
        read_instances([], "csv", Catalog())

def _reference_parse(line, fmt, cat):
    """(instance, label) from one intern call per token, in token order."""
    if fmt == "seq-spmf":
        head, sep, body = line.partition("|")
        runs = (body if sep else line).split("-2")[0].split("-1")
        elements = [canon_items(cat.intern(t) for t in run.split()) for run in runs]
        return Sequence(tuple(e for e in elements if e)), (head.strip() if sep else None)
    body, sep, label = line.partition("|")
    label = label.strip() if sep else None
    if fmt == "tx":
        return PlainItemset(canon_items(cat.intern(t) for t in body.split())), label
    items, _, weights = body.split(":")
    by_id = {cat.intern(t): float(w) for t, w in zip(items.split(), weights.split())}
    return WeightedItemset(tuple(sorted(by_id)), tuple(by_id[i] for i in sorted(by_id))), label


def _random_lines(fmt, rng):
    # the alphabet grows as the stream goes on, so new tokens keep turning up
    # mid-stream, next to known ones, and tx/seq lines repeat tokens
    lines = []
    for n in range(300):
        alphabet = [f"t{i}" for i in range(3 + n // 3)]
        roll = rng.random()
        if roll < 0.05:
            lines.append("# a comment")
            continue
        if roll < 0.1:
            lines.append("")
            continue
        label = rng.choice([None, "x", "a b"])
        if fmt == "tx":
            line = " ".join(rng.choices(alphabet, k=rng.randint(1, 8)))
            lines.append(f"{line}|{label}" if label else line)
        elif fmt == "wtx":
            items = rng.sample(alphabet, rng.randint(1, min(8, len(alphabet))))
            weights = [rng.choice([1, 2.5, 0.125, 7]) for _ in items]
            line = f"{' '.join(items)}:{sum(weights)}:{' '.join(map(str, weights))}"
            lines.append(f"{line}|{label}" if label else line)
        else:
            runs = [rng.choices(alphabet, k=rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            line = " ".join(" ".join(run) + " -1" for run in runs) + " -2"
            lines.append(f"{label}|{line}" if label else line)
    return lines


@pytest.mark.parametrize("fmt", ["tx", "wtx", "seq-spmf"])
def test_bulk_ingest_equals_per_token_interning(fmt):
    lines = _random_lines(fmt, random.Random(f"ingest/{fmt}"))
    cat, ref_cat = Catalog(), Catalog()
    got = list(read_instances(lines, fmt, cat))
    want = []
    for line_no, line in enumerate(lines, start=1):
        if line.startswith("#"):
            continue
        if not line:
            want.append((line_no, None, None))
            continue
        want.append((line_no, *_reference_parse(line, fmt, ref_cat)))
    assert got == want
    assert any(label for _, _, label in got) and any(z is None for _, z, _ in got)
    assert len(cat) > 50
    assert [cat.token(i) for i in range(len(cat))] == [
        ref_cat.token(i) for i in range(len(ref_cat))
    ]
    # marker batches hold the instances between blank lines, interned alike
    want_batches, pending = [], []
    for _, z, _ in got:
        if z is not None:
            pending.append(z)
        elif pending:
            want_batches.append(tuple(pending))
            pending = []
    if pending:
        want_batches.append(tuple(pending))
    batch_cat = Catalog()
    batches = list(iter_batches(lines, fmt, batch_cat))
    assert [b.instances for b in batches] == want_batches
    assert [b.timestamp for b in batches] == [float(t) for t in range(1, len(batches) + 1)]
    assert [batch_cat.token(i) for i in range(len(batch_cat))] == [
        cat.token(i) for i in range(len(cat))
    ]


def test_refused_line_leaves_the_catalog_as_it_was():
    good = {"tx": "a", "wtx": "a:1:1", "seq-spmf": "a -1 -2"}
    refused = [
        ("tx", "|only-a-label", "empty itemset"),
        ("wtx", "b c:9:1 2", "declared total"),
        ("wtx", "b c b:3:1 1 1", "duplicate item"),
        ("wtx", "p q:0:1 -1", "item weights must be positive"),
        ("seq-spmf", "x y -1 -1 -2", "empty itemset before -1"),
        ("seq-spmf", "u v -1", "sequence line is missing the -2"),
        # a token that holds a pattern text delimiter, after a new token
        ("tx", "b a,b", "token 'a,b' holds"),
        ("wtx", "b x{:2:1 1", "token 'x{' holds"),
        ("seq-spmf", "b -1 c} -1 -2", "token 'c}' holds"),
    ]
    cat = Catalog(["a"])

    def tokens():
        return [cat.token(i) for i in range(len(cat))]

    for fmt, line, message in refused:
        with pytest.raises(ParseError, match=message):
            parse_instance(line, fmt, cat)
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            list(read_instances([good[fmt], line], fmt, cat))
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            list(iter_batches([good[fmt], line], fmt, cat, batch_size=1))
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            lines = [f"1 {good[fmt]}", f"2 {line}"]
            list(iter_batches(lines, fmt, cat, timestamps="explicit"))
        assert tokens() == ["a"], line
    # a decreasing stamp refuses its line before the row is read
    for fmt, row in [("tx", "b c"), ("seq-spmf", "b -1 c -1 -2")]:
        with pytest.raises(ParseError, match="line 2: timestamp 1.0 decreases below 2.0"):
            lines = [f"2 {good[fmt]}", f"1 {row}"]
            list(iter_batches(lines, fmt, cat, timestamps="explicit"))
        assert tokens() == ["a"], row
    # a snapshot line's pattern is checked against its norm before interning
    for line, message in [
        ("2\t{b}\t1", "norm column says 2 but pattern has norm 1"),
        ("2\t<{x}{}>\t1", "empty itemset in pattern text"),
        ("1\tnope\t1", "bad pattern text 'nope'"),
    ]:
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            read_snapshot(["1\t{a}\t1", line], cat)
        assert tokens() == ["a"], line
    for text in ["<{y}{}>", "{y,z}x", "y"]:
        with pytest.raises(ParseError):
            parse_pattern(text, cat)
        assert tokens() == ["a"], text
    assert "b" not in cat and cat.intern("u") == 1


@pytest.mark.parametrize("explicit", [False, True])
def test_refused_line_in_a_rejected_batch_is_raised(explicit):
    # k = 1 and no damping: batch t is accepted with probability about 1/t,
    # so the last batch of the clean stream is rejected
    clean = [[f"a b c{t}", "b c"] for t in range(1, 21)]
    bad = [list(group) for group in clean]
    bad[-1].insert(1, "|only-a-label")

    def render(groups):
        if explicit:
            return [f"{t} {line}" for t, g in enumerate(groups, start=1) for line in g]
        return [line for g in groups for line in (*g, "")]

    sampler = ReservoirSampler(parse_measure("freq"), 1, seed=3)
    options = {"timestamps": "explicit"} if explicit else {}
    reports = [
        sampler.process_batch(b)
        for b in iter_batches(render(clean), "tx", Catalog(), **options)
    ]
    assert len(reports) == 20 and not reports[-1].accepted

    bad_lines = render(bad)
    line_no = next(i for i, line in enumerate(bad_lines, start=1) if "only" in line)
    sampler = ReservoirSampler(parse_measure("freq"), 1, seed=3)
    batches = iter_batches(bad_lines, "tx", Catalog(), **options)
    for _ in range(19):
        sampler.process_batch(next(batches))
    with pytest.raises(ParseError, match=f"line {line_no}: empty itemset"):
        next(batches)
    assert sampler.batches_seen == 19


def test_round_trip_instances():
    rng = random.Random(20260814)
    cat = Catalog()
    for i in range(40):
        cat.intern(f"tok{i}")
    cases = [
        ("tx", lambda: streamgen.random_plain(rng)),
        ("wtx", lambda: streamgen.random_weighted(rng)),
        ("seq-spmf", lambda: streamgen.random_sequence(rng)),
    ]
    for fmt, make in cases:
        for _ in range(60):
            z = make()
            label = rng.choice([None, "yes", "a b"])
            line = serialize_instance(z, fmt, cat, label)
            back, back_label = parse_instance(line, fmt, cat)
            assert back == z, (fmt, line)
            assert back_label == label
    # each format holds one variant
    for fmt, z, name in (
        ("tx", streamgen.random_weighted(rng), "WeightedItemset"),
        ("wtx", streamgen.random_plain(rng), "PlainItemset"),
        ("seq-spmf", streamgen.random_plain(rng), "PlainItemset"),
    ):
        with pytest.raises(ParseError, match=f"{fmt} holds .*, not {name}"):
            serialize_instance(z, fmt, cat)


def test_pattern_text_round_trip():
    cat = Catalog(["a", "b", "c"])
    single = pattern([[0, 2]])
    assert pattern_text(single, cat) == "{a,c}"
    multi = Pattern(((1,), (0, 2)))
    assert pattern_text(multi, cat) == "<{b}{a,c}>"
    for x in (single, multi, Pattern(((0,), (0,), (1, 2)))):
        assert parse_pattern(pattern_text(x, cat), cat) == x
    with pytest.raises(ParseError):
        parse_pattern("a,b", cat)
    with pytest.raises(ParseError):
        parse_pattern("<{a}{}>", cat)
    with pytest.raises(ParseError):
        parse_pattern("<{a}b{c}>", cat)


def test_iter_batches_marker_mode():
    lines = [
        "a b",
        "b c",
        "",
        "# a comment does not close a batch",
        "c d",
        "",
        "",
        "a",
    ]
    cat = Catalog()
    batches = list(iter_batches(lines, "tx", cat))
    assert [b.timestamp for b in batches] == [1.0, 2.0, 3.0]
    assert [len(b.instances) for b in batches] == [2, 1, 1]
    assert all(label is None for _, _, label in read_instances(lines, "tx", Catalog()))


def test_iter_batches_fixed_size():
    lines = ["a", "b", "c", "d", "e"]
    cat = Catalog()
    batches = list(iter_batches(lines, "tx", cat, batch_size=2))
    assert [len(b.instances) for b in batches] == [2, 2, 1]
    assert [b.timestamp for b in batches] == [1.0, 2.0, 3.0]
    # string sizes coming from a CLI flag work too
    batches = list(iter_batches(lines, "tx", cat, batch_size="5"))
    assert [len(b.instances) for b in batches] == [5]
    with pytest.raises(ConfigurationError):
        list(iter_batches(lines, "tx", cat, batch_size="0"))
    with pytest.raises(ConfigurationError):
        list(iter_batches(lines, "tx", cat, batch_size="few"))


@pytest.mark.parametrize(
    "fmt, options, error",
    [
        ("tx", {"batch_size": 0}, ConfigurationError),
        ("tx", {"batch_size": "few"}, ConfigurationError),
        # each of these used to put every row into one batch
        ("tx", {"batch_size": 2.5}, ConfigurationError),
        ("tx", {"batch_size": None}, ConfigurationError),
        ("tx", {"batch_size": [2]}, ConfigurationError),
        ("tx", {"batch_size": True}, ConfigurationError),
        ("tx", {"timestamps": "wall"}, ConfigurationError),
        ("csv", {}, ParseError),
        ("csv", {"timestamps": "explicit"}, ParseError),
        # explicit stamps make the batches, so any batch size, good or bad, would be ignored
        ("tx", {"timestamps": "explicit", "batch_size": "few"}, ConfigurationError),
        ("tx", {"timestamps": "explicit", "batch_size": 0}, ConfigurationError),
        ("tx", {"timestamps": "explicit", "batch_size": 2.5}, ConfigurationError),
        ("tx", {"timestamps": "explicit", "batch_size": 3}, ConfigurationError),
        ("tx", {"timestamps": "explicit", "batch_size": "3"}, ConfigurationError),
    ],
    ids=[
        "zero", "word", "float", "none", "list", "bool",
        "timestamp-mode", "format", "format-explicit",
        "explicit-word", "explicit-zero", "explicit-float", "explicit-int", "explicit-str",
    ],
)
def test_bad_batch_arguments_are_refused_before_reading(fmt, options, error):
    def lines():
        raise AssertionError("a line was read")
        yield "a"

    with pytest.raises(error):
        iter_batches(lines(), fmt, Catalog(), **options)


def test_iter_batches_explicit_timestamps():
    lines = [
        "0.5 a b|one",
        "0.5 c",
        "2 d",
        "2.5 e f",
    ]
    cat = Catalog()
    batches = list(iter_batches(lines, "tx", cat, timestamps="explicit"))
    assert [b.timestamp for b in batches] == [0.5, 2.0, 2.5]
    with pytest.raises(ParseError, match="line 3: timestamp 1.0 decreases below 2.0"):
        list(iter_batches(["2 a", "", "1 b"], "tx", cat, timestamps="explicit"))
    # the stamp is checked before the row, so it is the fault reported
    with pytest.raises(ParseError, match="line 2: timestamp 1.0 decreases below 2.0"):
        list(iter_batches(["2 a", "1 |label"], "tx", cat, timestamps="explicit"))
    for stamp, value in [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e999", "inf")]:
        with pytest.raises(ParseError, match=f"line 2: timestamp {value} is not finite"):
            list(iter_batches(["1 a", f"{stamp} b"], "tx", cat, timestamps="explicit"))
    with pytest.raises(ParseError, match="line 2: bad timestamp 'x'"):
        list(iter_batches(["# t a", "x a"], "tx", cat, timestamps="explicit"))
    with pytest.raises(ParseError, match="line 1: empty itemset"):
        list(iter_batches(["1 |label"], "tx", cat, timestamps="explicit"))
    # the stamp ends at any run of whitespace
    spaced = ["1\ta b", "1   c", "2 \t d|x", "3\t\te"]
    batches = list(iter_batches(spaced, "tx", Catalog(), timestamps="explicit"))
    assert [(b.timestamp, len(b.instances)) for b in batches] == [(1, 2), (2, 1), (3, 1)]
    assert batches[0].instances[0].norm == 2
    for lone in ("4", "4\t"):
        with pytest.raises(ParseError, match="line 2: empty itemset"):
            list(iter_batches(["3 a", lone], "tx", cat, timestamps="explicit"))
    with pytest.raises(ConfigurationError):
        list(iter_batches(["1 a"], "tx", cat, timestamps="sometimes"))


def test_parse_error_carries_line_number():
    cat = Catalog()
    with pytest.raises(ParseError) as err:
        list(iter_batches(["a:1:1", "a b:bad", ""], "wtx", cat))
    assert "line 2" in str(err.value)


def test_snapshot_round_trip():
    cat = Catalog(["a", "b", "c"])
    entries = [
        (1.0, pattern([[0, 1]])),
        (3.5, Pattern(((2,), (0, 1)))),
    ]
    buf = io.StringIO()
    write_snapshot(buf, entries, cat, header="after batch 3")
    text = buf.getvalue()
    assert text.startswith("# after batch 3\n")
    assert "{a,b}\t1\n" in text
    assert "<{c}{a,b}>\t3.5\n" in text
    back = read_snapshot(io.StringIO(text), cat)
    assert back == entries


def test_read_snapshot_validates():
    cat = Catalog(["a"])
    with pytest.raises(ParseError, match="line 1: expected norm"):
        read_snapshot(io.StringIO("1\t{a}\n"), cat)  # missing column
    with pytest.raises(ParseError, match="line 1: norm column says 2"):
        read_snapshot(io.StringIO("2\t{a}\t1.0\n"), cat)
    with pytest.raises(ParseError, match="line 1: invalid literal"):
        read_snapshot(io.StringIO("x\t{a}\t1.0\n"), cat)
    # comments and blank lines count toward the line number
    with pytest.raises(ParseError, match=r"line 4: bad pattern text '\{a,\}x'"):
        read_snapshot(io.StringIO("# head\n1\t{a}\t1\n\n1\t{a,}x\t2\n"), cat)
    assert read_snapshot(io.StringIO("# only a comment\n\n"), cat) == []


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_read_snapshot_refuses_non_finite_timestamps(stamp):
    # write_snapshot never writes one; the stream readers refuse them too
    cat = Catalog(["a"])
    with pytest.raises(ParseError, match=r"line 2: timestamp (nan|-?inf) is not finite"):
        read_snapshot(["1\t{a}\t1", f"1\t{{b}}\t{stamp}"], cat)
    assert "b" not in cat
