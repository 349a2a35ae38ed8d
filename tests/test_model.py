"""Model invariants: canonical forms, validation, containment."""

import copy
import itertools
import pickle
import random

import pytest

from rps import model
from rps.errors import ParseError
from rps.model import (
    Batch,
    Catalog,
    Pattern,
    PlainItemset,
    Sequence,
    instance_of,
    is_subset,
    matches,
    pattern,
    plain_itemset,
    sequence,
    weighted_itemset,
)

from conftest import A, B, C, D


def test_catalog_round_trip():
    cat = Catalog()
    assert cat.intern("apple") == 0
    assert cat.intern("pear") == 1
    assert cat.intern("apple") == 0  # idempotent
    assert cat.token(1) == "pear"
    assert cat.id_of("pear") == 1
    assert "apple" in cat and "fig" not in cat
    assert len(cat) == 2
    assert cat.intern_all(["pear", "apple", "pear"]) == (0, 1)
    # known groups, then groups with new tokens, interned in token order
    assert cat.itemsets([["pear"], ["apple", "pear"]]) == ((1,), (0, 1))
    assert cat.itemsets([["kiwi", "pear"], ["fig", "kiwi"]]) == ((1, 2), (2, 3))
    assert [cat.token(i) for i in range(len(cat))] == ["apple", "pear", "kiwi", "fig"]


def test_plain_itemset_canonical():
    z = plain_itemset([C, A, B, A])
    assert z.items == (A, B, C)
    assert z.norm == 3
    assert z.elements == ((A, B, C),)


def test_itemset_validation():
    with pytest.raises(TypeError, match="must be a tuple"):
        PlainItemset([A, B])
    with pytest.raises(ValueError, match="non-empty"):
        PlainItemset(())
    with pytest.raises(ValueError, match="strictly increasing"):
        PlainItemset((B, A))  # not sorted
    with pytest.raises(ValueError, match="strictly increasing"):
        PlainItemset((A, C, B))  # decreasing past the first pair
    with pytest.raises(ValueError, match="strictly increasing"):
        PlainItemset((A, A))  # duplicate
    with pytest.raises(ValueError, match="non-negative"):
        PlainItemset((-1,))
    with pytest.raises(ValueError, match="strictly increasing"):
        Sequence(((A,), (B, B)))  # every element is checked


def test_weighted_itemset():
    z = weighted_itemset({B: 1.5, A: 2.0, C: 2.0})
    assert z.items == (A, B, C)
    assert z.weights == (2.0, 1.5, 2.0)
    assert z.total_weight == 5.5
    assert z.weight_of(B) == 1.5
    with pytest.raises(KeyError):
        z.weight_of(D)
    with pytest.raises(ValueError):
        weighted_itemset([(A, 1.0), (A, 2.0)])  # duplicate item
    with pytest.raises(ValueError):
        weighted_itemset({A: 0.0})  # weights must be positive
    with pytest.raises(ValueError):
        weighted_itemset({A: -1.0})


def test_sequence_and_pattern_norms():
    z = sequence([[B], [C, A], [A]])
    assert z.elements == ((B,), (A, C), (A,))
    assert z.norm == 4
    with pytest.raises(ValueError):
        sequence([])
    with pytest.raises(ValueError):
        sequence([[A], []])
    x = pattern([[A], [C, A]])
    assert x.norm == 3
    assert not x.is_itemset
    assert pattern([[A, B]]).is_itemset


def test_sequence_memo_stays_out_of_equality_pickles_and_copies():
    z = sequence([[B], [C, A], [A]])
    z.memo["derived"] = object()
    twin = sequence([[B], [C, A], [A]])
    assert z == twin and hash(z) == hash(twin) and repr(z) == repr(twin)
    for clone in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
        assert clone == z and clone.memo == {}


def test_batch_invariants():
    with pytest.raises(ValueError):
        Batch(1.0, (plain_itemset([A]), sequence([[A]])))
    # a set row is checked as its PlainItemset, with a ValueError throughout
    for rows, message in (
        (({A}, set()), "non-empty"),
        (({A, B}, {-1, 2}), "non-negative"),
        (({A}, {B, "c"}), "compare"),
        (({"c"},), "compare"),
    ):
        with pytest.raises(ValueError, match=message):
            Batch(1.0, rows)
    empty = Batch(1.0, ())
    assert empty.instances == ()
    assert empty.variant is None and Batch(1.0, ()).variant is None
    assert Batch(1.0, (sequence([[A]]),)).variant is Sequence


def test_batch_refuses_a_row_that_is_neither_an_instance_nor_a_set():
    for row in (frozenset({A, B}), (A, B), pattern([[A]])):
        with pytest.raises(ValueError, match=f"not {type(row).__name__}"):
            Batch(1.0, (row,))
        with pytest.raises(ValueError, match=f"not {type(row).__name__}"):
            Batch(1.0, (row, row))


def test_batch_refuses_rows_that_mix_sets_with_instances():
    with pytest.raises(ValueError, match="mixes"):
        Batch(1.0, ({A}, plain_itemset([B])))
    with pytest.raises(ValueError, match="mixes"):
        Batch(1.0, (weighted_itemset({A: 1.0}), {B}))
    assert Batch(1.0, ({A}, {B, C})).variant is PlainItemset
    z = sequence([[A], [B]])
    assert instance_of({C, A}) == plain_itemset([A, C]) and instance_of(z) is z


def test_catalog_refuses_a_new_token_with_a_pattern_delimiter():
    cat = Catalog(["a", "b"])
    for call in (cat.ids, cat.id_set, cat.intern_all):
        with pytest.raises(ParseError, match="token 'x,y' holds"):
            call(["c", "x,y"])
    with pytest.raises(ParseError, match="token 'y}' holds"):
        cat.itemsets([["c"], ["d", "y}"]])
    with pytest.raises(ParseError, match="token '{' holds"):
        cat.intern("{")
    assert len(cat) == 2 and "c" not in cat
    assert cat.itemsets([["b", "c"], ["a"]]) == ((1, 2), (0,))


def test_a_batch_of_rows_is_its_rows(monkeypatch):
    built = []

    def counting(row):
        built.append(row)
        return PlainItemset(tuple(sorted(row)))

    monkeypatch.setattr(model, "instance_of", counting)
    rows = ({C, A}, {B})
    lazy = Batch(2.0, rows)
    instances = (plain_itemset([A, C]), plain_itemset([B]))
    eager = Batch(2.0, instances)
    assert lazy.variant is PlainItemset and lazy.rows is rows
    # identity goes by (timestamp, rows): nothing is built to compare
    assert lazy == Batch(2.0, ({A, C}, {B})) and lazy != eager
    assert lazy != Batch(3.0, rows)
    assert repr(lazy) == "Batch(timestamp=2.0, rows=({0, 2}, {1}))"
    with pytest.raises(TypeError, match="unhashable"):
        hash(lazy)
    assert hash(eager) == hash(Batch(2.0, instances))
    with pytest.raises(AttributeError):
        lazy.timestamp = 3.0
    for clone in (pickle.loads(pickle.dumps(lazy)), copy.copy(lazy), copy.deepcopy(lazy)):
        assert clone == lazy and clone.variant is PlainItemset
    assert built == []
    # instances builds every row on each read
    assert lazy.instances == instances and built == list(rows)


def test_is_subset():
    assert is_subset((A,), (A, B))
    assert is_subset((A, C), (A, B, C))
    assert not is_subset((A, D), (A, B, C))
    assert is_subset((), (A,))
    assert not is_subset((A,), ())


def test_matches_itemsets():
    z = plain_itemset([A, B, C])
    assert matches(pattern([[A, C]]), z)
    assert not matches(pattern([[A, D]]), z)
    # multi-element patterns never match single itemsets
    assert not matches(pattern([[A], [B]]), z)
    w = weighted_itemset({A: 1.0, C: 2.0})
    assert matches(pattern([[A, C]]), w)
    assert not matches(pattern([[B]]), w)


def test_matches_sequence_examples():
    z3 = sequence([[B], [A, C], [A]])
    assert not matches(pattern([[A], [C]]), z3)
    assert matches(pattern([[B]]), z3)
    assert matches(pattern([[B], [A, C], [A]]), z3)
    assert matches(pattern([[A], [A]]), z3)
    assert not matches(pattern([[A], [A], [A]]), z3)
    z1 = sequence([[A], [B], [A, C], [B]])
    assert matches(pattern([[A], [C]]), z1)
    assert matches(pattern([[A], [B], [B]]), z1)
    assert not matches(pattern([[C], [A]]), z1)


def _matches_brute(pat: Pattern, z: Sequence) -> bool:
    # try every increasing assignment of pattern elements to positions
    def embed(pi: int, start: int) -> bool:
        if pi == len(pat.elements):
            return True
        for j in range(start, len(z.elements)):
            if is_subset(pat.elements[pi], z.elements[j]) and embed(pi + 1, j + 1):
                return True
        return False

    return embed(0, 0)


def test_matches_equals_brute_force():
    # the greedy scan must agree with exhaustive embedding search
    rng = random.Random(20260814)
    for _ in range(300):
        n = rng.randint(1, 5)
        z = sequence(
            [rng.sample(range(4), rng.randint(1, 3)) for _ in range(n)]
        )
        m = rng.randint(1, 3)
        pat = pattern(
            [rng.sample(range(4), rng.randint(1, 2)) for _ in range(m)]
        )
        assert matches(pat, z) == _matches_brute(pat, z), (pat, z)


def test_matches_equals_an_embedding_search_when_items_repeat():
    # items repeat across a probe's itemsets, so an itemset that holds an
    # element's first item need not hold the element; half the patterns
    # are cut from the probe, so both answers are common
    rng = random.Random(20261020)
    seen = set()
    for _ in range(2000):
        n = rng.randint(1, 7)
        z = sequence([rng.sample(range(3), rng.randint(1, 3)) for _ in range(n)])
        m = rng.randint(1, 4)
        if rng.random() < 0.5 and m <= n:
            cut = [z.elements[j] for j in sorted(rng.sample(range(n), m))]
            pat = pattern([rng.sample(e, rng.randint(1, len(e))) for e in cut])
        else:
            pat = pattern([rng.sample(range(3), rng.randint(1, 2)) for _ in range(m)])
        want = any(
            all(set(e) <= set(z.elements[j]) for e, j in zip(pat.elements, at))
            for at in itertools.combinations(range(n), len(pat.elements))
        )
        assert matches(pat, z) == want, (pat, z)
        seen.add(want)
    assert seen == {True, False}
