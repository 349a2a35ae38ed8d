"""Data model: interned items, stream instances, batches, patterns, containment.

Items are dense non-negative integer ids; a Catalog maps them back to the
original string tokens.  Every itemset is stored as a strictly increasing
tuple of ids, which makes instances and patterns hashable and gives each
pattern exactly one representation.  A Batch is a frozen record of its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import lt
from typing import Collection, Iterable, Mapping, Union

from .errors import ParseError

Items = tuple[int, ...]


class Catalog:
    """Append-only bijection between string tokens and dense ids.

    Ids are given in order of first appearance, and an id, once given, is
    never taken back: a reader that may refuse its input checks it in full
    before it interns a token.  A new token that holds '{', '}' or ',',
    pattern text's delimiters, is a ParseError, and a call checks all its new
    tokens before it interns one.  The catalog is single-threaded: interning
    is a plain dict read, plus a write for a token not seen before.
    """

    _DELIMITERS = frozenset("{},")

    def __init__(self, tokens: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        for tok in tokens:
            self.intern(tok)

    def intern(self, token: str) -> int:
        got = self._ids.get(token)
        if got is None:
            self._checked((token,))
            got = self._ids[token] = len(self._tokens)
            self._tokens.append(token)
        return got

    def _checked(self, tokens: Collection[str]) -> Collection[str]:
        # only the miss paths call this: a line of known tokens pays nothing
        for tok in tokens:
            if tok not in self._ids and not self._DELIMITERS.isdisjoint(tok):
                raise ParseError(f"token {tok!r} holds a pattern delimiter '{{', '}}' or ','")
        return tokens

    def ids(self, tokens: Collection[str]) -> list[int]:
        """The ids of tokens, in token order.  A token not seen before is
        interned where it first appears; tokens are then read a second time,
        so they must be a collection, not a one-shot iterator."""
        try:
            return list(map(self._ids.__getitem__, tokens))
        except KeyError:
            return list(map(self.intern, self._checked(tokens)))

    def id_set(self, tokens: Collection[str]) -> set[int]:
        """set(self.ids(tokens)), without the intermediate list."""
        try:
            return set(map(self._ids.__getitem__, tokens))
        except KeyError:
            return set(map(self.intern, self._checked(tokens)))

    def intern_all(self, tokens: Collection[str]) -> Items:
        """canon_items(self.ids(tokens))."""
        return tuple(sorted(self.id_set(tokens)))

    def itemsets(self, groups: list[list[str]]) -> tuple[Items, ...]:
        """The intern_all of each group, interning in token order; when every
        token is known, without a Python-level call per group."""
        try:
            get = self._ids.__getitem__
            return tuple([tuple(sorted(set(map(get, g)))) for g in groups])
        except KeyError:
            self._checked([tok for g in groups for tok in g])
            return tuple([self.intern_all(g) for g in groups])

    def token(self, item_id: int) -> str:
        return self._tokens[item_id]

    def id_of(self, token: str) -> int:
        return self._ids[token]

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __len__(self) -> int:
        return len(self._tokens)


def canon_items(items: Iterable[int]) -> Items:
    """Duplicate-free sorted tuple of item ids."""
    return tuple(sorted(set(items)))


def _check_items(items: Items) -> None:
    if not isinstance(items, tuple):
        raise TypeError(f"itemset must be a tuple, got {type(items).__name__}")
    if not items:
        raise ValueError("itemset must be non-empty")
    if items[0] < 0:
        raise ValueError(f"item ids are non-negative: {items!r}")
    if not all(map(lt, items, items[1:])):
        raise ValueError(f"items must be strictly increasing: {items!r}")


@dataclass(frozen=True, slots=True)
class PlainItemset:
    """Unweighted itemset instance."""

    items: Items

    def __post_init__(self):
        _check_items(self.items)

    def __len__(self) -> int:
        # its size, as a tx row's (the set of ids it stands for) is len(row)
        return len(self.items)

    @property
    def norm(self) -> int:
        return len(self.items)

    @property
    def elements(self) -> tuple[Items, ...]:
        return (self.items,)


@dataclass(frozen=True, slots=True)
class WeightedItemset:
    """Itemset with one positive weight per item, aligned with items."""

    items: Items
    weights: tuple[float, ...]

    def __post_init__(self):
        _check_items(self.items)
        if len(self.weights) != len(self.items):
            raise ValueError("weights must align 1:1 with items")
        if not all(map(math.isfinite, self.weights)):
            raise ValueError(f"item weights must be finite: {self.weights!r}")
        if not all(map((0.0).__lt__, self.weights)):
            raise ValueError(f"item weights must be positive: {self.weights!r}")

    @property
    def norm(self) -> int:
        return len(self.items)

    @property
    def elements(self) -> tuple[Items, ...]:
        return (self.items,)

    @property
    def total_weight(self) -> float:
        """W, the correctly rounded sum of the item weights."""
        return math.fsum(self.weights)

    def weight_of(self, item_id: int) -> float:
        # items is sorted but stays tiny at this scale; linear scan is fine
        for it, w in zip(self.items, self.weights):
            if it == item_id:
                return w
        raise KeyError(item_id)


@dataclass(frozen=True, slots=True)
class Sequence:
    """Ordered tuple of non-empty itemsets.

    memo holds what rps.weighting derives from the elements, its distinct-
    pattern counts per norm cap, so they are freed with the sequence.  It
    takes no part in equality, hashing or repr.
    """

    elements: tuple[Items, ...]
    memo: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self):
        if not self.elements:
            raise ValueError("sequence must have at least one element")
        for e in self.elements:
            _check_items(e)

    @property
    def norm(self) -> int:
        return sum(map(len, self.elements))

    def __reduce__(self):
        # a pickle or copy carries the elements only; memo is derived
        return (Sequence, (self.elements,))


Instance = Union[PlainItemset, WeightedItemset, Sequence]


@dataclass(frozen=True, slots=True)
class Pattern:
    """Sampled pattern: one itemset element for itemset streams, one or more
    for sequence streams.  Norm is the total item count."""

    elements: tuple[Items, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("pattern must have at least one element")
        for e in self.elements:
            _check_items(e)

    @property
    def norm(self) -> int:
        return sum(map(len, self.elements))

    @property
    def is_itemset(self) -> bool:
        return len(self.elements) == 1


_set = object.__setattr__


def _unchecked(cls: type, *values):
    """cls(*values), a Sequence with a fresh memo, without __post_init__'s
    checks: only for rps.formats' parsers, which check each line in full, and
    batches of their rows, and the pattern draws of rps.engine and
    rps.weighting, sorted by construction."""
    obj = object.__new__(cls)
    _set(obj, cls.__slots__[0], values[0])
    if len(values) > 1:  # a WeightedItemset's weights, a Batch's rows
        _set(obj, cls.__slots__[1], values[1])
        if cls is Batch:  # of one format's rows, never empty
            kind = type(values[1][0])
            _set(obj, "variant", PlainItemset if kind is set else kind)
    elif cls is Sequence:
        _set(obj, "memo", {})
    return obj


@dataclass(frozen=True, slots=True)
class Batch:
    """Timestamped group of same-variant rows; may be empty.

    A row is an instance, or a tx line's set of distinct item ids, which
    stands for its PlainItemset (instance_of) and is checked as one here.
    variant is the rows' instance type (None when empty).  A batch is weighed
    and drawn from its rows; instances builds them on each read.  Equality,
    hashing, repr and pickling go by (timestamp, rows): sets do not hash.
    """

    timestamp: float
    rows: tuple[set[int] | Instance, ...]
    variant: type | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kinds = set(map(type, self.rows))
        if len(kinds) > 1:
            names = sorted(k.__name__ for k in kinds)
            raise ValueError(f"batch mixes rows of kinds {names}")
        kind = next(iter(kinds), None)
        if kind is set:  # refused as its PlainItemset would be, at less cost
            try:
                if not all(self.rows) or min(map(min, self.rows)) < 0:
                    raise ValueError("a set row must be non-empty, of non-negative ids")
            except TypeError:
                raise ValueError("item ids must be integers that compare") from None
        elif kind and not issubclass(kind, (set, PlainItemset, WeightedItemset, Sequence)):
            raise ValueError(f"a row is an instance or a set of item ids, not {kind.__name__}")
        _set(self, "variant", PlainItemset if kind is set else kind)

    @property
    def instances(self) -> tuple[Instance, ...]:
        return tuple(map(instance_of, self.rows))


def instance_of(row: set[int] | Instance) -> Instance:
    """The instance a batch row stands for: a set of item ids is its plain
    itemset, built and checked on each call; any other row is an instance."""
    return PlainItemset(tuple(sorted(row))) if isinstance(row, set) else row


def plain_itemset(items: Iterable[int]) -> PlainItemset:
    return PlainItemset(canon_items(items))


def weighted_itemset(
    weights_by_item: Mapping[int, float] | Iterable[tuple[int, float]],
) -> WeightedItemset:
    pairs = (
        weights_by_item.items()
        if isinstance(weights_by_item, Mapping)
        else list(weights_by_item)
    )
    by_item: dict[int, float] = {}
    for item, w in pairs:
        if item in by_item:
            raise ValueError(f"duplicate item {item} in weighted itemset")
        by_item[item] = float(w)
    items = tuple(sorted(by_item))
    return WeightedItemset(items, tuple(by_item[i] for i in items))


def sequence(elements: Iterable[Iterable[int]]) -> Sequence:
    return Sequence(tuple(canon_items(e) for e in elements))


def pattern(elements: Iterable[Iterable[int]]) -> Pattern:
    return Pattern(tuple(canon_items(e) for e in elements))


def is_subset(a: Items, b: Items) -> bool:
    """a subseteq b for sorted id tuples, by merge walk."""
    i = 0
    n = len(b)
    for x in a:
        while i < n and b[i] < x:
            i += 1
        if i == n or b[i] != x:
            return False
        i += 1
    return True


def matches(pat: Pattern, z: Instance) -> bool:
    """Containment test.

    Itemset instances contain exactly the subsets of their items; a sequence
    contains a pattern iff the pattern elements embed into distinct itemsets
    in order.  The greedy leftmost embedding decides this exactly.  An
    itemset that lacks an element's first item is passed over without a
    merge walk.
    """
    targets = z.elements
    i = 0
    n = len(targets)
    for e in pat.elements:
        first = e[0]
        while i < n and not (first in targets[i] and is_subset(e, targets[i])):
            i += 1
        if i == n:
            return False
        i += 1
    return True
