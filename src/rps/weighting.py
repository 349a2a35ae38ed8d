"""Closed-form norm weight tables.

For an instance z and measure spec, the table maps each admissible pattern
norm ell to the total measure mass of all distinct patterns of that norm
contained in z:

  plain itemset, n items:     C(n, ell) * f(ell)
  weighted itemset, total W:  W * C(n-1, ell-1) * f(ell)
  sequence:                   D(ell) * f(ell)

where f is the measure's norm factor and D(ell) is the number of distinct
subsequence patterns of norm ell.  The weighted identity holds because each
item appears in C(n-1, ell-1) of the ell-subsets, so the summed utilities of
all ell-subsets telescope to W * C(n-1, ell-1).

D(ell) cannot enumerate (it is exponential in ell), so it is computed by a
first-occurrence DP: a pattern is generated by placing each block at the
earliest position where it fits after the previous block, which makes the
generating walk unique per pattern.  A block placed at position j after
position i must not be contained in any intermediate itemset; the number of
admissible q-subsets of I_j is counted by inclusion-exclusion over the
deduplicated maximal intersections I_j & I_m for i < m < j.

Each table is cached on what it depends on.  A plain itemset's table is a
function of (n, spec) alone, so one table serves every itemset of that size.
A weighted itemset's table multiplies its own W into cached (n, spec) terms.
A sequence's table and counts depend on its whole structure and are cached
per instance.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterable

from .errors import ConfigurationError, WeightOverflowError
from .measures import BaseMeasure, MeasureSpec, format_measure
from .model import (
    Batch,
    Instance,
    Items,
    PlainItemset,
    Sequence,
    WeightedItemset,
)

_CACHE_SIZE = 65536


@dataclass(frozen=True, slots=True)
class NormWeightTable:
    """Positive mass per admissible norm, with a prefix-sum for draws."""

    norms: tuple[int, ...]
    weights: tuple[float, ...]
    cumulative: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.norms) == len(self.weights) == len(self.cumulative)):
            raise ValueError("norms, weights, cumulative must align")
        if any(a >= b for a, b in zip(self.norms, self.norms[1:])):
            raise ValueError("norms must be strictly increasing")
        if any(not w > 0 for w in self.weights):
            raise ValueError("table weights must be positive")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "NormWeightTable":
        kept = [(ell, w) for ell, w in pairs if w > 0]
        norms = tuple(ell for ell, _ in kept)
        weights = tuple(w for _, w in kept)
        return cls(norms, weights, tuple(accumulate(weights)))

    @property
    def total(self) -> float:
        return self.cumulative[-1] if self.cumulative else 0.0

    def weight(self, ell: int) -> float:
        i = bisect_left(self.norms, ell)
        if i < len(self.norms) and self.norms[i] == ell:
            return self.weights[i]
        return 0.0

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.norms, self.weights))


def _norm_range(spec: MeasureSpec, instance_norm: int) -> range:
    return range(spec.min_norm, spec.norm_cap(instance_norm) + 1)


def _overflow(variant: type, n: int, spec: MeasureSpec) -> WeightOverflowError:
    return WeightOverflowError(
        f"pattern mass of a {n}-item {variant.__name__} under "
        f"{format_measure(spec)} exceeds the largest float "
        f"({sys.float_info.max:.3g}): an itemset's mass grows like 2^n, which "
        f"limits plain itemsets to about 1000 items"
    )


def _table(
    variant: type, n: int, spec: MeasureSpec, masses: Iterable[tuple[int, float]]
) -> NormWeightTable:
    try:
        table = NormWeightTable.from_pairs(masses)
    except OverflowError:  # a pattern count past the float range
        raise _overflow(variant, n, spec) from None
    if table.total == math.inf:
        raise _overflow(variant, n, spec)
    return table


@lru_cache(maxsize=None)
def _itemset_shape(
    variant: type, n: int, spec: MeasureSpec
) -> NormWeightTable | tuple[tuple[int, int, float], ...]:
    """The part of an n-item itemset's table that depends only on (variant,
    n, spec): the whole table C(n, ell) * f(ell) of a plain itemset, or the
    (ell, C(n-1, ell-1), f(ell)) terms that a weighted itemset's total W
    multiplies.  Unbounded: keys are bounded by the distinct itemset sizes
    of a stream times the few specs in use."""
    if variant is WeightedItemset:
        if spec.base not in (BaseMeasure.UTIL, BaseMeasure.AVGUTIL):
            raise ConfigurationError(
                f"{spec.base.value} is not defined for weighted itemsets"
            )
        return tuple(
            (ell, math.comb(n - 1, ell - 1), spec.norm_utility(ell))
            for ell in _norm_range(spec, n)
        )
    masses = (
        (ell, math.comb(n, ell) * spec.norm_utility(ell)) for ell in _norm_range(spec, n)
    )
    return _table(variant, n, spec, masses)


def _weighted_masses(z: WeightedItemset, spec: MeasureSpec) -> list[tuple[int, float]]:
    try:
        total = math.fsum(z.weights)
        # (W * c) * f, in this order, is the float product of the closed form
        return [
            (ell, total * c * f)
            for ell, c, f in _itemset_shape(WeightedItemset, z.norm, spec)
        ]
    except OverflowError:  # W or a term C(n-1, ell-1) past the float range
        raise _overflow(WeightedItemset, z.norm, spec) from None


@lru_cache(maxsize=_CACHE_SIZE)
def _sequence_table(z: Sequence, spec: MeasureSpec) -> NormWeightTable:
    # a sequence's table depends on its whole structure: cached per instance
    if spec.base in (BaseMeasure.UTIL, BaseMeasure.AVGUTIL):
        raise ConfigurationError(f"{spec.base.value} is not defined for sequences")
    cap = spec.norm_cap(z.norm)
    if cap < spec.min_norm:
        return NormWeightTable.from_pairs(())
    counts = sequence_counts(z, cap)
    masses = (
        (ell, counts.count(ell) * spec.norm_utility(ell))
        for ell in _norm_range(spec, z.norm)
    )
    return _table(Sequence, z.norm, spec, masses)


def weight_table(z: Instance, spec: MeasureSpec) -> NormWeightTable:
    """Norm weight table for one instance.

    A plain itemset's table depends only on its size, so all plain itemsets
    of one size share one cached table.  A weighted itemset's table is built
    from the cached (size, spec) terms times its own total weight.  A
    sequence's table depends on its whole structure and is cached per
    instance.
    """
    if isinstance(z, PlainItemset):
        return _itemset_shape(PlainItemset, z.norm, spec)
    if isinstance(z, WeightedItemset):
        return _table(WeightedItemset, z.norm, spec, _weighted_masses(z, spec))
    if isinstance(z, Sequence):
        return _sequence_table(z, spec)
    raise TypeError(f"not an instance: {type(z).__name__}")


# the itemset memo's hits and misses, read as the table cache's statistics
weight_table.cache_info = _itemset_shape.cache_info


def instance_weight(z: Instance, spec: MeasureSpec) -> float:
    """Total measure mass of all distinct patterns contained in z.

    Equal, bit for bit, to weight_table(z, spec).total; a weighted itemset
    gets it by the same left-to-right sum without building its table.
    """
    if isinstance(z, WeightedItemset):
        total = 0.0
        for _, w in _weighted_masses(z, spec):
            if w > 0:
                total += w
        if total == math.inf:
            raise _overflow(WeightedItemset, z.norm, spec)
        return total
    return weight_table(z, spec).total


def batch_weight(batch: Batch, spec: MeasureSpec) -> float:
    weights = [instance_weight(z, spec) for z in batch.instances]
    try:
        return math.fsum(weights)
    except OverflowError:
        raise WeightOverflowError(
            f"pattern mass of a batch of {len(weights)} instances exceeds "
            f"the largest float ({sys.float_info.max:.3g})"
        ) from None


def _maximal(sets_: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    # drop any set contained in another; keep order deterministic
    uniq = sorted(set(sets_), key=lambda s: (-len(s), sorted(s)))
    kept: list[frozenset[int]] = []
    for s in uniq:
        if not any(s <= t for t in kept):
            kept.append(s)
    return tuple(kept)


def _signed_tally(gaps: tuple[frozenset[int], ...]) -> dict[int, int]:
    """Signed count of |intersection| over non-empty subfamilies of gaps.

    tally[s] sums +1 for odd subfamilies and -1 for even ones whose common
    intersection has size s, so sum(tally[s] * C(s, q)) is the number of
    q-subsets covered by at least one gap.  Empty intersections are pruned:
    they stay empty under further intersection and contribute C(0, q) = 0.
    """
    tally: dict[int, int] = {}
    n = len(gaps)

    def descend(start: int, inter: frozenset[int], sign: int) -> None:
        for idx in range(start, n):
            nxt = inter & gaps[idx]
            if not nxt:
                continue
            tally[len(nxt)] = tally.get(len(nxt), 0) + sign
            descend(idx + 1, nxt, -sign)

    for idx in range(n):
        tally[len(gaps[idx])] = tally.get(len(gaps[idx]), 0) + 1
        descend(idx + 1, gaps[idx], -1)
    return tally


class AdmissibleBlocks:
    """q-subsets of one sequence itemset that do not occur in the gap
    before it.

    base is the itemset at the candidate position; gaps are its
    intersections with the itemsets strictly between the previous block's
    position and the candidate (deduplicated, maximal only).  A subset is
    admissible iff it is not contained in any gap, i.e. the candidate
    position is its first fit.
    """

    __slots__ = ("base", "gaps", "_tally", "_enum")

    def __init__(self, base: Items, gap_itemsets: Iterable[Items]):
        self.base = base
        base_set = frozenset(base)
        inters = {frozenset(g) & base_set for g in gap_itemsets}
        inters.discard(frozenset())
        self.gaps = _maximal(inters)
        self._tally = _signed_tally(self.gaps)
        self._enum: dict[int, tuple[Items, ...]] = {}

    def count(self, q: int) -> int:
        if q < 1 or q > len(self.base):
            return 0
        covered = sum(sign * math.comb(size, q) for size, sign in self._tally.items())
        return math.comb(len(self.base), q) - covered

    def covered(self, items: Iterable[int]) -> bool:
        s = frozenset(items)
        return any(s <= g for g in self.gaps)

    def admissible(self, q: int) -> tuple[Items, ...]:
        """All admissible q-subsets, in lexicographic order (cached)."""
        got = self._enum.get(q)
        if got is None:
            got = tuple(
                c for c in combinations(self.base, q) if not self.covered(c)
            )
            self._enum[q] = got
        return got


class SequenceCounts:
    """Distinct-pattern counts by norm for one sequence.

    continuation(i, ell) is the number of distinct patterns of norm ell whose
    first block is placed at its first admissible position strictly after
    position i (i = -1 for the start).  Greedy placement is unique per
    pattern, so every pattern is counted exactly once.  The table is filled
    bottom-up in ell so deep sequences cannot overflow the stack.
    """

    __slots__ = ("elements", "cap", "_n", "_blocks", "_table")

    def __init__(self, elements: tuple[Items, ...], cap: int):
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        self.elements = elements
        self.cap = cap
        self._n = len(elements)
        self._blocks: dict[tuple[int, int], AdmissibleBlocks] = {}
        # _table[i + 1][ell] = continuation(i, ell); column 0 unused
        self._table = [[0] * (cap + 1) for _ in range(self._n + 1)]
        for ell in range(1, cap + 1):
            for i in range(self._n - 1, -2, -1):
                self._table[i + 1][ell] = self._compute(i, ell)

    def _compute(self, i: int, ell: int) -> int:
        total = 0
        for j in range(i + 1, self._n):
            blocks = self.blocks(i, j)
            for q in range(1, min(ell, len(self.elements[j])) + 1):
                ways = blocks.count(q)
                if not ways:
                    continue
                if q == ell:
                    total += ways
                else:
                    total += ways * self._table[j + 1][ell - q]
        return total

    def blocks(self, i: int, j: int) -> AdmissibleBlocks:
        """Admissible first-fit blocks at position j after position i."""
        key = (i, j)
        got = self._blocks.get(key)
        if got is None:
            got = AdmissibleBlocks(
                self.elements[j], self.elements[i + 1 : j]
            )
            self._blocks[key] = got
        return got

    def continuation(self, i: int, ell: int) -> int:
        if not -1 <= i < self._n:
            raise ValueError(f"position {i} out of range")
        if not 1 <= ell <= self.cap:
            raise ValueError(f"norm {ell} outside [1, {self.cap}]")
        return self._table[i + 1][ell]

    def count(self, ell: int) -> int:
        """Number of distinct patterns of norm ell in the sequence."""
        return self.continuation(-1, ell)


@lru_cache(maxsize=_CACHE_SIZE)
def sequence_counts(z: Sequence, cap: int) -> SequenceCounts:
    return SequenceCounts(z.elements, min(cap, z.norm))
