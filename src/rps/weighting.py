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
admissible q-subsets of I_j is C(|I_j|, q) minus an inclusion-exclusion sum
over the gap intersections I_j & I_m, i < m < j.  That sum is kept as a tally
of signed coefficients per distinct intersection set, and for a fixed j it
grows by one gap as i moves left, so each block's count vector costs one
fold instead of a pass over every subfamily of gaps.

A pattern is drawn by reading the counting table backwards, each block
unranked from its tally one item at a time in lexicographic order, without
enumerating subsets (SequenceCounts.draw and block).

Each table is cached on what it depends on.  A plain itemset's table is a
function of (n, spec) alone, so one table serves every itemset of that size.
A weighted itemset's table multiplies its own W into cached (n, spec) terms.
A sequence's counts and tables depend on its whole structure and live with
the sequence, in Sequence.memo: they are freed with it.

Cost limits: counting admissible blocks is a hitting-set count, so the
tally can still hold exponentially many sets when every gap intersection is
distinct (gaps B - {b} for each b of a block B give every subset of B).  A
draw of a block makes |B| passes over that same tally.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from random import Random
from typing import Iterable, Iterator

from .errors import ConfigurationError, WeightOverflowError
from .measures import MeasureSpec, format_measure
from .model import (
    Batch,
    Instance,
    Items,
    PlainItemset,
    Sequence,
    WeightedItemset,
)

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


def _check_supports(variant: type, spec: MeasureSpec) -> None:
    if not spec.supports(variant):
        raise ConfigurationError(
            f"{spec.base.value} is not defined for {variant.__name__} instances"
        )


@lru_cache(maxsize=None)
def _itemset_shape(
    variant: type, n: int, spec: MeasureSpec
) -> NormWeightTable | tuple[tuple[int, int, float], ...]:
    """The part of an n-item itemset's table that depends only on (variant,
    n, spec): the whole table C(n, ell) * f(ell) of a plain itemset, or the
    (ell, C(n-1, ell-1), f(ell)) terms that a weighted itemset's total W
    multiplies.  Unbounded: keys are bounded by the distinct itemset sizes
    of a stream times the few specs in use."""
    _check_supports(variant, spec)
    if variant is WeightedItemset:
        return tuple(
            (ell, math.comb(n - 1, ell - 1), spec.norm_utility(ell))
            for ell in _norm_range(spec, n)
        )
    masses = (
        (ell, math.comb(n, ell) * spec.norm_utility(ell)) for ell in _norm_range(spec, n)
    )
    return _table(variant, n, spec, masses)


def _weighted_masses(z: WeightedItemset, spec: MeasureSpec) -> Iterator[tuple[int, float]]:
    """z's positive table entries (ell, mass) in norm order; _table reports overflow."""
    total = z.total_weight
    for ell, c, f in _itemset_shape(WeightedItemset, z.norm, spec):
        # (W * c) * f, in this order, is the float product of the closed form
        if (w := total * c * f) > 0:
            yield ell, w


def _weighted_weight(z: WeightedItemset, spec: MeasureSpec, shape: tuple) -> float:
    # the sum of _weighted_masses left to right, like the table's, without the pairs
    try:
        weight, total = z.total_weight, 0.0
        for _, c, f in shape:
            if (w := weight * c * f) > 0:
                total += w
        if total < math.inf:
            return total
    except OverflowError:  # W or a term C(n-1, ell-1) past the float range
        pass
    raise _overflow(WeightedItemset, z.norm, spec)


def _sequence_table(z: Sequence, spec: MeasureSpec) -> NormWeightTable:
    # a sequence's table depends on its whole structure: kept in z.memo
    table = z.memo.get(spec)
    if table is None:
        _check_supports(Sequence, spec)
        cap = spec.norm_cap(z.norm)
        if cap < spec.min_norm:
            table = NormWeightTable.from_pairs(())
        else:
            counts = sequence_counts(z, cap)
            masses = (
                (ell, counts.count(ell) * spec.norm_utility(ell))
                for ell in _norm_range(spec, z.norm)
            )
            table = _table(Sequence, z.norm, spec, masses)
        z.memo[spec] = table
    return table


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
    """Total measure mass of all distinct patterns contained in z."""
    return weight_table(z, spec).total


def batch_weight(batch: Batch, spec: MeasureSpec) -> tuple[float, list[float]]:
    """(w(B), the mass of each of the batch's rows, in row order).

    Rows that are sets of item ids (Batch.of_plain_rows) are plain itemsets,
    weighed by their sizes alone without building them: one table lookup per
    distinct size.  Weighted itemsets look their (size, spec) terms up once
    per distinct size too, and sum them without a table.  Other rows are
    weighed by instance_weight, whose floats the masses equal either way.
    """
    rows = batch.rows
    if rows and isinstance(rows[0], set):
        sizes = list(map(len, rows))
        mass_of = {n: _itemset_shape(PlainItemset, n, spec).total for n in set(sizes)}
        masses = list(map(mass_of.__getitem__, sizes))
    elif batch.variant is WeightedItemset:
        shapes = {n: _itemset_shape(WeightedItemset, n, spec) for n in {z.norm for z in rows}}
        masses = [_weighted_weight(z, spec, shapes[z.norm]) for z in rows]
    else:
        masses = [instance_weight(z, spec) for z in rows]
    try:
        return math.fsum(masses), masses
    except OverflowError:
        raise WeightOverflowError(
            f"pattern mass of a batch of {len(masses)} instances exceeds "
            f"the largest float ({sys.float_info.max:.3g})"
        ) from None


# signed inclusion-exclusion coefficient per distinct intersection of gaps
Tally = dict[frozenset[int], int]


def _fold(tally: Tally, gap: frozenset[int]) -> Tally:
    """The tally after one more gap.

    sum(c * C(|S|, q) for S, c in tally) counts the q-subsets that lie in at
    least one gap.  A new gap G adds +1 at G and -c at S & G for every entry
    (S, c): equal sets merge, zero coefficients and empty sets drop (an
    empty set holds no q-subset for q >= 1).  Such an expansion is unique,
    and every maximal gap is one of its keys, so a gap inside an earlier gap
    is inside a key: it covers nothing new and the same tally comes back.
    """
    if not gap or any(gap <= s for s in tally):
        return tally
    out = dict(tally)
    out[gap] = 1
    for s, c in tally.items():
        inter = s & gap
        if inter:
            left = out.get(inter, 0) - c
            if left:
                out[inter] = left
            else:
                del out[inter]
    return out


def _count_ways(size: int, tally: Tally, qmax: int) -> tuple[int, ...]:
    """ways[q]: the q-subsets of a size-item base in no gap, for 1 <= q <=
    qmax; ways[0] is 0."""
    ways = [0] + [math.comb(size, q) for q in range(1, qmax + 1)]
    for s, c in tally.items():
        for q in range(1, min(len(s), qmax) + 1):
            ways[q] -= c * math.comb(len(s), q)
    return tuple(ways)


def _block_ways(elements: tuple[Items, ...], j: int, cap: int) -> list[tuple[int, ...]]:
    """ways(i, j) for i = -1 .. j-1, at index i + 1.

    Moving i left from j - 1 folds one more gap, elements[i + 1] & elements[j],
    into the tally; positions whose gap adds nothing share one vector.
    """
    base = frozenset(elements[j])
    qmax = min(cap, len(base))
    tally: Tally = {}
    ways = _count_ways(len(base), tally, qmax)
    out = [ways] * (j + 1)
    for i in range(j - 2, -2, -1):
        grown = _fold(tally, base.intersection(elements[i + 1]))
        if grown is not tally:
            tally = grown
            ways = _count_ways(len(base), tally, qmax)
        out[i + 1] = ways
    return out


class SequenceCounts:
    """Distinct-pattern counts by norm for one sequence.

    continuation(i, ell) is the number of distinct patterns of norm ell whose
    first block is placed at its first admissible position strictly after
    position i (i = -1 for the start).  Greedy placement is unique per
    pattern, so every pattern is counted exactly once:

      continuation(i, ell) = sum over j > i, q >= 1 of
                             ways(i, j)[q] * continuation(j, ell - q)

    with continuation(j, 0) = 1.  Each block's ways vector is computed once.
    The table is filled from the last position back, so deep sequences
    cannot overflow the stack.  Row i starts as a copy of row i + 1 and adds
    ways(i, i + 1) * continuation(i + 1), then (ways(i, j) - ways(i + 1, j))
    * continuation(j) for each later j, convolved over q; a j whose vector
    did not change is skipped, as _block_ways gives it the same tuple.  Only
    integers are kept; draw reads them backwards, and block(i, j, q, r)
    unranks a drawn block.
    """

    __slots__ = ("elements", "cap", "_n", "_ways", "_table")

    def __init__(self, elements: tuple[Items, ...], cap: int):
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        self.elements = elements
        self.cap = cap
        n = self._n = len(elements)
        # _ways[j][i + 1] = ways(i, j)
        self._ways = [_block_ways(elements, j, cap) for j in range(n)]
        # continuation(j, ell) is 0 past the norm of the elements after j
        after_norm = list(accumulate((len(e) for e in reversed(elements)), initial=0))
        after_norm.reverse()
        # _table[i + 1][ell] = continuation(i, ell)
        table: list[list[int]] = [[]] * n + [[1] + [0] * cap]

        def add(row: list[int], coef: Iterable[int], j: int) -> None:
            # row[ell] += sum over q of coef[q] * continuation(j, ell - q)
            after = table[j + 1]
            for q, c in enumerate(coef):
                if c:
                    for ell in range(q, min(cap, q + after_norm[j + 1]) + 1):
                        row[ell] += c * after[ell - q]

        block_ways = self._ways
        for i in range(n - 2, -2, -1):
            row = table[i + 1] = table[i + 2].copy()
            add(row, block_ways[i + 1][i + 1], i + 1)
            for j in range(i + 2, n):
                now, before = block_ways[j][i + 1], block_ways[j][i + 2]
                if now is not before:
                    add(row, map(int.__sub__, now, before), j)
        self._table = table

    def ways(self, i: int, j: int) -> tuple[int, ...]:
        """ways(i, j)[q]: admissible q-blocks at position j after position i,
        for 1 <= q <= min(cap, len(elements[j]))."""
        if not -1 <= i < j < self._n:
            raise ValueError(f"no block at {j} after {i}")
        return self._ways[j][i + 1]

    def block(self, i: int, j: int, q: int, r: int) -> Items:
        """The r-th admissible q-block at position j after position i, in
        lexicographic order, for 0 <= r < ways(i, j)[q].

        The items b of elements[j] are walked in order, F being those taken.
        The admissible blocks that extend F by b and then by items after b
        number C(|rest|, q') - sum c_S * C(|S & rest|, q') over the tally
        entries S that hold F and b (rest: the items after b; q' = q - |F| -
        1), since the coefficients of the entries that hold a nonempty set
        sum to 1 if a gap holds it, else to 0.  b is taken when r is below
        that number; otherwise r drops by it."""
        ways = self.ways(i, j)
        if not (0 < q < len(ways) and 0 <= r < ways[q]):
            raise ValueError(f"no {q}-block of rank {r} at {j} after {i}")
        base = self.elements[j]
        base_set = frozenset(base)
        tally: Tally = {}
        for other in self.elements[i + 1 : j]:
            tally = _fold(tally, base_set.intersection(other))
        # entries as bit masks over base positions: item base[at] is bit at
        bit = {item: 1 << at for at, item in enumerate(base)}
        held = [(sum(map(bit.__getitem__, s)), c) for s, c in tally.items()]
        taken: list[int] = []
        for at, item in enumerate(base):
            need = q - len(taken) - 1
            here = [(s, c) for s, c in held if s >> at & 1]
            count = math.comb(len(base) - at - 1, need) - sum(
                c * math.comb((s >> at + 1).bit_count(), need) for s, c in here
            )
            if r < count:
                taken.append(item)
                if not need:
                    break
                held = here
            else:
                r -= count
        return tuple(taken)

    def count(self, ell: int) -> int:
        """Number of distinct patterns of norm ell in the sequence."""
        self._check(ell)
        return self._table[0][ell]

    def draw(self, ell: int, rng: Random) -> tuple[Items, ...]:
        """The blocks of a uniform pattern of norm ell.  Per block, one
        randrange over continuation(i, remaining) picks its position j and
        size q (j, then q, ascending) and one over ways(i, j)[q] its rank."""
        self._check(ell)
        parts: list[Items] = []
        i = -1
        remaining = ell
        while remaining:
            r = rng.randrange(self._table[i + 1][remaining])
            for j in range(i + 1, self._n):
                after = self._table[j + 1]
                ways = self._ways[j][i + 1]
                for q in range(1, min(remaining, len(ways) - 1) + 1):
                    mass = ways[q] * after[remaining - q]
                    if r < mass:
                        break
                    r -= mass
                else:
                    continue
                break
            parts.append(self.block(i, j, q, rng.randrange(ways[q])))
            i = j
            remaining -= q
        return tuple(parts)

    def _check(self, ell: int) -> None:
        if not 1 <= ell <= self.cap:
            raise ValueError(f"norm {ell} outside [1, {self.cap}]")


CacheInfo = namedtuple("CacheInfo", "hits misses")
_counts_lookups = {"hits": 0, "misses": 0}


def sequence_counts(z: Sequence, cap: int) -> SequenceCounts:
    """z's counts up to norm min(cap, z.norm).  They are built once and kept
    in z.memo, so they live exactly as long as the sequence."""
    cap = min(cap, z.norm)
    got = z.memo.get(cap)
    if got is None:
        got = z.memo[cap] = SequenceCounts(z.elements, cap)
        _counts_lookups["misses"] += 1
    else:
        _counts_lookups["hits"] += 1
    return got


# misses count the SequenceCounts built, hits the lookups that reused one
sequence_counts.cache_info = lambda: CacheInfo(**_counts_lookups)
