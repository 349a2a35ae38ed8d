"""Closed-form norm masses.

For an instance z and measure spec, each admissible pattern norm ell has a
mass: the total measure mass of all distinct patterns of that norm
contained in z,

  plain itemset, n items:     C(n, ell) * f(ell)
  weighted itemset, total W:  W * C(n-1, ell-1) * f(ell)
  sequence:                   D(ell) * f(ell)

where f is the measure's norm factor and D(ell) is the number of distinct
subsequence patterns of norm ell.  The weighted identity holds because each
item appears in C(n-1, ell-1) of the ell-subsets, so the summed utilities of
all ell-subsets telescope to W * C(n-1, ell-1).

D(ell) is counted by a first-occurrence DP (SequenceCounts): each block is
placed at the earliest position where it fits after the previous one, so a
pattern has one generating walk.  A block at j after i must lie in no
itemset between them; its admissible q-subsets are C(|I_j|, q) minus an
inclusion-exclusion over the gap intersections, kept as signed
coefficients per distinct intersection (a bit mask), which grows by one
fold as i moves left; a block records only the i where its count changes.
Count vectors are packed ints, one digit per norm, so a convolution is one
int product.  A draw reads the counts backwards and unranks each block from
its tally, without enumerating subsets.

An instance's plan holds its positive masses (W * c) * f(ell), W = 1.0 but
for weighted itemsets, in norm order, with their prefix sums added left to
right; tables, weights and draws all read it.  A plain itemset's plan depends
on (n, spec) alone and is cached; a weighted itemset multiplies its own W
into cached (n, spec) terms.  A sequence's counts live in Sequence.memo.

This is the one module that tells a batch's rows apart, in _row_plan alone:
it gives a row's plan and drawer, which weight_table, instance_weight,
draw_pattern_of_norm and the engine's draw read.  A tx row (a set of ids)
has the plan of its size and draws from its sorted ids; an itemset's
pattern is a partial Fisher-Yates over its items (_subset), after a pivot
picked by weight for a weighted one; a sequence draws by its counts.  No
draw builds an instance; batch_weight builds no drawer.

Cost limits: counting admissible blocks is a hitting-set count, so the
tally can still hold exponentially many sets when every gap intersection is
distinct (gaps B - {b} for each b of a block B give every subset of B).  A
draw of a block makes |B| passes over that same tally.  A long sequence
folds each block back to the first itemset that holds it, or to the start.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache, partial
from itertools import accumulate
from random import Random
from typing import Callable, Iterable, Iterator

from .errors import ConfigurationError, WeightOverflowError
from .measures import MeasureSpec, format_measure
from .model import (
    Batch,
    Instance,
    Items,
    Pattern,
    PlainItemset,
    Sequence,
    WeightedItemset,
    _unchecked,
)

# an instance's norms of positive mass, those masses and their prefix sums
Plan = tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]
CacheInfo = namedtuple("CacheInfo", "hits misses")


def _overflow(variant: type, n: int, spec: MeasureSpec) -> WeightOverflowError:
    return WeightOverflowError(
        f"pattern mass of a {n}-item {variant.__name__} under "
        f"{format_measure(spec)} exceeds the largest float "
        f"({sys.float_info.max:.3g}): a mass grows like 2^n in the n items, "
        f"which limits plain itemsets to about 1000 items"
    )


def _plan(weight: float, terms: Iterable, variant: type, n: int, spec: MeasureSpec) -> Plan:
    """The positive masses (W * c) * f of the (ell, c, f) terms, in norm
    order, and their prefix sums, added left to right.  A mass or a total
    past the float range is a WeightOverflowError."""
    try:
        # (W * c) * f, in this order, is the float product of the closed
        # form; 1.0 * c is float(c), so a count's mass is c * f exactly
        kept = [(ell, w) for ell, c, f in terms if (w := weight * c * f) > 0]
    except OverflowError:  # W or a pattern count past the float range
        raise _overflow(variant, n, spec) from None
    norms, masses = map(tuple, zip(*kept)) if kept else ((), ())
    sums = tuple(accumulate(masses))
    if sums and sums[-1] == math.inf:
        raise _overflow(variant, n, spec)
    return norms, masses, sums


def _summed(weight: float, terms: Iterable, variant: type, n: int, spec: MeasureSpec) -> float:
    # the plan's last prefix sum, without the lists
    try:
        total = 0.0
        for _, c, f in terms:
            if (w := weight * c * f) > 0:
                total += w
        if total < math.inf:
            return total
    except OverflowError:
        pass
    raise _overflow(variant, n, spec)


@lru_cache(maxsize=256)
def _norm_factors(variant: type, spec: MeasureSpec, cap: int) -> tuple[tuple[int, float], ...]:
    """(ell, f(ell)) for ell = min_norm .. cap if spec is defined for variant;
    bounded, as a stream of sequences may bring a cap per distinct norm."""
    if not spec.supports(variant):
        raise ConfigurationError(
            f"{spec.base.value} is not defined for {variant.__name__} instances"
        )
    return tuple((ell, spec.norm_utility(ell)) for ell in range(spec.min_norm, cap + 1))


@lru_cache(maxsize=None)
def _itemset_terms(n: int, spec: MeasureSpec) -> tuple[tuple[int, int, float], ...]:
    """(ell, C(n-1, ell-1), f(ell)) per admissible norm of an n-item
    weighted itemset, whose W multiplies the count.  Unbounded: keys are
    bounded by the distinct itemset sizes of a stream times the few specs
    in use, as are _plain_plan's."""
    factors = _norm_factors(WeightedItemset, spec, spec.norm_cap(n))
    return tuple((ell, math.comb(n - 1, ell - 1), f) for ell, f in factors)


@lru_cache(maxsize=None)
def _plain_plan(n: int, spec: MeasureSpec) -> Plan:
    # the plan of (ell, C(n, ell), f(ell)) per admissible norm, kept whole
    factors = _norm_factors(PlainItemset, spec, spec.norm_cap(n))
    terms = ((ell, math.comb(n, ell), f) for ell, f in factors)
    return _plan(1.0, terms, PlainItemset, n, spec)


def _sequence_terms(z: Sequence, spec: MeasureSpec) -> Iterator[tuple[int, int, float]]:
    # (ell, count(ell), f(ell)) per admissible norm; no norm, no counts built
    cap = spec.norm_cap(z.norm)
    factors = _norm_factors(Sequence, spec, cap)
    if factors:
        counts = sequence_counts(z, cap)._by_norm
        for ell, f in factors:
            yield ell, counts[ell], f


def _total(plan: Plan) -> float:
    sums = plan[2]
    return sums[-1] if sums else 0.0


def weight_table(z: Instance, spec: MeasureSpec) -> dict[int, float]:
    """z's norm weight table: its positive mass per admissible norm."""
    norms, masses, _ = _row_plan(z, spec)[0]
    return dict(zip(norms, masses))


def _itemset_cache_info() -> CacheInfo:
    # lookups of both itemset caches: plain plans and weighted terms
    plans, terms = _plain_plan.cache_info(), _itemset_terms.cache_info()
    return CacheInfo(plans.hits + terms.hits, plans.misses + terms.misses)


weight_table.cache_info = _itemset_cache_info


def instance_weight(z: Instance, spec: MeasureSpec) -> float:
    """Total measure mass of all distinct patterns contained in z: the last
    prefix sum of its plan."""
    return _total(_row_plan(z, spec)[0])


def batch_weight(batch: Batch, spec: MeasureSpec) -> tuple[float, list[float]]:
    """(w(B), the mass of each of the batch's rows, in row order).

    Plain rows, tx rows (sets of item ids) or plain itemsets, are weighed by
    their sizes alone, without building an instance or a drawer: one plan
    lookup per distinct size.  Weighted itemsets look their (size, spec)
    terms up once per distinct size too, and sum them without a plan, as
    sequences sum theirs.  The floats equal instance_weight's either way.
    """
    variant, rows = batch.variant, batch.rows
    if variant is WeightedItemset:
        terms = {n: _itemset_terms(n, spec) for n in {z.norm for z in rows}}
        masses = [
            _summed(z.total_weight, terms[z.norm], WeightedItemset, z.norm, spec) for z in rows
        ]
    elif variant is Sequence:
        masses = [_summed(1.0, _sequence_terms(z, spec), Sequence, z.norm, spec) for z in rows]
    else:  # plain rows, or none
        sizes = list(map(len, rows))
        mass_of = {n: _total(_plain_plan(n, spec)) for n in set(sizes)}
        masses = list(map(mass_of.__getitem__, sizes))
    try:
        return math.fsum(masses), masses
    except OverflowError:
        raise WeightOverflowError(
            f"pattern mass of a batch of {len(masses)} instances exceeds "
            f"the largest float ({sys.float_info.max:.3g})"
        ) from None


# signed inclusion-exclusion coefficient per distinct intersection of gaps
Tally = dict[int, int]


def _fold(tally: Tally, gap: int) -> Tally:
    """The tally after one more gap.

    sum(c * C(|S|, q) for S, c in tally) counts the q-subsets that lie in at
    least one gap.  A new gap G adds +1 at G and -c at S & G for every entry
    (S, c): equal sets merge, zero coefficients and empty sets drop (an
    empty set holds no q-subset for q >= 1).  Such an expansion is unique,
    and every maximal gap is one of its keys, so a gap inside an earlier gap
    is inside a key: it covers nothing new and the same tally comes back.
    """
    if not gap or any(gap & s == gap for s in tally):
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


def _digits(v: int, b: int, k: int) -> list[int]:
    """The k lowest b-bit digits of v >= 0, lowest first.  v is halved until
    a shift per digit is cheap, so the time stays near linear in k * b."""
    if k > 1 and k * b > 4096:
        h = k // 2
        return _digits(v & ((1 << h * b) - 1), b, h) + _digits(v >> h * b, b, k - h)
    digit, out = (1 << b) - 1, [0] * k
    for q in range(k):
        out[q] = v & digit
        v >>= b
    return out


@lru_cache(maxsize=256)
def _power(m: int, b: int, cap: int) -> int:
    """(1 + X)^m - 1 below X^(cap + 1) at X = 2^b: C(m, ell) at digit ell.
    Made per m asked for, so a wide itemset builds only its own power."""
    got, c = 0, 1
    for ell in range(1, min(m, cap) + 1):
        c = c * (m - ell + 1) // ell
        got |= c << b * ell
    return got


class SequenceCounts:
    """Distinct-pattern counts by norm for one sequence.

    continuation(i, ell) is the number of distinct patterns of norm ell whose
    first block is placed at its first admissible position strictly after
    position i (i = -1 for the start).  Greedy placement is unique per
    pattern, so every pattern is counted exactly once:

      continuation(i, ell) = sum over j > i, q >= 1 of
                             ways(i, j)[q] * continuation(j, ell - q)

    with continuation(j, 0) = 1.  A count vector, ways(i, j) or row(i) =
    continuation(i, .), is one int whose b-bit digit ell is its count at ell
    <= cap: the polynomial at X = 2^b, so an int product is a convolution.  b
    is the bit length of C(norm, min(cap, norm // 2)), as a count of norm ell
    is at most C(norm, ell).  This is exact because every true digit lies in
    [0, 2^b): the ints add and multiply as the polynomials do, and masking to
    cap + 1 digits reduces mod 2^(b(cap + 1)), which leaves the truncated
    polynomial whatever the intermediate digits carried.

    No table is kept.  ways(j - 1, j) is full(j) = (1 + X)^|I_j| - 1, and
    block j's change list holds the i where ways(i, j) changes as i moves
    left, read with one bisect.  A block that shares no item with an
    earlier itemset is not folded, and a fold stops at a count of 0, as at
    an itemset that holds the block.  Rows are filled from the last back:
    row(i) = row(i + 1) * (1 + full(i + 1)) plus each change at i times its
    block's row, masked.  Memory is O(n + changes)."""

    __slots__ = ("elements", "cap", "_by_norm", "_n", "_b", "_masks", "_full", "_changes", "_rows")

    def __init__(self, elements: tuple[Items, ...], cap: int):
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        self.elements, self.cap = elements, cap
        n = self._n = len(elements)
        norm = sum(map(len, elements))
        b = self._b = math.comb(norm, min(cap, norm // 2)).bit_length()
        bit = {item: 1 << at for at, item in enumerate(sorted(set().union(*elements)))}
        masks = self._masks = [sum(map(bit.__getitem__, e)) for e in elements]
        full = self._full = [_power(len(e), b, cap) for e in elements]
        # _changes[j] = (marks, values): ways(i, j) = values[k] for -marks[k]
        # >= i > -marks[k + 1], full(j) for i > -marks[0]
        changes = self._changes = {}
        seen = 0  # the items left of block j
        for j, base in enumerate(masks):
            if base & seen:
                tally, (marks, values) = {}, changes.setdefault(j, ([], []))
                for p in range(j - 1, -1, -1):  # the gap at p lies after i = p - 1
                    gap = base & masks[p]
                    if gap and (grown := _fold(tally, gap)) is not tally:
                        tally = grown
                        ways = full[j] - sum(
                            c * _power(s.bit_count(), b, cap) for s, c in tally.items()
                        )
                        marks.append(1 - p)
                        values.append(ways)
                        if not ways:  # an itemset holds the block: 0 from here left
                            break
            seen |= base
        keep = (1 << b * (cap + 1)) - 1
        # _rows[i + 1] = continuation(i, .); pending[i + 1]: the changes at i times their rows
        rows, pending = [0] * n + [1], [0] * n
        for j in range(n - 1, -1, -1):
            if j in changes:
                ways = full[j]
                for mark, now in zip(*changes[j]):
                    pending[1 - mark] += (now - ways) * rows[j + 1]
                    ways = now
            rows[j] = (rows[j + 1] * (1 + full[j]) + pending[j]) & keep
        self._rows = rows
        # _by_norm[ell]: the distinct patterns of norm ell, continuation(-1, ell)
        self._by_norm = tuple(_digits(rows[0], b, cap + 1))

    def _ways(self, i: int, j: int) -> int:
        # the change nearest i at or right of it, else the full vector
        marks, values = self._changes.get(j, ((), ()))
        at = bisect_right(marks, -i)
        return values[at - 1] if at else self._full[j]

    def ways(self, i: int, j: int) -> tuple[int, ...]:
        """ways(i, j)[q]: admissible q-blocks at position j after position i,
        for 1 <= q <= min(cap, len(elements[j]))."""
        if not -1 <= i < j < self._n:
            raise ValueError(f"no block at {j} after {i}")
        top = min(self.cap, len(self.elements[j]))
        return tuple(_digits(self._ways(i, j), self._b, top + 1))

    def row(self, i: int) -> tuple[int, ...]:
        """continuation(i, ell) for ell = 0 .. cap, for -1 <= i < len(elements)."""
        if not -1 <= i < self._n:
            raise ValueError(f"no position {i}")
        return tuple(_digits(self._rows[i + 1], self._b, self.cap + 1))

    def block(self, i: int, j: int, q: int, r: int) -> Items:
        """The r-th admissible q-block at position j after position i, in
        lexicographic order, for 0 <= r < ways(i, j)[q].  The items b of
        elements[j] are walked in order, F being those taken: the admissible
        blocks that extend F by b and then by later items number C(|rest|,
        q') - sum c_S * C(|S & rest|, q') over the tally entries S that hold F
        and b (rest: the items after b; q' = q - |F| - 1), as the coefficients
        of the entries holding a nonempty set sum to 1 if a gap holds it, else
        to 0.  b is taken when r is below that number; else r drops by it."""
        ways = self.ways(i, j)
        if not (0 < q < len(ways) and 0 <= r < ways[q]):
            raise ValueError(f"no {q}-block of rank {r} at {j} after {i}")
        return self._unrank(i, j, q, r)

    def _unrank(self, i: int, j: int, q: int, r: int) -> Items:
        rest, masks = self._masks[j], self._masks
        # the gaps right of i that moved j's tally while counting, in order
        marks = self._changes.get(j, ((), ()))[0]
        tally: Tally = {}
        for mark in marks[: bisect_right(marks, -i)]:
            tally = _fold(tally, rest & masks[1 - mark])
        held = list(tally.items())
        taken: list[int] = []
        # free = C(left, need + 1), the blocks that take the rest from the items left
        left = len(self.elements[j])
        free = math.comb(left, q)
        for item in self.elements[j]:
            at = rest & -rest  # the item's bit; rest keeps the items after it
            rest ^= at
            need = q - len(taken) - 1
            here = [(s, c) for s, c in held if s & at] if held else held
            count = ahead = free * (need + 1) // left  # C(left - 1, need): those with it
            left -= 1
            for s, c in here:
                count -= c * math.comb((s & rest).bit_count(), need)
            if r < count:
                taken.append(item)
                if not need:
                    break
                held, free = here, ahead
            else:
                r -= count
                free -= ahead  # C(left, need + 1), by Pascal's rule
        return tuple(taken)

    def count(self, ell: int) -> int:
        """Number of distinct patterns of norm ell in the sequence."""
        if not 1 <= ell <= self.cap:
            raise ValueError(f"norm {ell} outside [1, {self.cap}]")
        return self._by_norm[ell]

    def draw(self, ell: int, rng: Random) -> tuple[Items, ...]:
        """The blocks of a uniform pattern of norm ell.  Per block, one
        _below over continuation(i, remaining) picks its position j and
        size q (j, then q, ascending) and one over ways(i, j)[q] its rank.
        The mass at j is digit top of one product, ways(i, j) * window, the
        window holding the top = min(remaining, widest itemset) digits of
        row(j) just below remaining: each lower digit of the product is at
        most a count of a lower norm, below 2^b, so none carries; a j where
        no block fits is passed.  Only the chosen j's vector and window are
        decoded, once.  A whole itemset, or one item when every item fits,
        is read off by its rank; other blocks are unranked."""
        self.count(ell)  # refuses a norm outside [1, cap]
        b, rows, ways_at = self._b, self._rows, self._ways
        widest = max(map(len, self.elements))
        digit = (1 << b) - 1
        parts: list[Items] = []
        i = -1
        remaining = ell
        while remaining:
            r = _below(rng, rows[i + 1] >> b * remaining & digit)
            top = min(remaining, widest)
            below, low, shift = (1 << b * remaining) - 1, b * (remaining - top), b * top
            for j in range(i + 1, self._n):
                if ways := ways_at(i, j):  # else no block fits at j: no mass
                    window = (rows[j + 1] & below) >> low
                    mass = ways * window >> shift & digit
                    if r < mass:
                        break
                    r -= mass
            ways, after = _digits(ways, b, top + 1), _digits(window, b, top)
            for q in range(1, top + 1):
                count = ways[q]
                mass = count * after[top - q]
                if r < mass:
                    break
                r -= mass
            r, block = _below(rng, count), self.elements[j]
            if q == 1 and count == len(block):  # every item fits: the r-th
                block = (block[r],)
            elif q < len(block):  # not the whole itemset
                block = self._unrank(i, j, q, r)
            parts.append(block)
            i = j
            remaining -= q
        return tuple(parts)


def _below(rng: Random, n: int) -> int:
    # rng.randrange(n) as CPython 3.10-3.13 draws it, without depending on it;
    # getrandbits(0) is 0, so an empty range would retry forever
    if n < 1:
        raise ValueError(f"empty range below {n}")
    r = rng.getrandbits(bits := n.bit_length())
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def _subset(items: Items, sums: list[float] | None, ell: int, rng: Random) -> tuple[Items]:
    # a uniform ell-subset by a partial Fisher-Yates over a fresh copy of the
    # items (a row's drawer serves every draw that picks it), step i taking
    # the bits sample_distinct_indices would for its i-th index
    pool = list(items)
    if sums is not None:
        # pivot item i with probability w_i / W (sums: the prefix sums of the
        # item weights), then a uniform (ell-1)-subset of the rest: P(x) =
        # sum_{i in x} w_i / (W * C(n-1, ell-1)), x's mass over the table's
        pivot = pool.pop(bisect_right(sums, rng.random() * sums[-1]))
        ell -= 1
    n = len(pool)
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    getrandbits = rng.getrandbits
    for i in range(ell):
        width = n - i
        bits = width.bit_length()
        j = getrandbits(bits)
        while j >= width:
            j = getrandbits(bits)
        j += i
        pool[i], pool[j] = pool[j], pool[i]
    del pool[ell:]
    if sums is not None:
        pool.append(pivot)
    pool.sort()
    return (tuple(pool),)


def _row_plan(row: set[int] | Instance, spec: MeasureSpec) -> tuple[Plan, Callable | None]:
    """(plan, draw): the row's plan, and draw(ell, rng), the elements of a
    pattern of norm ell in the row by measure mass.  The one test of a row's
    kind.  A tx row (a set of ids) has its PlainItemset's cached plan and
    draws from its sorted ids, so no instance is built; a sequence with no
    admissible norm builds no counts and has no drawer."""
    if isinstance(row, set):
        return _plain_plan(len(row), spec), partial(_subset, tuple(sorted(row)), None)
    if isinstance(row, PlainItemset):
        return _plain_plan(row.norm, spec), partial(_subset, row.items, None)
    if isinstance(row, WeightedItemset):
        n = row.norm
        plan = _plan(row.total_weight, _itemset_terms(n, spec), WeightedItemset, n, spec)
        return plan, partial(_subset, row.items, list(accumulate(row.weights)))
    if isinstance(row, Sequence):
        plan = _plan(1.0, _sequence_terms(row, spec), Sequence, row.norm, spec)
        cap = spec.norm_cap(row.norm)
        return plan, sequence_counts(row, cap).draw if cap >= spec.min_norm else None
    raise TypeError(f"not an instance: {type(row).__name__}")


def draw_pattern_of_norm(z: Instance, ell: int, spec: MeasureSpec, rng: Random) -> Pattern:
    """Pattern of norm ell from z, proportional to measure mass.

    Within a fixed norm the norm factor is a common constant, so plain
    itemsets and sequences draw uniformly over distinct patterns, and
    weighted itemsets by summed item weights.  z's plan refuses what
    weight_table refuses (a measure not defined for z, a mass past the
    float range), and a norm outside [min_norm, cap] is a ValueError: the
    spec gives it no mass.
    """
    if not isinstance(z, (PlainItemset, WeightedItemset, Sequence)):
        raise TypeError(f"not an instance: {type(z).__name__}")
    draw = _row_plan(z, spec)[1]
    cap = spec.norm_cap(z.norm)
    if not spec.min_norm <= ell <= cap:
        raise ValueError(f"norm {ell} outside [{spec.min_norm}, {cap}]")
    return _unchecked(Pattern, draw(ell, rng))


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
