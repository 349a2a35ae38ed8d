"""Single-batch pattern draws.

A pattern is drawn from a batch in three stages, each a discrete draw over
precomputed mass: pick a row proportionally to its mass, pick a norm by the
prefix sums of its plan (weighting's norms, masses and sums; a plain
itemset's is cached by size), then the row's drawer picks a pattern of that
norm by measure mass.  This follows the exact batch law m(x, B) / w(B)
without enumerating patterns, and builds no instance: a tx row draws from
its sorted ids, a sequence by its counts (SequenceCounts.draw), which read
the first-occurrence counting rows backwards, block by block.

All randomness comes from the caller's random.Random, consumed in the fixed
order row, norm, pattern; replaying a seed replays the draws.  An itemset
pattern's items come from a partial Fisher-Yates over a copy of its row's
items (_subset), on the bits sample_distinct_indices would take for their
indices, so the random-number order is that of the draw by indices; the
engine's eviction slots come from sample_distinct_indices.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate
from random import Random
from typing import Callable

from .measures import MeasureSpec
from .model import Batch, Instance, Items, Pattern, PlainItemset, Sequence, WeightedItemset
from .model import _unchecked
from .weighting import _norm_factors, _plain_plan, _plan_of, batch_weight, sequence_counts


def sample_distinct_indices(rng: Random, n: int, k: int) -> list[int]:
    """k distinct indices uniform over range(n), by partial Fisher-Yates.

    Each index takes the bits randrange(i, n) would on CPython 3.10-3.13;
    sparse dict bookkeeping keeps this O(k) regardless of n.  The engine
    draws its eviction slots here; an itemset pattern's items are shuffled
    in place by _subset, on the same bits.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    getrandbits = rng.getrandbits
    swap: dict[int, int] = {}
    out: list[int] = []
    for i in range(k):
        width = n - i
        bits = width.bit_length()
        j = getrandbits(bits)
        while j >= width:
            j = getrandbits(bits)
        j += i
        out.append(swap.get(j, j))
        swap[j] = swap.get(i, i)
    return out


def draw_pattern_of_norm(z: Instance, ell: int, spec: MeasureSpec, rng: Random) -> Pattern:
    """Pattern of norm ell from z, proportional to measure mass.

    Within a fixed norm the norm factor is a common constant, so plain
    itemsets and sequences draw uniformly over distinct patterns, and
    weighted itemsets by summed item weights.  A measure not defined for z
    is a ConfigurationError, and a norm outside [min_norm, cap] a
    ValueError: the spec gives it no mass.
    """
    if not isinstance(z, (PlainItemset, WeightedItemset, Sequence)):
        raise TypeError(f"not an instance: {type(z).__name__}")
    cap = spec.norm_cap(z.norm)
    _norm_factors(type(z), spec, cap)  # refuses a measure z does not support
    if not spec.min_norm <= ell <= cap:
        raise ValueError(f"norm {ell} outside [{spec.min_norm}, {cap}]")
    return _unchecked(Pattern, _drawer(z, spec)(ell, rng))


def _subset(items: Items, sums: list[float] | None, ell: int, rng: Random) -> tuple[Items]:
    # a uniform ell-subset, shuffled in a fresh copy of the items: a row's
    # drawer serves every draw that picks it
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


def _drawer(row: set[int] | Instance, spec: MeasureSpec) -> Callable:
    """draw(ell, rng): the elements of a pattern of norm ell in the row, by
    measure mass; a tx row draws from its sorted ids, no PlainItemset."""
    if isinstance(row, set):
        return partial(_subset, tuple(sorted(row)), None)
    if isinstance(row, PlainItemset):
        return partial(_subset, row.items, None)
    if isinstance(row, WeightedItemset):
        return partial(_subset, row.items, list(accumulate(row.weights)))
    return sequence_counts(row, spec.norm_cap(row.norm)).draw


def _row_plan(row: set[int] | Instance, spec: MeasureSpec) -> tuple:
    """(norms, sums, draw): the row's norms of positive mass, their prefix
    sums and its drawer; a tx row's plan is the cached one of its size."""
    norms, _, sums = _plain_plan(len(row), spec) if isinstance(row, set) else _plan_of(row, spec)
    return norms, sums, _drawer(row, spec)


def sample_from_batch(
    batch: Batch,
    spec: MeasureSpec,
    count: int,
    rng: Random,
    masses: list[float] | None = None,
) -> list[Pattern]:
    """count independent pattern draws from the batch law m(x, B) / w(B).

    masses are the per-row masses batch_weight gave for this batch and
    spec; they are weighed again when not given.  A row's plan is made when
    a draw first picks it, from the row itself: no draw builds an instance.
    """
    if count < 0:
        raise ValueError(f"draw count must be >= 0, got {count}")
    if count == 0:
        return []
    if masses is None:
        masses = batch_weight(batch, spec)[1]
    elif len(masses) != len(batch.rows):
        raise ValueError(f"{len(masses)} masses for {len(batch.rows)} instances")
    cum = list(accumulate(masses))
    total = cum[-1] if cum else 0.0
    if total <= 0:
        raise ValueError("batch has no pattern mass under this measure")
    rows = batch.rows
    plans: dict[int, tuple] = {}  # the plan of each row picked
    out: list[Pattern] = []
    for _ in range(count):
        # bisect_right skips zero-weight instances even when the point lands
        # exactly on their repeated prefix value
        zi = bisect_right(cum, rng.random() * total)
        plan = plans.get(zi)
        if plan is None:
            plan = plans[zi] = _row_plan(rows[zi], spec)
        norms, norm_sums, draw = plan
        ell = norms[bisect_right(norm_sums, rng.random() * norm_sums[-1])]
        out.append(_unchecked(Pattern, draw(ell, rng)))
    return out
