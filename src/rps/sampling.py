"""Single-batch pattern draws.

A pattern is drawn from a batch in three stages, each a discrete draw over
precomputed mass: pick an instance proportionally to its mass, pick a norm
by the prefix sums of its plan (weighting's norms, masses and sums; a plain
itemset's is cached), then pick a pattern by measure mass among the
instance's patterns of that norm.  The staged draw follows the exact
batch law m(x, B) / w(B) without enumerating patterns.

A sequence pattern is drawn by its own counts (SequenceCounts.draw), which
read the first-occurrence counting rows backwards, block by block; a batch
draw keeps a picked sequence's counts with its plan.

All randomness comes from the caller's random.Random, consumed in the fixed
order instance, norm, pattern; replaying a seed replays the draws.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from random import Random

from .measures import MeasureSpec
from .model import Batch, Instance, Pattern, PlainItemset, Sequence, WeightedItemset
from .model import _unchecked, instance_of
from .weighting import SequenceCounts, _plan_of, batch_weight, sequence_counts


def sample_distinct_indices(rng: Random, n: int, k: int) -> list[int]:
    """k distinct indices uniform over range(n), by partial Fisher-Yates.

    Each index takes the bits randrange(i, n) would on CPython 3.10-3.13;
    sparse dict bookkeeping keeps this O(k) regardless of n.
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


def draw_pattern_of_norm(
    z: Instance, ell: int, spec: MeasureSpec, rng: Random, weight_sums: list | None = None
) -> Pattern:
    """Pattern of norm ell from z, proportional to measure mass.

    Within a fixed norm the norm factor is a common constant, so plain
    itemsets and sequences draw uniformly over distinct patterns, and
    weighted itemsets by summed item weights (weight_sums: their prefix sums).
    """
    if isinstance(z, Sequence):
        return _unchecked(Pattern, sequence_counts(z, spec.norm_cap(z.norm)).draw(ell, rng))
    if not isinstance(z, (PlainItemset, WeightedItemset)):
        raise TypeError(f"not an instance: {type(z).__name__}")
    n, items = z.norm, z.items
    if not 1 <= ell <= n:
        raise ValueError(f"norm {ell} outside [1, {n}]")
    if isinstance(z, PlainItemset):
        chosen = [items[i] for i in sample_distinct_indices(rng, n, ell)]
    else:
        # pivot item i with probability w_i / W, then a uniform (ell-1)-subset
        # of the rest: P(x) = sum_{i in x} w_i / (W * C(n-1, ell-1)), the
        # measure mass of x over the table entry at ell
        sums = weight_sums or list(accumulate(z.weights))
        pivot = bisect_right(sums, rng.random() * sums[-1])
        rest = sample_distinct_indices(rng, n - 1, ell - 1)
        chosen = [items[pivot], *(items[i if i < pivot else i + 1] for i in rest)]
    chosen.sort()
    return _unchecked(Pattern, (tuple(chosen),))


def _draw_plan(z: Instance, spec: MeasureSpec) -> tuple:
    # z's norms of positive mass, their prefix sums, and what its pattern
    # draw reads: a weighted itemset's weight_sums, a sequence's counts
    norms, _, sums = _plan_of(z, spec)
    if isinstance(z, Sequence):
        return norms, sums, sequence_counts(z, spec.norm_cap(z.norm))
    return norms, sums, list(accumulate(z.weights)) if isinstance(z, WeightedItemset) else None


def sample_from_batch(
    batch: Batch,
    spec: MeasureSpec,
    count: int,
    rng: Random,
    masses: list[float] | None = None,
) -> list[Pattern]:
    """count independent pattern draws from the batch law m(x, B) / w(B).

    masses are the per-row masses batch_weight gave for this batch and
    spec; they are weighed again when not given.  A row's instance is built
    when a draw first picks it, so tx rows that no draw picks are not built.
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
    plans: dict[int, tuple] = {}  # instance and draw plan of each row picked
    out: list[Pattern] = []
    for _ in range(count):
        # bisect_right skips zero-weight instances even when the point lands
        # exactly on their repeated prefix value
        zi = bisect_right(cum, rng.random() * total)
        plan = plans.get(zi)
        if plan is None:
            z = instance_of(rows[zi])
            plan = plans[zi] = (z, *_draw_plan(z, spec))
        z, norms, norm_sums, extra = plan
        ell = norms[bisect_right(norm_sums, rng.random() * norm_sums[-1])]
        if isinstance(extra, SequenceCounts):
            out.append(_unchecked(Pattern, extra.draw(ell, rng)))
        else:
            out.append(draw_pattern_of_norm(z, ell, spec, rng, extra))
    return out
