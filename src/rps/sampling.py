"""Single-batch pattern draws: the steps that are the same for every
pattern type.

A pattern is drawn from a batch in three stages, each a discrete draw over
precomputed mass: pick a row proportionally to its mass, pick a norm by the
prefix sums of its plan, then the row's drawer picks a pattern of that norm
by measure mass.  This follows the exact batch law m(x, B) / w(B) without
enumerating patterns.  weighting._row_plan gives a row's norms, sums and
drawer, and alone knows what kind of row it is; no draw builds an instance.

All randomness comes from the caller's random.Random, consumed in the fixed
order row, norm, pattern; replaying a seed replays the draws.  The engine's
eviction slots come from sample_distinct_indices.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from random import Random

from .measures import MeasureSpec
from .model import Batch, Instance, Pattern, PlainItemset, Sequence, WeightedItemset
from .model import _unchecked
from .weighting import _row_plan, batch_weight


def sample_distinct_indices(rng: Random, n: int, k: int) -> list[int]:
    """k distinct indices uniform over range(n), by partial Fisher-Yates.

    Each index takes the bits randrange(i, n) would on CPython 3.10-3.13;
    sparse dict bookkeeping keeps this O(k) regardless of n.  The engine
    draws its eviction slots here; weighting._subset shuffles an itemset
    pattern's items on the same bits.
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
    weighted itemsets by summed item weights.  z's plan refuses what
    weight_table refuses (a measure not defined for z, a mass past the
    float range), and a norm outside [min_norm, cap] is a ValueError: the
    spec gives it no mass.
    """
    if not isinstance(z, (PlainItemset, WeightedItemset, Sequence)):
        raise TypeError(f"not an instance: {type(z).__name__}")
    draw = _row_plan(z, spec)[2]
    cap = spec.norm_cap(z.norm)
    if not spec.min_norm <= ell <= cap:
        raise ValueError(f"norm {ell} outside [{spec.min_norm}, {cap}]")
    return _unchecked(Pattern, draw(ell, rng))


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
