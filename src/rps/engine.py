"""Streaming reservoir sampler over timestamped batches.

The reservoir holds a fixed number of patterns.  Each arriving batch is
accepted with probability equal to its share of the damped total stream
weight; on acceptance a replacement count n_r is drawn and n_r uniformly
chosen slots are refilled with fresh draws from the batch law m(x, B) /
w(B).  After any prefix of the stream, every slot independently holds a
pattern distributed by the damped stream law of that prefix.

The running normalizer is kept rescaled to the last mass-bearing timestamp:

  S_i = S_{i-1} * e^{-gamma (t_i - t_prev)} + w(B_i),   p_i = w(B_i) / S_i

which equals the ratio of the batch's damped weight to the damped total
without ever exponentiating a growing timestamp.

The replacement count is the inverse Bin(k, p) CDF at the acceptance
uniform, and the batch is accepted iff n_r >= 1.  Each slot is then replaced
with probability exactly p, which keeps every slot an exact draw from the
stream law.  (Rules that accept iff x < p and draw n_r >= 1 afterwards fall
short of p at k > 1; rps.oracle keeps them for comparison.)

A draw picks a row by the masses batch_weight gave, a norm by the prefix
sums of the row's plan, then a pattern of that norm by the row's drawer,
without enumerating patterns.  weighting._row_plan gives the plan and the
drawer, and alone knows a row's kind: the rest is the same for every row.

Randomness comes from one seeded generator, consumed in a fixed order per
batch: acceptance uniform, eviction slots, then each pattern's row, norm
and pattern; the first acceptance fills the empty reservoir without
eviction draws.  A batch commits once: its next state, entries and report
included, is worked out in locals and written in one block after every
call that can raise.  A refusal before the decision consumes no random
number; a failure from the decision on leaves every attribute but rng
unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from random import Random

from . import betainc
from .errors import (
    ConfigurationError,
    ReservoirNotReady,
    StreamOrderError,
    WeightOverflowError,
)
from .measures import MeasureSpec
from .model import Batch, Instance, Items, Pattern, _unchecked, matches
from .weighting import _row_plan, batch_weight


@dataclass(frozen=True, slots=True)
class BatchReport:
    """What one process_batch call did."""

    timestamp: float
    weight: float
    probability: float
    accepted: bool
    realisations: int
    evicted: tuple[int, ...]


class Featurizer:
    """Containment bits of probes against a fixed list of patterns.

    A pattern contained in a probe has all its items among the probe's
    distinct items.  Two screens pick a probe's candidate slots by this, and
    matches decides each candidate's bit, order and placement included, so
    the bits equal [1 if matches(x, z) else 0 for x in patterns].  By
    buckets: each slot is filed under the smallest item of its pattern's
    first element, with its items (that element, a sorted tuple, when it is
    the only one, so itemset reservoirs build nothing more; else a
    frozenset), and a probe tests the slots of the buckets it hits.  By
    masks: each item has a bitmask of the slots that hold it, and a probe's
    candidates are the slots in no mask of an item it lacks.  A probe goes
    by masks when its hit buckets are expected to hold more slots,
    len(hit) * k / len(buckets), than the slots hold distinct items, as in
    a sequence reservoir over a small alphabet.  The masks, one per item,
    are built, and count the items, on the first probe that could go by
    them; until then the count is taken as len(buckets), its least value,
    so a wide reservoir never builds them.
    """

    __slots__ = ("_patterns", "_buckets", "_masks", "_least")

    def __init__(self, patterns: list[Pattern]):
        self._patterns = patterns
        self._buckets: dict[int, list[tuple[int, Pattern, Items | frozenset[int]]]] = {}
        self._masks: dict[int, int] | None = None  # item -> its slots, once built
        for slot, pat in enumerate(patterns):
            e = pat.elements
            screen = e[0] if len(e) == 1 else frozenset().union(*e)
            self._buckets.setdefault(e[0][0], []).append((slot, pat, screen))
        # a probe that hits more than len(buckets) * items // k buckets goes
        # by masks; _slot_masks puts the items' count in
        self._least = len(self._buckets) ** 2 // max(len(patterns), 1)

    def __call__(self, z: Instance) -> list[int]:
        items = set().union(*z.elements)
        buckets = self._buckets
        hit = buckets.keys() & items
        if len(hit) > self._least:
            if self._masks is None:
                self._slot_masks()
            if len(hit) > self._least:
                return self._by_masks(z, items)
        bits = [0] * len(self._patterns)
        # matches is read from this module on each call, where
        # perfbench/tracer.py counts it
        for item in hit:
            for slot, pat, screen in buckets[item]:
                if items.issuperset(screen) and matches(pat, z):
                    bits[slot] = 1
        return bits

    def _by_masks(self, z: Instance, items: set[int]) -> list[int]:
        patterns, masks = self._patterns, self._masks
        bits = [0] * len(patterns)
        lacked = 0
        for item in masks.keys() - items:
            lacked |= masks[item]
        slots = (1 << len(bits)) - 1 & ~lacked
        while slots:
            slot = (slots & -slots).bit_length() - 1
            slots &= slots - 1
            if matches(patterns[slot], z):
                bits[slot] = 1
        return bits

    def _slot_masks(self) -> None:
        # each mask is set in a bitmap and made an int once: ORing bit after
        # bit into a growing int would copy it per bit, quadratic in k
        slots_of: dict[int, list[int]] = {}
        for bucket in self._buckets.values():
            for slot, _, screen in bucket:
                for item in screen:
                    slots_of.setdefault(item, []).append(slot)
        masks = self._masks = {}
        for item, slots in slots_of.items():
            bitmap = bytearray(max(slots) // 8 + 1)
            for slot in slots:
                bitmap[slot >> 3] |= 1 << (slot & 7)
            masks[item] = int.from_bytes(bitmap, "little")
        self._least = len(self._buckets) * len(masks) // len(self._patterns)


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
        (norms, _, norm_sums), draw = plan
        ell = norms[bisect_right(norm_sums, rng.random() * norm_sums[-1])]
        out.append(_unchecked(Pattern, draw(ell, rng)))
    return out


# the first accepted batch draws every slot at once, so a capacity past what
# memory holds would run until killed; refuse it up front instead
MAX_CAPACITY = 10**7


class ReservoirSampler:
    def __init__(
        self,
        spec: MeasureSpec,
        capacity: int,
        damping: float = 0.0,
        seed: int | None = 0,
    ):
        if type(capacity) is not int:  # a bool or a float too
            raise ConfigurationError(f"capacity must be an int, got {capacity!r}")
        if not 1 <= capacity <= MAX_CAPACITY:
            raise ConfigurationError(
                f"capacity must be in [1, {MAX_CAPACITY}], got {capacity}"
            )
        if isinstance(damping, bool) or not isinstance(damping, (int, float)):
            raise ConfigurationError(f"damping must be an int or a float, got {damping!r}")
        if not 0.0 <= damping <= 1.0:
            raise ConfigurationError(f"damping must be in [0, 1], got {damping!r}")
        self.spec = spec
        self.capacity = capacity
        self.damping = damping
        self.rng = Random(seed)
        self._entries: list[tuple[float, Pattern]] = []
        self._scaled_mass = 0.0
        self._t_mass: float | None = None  # timestamp the normalizer is scaled to
        self._t_seen: float | None = None  # last timestamp seen, for ordering
        self._variant: type | None = None  # instance type of the stream, once seen
        self._featurizer: Featurizer | None = None  # built on the first read
        self.batches_seen = 0
        self.batches_accepted = 0
        self.insertions = 0

    @property
    def reservoir_full(self) -> bool:
        return len(self._entries) == self.capacity

    def snapshot(self) -> list[tuple[float, Pattern]]:
        """Current (insertion timestamp, pattern) slots, in slot order."""
        return list(self._entries)

    def feature_vector(self, z: Instance) -> list[int]:
        """One containment bit per slot, in slot order, from a Featurizer
        built on the first read after the reservoir changed."""
        if not self.reservoir_full:
            raise ReservoirNotReady(
                f"reservoir holds {len(self._entries)}/{self.capacity} patterns"
            )
        if self._featurizer is None:
            self._featurizer = Featurizer([pat for _, pat in self._entries])
        return self._featurizer(z)

    def process_batch(self, batch: Batch) -> BatchReport:
        """Offer one batch to the reservoir, which it changes in one commit
        (see the module docstring).  It is weighed and drawn from its rows,
        so no instance is built."""
        t = batch.timestamp
        if not math.isfinite(t):
            raise StreamOrderError(f"batch timestamp {t} is not finite")
        if self._t_seen is not None and t <= self._t_seen:
            raise StreamOrderError(
                f"batch timestamp {t} is not after {self._t_seen}"
            )
        variant = batch.variant or self._variant
        if self._variant is not None and variant is not self._variant:
            # the patterns of two variants would mix in one reservoir
            raise ConfigurationError(
                f"a {variant.__name__} batch in a stream of "
                f"{self._variant.__name__} instances"
            )
        # raises ConfigurationError if the measure does not fit the variant
        w, masses = batch_weight(batch, self.spec)
        # a batch of no mass is only seen: it adds nothing to the normalizer
        scaled_mass, t_mass, p, n, slots, entries = self._scaled_mass, self._t_mass, 0.0, 0, (), []
        if w > 0.0:
            # the first mass has 0.0 * 0.0 + w == w exactly, and p == 1.0
            decay = 0.0 if t_mass is None else math.exp(-self.damping * (t - t_mass))
            scaled_mass, t_mass = scaled_mass * decay + w, t
            if scaled_mass == math.inf:
                raise WeightOverflowError(
                    f"damped stream mass at t={t:g} exceeds the largest float"
                )
            p = w / scaled_mass
            k = self.capacity
            n = betainc.realisations_from_uniform(k, p, self.rng.random())
            if n:
                # the first acceptance has p == 1 and n == k: it fills every slot
                slots = sample_distinct_indices(self.rng, k, n) if self._entries else range(n)
                patterns = sample_from_batch(batch, self.spec, n, self.rng, masses)
                entries = [(t, pat) for pat in patterns]  # built before the commit
        report = BatchReport(t, w, p, n > 0, n, tuple(slots))

        self._t_seen, self._variant = t, variant
        self._scaled_mass, self._t_mass = scaled_mass, t_mass
        self.batches_seen += 1
        if n:
            if self._entries:
                for s, entry in zip(slots, entries):
                    self._entries[s] = entry
            else:
                self._entries = entries
            self.batches_accepted += 1
            self.insertions += n
            self._featurizer = None
        return report

    def process_stream(self, batches) -> list[BatchReport]:
        return [self.process_batch(b) for b in batches]
