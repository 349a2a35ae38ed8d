"""Exhaustive ground truth for small inputs.

Everything here enumerates patterns explicitly and evaluates measures from
first principles (containment, summed item weights, norm factor, damping).
It shares no code path with the closed-form tables or the staged draws, so
tests can compare the two routes; the enumeration guard keeps it honest
about scale.

It also keeps the two replacement-count rules the engine rejected, both of
which accept iff x < p and then draw n_r >= 1: they replace a slot with
probability below p at k > 1 (notebooks/04_realisation_modes.py measures by
how much), so they serve only as comparisons against
betainc.realisations_from_uniform.
"""

from __future__ import annotations

import math
from itertools import combinations
from random import Random
from typing import Iterable, Mapping, Sequence as SequenceOf

from .betainc import _largest_above, binomial_survival
from .errors import ConfigurationError
from .measures import MeasureSpec
from .model import (
    Batch,
    Instance,
    Items,
    Pattern,
    Sequence,
    WeightedItemset,
    matches,
)

MAX_ENUM_NORM = 14


def enumerate_patterns(z: Instance, max_norm: int | None = None) -> set[Pattern]:
    """All distinct patterns contained in z with norm <= max_norm."""
    if z.norm > MAX_ENUM_NORM:
        raise ValueError(
            f"refusing to enumerate an instance of norm {z.norm} (> {MAX_ENUM_NORM})"
        )
    cap = z.norm if max_norm is None else min(max_norm, z.norm)
    if isinstance(z, Sequence):
        return _enumerate_sequence(z.elements, cap)
    found: set[Pattern] = set()
    for ell in range(1, cap + 1):
        for sub in combinations(z.items, ell):
            found.add(Pattern((sub,)))
    return found


def _enumerate_sequence(elements: tuple[Items, ...], cap: int) -> set[Pattern]:
    found: set[Pattern] = set()

    def extend(prefix: tuple[Items, ...], used: int, start: int) -> None:
        for j in range(start, len(elements)):
            base = elements[j]
            for q in range(1, min(cap - used, len(base)) + 1):
                for sub in combinations(base, q):
                    grown = prefix + (sub,)
                    found.add(Pattern(grown))
                    extend(grown, used + q, j + 1)

    extend((), 0, 0)
    return found


def admissible_blocks(base: Items, gaps: Iterable[Items], q: int) -> list[Items]:
    """The q-subsets of base that lie in no gap, in lexicographic order: the
    blocks whose first fit is base's position when gaps are the itemsets
    between the previous block and base."""
    gap_sets = [frozenset(g) for g in gaps]
    return [
        c for c in combinations(base, q) if not any(g.issuperset(c) for g in gap_sets)
    ]


def pattern_utility(x: Pattern, z: Instance) -> float:
    """u(x, z): 1/0 containment, except weighted itemsets where a contained
    pattern scores the sum of its item weights."""
    if isinstance(z, WeightedItemset):
        if not x.is_itemset or not matches(x, z):
            return 0.0
        return math.fsum(z.weight_of(i) for i in x.elements[0])
    return 1.0 if matches(x, z) else 0.0


def pattern_measure(x: Pattern, z: Instance, spec: MeasureSpec) -> float:
    """m(x, z) = u(x, z) * f(norm(x))."""
    u = pattern_utility(x, z)
    return u * spec.norm_utility(x.norm) if u else 0.0


def damping(gamma: float, t_now: float, t_then: float) -> float:
    """Exponential decay factor e^{-gamma (t_now - t_then)}.

    gamma = 0 is the landmark window (factor 1); t_then in the future of
    t_now is a caller bug.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ConfigurationError(f"damping factor must be in [0, 1], got {gamma!r}")
    if t_then > t_now:
        raise ValueError(f"t_then {t_then} is after t_now {t_now}")
    return math.exp(-gamma * (t_now - t_then))


def _damped(stream: SequenceOf[Batch], gamma: float, t_now: float | None) -> list[tuple]:
    # each batch's instances, read once, and its damping factor at t_now
    # (default: the last batch's timestamp)
    if t_now is None and stream:
        t_now = stream[-1].timestamp
    return [(b.instances, damping(gamma, t_now, b.timestamp)) for b in stream]


def _damped_measure(x: Pattern, damped: list, spec: MeasureSpec) -> float:
    return math.fsum(
        math.fsum(pattern_measure(x, z, spec) for z in zs) * factor for zs, factor in damped
    )


def global_utility(
    stream: SequenceOf[Batch],
    x: Pattern,
    spec: MeasureSpec,
    gamma: float = 0.0,
    t_now: float | None = None,
) -> float:
    """Damped stream total of m(x, .), evaluated at t_now (default: the
    last batch's timestamp)."""
    return _damped_measure(x, _damped(stream, gamma, t_now), spec)


def batch_law(batch: Batch, spec: MeasureSpec) -> dict[Pattern, float]:
    """Exact law of one pattern draw from a batch: m(x, B) / w(B), the
    undamped stream law of the batch alone."""
    return stream_law([batch], spec)


def stream_law(
    stream: SequenceOf[Batch],
    spec: MeasureSpec,
    gamma: float = 0.0,
    t_now: float | None = None,
) -> dict[Pattern, float]:
    """Exact damped stream law: Phi(x) over its total."""
    damped = _damped(stream, gamma, t_now)
    support: set[Pattern] = set()
    for zs, _ in damped:
        for z in zs:
            support |= enumerate_patterns(z, spec.max_norm)
    return _normalized({x: _damped_measure(x, damped, spec) for x in support})


def _normalized(masses: dict[Pattern, float]) -> dict[Pattern, float]:
    total = math.fsum(masses.values())
    if total <= 0:
        raise ValueError("no pattern has positive mass")
    return {x: m / total for x, m in masses.items() if m > 0}


def frequencies(draws: Iterable[Pattern]) -> dict[Pattern, float]:
    """Empirical law of a sample."""
    counts: dict[Pattern, int] = {}
    n = 0
    for x in draws:
        counts[x] = counts.get(x, 0) + 1
        n += 1
    if n == 0:
        raise ValueError("empty sample")
    return {x: c / n for x, c in counts.items()}


def total_variation(
    a: Mapping[Pattern, float], b: Mapping[Pattern, float]
) -> float:
    keys = set(a) | set(b)
    return 0.5 * math.fsum(abs(a.get(x, 0.0) - b.get(x, 0.0)) for x in keys)


def inv_draw_realisations(k: int, p: float, x: float) -> int:
    """Replacement count coupled to the acceptance uniform.

    Given that the batch was accepted (x < p), returns 1 plus the largest m
    in [0 .. k-1] whose Bin(k-1, p) survival still exceeds x, i.e. the
    inverse-CDF draw of 1 + Bin(k-1, p) reusing the acceptance uniform.
    """
    if k < 1:
        raise ValueError(f"reservoir capacity must be >= 1, got {k}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"acceptance probability must be in (0, 1], got {p}")
    if not 0.0 <= x < p:
        raise ValueError(f"uniform {x} is not in [0, p={p})")
    if k == 1:
        return 1
    return 1 + _largest_above(k - 1, p, x)


def draw_realisations_conditional(k: int, p: float, rng: Random) -> int:
    """Fresh draw of Bin(k, p) conditioned on being >= 1.

    Uses a uniform from rng to invert the conditional survival
    P(N >= m | N >= 1) = S(m) / S(1); intended for use after an acceptance
    test has already fired with probability p.
    """
    if k < 1:
        raise ValueError(f"reservoir capacity must be >= 1, got {k}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"acceptance probability must be in (0, 1], got {p}")
    return _largest_above(k, p, rng.random() * binomial_survival(1, k, p))
