"""Seeded synthetic workloads for the rps benchmark.

A workload fixes a stream shape, a sampler configuration and a probe set for
the read phase; BENCHMARK.json records why each one was chosen.  The
generators are pure functions of (workload, seed) and return instances as
token structures:

  tx        tuple of item tokens
  wtx       tuple of (item token, integer weight) pairs
  seq-spmf  tuple of itemsets, each a tuple of item tokens

`to_lines` renders them in the workload's input format, which is all the
program under test receives.  The output checks read the token structures
directly, so they share no parsing code with the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# wrapped names every workload must call at least once in a traced pass
CORE_CALLS = (
    "formats.next",
    "engine.process_batch",
    "engine.batch_weight",
    "betainc.realisations_from_uniform",
    "betainc.binomial_survival",
    "engine.sample_distinct_indices",
    "engine.sample_from_batch",
    "model.feature_vector",
    "engine.matches",
    "model.is_subset",
)


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str
    measure: str
    capacity: int
    damping: float
    batches: int
    batch_size: int
    probes: int
    # the probe set is featurized this many times, spread over the stream, for
    # reads that take about a third of the stream's time
    probe_rounds: int
    # wrapped names beyond CORE_CALLS that must see calls in a traced pass
    extra_calls: tuple[str, ...] = ()

    @property
    def must_call(self) -> tuple[str, ...]:
        return CORE_CALLS + self.extra_calls


WORKLOADS = (
    Workload(
        name="plain-landmark",
        fmt="tx",
        measure="freq",
        capacity=10,
        damping=0.0,
        batches=1000,
        batch_size=100,
        probes=2000,
        probe_rounds=80,
    ),
    Workload(
        name="weighted-damped",
        fmt="wtx",
        measure="util",
        capacity=1000,
        damping=0.05,
        batches=300,
        batch_size=100,
        probes=200,
        probe_rounds=6,
        extra_calls=("betainc.reg_inc_beta",),
    ),
    Workload(
        name="sequence-damped",
        fmt="seq-spmf",
        measure="freq",
        capacity=100,
        damping=0.05,
        batches=300,
        batch_size=20,
        probes=500,
        probe_rounds=25,
        extra_calls=("betainc.reg_inc_beta",),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

_ITEMSET_ALPHABET = tuple(str(i) for i in range(1, 1001))
_SEQUENCE_ALPHABET = tuple(str(i) for i in range(1, 21))


def _transaction(rng: random.Random) -> tuple[str, ...]:
    # 5-30 distinct items out of 1000
    return tuple(rng.sample(_ITEMSET_ALPHABET, rng.randint(5, 30)))


def _instance(fmt: str, rng: random.Random):
    if fmt == "tx":
        return _transaction(rng)
    if fmt == "wtx":
        return tuple((item, rng.randint(1, 20)) for item in _transaction(rng))
    if fmt == "seq-spmf":
        # 3-8 itemsets of 1-3 items out of 20: at most 6 itemsets lie between
        # two positions and a 3-item base has at most 3 maximal gaps, so the
        # 2^gaps inclusion-exclusion stays small
        return tuple(
            tuple(rng.sample(_SEQUENCE_ALPHABET, rng.randint(1, 3)))
            for _ in range(rng.randint(3, 8))
        )
    raise ValueError(f"unknown format {fmt!r}")


def _key(fmt: str, z) -> frozenset | tuple:
    # identity of an instance as the program sees it: item order inside an
    # itemset is not significant, itemset order inside a sequence is
    if fmt == "seq-spmf":
        return tuple(frozenset(e) for e in z)
    return frozenset(z)


def generate_stream(w: Workload, seed: int) -> list[list]:
    """w.batches batches of w.batch_size instances, distinct within a batch."""
    rng = random.Random(f"{w.name}/stream/{seed}")
    stream = []
    for _ in range(w.batches):
        batch, seen = [], set()
        while len(batch) < w.batch_size:
            z = _instance(w.fmt, rng)
            key = _key(w.fmt, z)
            if key not in seen:
                seen.add(key)
                batch.append(z)
        stream.append(batch)
    return stream


def generate_probes(w: Workload, seed: int) -> list:
    """Fresh instances, drawn like the stream's but from their own rng."""
    rng = random.Random(f"{w.name}/probes/{seed}")
    return [_instance(w.fmt, rng) for _ in range(w.probes)]


def plant(fmt: str, z, elements: list[list[str]], rng: random.Random):
    """z with the pattern `elements` (item tokens per element) made part of it."""
    if fmt == "tx":
        return z + tuple(item for item in elements[0] if item not in z)
    if fmt == "wtx":
        have = {item for item, _ in z}
        return z + tuple((item, rng.randint(1, 20)) for item in elements[0] if item not in have)
    if fmt == "seq-spmf":
        # pattern element j joins the itemset at the j-th of some increasing
        # positions; a pattern longer than z fills every position
        z = list(z) + [()] * max(0, len(elements) - len(z))
        for pos, e in zip(sorted(rng.sample(range(len(z)), len(elements))), elements):
            z[pos] = z[pos] + tuple(item for item in e if item not in z[pos])
        return tuple(z)
    raise ValueError(f"unknown format {fmt!r}")


def probe_set(w: Workload, seed: int, snapshot: list) -> list:
    """The read phase's probes for a final reservoir [[t, elements], ...].

    Random instances almost never contain a sampled pattern, so every other
    probe has the pattern of a seeded slot planted in it: the feature vectors
    then hold ones as well as zeros, and the output check can tell them apart.
    """
    rng = random.Random(f"{w.name}/plant/{seed}")
    return [
        plant(w.fmt, z, rng.choice(snapshot)[1], rng) if i % 2 == 0 else z
        for i, z in enumerate(generate_probes(w, seed))
    ]


def to_line(fmt: str, z) -> str:
    if fmt == "tx":
        return " ".join(z)
    if fmt == "wtx":
        items = " ".join(item for item, _ in z)
        weights = " ".join(str(wt) for _, wt in z)
        return f"{items}:{sum(wt for _, wt in z)}:{weights}"
    if fmt == "seq-spmf":
        return " ".join(" ".join(e) + " -1" for e in z) + " -2"
    raise ValueError(f"unknown format {fmt!r}")


def to_lines(fmt: str, instances) -> list[str]:
    return [to_line(fmt, z) for z in instances]
