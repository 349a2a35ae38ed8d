"""Byte-identity pins: fixed seeds must keep giving the same reservoir.

Each digest is the SHA-256 of repr(sampler.snapshot()) after a seeded
synthetic stream.  The digests were taken before itemset weight tables were
keyed by (variant, size, measure); a change to table construction, to the
batch draw or to the order in which random numbers are consumed shows up
here as a mismatch.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

import rps
import rps.formats

from rps.engine import ReservoirSampler
from rps.formats import iter_batches, serialize_instance
from rps.measures import parse_measure
from rps.model import Batch, Catalog, plain_itemset, sequence, weighted_itemset


def _stream(fmt: str, seed: int) -> list[Batch]:
    rng = random.Random(seed)
    batches = []
    for t in range(1, 41):
        if fmt == "tx":
            instances = [
                plain_itemset(rng.sample(range(200), rng.randint(3, 25)))
                for _ in range(rng.randint(1, 20))
            ]
        elif fmt == "wtx":
            instances = [
                weighted_itemset(
                    {i: round(rng.uniform(0.1, 9.9), 3)
                     for i in rng.sample(range(200), rng.randint(1, 25))}
                )
                for _ in range(rng.randint(1, 20))
            ]
        else:
            instances = [
                sequence(
                    rng.sample(range(12), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 5))
                )
                for _ in range(rng.randint(1, 6))
            ]
        batches.append(Batch(float(t), tuple(instances)))
    return batches


def snapshot_digest(fmt: str, measure: str, k: int, damping: float) -> str:
    sampler = ReservoirSampler(parse_measure(measure), k, damping, seed=11)
    for batch in _stream(fmt, seed=5):
        sampler.process_batch(batch)
    return hashlib.sha256(repr(sampler.snapshot()).encode()).hexdigest()


# (format, measure, capacity, damping) -> digest
DIGESTS = {
    ("tx", "freq", 1, 0.0): "84ba081fd931730090fba48130f57c4571d5f1e7cf36bc79b4cd1a743eca8b2f",
    ("tx", "freq", 1, 0.05): "84ba081fd931730090fba48130f57c4571d5f1e7cf36bc79b4cd1a743eca8b2f",
    ("tx", "freq", 10, 0.0): "833a5bab58d658a9663fc3aeb9c804c20037ab2adcbca2cd026156a32898129d",
    ("tx", "freq", 10, 0.05): "a6a699ce9dc216dd3ca65096468839bdace22c61d895ec0b3016c273d4a1b9f8",
    ("tx", "area", 1, 0.0): "382fcbca193043160a72e7e404245138c7e861f9127c7a2b7f3546e52661e230",
    ("tx", "area", 1, 0.05): "71a09c255ec96894c1bc23595ceaa78499e99d1ad23b15b4f055da8e51d70f17",
    ("tx", "area", 10, 0.0): "0f74ff95db229e19f4dbead8f0bed9c2bfa76c743251a5ebbbf5bedc9046a43b",
    ("tx", "area", 10, 0.05): "fd9b844b9879bff2f2d9545cb4fb02fb419e39755ba61a43f873923dcad75973",
    ("tx", "decay:0.5", 1, 0.0): "0d953ede53eb07ee54fc44f8642c4e49930a1e986a95ee328d8617f5c02f0c48",
    ("tx", "decay:0.5", 1, 0.05): "0d953ede53eb07ee54fc44f8642c4e49930a1e986a95ee328d8617f5c02f0c48",
    ("tx", "decay:0.5", 10, 0.0): "d5749db45f159e9df27a4001607e287659e5f7488bd43a64dc9fe6e0143bb70d",
    ("tx", "decay:0.5", 10, 0.05): "134989c21f9b463a59ed1fcadcc886d98c3fb3444539bfb99603a4894d3a24ef",
    ("wtx", "util", 1, 0.0): "18765cd80952f6eb63a10368142ebefb0f394abf5a181c564947c79b67a9a6a4",
    ("wtx", "util", 1, 0.05): "68cff16aa24ed05c08e313884813f5d7b96739ce88fdd7c6cf12d58772c49fe0",
    ("wtx", "util", 10, 0.0): "9bc454f12f4ee545ae1d5cae10a7114e834f63190d9d94cb21837f6fd8da465d",
    ("wtx", "util", 10, 0.05): "61bbf29c507d208a02c3b477f9649698b786ee110eb70a1bbbbd1ad0854cc044",
    ("wtx", "avgutil", 1, 0.0): "9ec6f2122bc8776cb9c84ed416a487146879a57bd74f6f5e687659da0688684b",
    ("wtx", "avgutil", 1, 0.05): "10d8e4863f1d8ff725bc17c24fddb4cb69c8b04a436e236e88f4efc1bf8241a0",
    ("wtx", "avgutil", 10, 0.0): "313ba202599a7fcfd881cfe87579f3df28189902c9db48e76b8894c015ddb1b8",
    ("wtx", "avgutil", 10, 0.05): "868a327668b3c5e0131d42b9f0e78f53be1801c2b5fe9f8e41d85e64aaab88d4",
    ("seq-spmf", "freq", 1, 0.0): "2a03d7c2f70e3ff251c3d05b72e0df94b8deac865f1d98fefebf3bf76542acf8",
    ("seq-spmf", "freq", 1, 0.05): "3a02694f12348caf3dd959bd5fc6e1f3aa98a13231dc2be8ed32a1f9d2e8e1b6",
    ("seq-spmf", "freq", 10, 0.0): "76131a7f96efe6caa0f92bb7883b86a6b80a5f55ecf1463c38fe231d519006c2",
    ("seq-spmf", "freq", 10, 0.05): "ad3a35d3381e7f8e241bfb3de83bb94b60fd3e8399d33e6195b6fe4d39cffdda",
}


@pytest.mark.parametrize("case", sorted(DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_snapshot_digest_is_pinned(case):
    assert snapshot_digest(*case) == DIGESTS[case]


def _reader_lines(fmt: str, mode: str) -> list[str]:
    """_stream(fmt, 5) as text: item id i is written as token "i<i>", and
    batches are separated by a blank line (marker), not at all (a fixed
    batch size) or by a leading timestamp column (explicit)."""
    catalog = Catalog(f"i{i}" for i in range(200))
    lines: list[str] = []
    for batch in _stream(fmt, seed=5):
        for z in batch.instances:
            line = serialize_instance(z, fmt, catalog)
            lines.append(f"{batch.timestamp:g} {line}" if mode == "explicit" else line)
        if mode == "marker":
            lines.append("")
    return lines


def reader_digests(
    fmt: str, mode: str, measure: str, k: int, damping: float
) -> tuple[str, str]:
    """(digest of repr(snapshot), digest of repr of every batch's instances)
    after streaming _reader_lines through iter_batches."""
    if mode == "explicit":
        options = {"timestamps": "explicit"}
    else:
        options = {"batch_size": 7 if mode == "size" else "marker"}
    batches = list(iter_batches(_reader_lines(fmt, mode), fmt, Catalog(), **options))
    sampler = ReservoirSampler(parse_measure(measure), k, damping, seed=11)
    for batch in batches:
        sampler.process_batch(batch)
    return (
        hashlib.sha256(repr(sampler.snapshot()).encode()).hexdigest(),
        hashlib.sha256(repr([b.instances for b in batches]).encode()).hexdigest(),
    )


# (format, batching mode, measure, capacity, damping) -> (snapshot digest,
# instances digest)
READER_DIGESTS = {
    ("tx", "size", "freq", 10, 0.0): (
        "c0877e0d15a4c459c67863e90b41660e9df54ee8eee62d98676ca0fe2d7c691c",
        "62167911c5c9730ac53fe8b70272efacf56031ff5424c63bc60b87839e9ca246",
    ),
    ("tx", "marker", "freq", 10, 0.0): (
        "0910e08e485508db7e847c3237a6f5d24995d808dfc5e50689b259697f22ee14",
        "39957c85674631db5be556ed7ddc71e6fa7ad28caba0720a9bd08b958d32aadc",
    ),
    ("tx", "explicit", "freq", 10, 0.0): (
        "0910e08e485508db7e847c3237a6f5d24995d808dfc5e50689b259697f22ee14",
        "39957c85674631db5be556ed7ddc71e6fa7ad28caba0720a9bd08b958d32aadc",
    ),
    ("tx", "marker", "area", 1, 0.05): (
        "6bed1f5acf76fb5b1bf07efc7f549bb537d2d5e7f9b79c240e0c4c078b1284fa",
        "39957c85674631db5be556ed7ddc71e6fa7ad28caba0720a9bd08b958d32aadc",
    ),
    ("wtx", "marker", "util", 10, 0.05): (
        "d1990d19594fd24140102811860ed9dab8f7184155befcda406bf45dbad2c547",
        "e107d1e3f0e86fe0f3d88570c2d10eabd94dacddbd460e240486f98d0ca4b57a",
    ),
    ("seq-spmf", "marker", "freq", 10, 0.05): (
        "3af2fb2c4f01b00b5f4e9259edee17aba4018799c96f023e8f68b2e3ce570013",
        "64f4cf9a839bea7c1b98ac5bd089f9f16e7b4ee5036238f5b83561c753739b55",
    ),
}


@pytest.mark.parametrize(
    "case", sorted(READER_DIGESTS), ids=lambda c: "-".join(map(str, c))
)
def test_reader_path_is_pinned(case):
    """The same pins through the text reader.  These digests were taken
    before tx lines were read to id sets and PlainItemsets built only when
    a batch's instances are read, so a change to interning order, to batch
    assembly or to what the engine weighs shows up here."""
    assert reader_digests(*case) == READER_DIGESTS[case]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's workloads and passes modules, imported from its directory
    as its own scripts import them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("passes")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["plain-landmark", "weighted-damped", "sequence-damped"])
def test_benchmark_seed_1_digests_are_pinned(perfbench, name):
    """The benchmark's reader on the seed-1 stream holds the reservoir, and
    gives the first round of feature vectors, of digests_seed_1 in
    perfbench/baseline.json: a whole workload through the text reader."""
    workloads, passes = perfbench
    w = workloads.BY_NAME[name]
    stream = workloads.generate_stream(w, 1)
    lines = workloads.to_lines(w.fmt, [z for b in stream for z in b])
    reader, probes, snapshot = passes.prepare_reader(rps, w, lines, 1)
    bits = ["".join(map(str, reader.feature_vector(z))) for z in probes]
    with open(PERFBENCH / "baseline.json", encoding="utf-8") as fh:
        want = json.load(fh)["digests_seed_1"][name]
    assert passes.snapshot_digest(snapshot) == want["reservoir"]
    assert passes.bits_digest(bits) == want["features"]
