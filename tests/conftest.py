"""Shared fixtures: the two toy streams used throughout, plus an acceptance
summary that prints one PASS/FAIL line per criterion at the end of the run."""

from __future__ import annotations

import re

import pytest

from rps.model import Batch, plain_itemset, sequence, weighted_itemset

# item ids used by every test at this scale
A, B, C, D, E = 0, 1, 2, 3, 4


@pytest.fixture(scope="session")
def seq_stream() -> list[Batch]:
    """Two sequence batches: [z1, z2] at t=1, [z3] at t=2."""
    z1 = sequence([[A], [B], [A, C], [B]])
    z2 = sequence([[A, B, C], [C], [A, C]])
    z3 = sequence([[B], [A, C], [A]])
    return [Batch(1.0, (z1, z2)), Batch(2.0, (z3,))]


@pytest.fixture(scope="session")
def weighted_stream() -> list[Batch]:
    """Two weighted batches: one itemset at t=1, two at t=2."""
    z1 = weighted_itemset({A: 2.0, B: 1.5, C: 2.0})
    z2 = weighted_itemset({A: 3.0, C: 3.0})
    z3 = weighted_itemset({B: 2.0, C: 1.0, D: 2.0, E: 1.0})
    return [Batch(1.0, (z1,)), Batch(2.0, (z2, z3))]


@pytest.fixture(scope="session")
def plain_batch() -> Batch:
    return Batch(1.0, (plain_itemset([A, B, C]), plain_itemset([A, C])))


# soft report lines collected by tests, printed after the criteria summary
SOFT_LOGS: list[str] = []

_CRITERIA = {
    1: "fixture values are reproduced exactly",
    2: "weight tables match exhaustive enumeration",
    3: "single-batch draws follow the exact batch law",
    4: "reservoir slots follow the exact stream law",
    5: "incomplete beta agrees with direct binomial sums",
    6: "streaming behavior: determinism, ordering, skips, growth",
    7: "CLI sample/featurize round trip",
    8: "reservoir slots are independent draws",
}

_NODE_RE = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    stats = terminalreporter.stats
    failed: set[int] = set()
    passed: set[int] = set()
    for status, bucket in (("failed", failed), ("error", failed), ("passed", passed)):
        for rep in stats.get(status, []):
            m = _NODE_RE.search(getattr(rep, "nodeid", ""))
            if m:
                bucket.add(int(m.group(1)))
    seen = sorted(failed | passed)
    if not seen:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for n in seen:
        verdict = "FAIL" if n in failed else "PASS"
        terminalreporter.write_line(
            f"  criterion {n}: {verdict} - {_CRITERIA.get(n, '')}"
        )
    for line in SOFT_LOGS:
        terminalreporter.write_line(f"  note: {line}")
