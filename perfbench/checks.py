"""Output checks on one pass, against the generated stream.

The checks read the generator's token structures, not rps's parse of them,
and use closed forms or the rps.oracle enumeration for weights.  Every check
raises CheckFailure on the first violation.
"""

from __future__ import annotations

import math

from workloads import Workload

WEIGHT_REL_TOL = 1e-12
# sequences up to this norm are compared with the oracle enumeration
ORACLE_MAX_NORM = 10
ORACLE_SAMPLE = 40


class CheckFailure(AssertionError):
    """The program's output is wrong."""


def _fail(msg: str):
    raise CheckFailure(msg)


def _contains(fmt: str, z, elements: list[list[str]]) -> bool:
    if fmt == "seq-spmf":
        # greedy leftmost embedding into distinct itemsets, in order
        pos = 0
        for e in elements:
            while pos < len(z) and not set(e) <= set(z[pos]):
                pos += 1
            if pos == len(z):
                return False
            pos += 1
        return True
    items = {item for item, _ in z} if fmt == "wtx" else set(z)
    return len(elements) == 1 and set(elements[0]) <= items


def closed_form_weight(fmt: str, measure: str, batch) -> float | None:
    """w(B) without rps: sum(2^n - 1) for tx/freq, sum(W * 2^(n-1)) for
    wtx/util; None where no closed form applies."""
    if (fmt, measure) == ("tx", "freq"):
        return math.fsum(2.0 ** len(z) - 1 for z in batch)
    if (fmt, measure) == ("wtx", "util"):
        return math.fsum(sum(wt for _, wt in z) * 2.0 ** (len(z) - 1) for z in batch)
    return None


def check_pass(w: Workload, stream: list[list], result: dict) -> list[str]:
    """Check one pass's output; returns the names of the checks that ran."""
    snapshot, reports, counters = result["snapshot"], result["reports"], result["counters"]
    k = w.capacity

    if len(snapshot) != k:
        _fail(f"reservoir holds {len(snapshot)} of {k} slots")

    if [r[0] for r in reports] != [float(t) for t in range(1, len(stream) + 1)]:
        _fail(f"expected {len(stream)} reports stamped 1..{len(stream)}")
    accepted = sum(1 for r in reports if r[3])
    inserted = sum(r[4] for r in reports)
    expected = {"batches_seen": len(reports), "batches_accepted": accepted, "insertions": inserted}
    if counters != expected:
        _fail(f"sampler counters {counters} disagree with the reports {expected}")

    slot_time: dict[int, float] = {}
    for t, _, _, ok, n, evicted in reports:
        if ok != (n > 0) or len(evicted) != n or len(set(evicted)) != n:
            _fail(f"batch {t}: accepted={ok}, {n} realisations, evicted {evicted}")
        if any(not 0 <= s < k for s in evicted):
            _fail(f"batch {t}: evicted slot out of range: {evicted}")
        for s in evicted:
            slot_time[s] = t

    for s, (t, elements) in enumerate(snapshot):
        if slot_time.get(s) != t:
            _fail(f"slot {s} is stamped {t} but was last refilled at {slot_time.get(s)}")
        # the workloads use the full norm band [1, instance norm]; containment
        # below bounds the norm from above
        if not elements or any(not e or len(set(e)) != len(e) for e in elements):
            _fail(f"slot {s}: pattern {elements} is outside the norm band")
        batch = stream[int(t) - 1]
        if not any(_contains(w.fmt, z, elements) for z in batch):
            _fail(f"slot {s}: pattern {elements} is in no instance of batch {t}")
    names = ["reservoir full", "counters match reports", "slots match evictions",
             "patterns contained in their batch"]

    for (t, weight, *_), batch in zip(reports, stream):
        want = closed_form_weight(w.fmt, w.measure, batch)
        if want is None:
            break
        if not math.isclose(weight, want, rel_tol=WEIGHT_REL_TOL, abs_tol=0.0):
            _fail(f"batch {t}: weight {weight!r} != closed form {want!r}")
    else:
        names.append("batch weights match closed form")
    return names


def check_read(w: Workload, probes: list, result: dict) -> list[str]:
    """Every probe's feature vector against containment in the snapshot."""
    snapshot, got = result["snapshot"], result["probe_bits"]
    if len(got) != len(probes):
        _fail(f"{len(got)} feature vectors for {len(probes)} probes")
    for i, (z, bits) in enumerate(zip(probes, got)):
        want = "".join("1" if _contains(w.fmt, z, elements) else "0" for _, elements in snapshot)
        if bits != want:
            _fail(f"probe {i}: feature vector {bits} != containment {want}")
    if len(result["bits_digests"]) != 1:
        _fail(f"rounds over the probe set gave {len(result['bits_digests'])} different results")
    return [f"feature vectors match containment on {len(probes)} probes",
            f"all {result['rounds']} rounds agree"]


def check_oracle(rps, w: Workload, stream: list[list]) -> list[str]:
    """instance_weight against rps.oracle enumeration on small sequences."""
    if w.fmt != "seq-spmf":
        return []
    from rps import oracle

    spec = rps.parse_measure(w.measure)
    catalog = rps.Catalog()
    small = [
        z for batch in stream for z in batch if sum(len(e) for e in z) <= ORACLE_MAX_NORM
    ][:ORACLE_SAMPLE]
    if len(small) < ORACLE_SAMPLE:
        _fail(f"only {len(small)} sequences of norm <= {ORACLE_MAX_NORM} to compare")
    for z in small:
        seq = rps.sequence(catalog.intern_all(e) for e in z)
        got = rps.instance_weight(seq, spec)
        want = math.fsum(
            oracle.pattern_measure(x, seq, spec)
            for x in oracle.enumerate_patterns(seq, spec.max_norm)
        )
        if not math.isclose(got, want, rel_tol=WEIGHT_REL_TOL, abs_tol=0.0):
            _fail(f"sequence {z}: instance_weight {got!r} != enumeration {want!r}")
    return [f"instance_weight matches oracle on {len(small)} sequences"]
