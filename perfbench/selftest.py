"""Smoke-size self-test of the benchmark itself.

  python3 perfbench/selftest.py

Checks that the generators are deterministic in the seed and render text
that rps parses back to the same instances, that an untraced and a traced
pass leave the same reservoir and feature vectors, that the tracer puts rps back as it found it
and fails loudly on a missing name or an idle layer, and that each output
check fires on a corrupted result.  Runs in a few seconds; exits 1 on the
first failure.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys

import checks
import child
import passes
import tracer
import workloads

rps = child.import_rps()


def smoke(w: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(w, batches=12, probes=20, probe_rounds=1)


def one_pass(w: workloads.Workload, seed: int, traced: bool) -> tuple[list, list, dict]:
    stream = workloads.generate_stream(w, seed)
    lines = workloads.to_lines(w.fmt, [z for b in stream for z in b])
    # the reader travels to a pass pickled, as run.py sends it
    reader, probes, snapshot = passes.prepare_reader(rps, w, lines, seed)
    reader, probes = pickle.loads(pickle.dumps((reader, probes)))
    sampler = rps.ReservoirSampler(rps.parse_measure(w.measure), w.capacity, w.damping, seed)
    result = passes.run_pass(rps, rps.Catalog(), sampler, w, lines, reader, probes, traced)
    assert result["snapshot"] == snapshot, f"{w.name}: reader and pass hold different reservoirs"
    return stream, workloads.probe_set(w, seed, result["snapshot"]), result


def expect_failure(what: str, check, *args) -> None:
    try:
        check(*args)
    except (checks.CheckFailure, tracer.TraceError):
        return
    raise AssertionError(f"{what}: check did not fire")


def test_generators() -> None:
    for w in map(smoke, workloads.WORKLOADS):
        a, b = workloads.generate_stream(w, 7), workloads.generate_stream(w, 7)
        assert a == b, f"{w.name}: same seed, different stream"
        assert a != workloads.generate_stream(w, 8), f"{w.name}: seed ignored"
        assert workloads.generate_probes(w, 7) == workloads.generate_probes(w, 7)
        catalog = rps.Catalog()
        for z in a[0]:
            parsed, _ = rps.formats.parse_instance(workloads.to_line(w.fmt, z), w.fmt, catalog)
            tokens = [[catalog.token(i) for i in e] for e in parsed.elements]
            if w.fmt == "seq-spmf":
                assert [set(e) for e in tokens] == [set(e) for e in z], z
            else:
                items = [it for it, _ in z] if w.fmt == "wtx" else z
                assert set(tokens[0]) == set(items), z
            if w.fmt == "wtx":
                assert parsed.total_weight == sum(wt for _, wt in z), z


def test_passes_and_checks() -> None:
    for w in map(smoke, workloads.WORKLOADS):
        originals = {(m, a): getattr(tracer._module(m), a) for m, a, _ in tracer.TARGETS}
        stream, probes, plain = one_pass(w, 3, traced=False)
        _, _, traced = one_pass(w, 3, traced=True)
        for (m, a), fn in originals.items():
            assert getattr(tracer._module(m), a) is fn, f"rps.{m}.{a} not restored"
        assert plain["digest"] == traced["digest"], f"{w.name}: tracing changed the sample"
        assert plain["bits_digests"] == traced["bits_digests"], f"{w.name}: tracing changed bits"
        assert plain["digest"] == passes.snapshot_digest(plain["snapshot"])
        assert plain["failed"] == 0
        assert "1" in "".join(plain["probe_bits"]), f"{w.name}: no probe contains any pattern"
        checks.check_pass(w, stream, plain)
        checks.check_read(w, probes, plain)
        checks.check_oracle(rps, w, stream)
        corrupt_and_expect_failures(w, stream, probes, plain)


def corrupt_and_expect_failures(
    w: workloads.Workload, stream: list, probes: list, result: dict
) -> None:
    def corrupted(edit) -> dict:
        bad = copy.deepcopy(result)
        edit(bad)
        return bad

    def foreign_pattern(r):
        r["snapshot"][0][1] = [["no-such-item"]]

    def shared_slot(r):
        rep = next(rep for rep in r["reports"] if rep[4] >= 2)
        rep[5][1] = rep[5][0]

    def wrong_weight(r):
        r["reports"][-1][1] *= 1 + 1e-9

    def missing_slot(r):
        r["snapshot"].pop()

    def extra_insertion(r):
        r["counters"]["insertions"] += 1

    def stale_stamp(r):
        r["snapshot"][0][0] = r["snapshot"][0][0] + 1

    def flipped_bit(r):
        v = r["probe_bits"][0]
        r["probe_bits"][0] = ("1" if v[0] == "0" else "0") + v[1:]

    def all_zero_bits(r):
        r["probe_bits"] = ["0" * len(v) for v in r["probe_bits"]]

    def short_vector(r):
        r["probe_bits"][0] = r["probe_bits"][0][:-1]

    def rounds_differ(r):
        r["bits_digests"] = r["bits_digests"] + ["0" * 64]

    edits = [foreign_pattern, shared_slot, missing_slot, extra_insertion, stale_stamp]
    if checks.closed_form_weight(w.fmt, w.measure, stream[0]) is not None:
        edits.append(wrong_weight)
    for edit in edits:
        expect_failure(f"{w.name}/{edit.__name__}", checks.check_pass, w, stream, corrupted(edit))
    for edit in (flipped_bit, all_zero_bits, short_vector, rounds_differ):
        expect_failure(f"{w.name}/{edit.__name__}", checks.check_read, w, probes, corrupted(edit))


def test_tracer_fails_loudly() -> None:
    t = tracer.Tracer()
    original = rps.engine.batch_weight
    saved = tracer.TARGETS
    tracer.TARGETS = saved + (("engine", "no_such_function", "span"),)
    try:
        expect_failure("missing name", lambda: t.installed().__enter__())
    finally:
        tracer.TARGETS = saved
    assert rps.engine.batch_weight is original, "failed install left a wrapper behind"
    expect_failure("idle layer", t.require_calls, ("engine.batch_weight",), "smoke")


def main() -> int:
    tests = [test_generators, test_passes_and_checks, test_tracer_fails_loudly]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"selftest passed: {len(tests)} tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
