"""One pass of a workload through the public rps API, timed per phase.

A pass streams the workload (iter_batches -> process_batch, one batch at a
time in a closed loop with a single caller) while reading a full reservoir
(feature_vector over the probe set, a few rounds).  The reads go to a reader:
a sampler that has already taken the whole stream, built once per run by
prepare_reader and handed to every pass, so they see the final reservoir the
pass's own sampler ends with.  After each batch the pass makes its share of
the reads, so reads and writes alternate over the whole pass and sample the
same stretches of a shared machine's speed.
Batches and reads are timed apart on the process CPU clock, with wall time
kept for reference, and after each batch a reference unit times the machine
itself, so that both are also given at reference speed.  The result carries the reservoir, the reports and the
first round's feature vectors for the output checks, and digests of both.  A
traced pass runs the same loop with the tracer's wrappers installed and adds
the per-layer metrics.

rps memoises weight tables per instance, so a warm cache would read as a
speed-up: run.py gives every timed pass a fresh interpreter (child.py), and
the reader is built in another process and arrives pickled.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import statistics
import sys
import time
import traceback
from functools import partial

import workloads
from tracer import Tracer
from workloads import Workload


def token_snapshot(sampler, catalog) -> list:
    """[[insertion t, [[token, ...] per element]] per slot], in slot order."""
    return [
        [t, [[catalog.token(i) for i in e] for e in x.elements]]
        for t, x in sampler.snapshot()
    ]


def snapshot_digest(snapshot: list) -> str:
    h = hashlib.sha256()
    for t, elements in snapshot:
        h.update(f"{t!r}\t{'|'.join(','.join(e) for e in elements)}\n".encode())
    return h.hexdigest()


def bits_digest(rendered: list[str | None]) -> str:
    """SHA-256 of one round's feature vectors, one line per probe."""
    h = hashlib.sha256()
    for v in rendered:
        h.update(f"{'raised' if v is None else v}\n".encode())
    return h.hexdigest()


# The machine's speed is sampled beside the program: after every batch the
# pass times one reference unit, a fixed merge walk over tuples of ints, like
# rps's own subset test but sharing no code or data with it.  On a shared
# machine whose speed swings by 1.5x for seconds at a time, times divided by
# the unit's, measured over the same stretch, vary far less from run to run
# than the raw times do.
_REF_A = tuple(range(0, 600, 3))
_REF_B = tuple(range(600))
REFERENCE_WALKS = 20
# a batch's speed is the median over this many units around it
REFERENCE_WINDOW = 21
# the unit's nominal CPU time: a scaled time is what the work would take on a
# machine that runs one unit in exactly this long
REFERENCE_UNIT_S = 0.5e-3


def _ref_walk(a: tuple, b: tuple) -> bool:
    i, n = 0, len(b)
    for x in a:
        while i < n and b[i] < x:
            i += 1
        if i == n or b[i] != x:
            return False
        i += 1
    return True


def reference_unit() -> float:
    """CPU seconds one reference unit took."""
    cpu0 = time.process_time()
    for _ in range(REFERENCE_WALKS):
        _ref_walk(_REF_A, _REF_B)
    return time.process_time() - cpu0


def slowdown(units: int) -> float:
    """How much slower than the reference the machine runs now."""
    return statistics.median(reference_unit() for _ in range(units)) / REFERENCE_UNIT_S


def prepare_reader(rps, w: Workload, lines: list[str], seed: int) -> tuple:
    """(reader sampler, parsed probes, reader's token snapshot) for one run.

    The reader takes the whole stream, untimed; the probe set is drawn from
    its final reservoir and parsed with its catalog, so probe and pattern
    ids agree.
    """
    catalog = rps.Catalog()
    reader = rps.ReservoirSampler(rps.parse_measure(w.measure), w.capacity, w.damping, seed)
    for batch in rps.formats.iter_batches(lines, w.fmt, catalog, batch_size=w.batch_size):
        reader.process_batch(batch)
    snapshot = token_snapshot(reader, catalog)
    probe_lines = workloads.to_lines(w.fmt, workloads.probe_set(w, seed, snapshot))
    probes = [
        z for _, z, _ in rps.formats.read_instances(probe_lines, w.fmt, catalog) if z is not None
    ]
    return reader, probes, snapshot


def peak_rss_mb() -> float:
    """This process's own peak resident set, in MiB.

    ru_maxrss is not used where VmHWM exists: Linux carries the parent's peak
    over into a spawned child's ru_maxrss, and run.py's own heap is larger
    than a pass's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _failed(failures: list) -> None:
    # a raising call counts as failed and the pass goes on; the output checks
    # then see whatever state the failure left behind
    if not failures:
        traceback.print_exc(file=sys.stderr)
    failures.append(1)


def run_pass(
    rps,
    catalog,
    sampler,
    w: Workload,
    lines: list[str],
    reader,
    probes: list,
    traced: bool = False,
    spans_path: str | None = None,
) -> dict:
    tracer = Tracer() if traced else None
    wrap = tracer.span if tracer else (lambda _name, fn: fn)
    failures: list[int] = []
    it = rps.formats.iter_batches(lines, w.fmt, catalog, batch_size=w.batch_size)
    next_batch = wrap("formats.next", partial(next, it, None))
    process = wrap("engine.process_batch", sampler.process_batch)
    featurize = wrap("model.feature_vector", reader.feature_vector)
    clock = time.process_time

    # every round over the probe set, in order, spread evenly over the batches:
    # read k is probe k % n of round k // n
    n = len(probes)
    n_reads = w.probe_rounds * n
    per_batch = -(-n_reads // w.batches)
    vectors: dict[int, list] = {}
    round_digests: set[str] = set()
    probe_bits: list[str | None] = []
    bits = 0

    def read(start: int, stop: int) -> float:
        nonlocal bits
        stop = min(stop, n_reads)
        if start >= stop:
            return 0.0
        for r in range(start // n, (stop - 1) // n + 1):
            vectors.setdefault(r, [None] * n)
        cpu0 = clock()
        for k in range(start, stop):
            r, i = divmod(k, n)
            if tracer:
                tracer.request = f"p{r}.{i}"
            try:
                vectors[r][i] = featurize(probes[i])
            except Exception:  # noqa: BLE001 - any raise is a failed operation
                _failed(failures)
        took = clock() - cpu0
        # off the clock, each finished round is hashed and let go: every
        # round must give the same vectors
        for r in range(start // n, stop // n):
            rendered = [None if v is None else "".join(map(str, v)) for v in vectors.pop(r)]
            bits += sum(len(v) for v in rendered if v is not None)
            round_digests.add(bits_digest(rendered))
            if r == 0:
                probe_bits[:] = rendered
        return took

    reports, latencies, read_cpu, ref_cpu = [], [], [], []
    stream_wall = 0.0
    done = 0
    with tracer.installed() if tracer else contextlib.nullcontext():
        while True:
            if tracer:
                tracer.request = f"b{len(latencies) + 1}"
            wall0, t0 = time.perf_counter(), clock()
            batch = next_batch()
            if batch is not None:
                try:
                    reports.append(process(batch))
                except Exception:  # noqa: BLE001 - any raise is a failed operation
                    _failed(failures)
            took = clock() - t0
            stream_wall += time.perf_counter() - wall0
            if batch is None:
                # the call that finds the stream's end counts with the last batch
                latencies[-1] += took
                read_cpu[-1] += read(done, n_reads)
                break
            latencies.append(took)
            read_cpu.append(read(done, done + per_batch))
            done += per_batch
            ref_cpu.append(reference_unit())

    # each batch and the reads after it at reference speed: divided by the
    # median slowdown of the units timed around it
    half = REFERENCE_WINDOW // 2
    slow = [
        statistics.median(ref_cpu[max(0, j - half):j + half + 1]) / REFERENCE_UNIT_S
        for j in range(len(ref_cpu))
    ]
    snapshot = token_snapshot(sampler, catalog)
    result = {
        "batches": len(latencies),
        "lines": len(lines),
        # CPU seconds as measured, and at reference speed
        "stream_cpu_s": sum(latencies),
        "stream_s": sum(x / f for x, f in zip(latencies, slow)),
        "stream_wall_s": stream_wall,
        "latencies_s": [x / f for x, f in zip(latencies, slow)],
        "bits": bits,
        "read_cpu_s": sum(read_cpu),
        "read_s": sum(x / f for x, f in zip(read_cpu, slow)),
        "rounds": w.probe_rounds,
        # how much slower than the reference the machine ran over this pass
        "slowdown": sum(ref_cpu) / len(ref_cpu) / REFERENCE_UNIT_S,
        "attempted": len(latencies) + n_reads,
        "failed": len(failures),
        "peak_rss_mb": peak_rss_mb(),
        "digest": snapshot_digest(snapshot),
        "snapshot": snapshot,
        # one digest when every round gave the same vectors
        "bits_digests": sorted(round_digests),
        "probe_bits": probe_bits,
        "reports": [
            [r.timestamp, r.weight, r.probability, r.accepted, r.realisations, list(r.evicted)]
            for r in reports
        ],
        "counters": {
            "batches_seen": sampler.batches_seen,
            "batches_accepted": sampler.batches_accepted,
            "insertions": sampler.insertions,
        },
    }
    if tracer:
        tracer.require_calls(w.must_call, w.name)
        result["layers"] = layer_metrics(rps, tracer, sampler, result)
        if spans_path:
            tracer.write_spans(spans_path)
    return result


def layer_metrics(rps, tracer: Tracer, sampler, result: dict) -> dict:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json.

    Times are at reference speed, like the end-to-end ones: span totals
    divided by the pass's slowdown.
    """
    total, engine_self = tracer.totals_ns()
    ns = {name: t / result["slowdown"] for name, t in total.items()}
    calls = tracer.calls
    tables = rps.weighting.weight_table.cache_info()
    seq_tables = rps.weighting.sequence_counts.cache_info()
    lookups = tables.hits + tables.misses
    drawn = tracer.sizes["engine.sample_from_batch"]
    seen = sampler.batches_seen
    return {
        "formats.parse_s": ns["formats.next"] / 1e9,
        "formats.us_per_line": ns["formats.next"] / 1e3 / result["lines"],
        "weighting.batch_weight_s": ns["engine.batch_weight"] / 1e9,
        "weighting.tables_built": tables.misses,
        "weighting.table_lookups": lookups,
        "weighting.table_hit_ratio": tables.hits / lookups if lookups else 0.0,
        "weighting.sequence_counts_built": seq_tables.misses,
        "betainc.decision_s": ns["betainc.realisations_from_uniform"] / 1e9,
        "betainc.decisions": calls["betainc.realisations_from_uniform"],
        "betainc.survival_evals": calls["betainc.binomial_survival"],
        "betainc.cf_evals": calls["betainc.reg_inc_beta"],
        "sampling.evict_s": ns["engine.sample_distinct_indices"] / 1e9,
        "sampling.draw_s": ns["engine.sample_from_batch"] / 1e9,
        "sampling.patterns_drawn": drawn,
        "sampling.draw_us_per_pattern": ns["engine.sample_from_batch"] / 1e3 / drawn,
        "engine.process_batch_s": ns["engine.process_batch"] / 1e9,
        "engine.self_s": engine_self / result["slowdown"] / 1e9,
        "engine.batches_seen": seen,
        "engine.batches_accepted": sampler.batches_accepted,
        "engine.accept_ratio": sampler.batches_accepted / seen,
        "engine.insertions": sampler.insertions,
        "model.matches_calls": calls["engine.matches"],
        "model.subset_tests": calls["model.is_subset"],
    }
