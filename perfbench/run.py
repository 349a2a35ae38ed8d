"""rps benchmark: seeded workloads through the public API, timed and checked.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  A run generates the workload's stream from
the seed, builds the reader (a sampler that has taken the whole stream,
untimed) and the probe set from its reservoir, then repeats whole passes,
each in a fresh interpreter (child.py), while another pass is expected to
end within S seconds of the run's start: at least two untraced passes, and
with --trace 1 traced passes alternating with them.  It checks the first
pass's output, requires every pass and the reader to hold the same
reservoir, prints each metric by name with its unit, and ends with one JSON
line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json with --trace 0 and the
per_layer ones with --trace 1.  --workload all runs every workload both ways
and ends with a JSON line of all their results.  --seconds defaults to
run_seconds in BENCHMARK.json.  Timings are process CPU time; the exit code
is 1 when a check fails or a call raised.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time

import checks
import child
import passes
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

MIN_UNTRACED = 2
SETUP_SAMPLES = 25
CHILD_TIMEOUT_S = 170


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    return {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}


def _child(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-S", os.path.join(HERE, "child.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark pass failed with exit code {proc.returncode}")
    return proc.stdout


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _quantile(sorted_values: list[float], q: float) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]


def run_one(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and print its metrics; returns the final JSON object."""
    begin = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{w.name}-{seed}")
    stream = workloads.generate_stream(w, seed)
    lines = workloads.to_lines(w.fmt, [z for b in stream for z in b])
    _write_lines(stem + ".stream", lines)
    rps = child.import_rps()
    reader, reader_probes, reader_snapshot = passes.prepare_reader(rps, w, lines, seed)
    with open(stem + ".reader", "wb") as fh:
        pickle.dump((reader, reader_probes), fh)
    sampler_args = [w.measure, str(w.capacity), repr(w.damping), str(seed)]

    # with --trace 1 untraced and traced passes alternate; either way another
    # pass starts while it is expected to end within the time given, counted
    # from the start of the run, after the passes needed to compare digests
    runs: list[tuple[bool, dict]] = []
    pass_s: list[float] = []
    while True:
        n_traced = sum(t for t, _ in runs)
        n_plain = len(runs) - n_traced
        elapsed = time.perf_counter() - begin
        enough = n_plain >= MIN_UNTRACED and (n_traced or not trace)
        if enough and elapsed + statistics.mean(pass_s) > seconds:
            break
        traced = trace and bool(runs) and not runs[-1][0]
        t0 = time.perf_counter()
        out = _child(sampler_args + [
            w.name, stem + ".stream", stem + ".reader",
            "1" if traced else "0", stem + ".spans.jsonl" if traced else "-",
        ])
        pass_s.append(time.perf_counter() - t0)
        runs.append((traced, json.loads(out)))
    plain = [r for t, r in runs if not t]
    traced_runs = [r for t, r in runs if t]
    # each traced pass with the untraced pass just before it
    pairs = [(runs[i - 1][1], r) for i, (t, r) in enumerate(runs) if t]

    problems = []
    done: list[str] = []
    try:
        done = checks.check_pass(w, stream, plain[0])
        probes = workloads.probe_set(w, seed, plain[0]["snapshot"])
        done += checks.check_read(w, probes, plain[0])
        done += checks.check_oracle(rps, w, stream)
    except checks.CheckFailure as exc:
        problems.append(f"output check failed: {exc}")
    digests = {r["digest"] for _, r in runs} | {passes.snapshot_digest(reader_snapshot)}
    if len(digests) == 1:
        done.append(f"same reservoir digest from all {len(runs)} passes and the reader")
    else:
        problems.append(f"passes of one seed left different reservoirs: {sorted(digests)}")
    bits_digests = {d for _, r in runs for d in r["bits_digests"]}
    if len(bits_digests) == 1:
        done.append(f"same feature vectors from all {len(runs)} passes")
    else:
        problems.append(f"passes of one seed gave different feature vectors: {sorted(bits_digests)}")
    counts = {
        json.dumps({k: v for k, v in r["layers"].items() if isinstance(v, int)}, sort_keys=True)
        for r in traced_runs
    }
    if len(counts) > 1:
        problems.append("traced passes of one seed counted different work")

    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    if failed:
        problems.append(f"{failed} of {attempted} calls raised")
    units = _units(trace)
    if trace:
        metrics, notes = _layer_metrics(plain, traced_runs, pairs)
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(float(_child(sampler_args)))
        metrics, notes = _end_to_end(plain, setups)

    print(f"workload {w.name} seed {seed}: {w.batches} batches x {w.batch_size} {w.fmt} lines, "
          f"{w.measure}, k={w.capacity}, damping {w.damping:g}, "
          f"{w.probes} probes x {w.probe_rounds} rounds")
    print(f"passes: {len(plain)} untraced, {len(traced_runs)} traced, each in a fresh interpreter")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit:<6} {notes.get(name, '')}".rstrip())
    print(f"  {'error_rate':<34} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} calls raised)")
    print(f"digest {w.name} {seed} {digests.pop() if len(digests) == 1 else 'MISMATCH'}")
    print(f"feature digest {w.name} {seed} "
          f"{bits_digests.pop() if len(bits_digests) == 1 else 'MISMATCH'}")
    print("checks passed: " + "; ".join(done))
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def _end_to_end(plain: list[dict], setups: list[float]) -> tuple[dict, dict]:
    # CPU times at reference speed (passes.py): each batch's, and the reads
    # after it, divided by the machine's slowdown around it.  Totals are
    # pooled over the passes, so the read rate, whose rounds are identical
    # work, moves with the share of time the machine spent fast or slow
    # instead of jumping between the two as a median round would.  Every
    # pass runs the same batches: each batch's latency is its median over
    # the passes, which keeps what the batch costs and drops what the
    # machine did to one pass of it
    lat_ms = sorted(statistics.median(xs) * 1e3 for xs in zip(*(r["latencies_s"] for r in plain)))
    batches = sum(r["batches"] for r in plain)
    bits = sum(r["bits"] for r in plain)
    stream_s = sum(r["stream_s"] for r in plain)
    read_s = sum(r["read_s"] for r in plain)
    metrics = {
        "batches_per_s": batches / stream_s,
        "batch_p50_ms": _quantile(lat_ms, 0.50),
        "batch_p95_ms": _quantile(lat_ms, 0.95),
        "featurize_bits_per_s": bits / read_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    raw_stream = sum(r["stream_cpu_s"] for r in plain)
    raw_read = sum(r["read_cpu_s"] for r in plain)
    wall = statistics.mean(r["stream_wall_s"] for r in plain)
    slow = sorted(r["slowdown"] for r in plain)
    notes = {
        "batches_per_s": f"{len(plain)} passes, slowdown {slow[0]:.2f}-{slow[-1]:.2f}; raw "
                         f"{batches / raw_stream:.4g}/s, stream {raw_stream / len(plain):.3f} s "
                         f"CPU, {wall:.3f} s wall per pass",
        "batch_p50_ms": f"parse + process_batch, {len(lat_ms)} batches, each the median "
                        f"of {len(plain)} passes",
        "batch_p95_ms": f"{len(lat_ms) - round(0.95 * len(lat_ms))} samples beyond it",
        "featurize_bits_per_s": f"{plain[0]['bits'] / plain[0]['rounds']:.0f} bits per round, "
                                f"{sum(r['rounds'] for r in plain)} rounds; raw "
                                f"{bits / raw_read:.4g} bit/s, {raw_read / len(plain):.3f} s "
                                f"CPU per pass",
        "setup_s": f"import rps + build Catalog and sampler, median of {len(setups)} interpreters",
        "peak_rss_mb": "max resident set of a pass process",
    }
    return metrics, notes


def _layer_metrics(
    plain: list[dict], traced: list[dict], pairs: list[tuple[dict, dict]]
) -> tuple[dict, dict]:
    # times are medians over the traced passes; counts agree between them
    metrics = {
        name: value if isinstance(value, int) else statistics.median(
            r["layers"][name] for r in traced)
        for name, value in traced[0]["layers"].items()
    }
    # adjacent passes share most of the machine's slow stretches
    overheads = sorted(t["stream_s"] / u["stream_s"] - 1 for u, t in pairs)
    metrics["trace.overhead"] = statistics.median(overheads)
    # counting every is_subset call would dominate the read phase, so its
    # time comes from the untraced passes, where it is the model layer alone,
    # pooled over their rounds as featurize_bits_per_s is
    n_rounds = sum(r["rounds"] for r in plain)
    read_cpu = sum(r["read_s"] for r in plain)
    metrics["model.featurize_s"] = read_cpu / n_rounds
    metrics["model.ns_per_bit"] = read_cpu * 1e9 / sum(r["bits"] for r in plain)
    notes = {
        "engine.accept_ratio":
            f"{metrics['engine.batches_accepted']} of {metrics['engine.batches_seen']} batches",
        "weighting.table_hit_ratio": f"of {metrics['weighting.table_lookups']} lookups",
        "trace.overhead": f"median of {len(pairs)} traced/untraced pass pairs, "
                          f"range {overheads[0]:+.3f} to {overheads[-1]:+.3f}",
        "engine.self_s": "process_batch minus its traced children",
        "model.featurize_s": f"one round of the probe set, mean of {n_rounds} rounds "
                             f"of {len(plain)} untraced passes",
        "model.ns_per_bit": f"{plain[0]['bits'] / plain[0]['rounds']:.0f} bits per round",
        "formats.us_per_line": f"{traced[0]['lines']} lines/pass",
    }
    return metrics, notes


def run_all(seed: int, seconds: float) -> int:
    results = {}
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_one(w, seed, seconds, bool(trace))
            print(json.dumps(result))
            results.setdefault(w.name, {})[f"trace{trace}"] = result
    print(json.dumps({"seed": seed, "seconds": seconds, "results": results}))
    return 0 if all(r["correct"] for by in results.values() for r in by.values()) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.BY_NAME, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        child.import_rps()
    except ImportError as exc:
        print(f"cannot import rps from this checkout: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    result = run_one(workloads.BY_NAME[args.workload], args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
