"""Command line entry points: rps sample | featurize | bench."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import statistics
import sys
import time
from typing import Iterator, TextIO

from .engine import Featurizer, ReservoirSampler
from .errors import ConfigurationError, RpsError
from .formats import (
    FINAL_HEADER,
    FORMATS,
    final_snapshot_lines,
    iter_batches,
    pattern_text,
    read_instances,
    read_snapshot,
    write_snapshot,
)
from .measures import format_measure, parse_measure
from .model import Batch, Catalog


def _default_seed() -> int:
    env = os.environ.get("RPS_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(f"RPS_SEED must be an integer, got {env!r}") from None


def _add_stream_args(p: argparse.ArgumentParser, batching: bool = True) -> None:
    p.add_argument("--input", default="-", help="input path, or - for stdin")
    p.add_argument("--format", required=True, choices=FORMATS, dest="fmt")
    if not batching:  # featurize reads instances, not batches
        return
    p.add_argument(
        "--batch-size",
        default="marker",
        help="instances per batch (int), or 'marker' for blank-line separators",
    )
    p.add_argument(
        "--timestamps",
        default="ordinal",
        choices=("ordinal", "explicit"),
        help="ordinal: batches at t=1,2,...; explicit: leading timestamp column",
    )


def _add_sampler_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measure", default="freq", help="freq|area|decay:<a>|util|avgutil")
    p.add_argument("--min-norm", type=int, default=1)
    p.add_argument("--max-norm", type=int, default=None)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--reservoir-size", type=int, default=100)
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed (default: RPS_SEED env var, else 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rps",
        description="Pattern sampling over batched streams with a fixed-size reservoir.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="maintain a reservoir over a stream, emit snapshots")
    _add_stream_args(p)
    _add_sampler_args(p)
    p.add_argument("--output", default="-", help="snapshot path, or - for stdout")
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="also emit a snapshot after every N batches (0 = final only)",
    )
    p.add_argument("--json", default=None, help="write a JSON run summary to this path")
    p.set_defaults(run=_run_sample)

    p = sub.add_parser("featurize", help="turn instances into reservoir containment bits")
    _add_stream_args(p, batching=False)
    p.add_argument("--snapshot", required=True, help="snapshot file from 'rps sample'")
    p.add_argument("--output", default="-", help="CSV path, or - for stdout")
    p.set_defaults(run=_run_featurize)

    p = sub.add_parser("bench", help="time a stream pass per damping setting")
    _add_stream_args(p)
    _add_sampler_args(p)
    p.add_argument(
        "--damping-grid",
        default=None,
        help="comma-separated damping values to compare (overrides --damping)",
    )
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--json", default=None, help="write results as JSON to this path")
    p.set_defaults(run=_run_bench)
    return top


@contextlib.contextmanager
def _open_in(path: str) -> Iterator[TextIO]:
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh


@contextlib.contextmanager
def _open_out(path: str) -> Iterator[TextIO]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _make_sampler(args: argparse.Namespace, damping: float | None = None) -> ReservoirSampler:
    spec = parse_measure(args.measure, args.min_norm, args.max_norm)
    seed = args.seed if args.seed is not None else _default_seed()
    return ReservoirSampler(
        spec,
        capacity=args.reservoir_size,
        damping=args.damping if damping is None else damping,
        seed=seed,
    )


def _batches(args: argparse.Namespace, catalog: Catalog, fh: TextIO) -> Iterator[Batch]:
    return iter_batches(fh, args.fmt, catalog, args.batch_size, args.timestamps)


def _run_sample(args: argparse.Namespace) -> int:
    if args.snapshot_every < 0:
        raise ConfigurationError(
            f"--snapshot-every must be >= 0, got {args.snapshot_every}"
        )
    catalog = Catalog()
    sampler = _make_sampler(args)
    # the batch arguments are checked before the output is opened
    with _open_in(args.input) as fin:
        batches = _batches(args, catalog, fin)
        with _open_out(args.output) as fout:
            for batch in batches:
                sampler.process_batch(batch)
                seen = sampler.batches_seen
                if args.snapshot_every and seen % args.snapshot_every == 0:
                    header = f"after batch {seen} t {batch.timestamp:g}"
                    write_snapshot(fout, sampler.snapshot(), catalog, header=header)
            header = f"{FINAL_HEADER} {sampler.batches_seen}" if args.snapshot_every else None
            write_snapshot(fout, sampler.snapshot(), catalog, header=header)
    if args.json:
        summary = {
            "measure": format_measure(sampler.spec),
            "min_norm": sampler.spec.min_norm,
            "max_norm": sampler.spec.max_norm,
            "damping": sampler.damping,
            "capacity": sampler.capacity,
            "batches_seen": sampler.batches_seen,
            "batches_accepted": sampler.batches_accepted,
            "insertions": sampler.insertions,
            "entries": [
                {"norm": x.norm, "pattern": pattern_text(x, catalog), "timestamp": t}
                for t, x in sampler.snapshot()
            ],
        }
        with _open_out(args.json) as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


def _run_featurize(args: argparse.Namespace) -> int:
    catalog = Catalog()
    with _open_in(args.snapshot) as fh:
        entries = read_snapshot(final_snapshot_lines(fh), catalog)
    if not entries:
        raise ConfigurationError(f"snapshot {args.snapshot!r} holds no patterns")
    featurize = Featurizer([x for _, x in entries])
    missing_labels = 0
    with _open_in(args.input) as fin, _open_out(args.output) as fout:
        writer = csv.writer(fout, lineterminator="\n")
        writer.writerow([f"f{i}" for i in range(1, len(entries) + 1)] + ["label"])
        for _, z, label in read_instances(fin, args.fmt, catalog):
            if z is None:
                continue
            if label is None:
                missing_labels += 1
                label = ""
            writer.writerow(featurize(z) + [label])
    if missing_labels:
        print(
            f"warning: {missing_labels} instance(s) had no label; wrote empty strings",
            file=sys.stderr,
        )
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ConfigurationError(f"--repeats must be >= 1, got {args.repeats}")
    grid = [args.damping]
    if args.damping_grid is not None:
        try:
            grid = [float(tok) for tok in args.damping_grid.split(",") if tok.strip()]
        except ValueError:
            grid = []
        if not grid:
            raise ConfigurationError(
                f"--damping-grid takes comma-separated numbers, got {args.damping_grid!r}"
            )
    catalog = Catalog()
    with _open_in(args.input) as fh:
        stream = list(_batches(args, catalog, fh))
    if not stream:
        raise ConfigurationError("empty stream, nothing to measure")
    rows = []
    for gamma in grid:
        times = []
        for _ in range(args.repeats):
            sampler = _make_sampler(args, damping=gamma)
            start = time.perf_counter()
            for batch in stream:
                sampler.process_batch(batch)
            times.append(time.perf_counter() - start)
        rows.append(
            {
                "damping": gamma,
                "batches": len(stream),
                "accepted": sampler.batches_accepted,
                "insertions": sampler.insertions,
                "mean_s": statistics.mean(times),
                "stdev_s": statistics.stdev(times) if len(times) > 1 else 0.0,
            }
        )
    print(f"{'damping':>8} {'batches':>8} {'accepted':>9} {'insertions':>11} "
          f"{'mean_s':>10} {'stdev_s':>10}")
    for r in rows:
        print(
            f"{r['damping']:>8g} {r['batches']:>8d} {r['accepted']:>9d} "
            f"{r['insertions']:>11d} {r['mean_s']:>10.4f} {r['stdev_s']:>10.4f}"
        )
    if args.json:
        with _open_out(args.json) as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConfigurationError as exc:
        print(f"rps: {exc}", file=sys.stderr)
        return 2
    except (RpsError, OSError) as exc:
        print(f"rps: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
