"""Command line entry points: rps sample | featurize."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from typing import Iterator, TextIO

from .engine import Featurizer, ReservoirSampler
from .errors import ConfigurationError, ParseError, RpsError
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
from .model import Catalog


def _default_seed() -> int:
    env = os.environ.get("RPS_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(f"RPS_SEED must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rps",
        description="Pattern sampling over batched streams with a fixed-size reservoir.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    sample = sub.add_parser("sample", help="maintain a reservoir over a stream, emit snapshots")
    featurize = sub.add_parser("featurize", help="turn instances into reservoir containment bits")
    for p in (sample, featurize):
        p.add_argument("--input", default="-", help="input path, or - for stdin")
        p.add_argument("--format", required=True, choices=FORMATS, dest="fmt")

    sample.add_argument(
        "--batch-size",
        default="marker",
        help="instances per batch (int), or 'marker' for blank-line separators",
    )
    sample.add_argument(
        "--timestamps",
        default="ordinal",
        choices=("ordinal", "explicit"),
        help="ordinal: batches at t=1,2,...; explicit: leading timestamp column",
    )
    sample.add_argument("--measure", default="freq", help="freq|area|decay:<a>|util|avgutil")
    sample.add_argument("--min-norm", type=int, default=1)
    sample.add_argument("--max-norm", type=int, default=None)
    sample.add_argument("--damping", type=float, default=0.0)
    sample.add_argument("--reservoir-size", type=int, default=100)
    sample.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed (default: RPS_SEED env var, else 0)",
    )
    sample.add_argument("--output", default="-", help="snapshot path, or - for stdout")
    sample.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="also emit a snapshot after every N batches (0 = final only)",
    )
    sample.add_argument("--json", default=None, help="write a JSON run summary to this path")
    sample.set_defaults(run=_run_sample)

    featurize.add_argument("--snapshot", required=True, help="snapshot file from 'rps sample'")
    featurize.add_argument("--output", default="-", help="CSV path, or - for stdout")
    featurize.set_defaults(run=_run_featurize)
    return top


def _utf8(stream: TextIO) -> TextIO:
    # "-" is strict UTF-8 whatever the locale or PYTHONIOENCODING says; a
    # stream a caller swapped in (a StringIO) holds text already
    if isinstance(stream, io.TextIOWrapper):
        stream.reconfigure(encoding="utf-8", errors="strict")
    return stream


@contextlib.contextmanager
def _open_in(path: str) -> Iterator[TextIO]:
    try:
        if path == "-":
            yield _utf8(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                yield fh
    except UnicodeDecodeError as exc:
        # decoded in chunks, so the fault has no line number
        name = "stdin" if path == "-" else repr(path)
        raise ParseError(f"{name} is not UTF-8 text ({exc.reason})") from None


@contextlib.contextmanager
def _open_out(path: str) -> Iterator[TextIO]:
    if path == "-":
        yield _utf8(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _run_sample(args: argparse.Namespace) -> int:
    if args.snapshot_every < 0:
        raise ConfigurationError(
            f"--snapshot-every must be >= 0, got {args.snapshot_every}"
        )
    catalog = Catalog()
    sampler = ReservoirSampler(
        parse_measure(args.measure, args.min_norm, args.max_norm),
        capacity=args.reservoir_size,
        damping=args.damping,
        seed=args.seed if args.seed is not None else _default_seed(),
    )
    # the batch arguments are checked before the output is opened
    with _open_in(args.input) as fin:
        batches = iter_batches(fin, args.fmt, catalog, args.batch_size, args.timestamps)
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
