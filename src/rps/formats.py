"""Line-oriented input formats, pattern text form, and batch assembly.

Formats:

  tx        one plain itemset per line, whitespace-separated tokens, with an
            optional trailing "|label":       a b c|sports
  wtx       one weighted itemset per line, "items:TU:weights" where TU must
            equal the summed weights:         2 3 5:10:2 3 5
  seq-spmf  one sequence per line in SPMF notation, "-1" ends each itemset
            and "-2" ends the line, with an optional leading "label|":
                                              greet|1 2 -1 3 -1 -2

Each format has one parser, looked up once per stream, that reads a line to
its row and label.  A tx row is the set of the line's distinct item ids; a
wtx or seq-spmf row is its instance.  Every parser, the snapshot line's
too, runs all the checks that can refuse a line before it interns the
line's first token, so a refused line leaves the catalog as it was; the
line's tokens are then interned in token order in one Catalog call, and a
wtx or seq-spmf row is built without the constructor's checks, made already.

parse_instance and read_instances build each line's instance at once;
iter_batches puts the rows in its batches without Batch's checks, which the
parser made.  Batches carry no labels; read_instances yields them.

Pattern text is "{a,b}" for itemset patterns and "<{a}{b,c}>" for sequence
patterns, tokens in item-id (interning) order, so the catalog refuses a
token that holds "{", "}" or ",".  Snapshot files hold one line per slot,
"norm<TAB>pattern<TAB>timestamp"; lines starting with '#' are comments.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Iterator, TextIO

from .errors import ConfigurationError, ParseError
from .model import (
    Batch,
    Catalog,
    Instance,
    Pattern,
    PlainItemset,
    Sequence,
    WeightedItemset,
    _unchecked,
    instance_of,
)

# what a parser reads a line to: a tx line's set of ids, else its instance
Row = set[int] | Instance

FORMATS = ("tx", "wtx", "seq-spmf")

# header comment of the last snapshot when a file holds several
FINAL_HEADER = "final after batch"

_WEIGHT_SUM_TOL = 1e-6
_GROUP_RE = re.compile(r"\{([^{}]*)\}")


def parse_instance(
    line: str, fmt: str, catalog: Catalog
) -> tuple[Instance, str | None]:
    """One non-blank line -> (instance, label or None)."""
    row, label = _parser(fmt)(line, catalog)
    return instance_of(row), label


def _parse_tx(line: str, catalog: Catalog) -> tuple[set[int], str | None]:
    """A tx line's row, the set of its distinct item ids, and its label."""
    body, sep, label = line.partition("|")
    tokens = body.split()
    if not tokens:
        raise ParseError("empty itemset")
    return catalog.id_set(tokens), (label.strip() if sep else None)


def _parse_wtx(line: str, catalog: Catalog) -> tuple[WeightedItemset, str | None]:
    body, sep, label = line.partition("|")
    parts = body.split(":")
    if len(parts) != 3:
        raise ParseError(f"expected items:TU:weights, got {body.strip()!r}")
    tokens = parts[0].split()
    weight_tokens = parts[2].split()
    if not tokens:
        raise ParseError("empty itemset")
    if len(tokens) != len(weight_tokens):
        raise ParseError(
            f"{len(tokens)} items but {len(weight_tokens)} weights"
        )
    try:
        declared = float(parts[1])
        weights = list(map(float, weight_tokens))
    except ValueError as exc:
        raise ParseError(f"bad number in {body.strip()!r}: {exc}") from None
    try:
        total = math.fsum(weights)
    except OverflowError:  # finite weights whose sum is not
        raise ParseError(
            f"sum of weights {parts[2].strip()!r} exceeds the largest float"
        ) from None
    except ValueError:  # inf and -inf among the weights
        total = math.nan
    if not math.isfinite(total):
        raise ParseError(f"item weights must be finite, got {parts[2].strip()!r}")
    # a declared total that is not finite never matches a finite sum
    if not math.isclose(total, declared, rel_tol=_WEIGHT_SUM_TOL, abs_tol=_WEIGHT_SUM_TOL):
        raise ParseError(
            f"declared total utility {declared} != sum of weights {total}"
        )
    if len(set(tokens)) != len(tokens):
        raise ParseError(f"duplicate item in weighted itemset {parts[0].strip()!r}")
    if min(weights) <= 0.0:
        raise ParseError(f"item weights must be positive: {tuple(weights)!r}")
    z = _unchecked(WeightedItemset, *zip(*sorted(zip(catalog.ids(tokens), weights))))
    return z, (label.strip() if sep else None)


def _parse_seq(line: str, catalog: Catalog) -> tuple[Sequence, str | None]:
    head, sep, rest = line.partition("|")
    label = head.strip() if sep else None
    body = rest if sep else line
    tokens = body.split()
    if not tokens:
        raise ParseError("empty sequence")
    groups: list[list[str]] = []  # each itemset's tokens, interned once checked
    current: list[str] = []
    terminated = False
    for tok in tokens:
        if terminated:
            raise ParseError(f"content after end marker: {tok!r}")
        if tok == "-1":
            if not current:
                raise ParseError("empty itemset before -1")
            groups.append(current)
            current = []
        elif tok == "-2":
            if current:
                groups.append(current)
                current = []
            terminated = True
        else:
            current.append(tok)
    if not terminated:
        raise ParseError("sequence line is missing the -2 end marker")
    if not groups:
        raise ParseError("empty sequence")
    return _unchecked(Sequence, catalog.itemsets(groups)), label


_PARSERS = {"tx": _parse_tx, "wtx": _parse_wtx, "seq-spmf": _parse_seq}


def _parser(fmt: str) -> Callable[[str, Catalog], tuple[Row, str | None]]:
    try:
        return _PARSERS[fmt]
    except KeyError:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}") from None


def _num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def serialize_instance(
    z: Instance, fmt: str, catalog: Catalog, label: str | None = None
) -> str:
    """Inverse of parse_instance, up to whitespace."""
    if fmt == "tx":
        if not isinstance(z, PlainItemset):
            raise ParseError(f"tx holds plain itemsets, not {type(z).__name__}")
        line = " ".join(catalog.token(i) for i in z.items)
        return f"{line}|{label}" if label else line
    if fmt == "wtx":
        if not isinstance(z, WeightedItemset):
            raise ParseError(f"wtx holds weighted itemsets, not {type(z).__name__}")
        items = " ".join(catalog.token(i) for i in z.items)
        weights = " ".join(_num(w) for w in z.weights)
        line = f"{items}:{_num(z.total_weight)}:{weights}"
        return f"{line}|{label}" if label else line
    if fmt == "seq-spmf":
        if not isinstance(z, Sequence):
            raise ParseError(f"seq-spmf holds sequences, not {type(z).__name__}")
        chunks = []
        for e in z.elements:
            chunks.extend(catalog.token(i) for i in e)
            chunks.append("-1")
        chunks.append("-2")
        line = " ".join(chunks)
        return f"{label}|{line}" if label else line
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def pattern_text(x: Pattern, catalog: Catalog) -> str:
    groups = [
        "{" + ",".join(catalog.token(i) for i in e) + "}" for e in x.elements
    ]
    if len(groups) == 1:
        return groups[0]
    return "<" + "".join(groups) + ">"


def parse_pattern(text: str, catalog: Catalog) -> Pattern:
    """Inverse of pattern_text; a refused text interns nothing."""
    return Pattern(catalog.itemsets(_pattern_groups(text)))


def _pattern_groups(text: str) -> list[list[str]]:
    """The checked token groups of a pattern text, one per itemset."""
    t = text.strip()
    if t.startswith("<") and t.endswith(">"):
        inner = t[1:-1]
    elif t.startswith("{") and t.endswith("}"):
        inner = t
    else:
        raise ParseError(f"bad pattern text {text!r}")
    groups = _GROUP_RE.findall(inner)
    if not groups or "".join(f"{{{g}}}" for g in groups) != inner.replace(" ", ""):
        raise ParseError(f"bad pattern text {text!r}")
    token_groups = [[tok.strip() for tok in g.split(",") if tok.strip()] for g in groups]
    if not all(token_groups):
        raise ParseError(f"empty itemset in pattern text {text!r}")
    return token_groups


def read_instances(
    lines: Iterable[str], fmt: str, catalog: Catalog
) -> Iterator[tuple[int, Instance | None, str | None]]:
    """Yield (line_no, instance, label); instance is None for blank lines.

    Comment lines ('#') are skipped outright; blank lines are reported so
    batch assembly can treat them as separators.  Parse errors are re-raised
    with the 1-based line number attached.
    """
    return (
        (line_no, row if row is None else instance_of(row), label)
        for line_no, row, label in _read(lines, _parser(fmt), catalog)
    )


def _read(
    lines: Iterable[str], parse: Callable[[str, Catalog], tuple], catalog: Catalog
) -> Iterator[tuple]:
    """(line_no, *parse(line, catalog)) per stripped non-blank line, and
    (line_no, None, None) per blank line, with read_instances' comments
    and line numbers."""
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            yield line_no, None, None
            continue
        try:
            first, second = parse(stripped, catalog)
        except ParseError as exc:
            raise ParseError(str(exc), line_no) from None
        yield line_no, first, second


def iter_batches(
    lines: Iterable[str],
    fmt: str,
    catalog: Catalog,
    batch_size: int | str = "marker",
    timestamps: str = "ordinal",
) -> Iterator[Batch]:
    """Group parsed instances into timestamped batches.

    timestamps="ordinal": batch timestamps are 1, 2, 3, ...; batch_size is
    either an int (chunk every N instances, blank lines ignored) or
    "marker" (a blank line closes the batch).

    timestamps="explicit": each line starts with a timestamp column and
    consecutive lines with equal timestamps form one batch; batch_size must
    be "marker", and timestamps must be finite and must not decrease.

    Labels are not kept; read_instances gives them.  An unknown format
    raises ParseError, and a bad batch size or timestamp mode
    ConfigurationError, from the call, before any line is read.
    """
    parse = _parser(fmt)
    if timestamps == "explicit":
        if batch_size != "marker":
            raise ConfigurationError(f"explicit timestamps take no batch size, got {batch_size!r}")
        return _iter_batches_explicit(lines, parse, catalog)
    if timestamps != "ordinal":
        raise ConfigurationError(f"unknown timestamp mode {timestamps!r}")
    if isinstance(batch_size, str) and batch_size != "marker":
        try:
            batch_size = int(batch_size)
        except ValueError:
            raise ConfigurationError(f"bad batch size {batch_size!r}") from None
    elif batch_size != "marker" and type(batch_size) is not int:  # a bool too
        raise ConfigurationError(f"bad batch size {batch_size!r}")
    if isinstance(batch_size, int) and batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    return _iter_batches_ordinal(lines, parse, catalog, batch_size)


def _iter_batches_ordinal(
    lines: Iterable[str], parse: Callable, catalog: Catalog, batch_size: int | str
) -> Iterator[Batch]:
    t = 0.0
    pending: list[Row] = []
    for _, row, _ in _read(lines, parse, catalog):
        if row is not None:
            pending.append(row)
            if len(pending) != batch_size:
                continue
        elif batch_size != "marker" or not pending:
            continue
        t += 1.0
        yield _unchecked(Batch, t, tuple(pending))
        pending = []
    if pending:
        yield _unchecked(Batch, t + 1.0, tuple(pending))


def _iter_batches_explicit(
    lines: Iterable[str], parse: Callable, catalog: Catalog
) -> Iterator[Batch]:
    last = -math.inf

    def parse_stamped(line: str, catalog: Catalog) -> tuple[float, Row]:
        # the stamp is checked in full before the row is parsed
        nonlocal last
        first = line.split(None, 1)[0]  # ended by any whitespace
        try:
            t = float(first)
        except ValueError:
            raise ParseError(f"bad timestamp {first!r}") from None
        if not math.isfinite(t):
            raise ParseError(f"timestamp {t} is not finite")
        if t < last:
            raise ParseError(f"timestamp {t} decreases below {last}")
        last = t
        return t, parse(line[len(first) :].lstrip(), catalog)[0]

    pending: list[Row] = []
    current_t: float | None = None
    for _, t, row in _read(lines, parse_stamped, catalog):
        if row is None:
            continue
        if t != current_t and pending:
            yield _unchecked(Batch, current_t, tuple(pending))
            pending = []
        current_t = t
        pending.append(row)
    if pending:
        yield _unchecked(Batch, current_t, tuple(pending))


def write_snapshot(
    out: TextIO,
    entries: Iterable[tuple[float, Pattern]],
    catalog: Catalog,
    header: str | None = None,
) -> None:
    """One norm<TAB>pattern<TAB>timestamp line per slot."""
    if header:
        out.write(f"# {header}\n")
    for t, x in entries:
        out.write(f"{x.norm}\t{pattern_text(x, catalog)}\t{_num(t)}\n")


def final_snapshot_lines(lines: Iterable[str]) -> list[str]:
    """The lines of a file written with periodic snapshots, every line up to
    the last '# final after batch N' header blanked: read_snapshot skips
    them and reports the file's own line numbers."""
    lines = list(lines)
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].startswith(f"# {FINAL_HEADER} "):
            return [""] * (i + 1) + lines[i + 1 :]
    return lines


def read_snapshot(
    lines: Iterable[str], catalog: Catalog
) -> list[tuple[float, Pattern]]:
    """Inverse of write_snapshot; comments and blank lines are skipped, and
    errors carry line numbers as read_instances' do."""
    return [
        (t, x) for _, t, x in _read(lines, _parse_snapshot_line, catalog) if x is not None
    ]


def _parse_snapshot_line(line: str, catalog: Catalog) -> tuple[float, Pattern]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ParseError(f"expected norm<TAB>pattern<TAB>timestamp, got {line!r}")
    try:
        norm = int(parts[0])
        t = float(parts[2])
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if not math.isfinite(t):
        raise ParseError(f"timestamp {t} is not finite")
    groups = _pattern_groups(parts[1])
    have = sum(len(set(g)) for g in groups)
    if have != norm:
        raise ParseError(f"norm column says {norm} but pattern has norm {have}")
    return t, Pattern(catalog.itemsets(groups))
