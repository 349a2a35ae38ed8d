"""CLI behavior through cli.main with real files."""

import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

import rps.cli
from rps.cli import main
from rps.formats import read_snapshot
from rps.model import Catalog, matches
from rps.formats import parse_instance

TX_LINES = "\n".join(
    [
        "a b c|x",
        "a c|y",
        "",
        "b c|x",
        "",
        "a b|y",
        "c|x",
        "",
    ]
)

SEQ_LINES = "\n".join(
    [
        "p|1 2 -1 3 -1 -2",
        "q|2 -1 1 3 -1 -2",
        "",
        "p|3 -1 1 -1 -2",
        "",
    ]
)


@pytest.fixture()
def tx_file(tmp_path):
    path = tmp_path / "stream.tx"
    path.write_text(TX_LINES, encoding="utf-8")
    return path


@pytest.fixture()
def seq_file(tmp_path):
    path = tmp_path / "stream.spmf"
    path.write_text(SEQ_LINES, encoding="utf-8")
    return path


def _sample_args(tx_file, out, extra=()):
    return [
        "sample",
        "--input", str(tx_file),
        "--format", "tx",
        "--reservoir-size", "8",
        "--seed", "3",
        "--output", str(out),
        *extra,
    ]


def test_sample_writes_snapshot(tx_file, tmp_path):
    out = tmp_path / "snap.tsv"
    assert main(_sample_args(tx_file, out)) == 0
    entries = read_snapshot(out.read_text().splitlines(), Catalog())
    assert len(entries) == 8
    assert all(x.norm >= 1 for _, x in entries)


def test_sample_is_seed_deterministic(tx_file, tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("a.tsv", "b.tsv", "c.tsv"))
    main(_sample_args(tx_file, out1))
    main(_sample_args(tx_file, out2))
    assert out1.read_bytes() == out2.read_bytes()
    main([
        "sample", "--input", str(tx_file), "--format", "tx",
        "--reservoir-size", "8", "--seed", "4", "--output", str(out3),
    ])
    assert out1.read_bytes() != out3.read_bytes()


def test_seed_env_fallback(tx_file, tmp_path, monkeypatch):
    out_env, out_flag = tmp_path / "env.tsv", tmp_path / "flag.tsv"
    monkeypatch.setenv("RPS_SEED", "3")
    main([
        "sample", "--input", str(tx_file), "--format", "tx",
        "--reservoir-size", "8", "--output", str(out_env),
    ])
    monkeypatch.delenv("RPS_SEED")
    main(_sample_args(tx_file, out_flag))
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_sample_json_summary(tx_file, tmp_path):
    out = tmp_path / "snap.tsv"
    summary_path = tmp_path / "run.json"
    code = main(_sample_args(tx_file, out, ["--json", str(summary_path)]))
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["capacity"] == 8
    assert summary["measure"] == "freq"
    assert summary["batches_seen"] == 3
    assert summary["batches_accepted"] >= 1
    assert len(summary["entries"]) == 8
    for entry in summary["entries"]:
        assert set(entry) == {"norm", "pattern", "timestamp"}
    assert "realisation_mode" not in summary


def test_sample_snapshot_every(tx_file, tmp_path):
    out = tmp_path / "snaps.tsv"
    main(_sample_args(tx_file, out, ["--snapshot-every", "1"]))
    text = out.read_text()
    # three per-batch snapshots plus the final one, headers included
    assert text.count("# after batch") == 3
    assert "# final after batch 3" in text
    # the concatenation still parses; 4 snapshots x 8 slots
    entries = read_snapshot(io.StringIO(text), Catalog())
    assert len(entries) == 32


def test_sample_measure_and_norms(seq_file, tmp_path):
    out = tmp_path / "snap.tsv"
    code = main([
        "sample", "--input", str(seq_file), "--format", "seq-spmf",
        "--measure", "decay:0.5", "--min-norm", "2", "--max-norm", "3",
        "--reservoir-size", "5", "--seed", "1", "--output", str(out),
    ])
    assert code == 0
    entries = read_snapshot(out.read_text().splitlines(), Catalog())
    assert len(entries) == 5
    assert all(2 <= x.norm <= 3 for _, x in entries)


def test_featurize_round_trip(tx_file, tmp_path):
    snap = tmp_path / "snap.tsv"
    main(_sample_args(tx_file, snap))
    out = tmp_path / "features.csv"
    code = main([
        "featurize",
        "--snapshot", str(snap),
        "--input", str(tx_file),
        "--format", "tx",
        "--output", str(out),
    ])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [f"f{i}" for i in range(1, 9)] + ["label"]
    assert len(rows) == 1 + 5  # header + five instances
    # bits must match library-side containment
    cat = Catalog()
    patterns = [x for _, x in read_snapshot(snap.read_text().splitlines(), cat)]
    lines = [ln for ln in TX_LINES.splitlines() if ln.strip()]
    for row, line in zip(rows[1:], lines):
        z, label = parse_instance(line, "tx", cat)
        assert row[:-1] == [str(1 if matches(x, z) else 0) for x in patterns]
        assert row[-1] == label


def test_featurize_warns_on_missing_labels(tx_file, tmp_path, capsys):
    snap = tmp_path / "snap.tsv"
    main(_sample_args(tx_file, snap))
    unlabeled = tmp_path / "plain.tx"
    unlabeled.write_text("a b\nc\n", encoding="utf-8")
    out = tmp_path / "features.csv"
    assert main([
        "featurize", "--snapshot", str(snap), "--input", str(unlabeled),
        "--format", "tx", "--output", str(out),
    ]) == 0
    assert "no label" in capsys.readouterr().err
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [r[-1] for r in rows[1:]] == ["", ""]


def test_featurize_empty_snapshot_errors(tx_file, tmp_path, capsys):
    snap = tmp_path / "empty.tsv"
    snap.write_text("", encoding="utf-8")
    code = main([
        "featurize", "--snapshot", str(snap), "--input", str(tx_file),
        "--format", "tx", "--output", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "no patterns" in capsys.readouterr().err


def test_bad_measure_exits_2(tx_file, capsys):
    code = main([
        "sample", "--input", str(tx_file), "--format", "tx",
        "--measure", "lift", "--output", "-",
    ])
    assert code == 2
    assert "unknown measure" in capsys.readouterr().err


def test_parse_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.wtx"
    bad.write_text("a b:9:1 1\n", encoding="utf-8")
    code = main([
        "sample", "--input", str(bad), "--format", "wtx",
        "--measure", "util", "--output", "-",
    ])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_a_token_with_a_pattern_delimiter_exits_1_with_its_line(tmp_path, capsys):
    # a snapshot slot {a,b} would not read back, so the token is refused
    bad = tmp_path / "bad.tx"
    bad.write_text("x\n\nx a{b}\n", encoding="utf-8")
    code = main([
        "sample", "--input", str(bad), "--format", "tx",
        "--reservoir-size", "2", "--seed", "1", "--output", str(tmp_path / "snap.tsv"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "rps: line 3: token 'a{b}' holds a pattern delimiter '{', '}' or ','\n"
    )


def test_missing_input_exits_1(tmp_path, capsys):
    code = main([
        "sample", "--input", str(tmp_path / "nope.tx"), "--format", "tx",
    ])
    assert code == 1


def test_empty_input_gives_empty_snapshot(tmp_path):
    empty = tmp_path / "empty.tx"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "snap.tsv"
    assert main(_sample_args(empty, out)) == 0
    assert read_snapshot(out.read_text().splitlines(), Catalog()) == []


def test_featurize_reads_only_the_final_snapshot(tmp_path):
    stream = tmp_path / "six.tx"
    stream.write_text("a b c\na c\nb c\na b\nc d\na d\n", encoding="utf-8")
    snap = tmp_path / "snaps.tsv"
    assert main([
        "sample", "--input", str(stream), "--format", "tx", "--batch-size", "1",
        "--reservoir-size", "3", "--seed", "5", "--snapshot-every", "2",
        "--output", str(snap),
    ]) == 0
    text = snap.read_text()
    assert text.count("# after batch") == 3
    final = text.split("# final after batch 6\n")[1]
    out = tmp_path / "features.csv"
    assert main([
        "featurize", "--snapshot", str(snap), "--input", str(stream),
        "--format", "tx", "--output", str(out),
    ]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["f1", "f2", "f3", "label"]
    cat = Catalog()
    patterns = [x for _, x in read_snapshot(io.StringIO(final), cat)]
    for row, line in zip(rows[1:], stream.read_text().splitlines()):
        z, _ = parse_instance(line, "tx", cat)
        assert row[:-1] == [str(1 if matches(x, z) else 0) for x in patterns]


@pytest.mark.parametrize(
    "bad, message",
    [
        ("1\t{zz,}x\t2", "bad pattern text '{zz,}x'"),
        ("2\t{zz}\t2", "norm column says 2 but pattern has norm 1"),
        ("1\t{zz}\tnan", "timestamp nan is not finite"),
        ("1\t{zz}\t-inf", "timestamp -inf is not finite"),
    ],
)
def test_featurize_reports_the_snapshot_file_line(tx_file, tmp_path, capsys, bad, message):
    snap = tmp_path / "snaps.tsv"
    snap.write_text(
        f"# after batch 1\n1\t{{a}}\t1\n# final after batch 2\n1\t{{b}}\t2\n{bad}\n",
        encoding="utf-8",
    )
    code = main([
        "featurize", "--snapshot", str(snap), "--input", str(tx_file),
        "--format", "tx", "--output", str(tmp_path / "features.csv"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"rps: line 5: {message}\n"


def test_explicit_non_finite_timestamp_exits_1_with_its_line(tmp_path, capsys):
    stream = tmp_path / "stamped.tx"
    stream.write_text("1 a b\nnan c\n", encoding="utf-8")
    code = main([
        "sample", "--input", str(stream), "--format", "tx",
        "--timestamps", "explicit", "--output", "-",
    ])
    assert code == 1
    assert capsys.readouterr().err == "rps: line 2: timestamp nan is not finite\n"


def test_oversized_transaction_exits_1_with_one_line(tmp_path, capsys):
    big = tmp_path / "big.tx"
    big.write_text(" ".join(f"i{n}" for n in range(1100)) + "\n", encoding="utf-8")
    code = main([
        "sample", "--input", str(big), "--format", "tx", "--output", "-",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("rps: ") and "1100-item PlainItemset" in err


def test_wtx_weight_overflow_exits_1_with_one_line(tmp_path, capsys):
    # each weight is finite, their sum is not
    bad = tmp_path / "bad.wtx"
    bad.write_text("a:1:1\na b:1e308:1e308 1e308\n", encoding="utf-8")
    code = main([
        "sample", "--input", str(bad), "--format", "wtx",
        "--measure", "util", "--output", "-",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("rps: line 2: ") and "exceeds the largest float" in err


@pytest.mark.parametrize(
    "extra, seed_env, message",
    [
        (["--snapshot-every", "-1"], None, "--snapshot-every must be >= 0"),
        ([], "abc", "RPS_SEED must be an integer, got 'abc'"),
        (["--batch-size", "0"], None, "batch size must be >= 1, got 0"),
        (["--batch-size", "few"], None, "bad batch size 'few'"),
        (
            ["--reservoir-size", "100000000000"], None,
            "capacity must be in [1, 10000000], got 100000000000",
        ),
        # explicit stamps batch by stamp: a batch size would be ignored
        (
            ["--timestamps", "explicit", "--batch-size", "2"], None,
            "explicit timestamps take no batch size, got '2'",
        ),
    ],
    ids=[
        "snapshot-every", "RPS_SEED", "batch-size-zero", "batch-size-word", "reservoir-size",
        "batch-size-explicit",
    ],
)
def test_bad_number_exits_2_with_one_line(
    tx_file, tmp_path, capsys, monkeypatch, extra, seed_env, message
):
    if seed_env is not None:
        monkeypatch.setenv("RPS_SEED", seed_env)
    out = tmp_path / "out.tsv"
    start = time.process_time()
    code = main([
        "sample", "--input", str(tx_file), "--format", "tx", "--output", str(out), *extra,
    ])
    # refused up front, not after building or reading anything
    assert time.process_time() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("rps: ") and message in err
    assert not out.exists()


def test_realisation_mode_flag_is_gone(tx_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_sample_args(tx_file, tmp_path / "snap.tsv",
                          ["--realisation-mode", "binomial-cdf"]))
    assert exc.value.code == 2
    assert "unrecognized arguments: --realisation-mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--batch-size", "0"], ["--timestamps", "explicit"]], ids=["batch-size", "timestamps"]
)
def test_featurize_refuses_batching_flags(tx_file, tmp_path, capsys, flag):
    # featurize reads instances one by one: batching flags would be ignored
    snap = tmp_path / "snap.tsv"
    assert main(_sample_args(tx_file, snap)) == 0
    out = tmp_path / "features.csv"
    with pytest.raises(SystemExit) as exc:
        main([
            "featurize", "--snapshot", str(snap), "--input", str(tx_file),
            "--format", "tx", "--output", str(out), *flag,
        ])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_bench_is_gone(tx_file, capsys):
    # perfbench/ measures performance; the CLI only samples and featurizes
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--input", str(tx_file), "--format", "tx"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


NOT_UTF8 = b"a b|x\n\xff\xfe c|y\n"


@pytest.mark.parametrize("where", ["sample-input", "featurize-input", "featurize-snapshot"])
def test_non_utf8_input_exits_1_with_one_line(tx_file, tmp_path, capsys, where):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    snap = tmp_path / "snap.tsv"
    assert main(_sample_args(tx_file, snap)) == 0
    command = {
        "sample-input": ["sample", "--input", str(bad)],
        "featurize-input": ["featurize", "--snapshot", str(snap), "--input", str(bad)],
        "featurize-snapshot": ["featurize", "--snapshot", str(bad), "--input", str(tx_file)],
    }[where]
    capsys.readouterr()
    code = main([*command, "--format", "tx", "--output", str(tmp_path / "out")])
    assert code == 1
    # the decoder reads in chunks, so the message names the file, not a line
    assert capsys.readouterr().err == f"rps: {str(bad)!r} is not UTF-8 text (invalid start byte)\n"


def _rps(args, stdin, **env):
    """Run the rps module in a child process with stdin bytes and extra env."""
    src = os.path.dirname(os.path.dirname(rps.cli.__file__))
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": src, **env}
    return subprocess.run(
        [sys.executable, "-m", "rps.cli", *args], input=stdin, capture_output=True, env=env
    )


@pytest.mark.parametrize("env", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "ascii"}], ids=["C", "ascii"])
def test_stdin_and_stdout_are_utf8_whatever_the_locale(tmp_path, env):
    # under the C locale Python decodes stdin with surrogateescape: left so,
    # a bad byte becomes a token and fails only when the output is written
    refused = _rps(["sample", "--format", "tx", "--output", str(tmp_path / "s.tsv")],
                   NOT_UTF8, **env)
    assert refused.returncode == 1
    assert refused.stderr == b"rps: stdin is not UTF-8 text (invalid start byte)\n"
    written = _rps(["sample", "--format", "tx", "--reservoir-size", "1"], "café\n".encode(), **env)
    assert written.returncode == 0, written.stderr
    assert written.stdout == "1\t{café}\t1\n".encode()
