import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evalanche import (
    ExperimentConfig,
    LogValue,
    RankedValues,
    U1,
    colorize,
    confidence_region,
    diagonal_row,
    discovery_matrix,
    regularize,
)
from evalanche import cli, formats, oracles
from evalanche.cli import main
from evalanche.errors import DomainError
from evalanche.discovery import DiscoveryMatrix
from evalanche.merging import MAX_DEGREE
from evalanche.simulate import MAX_K, MAX_STEPS

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    cfg = ExperimentConfig(
        k=5, n_false=2, null_dist=(0.0, 1.0), true_dist_false_nulls=(-1.0, 1.0),
        bet_dist=(-0.82, 1.0), steps=25, seed=3, tracked_rows=(1, 2), checkpoints=(25,),
        **overrides,
    )
    path = tmp_path / "config.json"
    path.write_text(formats.config_to_json(cfg))
    return cfg, path


def test_merge_inline_values(capsys):
    code, out, err = run_cli(capsys, "merge", "--values", "8,4", "--merge", "mix:0,0.5,0.5")
    assert code == 0 and err == ""
    header, row = out.strip().splitlines()
    assert header == "log10_value,value"
    l10, value = row.split(",")
    assert float(value) == pytest.approx(19.0, rel=1e-12)
    # 1e-400 is positive but below the double range: the value cell is blank
    code, out, _ = run_cli(capsys, "merge", "--values", "1e-200,1e-200", "--merge", "u2")
    assert (code, out) == (0, "log10_value,value\n-400.0,\n")


def test_merge_json_format(capsys):
    code, out, _ = run_cli(capsys, "merge", "--values", "8,4,1", "--merge", "u1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(13 / 3, rel=1e-12)
    assert obj["merge"] == {"kind": "nesp", "n": 1}
    # null exactly where the CSV value is blank, not 0.0
    code, out, _ = run_cli(capsys, "merge", "--values", "1e-200,1e-200", "--merge", "u2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"merge": {"kind": "nesp", "n": 2}, "log10_value": -400.0, "value": None}


def _strict_json(text: str):
    def reject(token):
        raise AssertionError(f"{token} is not RFC 8259 JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("values,inf", [("0,0", "-inf"), ("inf,2", "inf"), ("0,inf", "inf")])
def test_json_reports_are_strict(tmp_path, capsys, values, inf):
    """Every --format json report of zero and infinite inputs is strict JSON,
    with +-inf written as the CSV text "inf" / "-inf"."""
    for argv in (("merge", "--merge", "u1"), ("merge", "--merge", "u2"), ("diagonal",),
                 ("subdiag",), ("matrix",), ("matrix", "--regularize")):
        code, out, _ = run_cli(capsys, *argv, "--values", values, "--format", "json")
        assert code == 0
        obj = _strict_json(out)
        if argv[0] == "merge":
            assert obj["log10_value"] == inf
        elif argv[0] == "matrix":
            assert inf in [x for row in obj["rows"] for x in row]
        else:
            assert obj["rows"][0]["log10_value"] == inf
    matrix = tmp_path / "m.csv"
    assert run_cli(capsys, "matrix", "--values", values, "--out", str(matrix))[0] == 0
    for alpha in ("10", "inf"):
        code, out, _ = run_cli(capsys, "region", "--matrix", str(matrix), "--row", "2",
                               "--alpha", alpha, "--format", "json")
        assert code == 0
        assert _strict_json(out)["alpha"] == (10.0 if alpha == "10" else "inf")


def test_diagonal_matches_library(capsys):
    code, out, _ = run_cli(capsys, "diagonal", "--values", "8,4,1", "--merge", "u1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,log10_value,value"
    rk = RankedValues.from_values([LogValue.of(v) for v in (8, 4, 1)])
    for line in lines[1:]:
        r, l10, _val = line.split(",")
        assert float(l10) == diagonal_row(rk, int(r), U1).log10
    for fmt in ("csv", "json"):  # 1e-400 in every row: blank in CSV, null in JSON
        code, out, _ = run_cli(capsys, "diagonal", "--values", "1e-200,1e-200", "--merge", "u2",
                               "--format", fmt)
        assert code == 0
        if fmt == "csv":
            assert out == "r,log10_value,value\n1,-400.0,\n2,-400.0,\n"
        else:
            assert [(row["r"], row["log10_value"], row["value"]) for row in json.loads(out)["rows"]] \
                == [(1, -400.0, None), (2, -400.0, None)]


def test_subdiag_selected_rows(capsys):
    code, out, _ = run_cli(
        capsys, "subdiag", "--values", "8,4,1", "--merge", "u2", "--rows", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    _, l10, value = lines[1].split(",")
    assert float(value) == pytest.approx(44 / 3, rel=1e-12)
    code, out, _ = run_cli(
        capsys, "subdiag", "--values", "8,4,1", "--merge", "u2", "--rows", "2", "--format", "json"
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["value"] == float(value) and row["log10_value"] == float(l10)
    for fmt in ("csv", "json"):
        code, out, _ = run_cli(capsys, "subdiag", "--values", "1e-200,1e-200", "--merge", "u2",
                               "--rows", "2", "--format", fmt)
        assert code == 0
        if fmt == "csv":
            assert out == "r,log10_value,value\n2,-400.0,\n"
        else:
            assert json.loads(out)["rows"] == [{"r": 2, "log10_value": -400.0, "value": None}]


def test_row_scan_order_and_errors(capsys):
    """Rows print in argv order, repeats included, each line byte-equal to its
    one-row call; the first bad row in argv order is named, and a row past
    int64 is a domain error, not an overflow."""
    code, out, err = run_cli(capsys, "diagonal", "--values", "8,4,1", "--rows", "3,1,3")
    assert (code, err) == (0, "")
    header, *lines = out.splitlines()
    assert len(lines) == 3
    for r, line in zip((3, 1, 3), lines):
        one = run_cli(capsys, "diagonal", "--values", "8,4,1", "--rows", str(r))[1]
        assert one == f"{header}\n{line}\n"
    for rows, named in (("2,9,0", "9"), ("99999999999999999999", "99999999999999999999")):
        code, out, err = run_cli(capsys, "diagonal", "--values", "8,4,1", "--rows", rows)
        assert (code, out, err) == (2, "", f"error: row {named} outside 1..3\n")


def test_matrix_golden_bytes(tmp_path, capsys):
    values = tmp_path / "values.csv"
    values.write_text(formats.values_csv([LogValue.of(v) for v in (8, 4, 1)]))
    out_file = tmp_path / "m.csv"
    heatmap = tmp_path / "m.svg"
    code, out, _ = run_cli(
        capsys, "matrix", "--values", str(values), "--merge", "u1",
        "--out", str(out_file), "--heatmap", str(heatmap),
    )
    assert code == 0
    assert out_file.read_text() == (GOLDEN / "matrix_8_4_1_u1.csv").read_text()
    assert heatmap.read_text() == (GOLDEN / "heatmap_8_4_1_u1.svg").read_text()


@pytest.mark.parametrize("argv, golden", [
    (("matrix", "--merge", "u2"), "edge_matrix_u2.csv"),
    (("matrix", "--merge", "u5"), "edge_matrix_u5.csv"),
    (("matrix", "--merge", "mix:0.2,0.3,0.5"), "edge_matrix_mix.csv"),
    (("diagonal",), "edge_diagonal.csv"),
    (("subdiag",), "edge_subdiag.csv"),
    (("diagonal", "--rows", "4,3,2,1"), "edge_diagonal.csv"),
    (("subdiag", "--rows", "4,4"), "edge_subdiag.csv"),
])
def test_edge_values_golden_bytes(capsys, argv, golden):
    """Values whose log10 column holds +inf twice, ties of 0.0 and -0.0, and
    -inf: the matrix and row tables match their golden files byte for byte,
    and ``--rows`` prints the golden's lines of those rows in the order
    given, repeats included."""
    code, out, err = run_cli(capsys, *argv, "--values", str(GOLDEN / "edge_values.csv"))
    assert (code, err) == (0, "")
    header, *lines = (GOLDEN / golden).read_bytes().splitlines(keepends=True)
    if "--rows" in argv:
        lines = [lines[int(r) - 1] for r in argv[argv.index("--rows") + 1].split(",")]
    assert out.encode() == header + b"".join(lines)


@pytest.mark.parametrize("merge, golden", [
    ("u2", "prune_matrix_u2.csv"), ("u5", "prune_matrix_u5.csv"), ("mix:0.2,0.3,0.5", "prune_matrix_mix.csv"),
    ("mix:0.25,0.75", "prune_matrix_mix_0.25_0.75.csv"),
])
def test_prune_values_golden_bytes(capsys, merge, golden):
    """120 values with a leading +inf, ties of 0.0 and -0.0 and five values of
    exactly zero, enough tails for the full-tail scorer to skip tail blocks:
    each matrix matches its golden file, written before the block bound was
    added (the top-degree-1 mixture's before the walk moved into the cell
    scorer), byte for byte.  Under that mixture the walk certifies 7,146
    cells and leaves 114 to the tail blocks, so both rules are pinned."""
    code, out, err = run_cli(capsys, "matrix", "--merge", merge, "--values", str(GOLDEN / "prune_values.csv"))
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_matrix_regularize_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--values", "8,4,1", "--merge", "u1",
        "--regularize", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["regularized"] is True
    assert obj["k"] == 3
    want = regularize(
        discovery_matrix(RankedValues.from_values([LogValue.of(v) for v in (8, 4, 1)]), U1)
    )
    assert obj["rows"][2] == [float(x) for x in want.rows[2]]


def test_region_matches_library(tmp_path, capsys):
    rk = RankedValues.from_values([LogValue.of(v) for v in (8, 4, 1)])
    m = discovery_matrix(rk, U1)
    matrix_path = tmp_path / "dm.csv"
    matrix_path.write_text(formats.matrix_csv(m))
    code, out, _ = run_cli(
        capsys, "region", "--matrix", str(matrix_path), "--row", "2", "--alpha", "3",
    )
    assert code == 0
    assert out == "r=2 alpha=3.0 members={1..2} lower_bound=1\n"
    code, out, _ = run_cli(
        capsys, "region", "--matrix", str(matrix_path), "--row", "2", "--alpha", "3",
        "--format", "json",
    )
    parsed = json.loads(out)
    region = confidence_region(regularize(m), 2, 3.0)
    assert parsed["members"] == sorted(region.members)
    assert parsed["lower_bound"] == region.lower_bound == 1
    # region regularizes the row it keeps: the golden bundle's raw
    # matrix_20.csv reads like its matrix_20_regularized.csv, which differs from
    # it in cell (5, 5), 0.0 against -1.05, so that row 5 at alpha 1 has one
    # more member regularized than raw
    bundle = GOLDEN / "small_run"
    raw_row, reg_row = (formats.parse_matrix_csv((bundle / name).read_text()).log10[4, :6]
                        for name in ("matrix_20.csv", "matrix_20_regularized.csv"))
    assert np.count_nonzero(raw_row < 0.0) + 1 == np.count_nonzero(reg_row < 0.0) == 6
    for row in ("1", "3", "5"):
        for alpha in ("1", "10", "100"):
            for fmt in ("text", "json"):
                raw, reg = (run_cli(capsys, "region", "--matrix", str(bundle / name), "--row", row,
                                    "--alpha", alpha, "--format", fmt)
                            for name in ("matrix_20.csv", "matrix_20_regularized.csv"))
                shown = raw[1].startswith(f"r={row} ") if fmt == "text" else json.loads(raw[1])["r"] == int(row)
                assert raw == reg and raw[0] == 0 and shown, (row, alpha, fmt)


@pytest.mark.parametrize("golden", [
    "matrix_8_4_1_u1.csv", "small_run/matrix_20.csv", "edge_matrix_u2.csv", "edge_matrix_u5.csv",
    "edge_matrix_mix.csv", "prune_matrix_u2.csv", "prune_matrix_u5.csv", "prune_matrix_mix.csv",
    "prune_matrix_mix_0.25_0.75.csv",
])
def test_region_keeps_one_row_and_checks_every_line(tmp_path, capsys, golden):
    """``region`` keeps only row r of its matrix CSV, yet prints, for every
    row, the levels 3, 10 and 100 and both formats, the bytes of the library's
    region of the whole regularized matrix; and it reads every line: a bad
    bucket on the last line fails row 1, and a bad line in row 1 fails row K,
    each with exit 1 and its line named.  ``--matrix`` is read after every
    flag, so a bad ``--row`` is reported first and ``--help`` prints help."""
    path = GOLDEN / golden
    m = regularize(formats.parse_matrix_csv(path.read_text()))
    for r in range(1, m.k + 1):
        for alpha in (3.0, 10.0, 100.0):
            region = confidence_region(m, r, alpha)
            for fmt in ("text", "json"):
                got = run_cli(capsys, "region", "--matrix", str(path), "--row", str(r),
                              "--alpha", repr(alpha), "--format", fmt)
                assert got == (0, formats.region_report(region, fmt), ""), (r, alpha, fmt)
    header, *lines = path.read_text().splitlines()
    r, j, l10, bucket = lines[-1].split(",")
    last = f"{r},{j},{l10},{'black' if bucket == 'green' else 'green'}"
    bad = tmp_path / "bad.csv"
    for row, n, body in ((1, len(lines) + 1, [*lines[:-1], last]), (m.k, 2, ["1,0,x,green", *lines[1:]])):
        bad.write_text("\n".join([header, *body]) + "\n")
        code, out, err = run_cli(capsys, "region", "--matrix", str(bad), "--row", str(row), "--alpha", "10")
        assert (code, out) == (1, "") and err.count("\n") == 1, (row, err)
        assert f"line {n}: " in err and repr(body[n - 2]) in err, (row, err)
    code, out, err = run_cli(capsys, "region", "--matrix", str(bad), "--row", "x", "--alpha", "10")
    assert (code, out) == (1, "") and "--row" in err and "line" not in err, err
    with pytest.raises(SystemExit) as exc:
        main(["region", "--matrix", str(bad), "--help"])
    assert exc.value.code == 0 and "--matrix" in capsys.readouterr().out


def test_region_reads_a_cell_whose_log_overflows_quietly(tmp_path, capsys):
    """A log10 cell of 1e308, whose natural log is past the largest double,
    buckets black with no arithmetic and nothing on stderr."""
    matrix_path = tmp_path / "dm.csv"
    matrix_path.write_text("r,j,log10_value,bucket\n1,0,1e308,black\n1,1,0.0,green\n")
    code, out, err = run_cli(capsys, "region", "--matrix", str(matrix_path), "--row", "1",
                             "--alpha", "10")
    assert (code, out, err) == (0, "r=1 alpha=10.0 members={1..1} lower_bound=1\n", "")


_BIG_LOG_CONFIG = {
    "k": 8, "n_false": 4, "null_dist": {"mean": 0.0, "sd": 3e-154},
    "true_dist_false_nulls": {"mean": -1.0, "sd": 1.0}, "bet_dist": {"mean": -0.82, "sd": 1.0},
    "steps": 200, "seed": 7,
}


@pytest.mark.parametrize("command, text", [
    ("matrix", "k,log10_value\n1,5e307\n2,5e307\n3,1\n"),
    ("matrix", "k,log10_value\n1,-5e307\n2,-5e307\n3,1\n"),
    ("diagonal", "k,log10_value\n1,5e307\n2,5e307\n3,1\n"),
    ("merge", "k,log10_value\n1,5e307\n2,5e307\n3,1\n"),
    ("simulate", json.dumps(_BIG_LOG_CONFIG)),
])
def test_huge_finite_logs_exit_2(tmp_path, capsys, command, text):
    """A finite log past +-MAX_ABS_LOG, as input or as the sum of a run's
    increments (null sd 3e-154 makes a false-null increment about 5e306),
    exits 2 with one error line and writes nothing: no NaN cell, no warning."""
    path = tmp_path / "input"
    path.write_text(text)
    out_path = tmp_path / "out"
    argv = {"simulate": ["--config", str(path)], "merge": ["--values", str(path), "--merge", "u2"]}
    code, out, err = run_cli(capsys, command, *argv.get(command, ["--values", str(path)]),
                             "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "1e+300" in err
    assert not out_path.exists()


def test_region_rejects_bad_alpha(tmp_path, capsys):
    rk = RankedValues.from_values([LogValue.of(v) for v in (8, 4, 1)])
    matrix_path = tmp_path / "dm.csv"
    matrix_path.write_text(formats.matrix_csv(discovery_matrix(rk, U1)))
    code, _, err = run_cli(
        capsys, "region", "--matrix", str(matrix_path), "--row", "2", "--alpha", "0",
    )
    assert code == 2
    assert "positive" in err


def test_validate_poly(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"k": 2, "coeffs": {"": 0.2, "1": 0.15, "2": 0.15, "1,2": 0.5}}')
    code, out, _ = run_cli(capsys, "validate-poly", "--poly", str(good))
    assert code == 0
    assert out.splitlines()[0] == "valid"
    assert "weights: 0.2,0.3,0.5" in out

    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "coeffs": {"1": 0.5, "1,2": 0.6}}')
    code, out, _ = run_cli(capsys, "validate-poly", "--poly", str(bad))
    assert code == 0
    assert out.splitlines()[0] == "invalid"
    assert "not normalized" in out

    bad.write_text('{"k": 2, "coeffs": {"": 1e308, "1": 1e308}}')  # the sum overflows a double
    code, out, _ = run_cli(capsys, "validate-poly", "--poly", str(bad))
    assert code == 0
    assert out.splitlines()[0] == "invalid"
    assert "not normalized" in out

    # a repeated key or monomial is an input error, not a later value winning
    for coeffs in ('"": 0.2, "1": 0.9, "1": 0.15, "2": 0.15, "1,2": 0.5',
                   '"": 0.2, "1": 0.15, "2": 0.15, "1,2": 0.25, "2,1": 0.25'):
        bad.write_text('{"k": 2, "coeffs": {%s}}' % coeffs)
        code, out, err = run_cli(capsys, "validate-poly", "--poly", str(bad))
        assert (code, out) == (1, ""), coeffs
        assert err.startswith("error:") and err.count("\n") == 1, coeffs
        assert ("repeats key '1'" if '"1": 0.9' in coeffs else "repeats a monomial") in err, coeffs

    asym = tmp_path / "asym.json"
    asym.write_text('{"k": 2, "coeffs": {"": 0.2, "1": 0.5, "2": 0.3}}')
    code, out, _ = run_cli(capsys, "validate-poly", "--poly", str(asym))
    assert code == 0
    assert "not symmetric" in out


def test_simulate_bundle(tmp_path, capsys):
    cfg, config_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(config_path), "--out", str(out_dir),
    )
    assert code == 0
    assert out.strip().endswith("manifest.json")
    for name in ("manifest.json", "series.csv", "series.svg",
                 "matrix_25.csv", "matrix_25_regularized.csv",
                 "heatmap_25.svg", "regions_25.json"):
        assert (out_dir / name).exists(), name
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == cfg.seed


def test_simulate_seed_override_and_reproducibility(tmp_path, capsys):
    _, config_path = write_config(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(capsys, "simulate", "--config", str(config_path), "--seed", "9", "--out", str(a))[0] == 0
    assert run_cli(capsys, "simulate", "--config", str(config_path), "--seed", "9", "--out", str(b))[0] == 0
    assert run_cli(capsys, "simulate", "--config", str(config_path), "--out", str(c))[0] == 0
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
    assert (a / "matrix_25.csv").read_bytes() == (b / "matrix_25.csv").read_bytes()
    assert (a / "series.csv").read_bytes() != (c / "series.csv").read_bytes()
    assert json.loads((a / "manifest.json").read_text())["seed"] == 9


def test_simulate_unusable_out_fails_before_the_run(tmp_path, capsys, monkeypatch):
    """An ``--out`` that is a file, or under one, exits 1 with one error line
    before ``run_experiment`` is called; a run that fails removes the
    directories made for it."""
    _, config_path = write_config(tmp_path)
    calls = []

    def spy(cfg):
        calls.append(cfg)
        raise DomainError("the run failed")

    monkeypatch.setattr(cli, "run_experiment", spy)
    file = tmp_path / "file"
    file.write_text("kept")
    for out in (file, file / "sub"):
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(config_path), "--out", str(out))
        assert (code, stdout) == (1, ""), out
        assert err.startswith("error:") and err.count("\n") == 1, out
    assert calls == [] and file.read_text() == "kept"
    code, stdout, err = run_cli(capsys, "simulate", "--config", str(config_path),
                                "--out", str(tmp_path / "a" / "b"))
    assert (code, stdout, err) == (2, "", "error: the run failed\n")
    assert len(calls) == 1 and not (tmp_path / "a").exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli(capsys, "bogus-command")[0] == 1
    assert run_cli(capsys, "merge", "--values", "8,4")[0] == 1  # --merge required
    assert run_cli(capsys, "merge", "--values", "8,4", "--merge", "nope")[0] == 1
    assert run_cli(capsys, "merge", "--values", "a,b", "--merge", "u1")[0] == 1
    code, out, err = run_cli(capsys, "diagonal", "--values", "8,4,1", "--rows", "1,x")
    assert (code, out) == (1, "")
    assert err.startswith("error: --rows must be comma-separated integers") and err.count("\n") == 1
    for text in ("", str(tmp_path)):  # neither a file nor numbers: '' names the current directory
        code, out, err = run_cli(capsys, "merge", "--values", text, "--merge", "u1")
        assert (code, out) == (1, ""), text
        assert err.startswith("error: --values must be a file or comma-separated numbers"), text
        assert err.count("\n") == 1, text
    assert run_cli(capsys, "simulate", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path))[0] == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{")
    assert run_cli(capsys, "simulate", "--config", str(bad_cfg), "--out", str(tmp_path))[0] == 1
    for flag, n in (("--instances", "0"), ("--instances", "-1"), ("--seed", "-1")):
        code, out, err = run_cli(capsys, "oracle-check", flag, n)
        assert (code, out) == (1, ""), (flag, n)
        assert err.startswith("error:") and err.count("\n") == 1 and flag in err, (flag, n)
    _, good_cfg = write_config(tmp_path)
    for seed in ("-1", str(2 ** 64)):
        code, out, err = run_cli(capsys, "simulate", "--config", str(good_cfg), "--seed", seed,
                                 "--out", str(tmp_path / "o"))
        assert (code, out) == (1, ""), seed
        assert err.startswith("error:") and err.count("\n") == 1 and "--seed" in err, seed
    matrix = tmp_path / "bad_matrix.csv"
    for body in (
        "1,0\n1,1,0.0,green\n",  # two fields
        "a,0,0.0,green\n1,1,0.0,green\n",  # non-integer r
        "1,0.5,0.0,green\n1,1,0.0,green\n",  # non-integer j
        "1,0,nan,green\n1,1,0.0,green\n",  # NaN cell
        "1,0,abc,green\n1,1,0.0,green\n",  # a value that is not a number
        "1,0,0.0,green\n1,1,0.0,green\n1,7,3.0,orange\n",  # outside the triangle
        "1,0,0.0,green\n1,0,0.0,green\n1,1,0.0,green\n",  # repeated cell
        "1,0,0.0,green\n1,0,0.0,green\n",  # repeated cell standing in for a missing one
        "1,0,25.0,green\n1,1,0.5,green\n",  # 1e25 is black, not green
        "1,0,25.0,black\n1,1,0.5,not-a-colour\n",  # unknown bucket
        "",  # header only
        "1,1,0.0,green\n1,0,0.0,green\n",  # two cells of a row swapped
        "2,0,0.0,green\n2,1,0.0,green\n2,2,0.0,green\n1,0,0.0,green\n1,1,0.0,green\n",  # rows swapped
        "1,0,0.0,green\n01,1,0.0,green\n",  # an index written 01
        "1,0,0.0,green\n1,1,0.0,green\n2,0,0.0,green\n2,1,0.0,green\n",  # ends inside row 2
        "1,0,0.0,green\n1,1,0.0,green\n2,0,0.0,green\n3,0,0.0,green\n",  # row 2 cut short
    ):
        matrix.write_text("r,j,log10_value,bucket\n" + body)
        code, out, err = run_cli(capsys, "region", "--matrix", str(matrix), "--row", "1",
                                 "--alpha", "10")
        assert (code, out) == (1, ""), body
        assert err.startswith("error:") and err.count("\n") == 1, body
        assert ("line " in err) if body else ("no cells" in err), body
    values = tmp_path / "bad_values.csv"
    for body in (
        "1,2,3\n",  # three fields
        "1.5,0.5\n",  # non-integer index
        "1,abc\n",  # non-number value
        "1,nan\n",  # NaN value
        "1,0.5\n1,0.7\n",  # repeated index
    ):
        values.write_text("k,log10_value\n" + body)
        code, out, err = run_cli(capsys, "diagonal", "--values", str(values))
        assert (code, out) == (1, ""), body
        assert err.startswith("error:") and err.count("\n") == 1 and "line " in err, body
    values.write_text("k,value\n1,0.5\n")  # another header
    code, out, err = run_cli(capsys, "diagonal", "--values", str(values))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "must start with" in err
    values.write_text("k,log10_value\n")  # header only
    for argv in (("matrix",), ("diagonal",), ("merge", "--merge", "u1")):
        code, out, err = run_cli(capsys, *argv, "--values", str(values))
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1 and "no values" in err, argv
    values.write_text("k,log10_value\n" + "".join(f"{i},0.5\n" for i in range(1, MAX_K + 2)))
    inline = ",".join(["2"] * (MAX_K + 1))
    for argv in (("merge", "--merge", "u1"), ("diagonal",), ("subdiag",), ("matrix",)):
        for source in (inline, str(values)):
            code, out, err = run_cli(capsys, *argv, "--values", source)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error:") and err.count("\n") == 1 and f"{MAX_K:d}" in err, argv
    assert run_cli(capsys, "merge", "--values", ",".join(["2"] * MAX_K), "--merge", "u2")[0] == 0
    base = json.loads(formats.config_to_json(write_config(tmp_path)[0]))
    for field, value, named in (
        ("k", "abc", "k must be an integer"),
        ("tracked_rows", 5, "tracked_rows"),
        ("null_dist", {"mean": "x", "sd": 1}, "null_dist mean"),
        ("null_dist", {"mean": math.nan, "sd": 1}, "null_dist must be a finite"),
        ("merge_matrix", {"kind": "mixture", "weights": 3}, "merge_matrix weights"),
        ("k", MAX_K + 1, "k must lie"),
        ("k", 10 ** 18, "k must lie"),
        ("steps", MAX_STEPS + 1, "steps must lie"),
        ("merge_diagonal", {"kind": "nesp", "n": MAX_DEGREE + 1}, "merge_diagonal: nesp degree"),
        ("merge_matrix", {"kind": "mixture", "weights": [0.0] * (MAX_DEGREE + 1) + [1.0]},
         "merge_matrix: mixture degree"),
        ("tracked_row", [1], "unknown field 'tracked_row'"),  # misspelled optional fields
        ("checkpoint", [25], "unknown field 'checkpoint'"),
        ("sed", 4, "unknown field 'sed'"),
        ("merge_matrix", {"kind": "nesp", "n": 1, "weights": [1.0]}, "merge_matrix has unknown field 'weights'"),
        ("merge_diagonal", {"kind": "mixture", "weights": [1.0], "n": 0}, "merge_diagonal has unknown field 'n'"),
        ("merge_subdiagonal", {"kind": "mixture", "weights": [1e308, 1e308]}, "(1e+308, 1e+308)"),
    ):
        bad_cfg.write_text(json.dumps({**base, field: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(bad_cfg), "--out", str(tmp_path))
        assert (code, out) == (1, ""), field
        assert err.startswith("error:") and err.count("\n") == 1 and named in err, field
    bad_cfg.write_text(json.dumps({**base, "k": MAX_K, "checkpoints": [25]}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(bad_cfg), "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "checkpoints" in err
    for command in ("merge", "diagonal"):
        for flag in (f"u{MAX_DEGREE + 1}", "u100000000000", "u" + "1" * 5000, "u\u00b2",
                     "mix:" + ",".join(["0"] * (MAX_DEGREE + 1) + ["1"])):
            code, out, err = run_cli(capsys, command, "--values", "1,2", "--merge", flag)
            assert (code, out) == (1, ""), (command, flag[:20])
            assert err.startswith("error:") and err.count("\n") == 1 and "degree" in err, flag[:20]
        # weights whose sum overflows a double
        code, out, err = run_cli(capsys, command, "--values", "1,2", "--merge", "mix:1e308,1e308")
        assert (code, out) == (1, ""), command
        assert err.startswith("error:") and err.count("\n") == 1 and "(1e+308, 1e+308)" in err, command
    assert run_cli(capsys, "merge", "--values", "1,2", "--merge", f"u{MAX_DEGREE}")[0] == 0
    poly = tmp_path / "bad_poly.json"
    for coeffs, named in (({"1,a": 1.0}, "'1,a'"), ([1], "coeffs"), ({"3": 1.0}, "index 3 outside 1..2")):
        poly.write_text(json.dumps({"k": 2, "coeffs": coeffs}))
        code, out, err = run_cli(capsys, "validate-poly", "--poly", str(poly))
        assert (code, out) == (1, ""), coeffs
        assert err.startswith("error:") and err.count("\n") == 1 and named in err, coeffs
    undecodable = tmp_path / "latin1.txt"  # a byte 0xe9 that no UTF-8 text holds
    for blank in (1, 200_000):  # the bad byte in the first piece read, and far past it
        for header, argv in (
            (b"r,j,log10_value,bucket",
             ("region", "--matrix", str(undecodable), "--row", "1", "--alpha", "10")),
            (b"k,log10_value", ("diagonal", "--values", str(undecodable))),
            (b"{", ("simulate", "--config", str(undecodable), "--out", str(tmp_path / "o"))),
            (b"{", ("validate-poly", "--poly", str(undecodable))),
        ):
            undecodable.write_bytes(header + b"\n" * blank + b"1,0.\xe95\n")
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: cannot read") and err.count("\n") == 1, argv
            assert err.endswith(f" file {str(undecodable)!r}: 'utf-8' codec can't decode byte 0xe9: "
                                "invalid continuation byte\n"), argv


@contextlib.contextmanager
def _pipe(data: bytes) -> Iterator[int]:
    """The read end of a pipe that a thread fills with ``data`` and then
    closes: as bash's ``<(cat file)`` gives, ``/dev/fd/<fd>`` names it and it
    cannot seek.  On exit the read end is closed, which ends a write that a
    reader stopped at a fault left unfinished, the writer is joined, and an
    error it raised is raised here, in the test that made the pipe."""
    read, write = os.pipe()
    errors = []

    def fill():
        try:
            with contextlib.suppress(BrokenPipeError), open(write, "wb") as f:
                f.write(data)
        except BaseException as exc:
            errors.append(exc)

    writer = threading.Thread(target=fill, daemon=True)
    writer.start()
    try:
        yield read
    finally:
        os.close(read)
        writer.join(timeout=30)
    assert not writer.is_alive(), "the pipe's writer did not finish"
    if errors:
        raise errors[0]


def test_pipe_raises_its_writers_error():
    """A writer that fails, here on a text it cannot write to a binary
    file, fails the test whose pipe it fills, not the session's teardown."""
    with pytest.raises(TypeError):
        with _pipe("not bytes") as fd:
            assert os.read(fd, 1) == b""  # the writer closed its end


@pytest.mark.parametrize("data, argv", [
    ((GOLDEN / "edge_values.csv").read_bytes(), ("matrix", "--merge", "u2", "--values")),
    ((GOLDEN / "matrix_8_4_1_u1.csv").read_bytes(), ("region", "--row", "2", "--alpha", "3", "--matrix")),
    ((GOLDEN / "matrix_8_4_1_u1.csv").read_bytes().replace(b"\n", b"\r\n"),
     ("region", "--row", "3", "--alpha", "10", "--matrix")),
    (b"r,j,log10_value,bucket\n1,0,0.0,green\n1,1,0.0,green\n2,0,0.0,green\n2,1,0.0,red\n"
     b"2,2,0.0,green\n", ("region", "--row", "1", "--alpha", "10", "--matrix")),  # a bad bucket
    (b"k,log10_value\n1,0.5\n1,0.7\n", ("diagonal", "--values")),  # a repeated index
    (b"r,j,log10_value,bucket\n1,0,0.0,gr\xe9en\n", ("region", "--row", "1", "--alpha", "10", "--matrix")),
    # a wrong header, then a byte no UTF-8 text holds far past the first piece read
    (b"r,j,log10_value,bucket" + b"\n" * 200_000 + b"1,0.\xe95\n", ("diagonal", "--values")),
])
def test_piped_inputs_read_as_files(tmp_path, capsys, data, argv):
    """An input from a pipe, which cannot seek, gives the output, exit code
    and error text of the same bytes in a file, read once as the file is; a
    bad matrix row still names its line."""
    path = tmp_path / "input"
    path.write_bytes(data)
    want = run_cli(capsys, *argv, str(path))
    with _pipe(data) as fd:
        code, out, err = run_cli(capsys, *argv, f"/dev/fd/{fd}")
    assert (code, out, err.replace(f"/dev/fd/{fd}", str(path))) == want
    assert (code, bool(out), err.count("\n")) in ((0, True, 0), (1, False, 1))
    if b"red" in data:
        assert "line 5: bucket of '2,1,0.0,red' must be green" in err


def test_domain_errors_exit_2(tmp_path, capsys):
    # a value outside [0, inf] is rejected by the library, not the parser
    code, _, err = run_cli(capsys, "merge", "--values", "nan,4", "--merge", "u1")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "merge", "--values=-3,4", "--merge", "u1")
    assert code == 2
    # a row outside 1..K is a domain error, as --alpha 0 is
    code, out, err = run_cli(capsys, "diagonal", "--values", "8,4,1", "--rows", "5")
    assert (code, out) == (2, "")
    assert err == "error: row 5 outside 1..3\n"
    # zero density under both bet and null leaves no likelihood ratio
    cfg, path = write_config(tmp_path)
    tiny = {"mean": 0.0, "sd": 5e-324}
    path.write_text(json.dumps({**formats.config_to_obj(cfg), "bet_dist": tiny, "null_dist": tiny}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "bet_dist" in err and "null_dist" in err


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--instances", "3", "--seed", "5")
    assert code == 0
    assert out.count("ok ") == 3


def test_oracle_check_fails_on_a_nan_cell(capsys, monkeypatch):
    """One NaN cell in every matrix the battery builds fails the scans row."""
    real = oracles.discovery_matrix

    def nan_cell(ranked, spec):
        log10 = real(ranked, spec).log10.copy()
        log10[-1, 0] = math.nan  # row K, column 0: always inside the triangle
        return DiscoveryMatrix(log10)

    monkeypatch.setattr(oracles, "discovery_matrix", nan_cell)
    code, out, _ = run_cli(capsys, "oracle-check", "--instances", "3")
    assert code == 2
    lines = out.splitlines()
    assert [line.startswith("ok ") for line in lines] == [True, True, False]
    assert lines[2] == "FAIL scans vs brute-force subset minima: worst inf (tol 1e-09, 3 instances)"


def test_oracle_fold_keeps_nan_and_scores_equal_infinities_zero(monkeypatch):
    nan, inf = math.nan, math.inf
    draws = iter([[(nan, 0.0)]] + [[(1.0, 1.0 + 1e-12)]] * 4)  # NaN on the first instance only
    monkeypatch.setattr(oracles, "_CHECKS", (("first NaN", 1e-9, lambda rng: next(draws)),))
    assert oracles.certify(5, 0) == [("first NaN", inf, 1e-9)]
    assert oracles._worst_error([(nan, 0.0)] + [(1.0, 1.0 + 1e-12)] * 5) == inf
    assert oracles._worst_error([(2.0, 2.0), (0.0, nan), (3.0, 3.0)]) == inf
    assert oracles._worst_error([(inf, inf), (-inf, -inf), (1.0, 1.5)]) == 0.5
    assert oracles._worst_error([(inf, -inf)]) == inf
    assert oracles._worst_error([]) == 0.0


def test_entry_point_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_top_level_help_is_a_summary_for_users(capsys, monkeypatch):
    """``evalanche --help`` exits 0, shows a one-line summary and one line for
    each subcommand, and prints none of the module docstring's RST marks."""
    monkeypatch.setenv("COLUMNS", "200")  # each subcommand and its help on one line
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "``" not in out
    for command in ("simulate", "diagonal", "subdiag", "matrix", "region", "merge", "validate-poly",
                    "oracle-check"):
        assert re.search(rf"^    {command}  +\S", out, re.M), command


def test_shared_flags_show_one_help_text(capsys, monkeypatch):
    """Every option of every command shows a non-empty help text, and
    ``--values``, the csv/json ``--format``, the file ``--out`` and ``--merge``
    each show one help text in the help of every command that takes them."""
    monkeypatch.setenv("COLUMNS", "200")  # one line per option, two for a long option
    shared = ("--values", "--format", "--out", "--merge")
    helps: dict[str, set[str]] = {flag: set() for flag in shared}
    for command, flags in (("simulate", ()), ("diagonal", shared), ("subdiag", shared),
                           ("matrix", shared), ("merge", shared), ("region", ("--out",)),
                           ("validate-poly", ("--out",)), ("oracle-check", ())):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        # the help follows its option on the same line, or on the next one
        shown = dict(re.findall(r"^  (--\S+)(?: \S+)?(?: {2,}|\n {3,})?(.*)$", capsys.readouterr().out,
                                re.M))
        assert shown and "" not in shown.values(), (command, shown)
        for flag in flags:
            helps[flag].add(shown[flag])
    assert all(len(texts) == 1 for texts in helps.values()), helps


@pytest.mark.parametrize("command, default, other", [
    ("diagonal", "u1", "u2"), ("subdiag", "u2", "u1"), ("matrix", "u1", "u2"),
])
def test_merge_defaults(capsys, command, default, other):
    """Without ``--merge`` a command writes the bytes of its default spec, not
    those of another (README, "Command line")."""
    implicit = run_cli(capsys, command, "--values", "8,4,1")
    assert implicit[0] == 0
    assert implicit == run_cli(capsys, command, "--values", "8,4,1", "--merge", default)
    assert implicit != run_cli(capsys, command, "--values", "8,4,1", "--merge", other)


def _launch(*args: str) -> subprocess.Popen:
    """``python *args`` on this checkout's ``src``, stdout and stderr piped.
    ``_launch("-m", "evalanche.cli", *argv)`` runs ``entry()``, as the
    installed ``evalanche`` script does."""
    return subprocess.Popen([sys.executable, *args], env={**os.environ, "PYTHONPATH": str(SRC)},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv, code, golden", [
    (["matrix", "--values", "8,4,1"], 0, "matrix_8_4_1_u1.csv"),
    (["region", "--matrix", str(GOLDEN / "missing.csv"), "--row", "1", "--alpha", "10"], 1, None),
    (["merge", "--values", "nan,4", "--merge", "u1"], 2, None),
])
def test_process_exit_codes_and_bytes(argv, code, golden):
    """A process of the command exits with ``main``'s code and writes the
    golden's bytes to stdout (none for a failure), and one ``error:`` line to
    stderr for a failure, none for a success."""
    proc = _launch("-m", "evalanche.cli", *argv)
    out, err = proc.communicate(timeout=120)
    want = (GOLDEN / golden).read_bytes() if golden else b""
    assert (proc.returncode, out, err.count(b"\n")) == (code, want, int(code > 0)), err
    assert err.startswith(b"error: ") == (code > 0), err


@pytest.mark.parametrize("argv, head", [
    (["matrix", "--values", ",".join(str(1.0 + i / 64) for i in range(500))], 1),  # 4 MB of CSV
    (["merge", "--values", "8,4,1", "--merge", "u1"], 0),  # left for the flush at exit
])
def test_closed_stdout_ends_output_quietly(argv, head):
    """A reader that closes stdout early, as ``| head -c 1`` does, ends the
    output: exit 0 and nothing on stderr, at the flush on exit included."""
    proc = _launch("-m", "evalanche.cli", *argv)
    assert len(proc.stdout.read(head)) == head
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0, err
    assert err == b""


def test_scans_leave_numpy_ma_unimported():
    """``matrix``, ``diagonal`` and ``subdiag`` never import ``numpy.ma``, as a
    float ``np.unique`` would (numpy 2.4), adding about 1.3 MB to the peak
    RSS of each run; ``row_bounds`` takes ``np.unique`` of int64 rows only."""
    code = (
        "import contextlib, io, sys\n"
        "from evalanche.cli import main\n"
        "for argv in (['matrix', '--merge', 'u1'], ['matrix', '--merge', 'u2'],\n"
        "             ['diagonal', '--rows', '3,1,3'], ['subdiag', '--merge', 'u2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([*argv, '--values', sys.argv[1]]) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n"
    )
    proc = _launch("-c", code, str(GOLDEN / "prune_values.csv"))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err


# --- fuzzing the input parsers through the CLI -------------------------------

_CELL = st.sampled_from(["1", "2", "0", "-1", "1.5", "1e400", "inf", "-inf", "nan", "a", "",
                         "green"])
_LOG10 = st.floats(allow_nan=False) | st.sampled_from([float("inf"), float("-inf")])


def _csv(header, lines):
    """Well-formed data lines, one of which may be swapped for a random line."""
    garbage = st.lists(_CELL, min_size=1, max_size=5).map(",".join)

    def text(args):
        body, bad, at = args
        if bad is not None:
            body[at % len(body)] = bad
        return "\n".join([header, *body]) + "\n"

    return st.tuples(lines, st.none() | garbage, st.integers(0, 9)).map(text)


_VALUES_LINES = st.lists(_LOG10, min_size=1, max_size=10).map(
    lambda xs: [f"{i},{x!r}" for i, x in enumerate(xs, start=1)])
_TRIANGLE = [(r, j) for r in range(1, 4) for j in range(r + 1)]  # the 9 cells of K=3
_MATRIX_LINES = st.lists(_LOG10, min_size=9, max_size=9).map(
    lambda xs: [f"{r},{j},{x!r},{colorize(LogValue.from_log10(x)).value}"
                for (r, j), x in zip(_TRIANGLE, xs)]
).flatmap(lambda lines: st.just(lines) | st.permutations(lines))  # sometimes out of order
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(-10, 10)
    | st.sampled_from([1e308, -1e308]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
_FUZZ_CONFIG = {
    "k": 3, "n_false": 1, "steps": 5, "seed": 3, "scheduler": "uniform",
    "null_dist": {"mean": 0.0, "sd": 1.0}, "true_dist_false_nulls": {"mean": -1.0, "sd": 1.0},
    "bet_dist": {"mean": -0.82, "sd": 1.0}, "tracked_rows": [1, 2], "checkpoints": [5],
    "merge_diagonal": {"kind": "nesp", "n": 1}, "merge_subdiagonal": {"kind": "nesp", "n": 2},
    "merge_matrix": {"kind": "mixture", "weights": [0.0, 0.5, 0.5]},
}
_POLY_KEYS = st.sampled_from(["", "1", "2", "1,2", "2,1", "1,a", "3", "0"])
_CASES = st.one_of(
    _csv("k,log10_value", _VALUES_LINES).map(lambda text: ("diagonal", "--values", text)),
    _csv("r,j,log10_value,bucket", _MATRIX_LINES).map(
        lambda text: ("region", "--matrix", text, "--row", "1", "--alpha", "10")),
    st.tuples(st.sampled_from(sorted(_FUZZ_CONFIG)), _JSON).map(
        lambda fv: ("simulate", "--config", json.dumps({**_FUZZ_CONFIG, fv[0]: fv[1]}))),
    # an sd whose log densities reach about -1e307 or -inf
    st.tuples(st.sampled_from(["null_dist", "bet_dist"]),
              st.sampled_from([1e-154, 3e-154, 1e-300, 5e-324]), st.integers(0, 9)).map(
        lambda fsd: ("simulate", "--config", json.dumps(
            {**_FUZZ_CONFIG, fsd[0]: {**_FUZZ_CONFIG[fsd[0]], "sd": fsd[1]}, "seed": fsd[2]}))),
    st.tuples(st.one_of(st.integers(-1, 4), _JSON),
              st.one_of(st.dictionaries(_POLY_KEYS, _JSON, max_size=4), _JSON)).map(
        lambda kc: ("validate-poly", "--poly", json.dumps({"k": kc[0], "coeffs": kc[1]}))),
)


@settings(max_examples=150, deadline=None)
@given(case=_CASES)
def test_cli_parsers_never_raise(tmp_path_factory, case):
    """Generated inputs exit 0, 1 or 2; a failure is one `error:` line."""
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    command, flag, text, *rest = case
    (work / "input").write_text(text)
    argv = [command, flag, str(work / "input"), *rest]
    if command == "simulate":
        argv += ["--out", str(work / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
