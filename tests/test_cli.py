import json
from pathlib import Path

import pytest

from evalanche import (
    ExperimentConfig,
    LogValue,
    RankedValues,
    U1,
    confidence_region,
    diagonal_row,
    discovery_matrix,
    regularize,
)
from evalanche import formats
from evalanche.cli import main

GOLDEN = Path(__file__).parent / "golden"


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


def test_merge_json_format(capsys):
    code, out, _ = run_cli(capsys, "merge", "--values", "8,4,1", "--merge", "u1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(13 / 3, rel=1e-12)
    assert obj["merge"] == {"kind": "nesp", "n": 1}


def test_diagonal_matches_library(capsys):
    code, out, _ = run_cli(capsys, "diagonal", "--values", "8,4,1", "--merge", "u1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,log10_value,value"
    rk = RankedValues.from_values([LogValue.of(v) for v in (8, 4, 1)])
    for line in lines[1:]:
        r, l10, _val = line.split(",")
        assert float(l10) == diagonal_row(rk, int(r), U1).log10


def test_subdiag_selected_rows(capsys):
    code, out, _ = run_cli(
        capsys, "subdiag", "--values", "8,4,1", "--merge", "u2", "--rows", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    _, l10, value = lines[1].split(",")
    assert float(value) == pytest.approx(44 / 3, rel=1e-12)


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


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli(capsys, "bogus-command")[0] == 1
    assert run_cli(capsys, "merge", "--values", "8,4")[0] == 1  # --merge required
    assert run_cli(capsys, "merge", "--values", "8,4", "--merge", "nope")[0] == 1
    assert run_cli(capsys, "merge", "--values", "a,b", "--merge", "u1")[0] == 1
    assert run_cli(capsys, "simulate", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path))[0] == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{")
    assert run_cli(capsys, "simulate", "--config", str(bad_cfg), "--out", str(tmp_path))[0] == 1
    for n in ("0", "-1"):
        code, out, err = run_cli(capsys, "oracle-check", "--instances", n)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1


def test_domain_errors_exit_2(capsys):
    # a value outside [0, inf] is rejected by the library, not the parser
    code, _, err = run_cli(capsys, "merge", "--values", "nan,4", "--merge", "u1")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "merge", "--values=-3,4", "--merge", "u1")
    assert code == 2


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--instances", "3", "--seed", "5")
    assert code == 0
    assert out.count("ok ") == 3


def test_entry_point_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
