import dataclasses
import json
import math
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evalanche import (
    ExperimentConfig,
    LogValue,
    MergeSpec,
    RankedValues,
    U1,
    colorize,
    confidence_region,
    discovery_matrix,
    regularize,
    run_experiment,
)
from evalanche import cli, formats
from evalanche.discovery import DiscoveryMatrix
from evalanche.errors import DomainError
from evalanche.logvalue import LN10
from evalanche.polynomials import MultiaffinePoly
from oracles import parse_matrix_csv_oracle

GOLDEN = Path(__file__).parent / "golden"


def small_run():
    cfg = ExperimentConfig(
        k=5, n_false=2, null_dist=(0, 1), true_dist_false_nulls=(-1, 1),
        bet_dist=(-0.82, 1), steps=20, seed=11, tracked_rows=(1, 3), checkpoints=(20,),
    )
    return cfg, run_experiment(cfg)


def test_float_round_trip_formatting():
    """The values, series and matrix writers print each float as its repr,
    which parses back to the same float."""
    xs = [0.0, 1.0, 13 / 3, -2.5, 1e-300, 1e300, math.inf, -math.inf, -0.0]
    values = [LogValue(x * LN10) for x in xs]
    text = formats.values_csv(values)
    assert [line.split(",")[1] for line in text.splitlines()[1:]] == [repr(v.log10) for v in values]
    assert [v.log10 for v in formats.parse_values_csv(text)] == [v.log10 for v in values]

    records = [(1, 1, "diagonal", x) for x in xs]
    text = formats.series_csv(records)
    assert [line.split(",")[3] for line in text.splitlines()[1:]] == [repr(x) for x in xs]
    assert formats.parse_series_csv(text) == records

    log10 = np.full((3, 4), np.nan)
    log10[np.tril_indices(3, 1, 4)] = xs
    text = formats.matrix_csv(DiscoveryMatrix(log10))
    assert [line.split(",")[2] for line in text.splitlines()[1:]] == [repr(x) for x in xs]
    assert formats.matrix_csv(formats.parse_matrix_csv(text)) == text


def test_writers_print_no_numpy_scalars(tmp_path, capsys, monkeypatch):
    v = LogValue(np.float64(2.0))
    l10 = repr(2.0 / LN10)
    cell = f"{l10},{formats.linear_cell(2.0 / LN10)}"
    assert formats.values_csv([v]) == f"k,log10_value\n1,{l10}\n"
    assert formats.merge_report(U1, v, "csv") == f"log10_value,value\n{cell}\n"
    assert formats.row_table("diagonal", U1, [(1, v)], "csv") == f"r,log10_value,value\n1,{cell}\n"
    m = regularize(discovery_matrix(RankedValues.from_values([LogValue.of(x) for x in (8, 4, 1)]), U1))
    region = confidence_region(m, 2, np.float64(10))
    assert formats.region_report(region, "text") == "r=2 alpha=10.0 members={0..2} lower_bound=0\n"
    texts = [formats.merge_report(U1, v, "json"), formats.row_table("diagonal", U1, [(1, v)], "json"),
             formats.region_report(region, "json")]

    poly = MultiaffinePoly(k=2, coeffs={0: np.float64(0.2), 1: np.float64(0.15),
                                        2: np.float64(0.15), 3: np.float64(0.5)})
    monkeypatch.setattr(formats, "poly_from_json", lambda text: poly)
    path = tmp_path / "poly.json"
    path.write_text("{}")
    assert cli.main(["validate-poly", "--poly", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "weights: 0.2,0.3,0.5"
    for text in [*texts, out]:
        assert "np." not in text and "float64" not in text, text


def test_series_csv_round_trip_is_byte_identical():
    _, run = small_run()
    records = formats.series_records(run)
    text = formats.series_csv(records)
    assert text.startswith("step,row,kind,log10_value,value\n")
    assert len(text.splitlines()) == 1 + 20 * 4
    parsed = formats.parse_series_csv(text)
    assert parsed == records
    again = formats.series_csv(parsed)
    assert again == text


def test_series_value_column_blank_outside_linear_range():
    from evalanche.discovery import DiagonalSeries
    from evalanche.simulate import RunResult
    from evalanche.martingales import MartingaleTable

    def series(row, kind, *values):
        return DiagonalSeries(row=row, kind=kind, log10_values=np.array(values))

    # row 3 is diagonal-only; row 1 has a diagonal shorter than its subdiagonal
    run = RunResult(
        final_table=MartingaleTable.fresh(3),
        diagonal_series={3: series(3, "diagonal", 0.5, 400.0, -400.0, -math.inf),
                         1: series(1, "diagonal", 1.0, 2.0)},
        subdiagonal_series={1: series(1, "subdiagonal", 0.25, 0.75, 1.5)},
        matrices={},
        ground_truth=frozenset(),
    )
    records = formats.series_records(run)
    assert records == [
        (1, 1, "diagonal", 1.0), (1, 1, "subdiagonal", 0.25), (1, 3, "diagonal", 0.5),
        (2, 1, "diagonal", 2.0), (2, 1, "subdiagonal", 0.75), (2, 3, "diagonal", 400.0),
        (3, 1, "subdiagonal", 1.5), (3, 3, "diagonal", -400.0),
        (4, 3, "diagonal", -math.inf),
    ]
    text = formats.series_csv(records)
    lines = [line for line in text.splitlines()[1:] if ",3,diagonal," in line]
    cells = [line.split(",")[4] for line in lines]
    logs = [line.split(",")[3] for line in lines]
    assert cells[0] != "" and float(cells[0]) == pytest.approx(10 ** 0.5)
    assert cells[1] == ""  # overflows a double
    assert cells[2] == ""  # positive but underflows
    assert cells[3] == "0.0"  # exact zero is representable
    assert logs[3] == "-inf"  # the log column is always present
    assert formats.series_csv(formats.parse_series_csv(text)) == text


@pytest.mark.parametrize(
    "line",
    [
        "2,1,diagonal,0.5",  # four fields
        "2,1,diagonal,0.0,1.0,1.0",  # six fields
        "a,1,diagonal,0.0,1.0",  # non-integer step
        "2,1.5,diagonal,0.0,1.0",  # non-integer row
        "2,1,bogus,0.0,1.0",  # unknown kind, with a consistent value
        "2,1,diagonal,abc,1.0",  # log10_value not a number
        "2,1,diagonal,nan,",  # NaN log10_value
        "2,1,diagonal,0.0,abc",  # value not a number
        "2,1,diagonal,2.0,999",  # value disagrees with log10_value
        "2,1,diagonal,2.0,100",  # same number, not the written text
        "2,1,diagonal,400.0,inf",  # must be blank above the double range
        "2,1,diagonal,2.0,",  # must not be blank inside it
    ],
)
def test_parse_series_csv_rejects_bad_lines(line):
    text = f"step,row,kind,log10_value,value\n1,1,diagonal,0.0,1.0\n{line}\n"
    with pytest.raises(DomainError, match="^line 3: "):
        formats.parse_series_csv(text)


def test_matrix_csv_round_trip_and_buckets():
    rk = RankedValues.from_values([LogValue.of(v) for v in (8, 4, 1)])
    m = discovery_matrix(rk, U1)
    text = formats.matrix_csv(m)
    assert text.startswith("r,j,log10_value,bucket\n")
    parsed = formats.parse_matrix_csv(text)
    assert formats.matrix_csv(parsed) == text
    for line in text.splitlines()[1:]:
        r, j, l10, bucket = line.split(",")
        assert colorize(LogValue.from_log10(float(l10))).value == bucket


def test_matrix_csv_rejects_gaps():
    with pytest.raises(DomainError, match=r"^line 2: expected cell \(1,0\), got '2,0,0.0,green'$"):
        formats.parse_matrix_csv("r,j,log10_value,bucket\n2,0,0.0,green\n")
    with pytest.raises(DomainError, match="^matrix CSV must start with"):
        formats.parse_matrix_csv("nope\n")


# Text mutations of a matrix CSV's data lines; the benign ones change no cell.
_BENIGN = ("blank", "crlf", "spaces")
_MUTATIONS = (*_BENIGN, "swap", "drop", "repeat", "add_comma", "remove_comma", "index",
              "value", "bucket")


@st.composite
def _mutated_matrix_csv(draw):
    """(text, mutations): a matrix CSV of K <= 6 after 1-3 mutations."""
    k = draw(st.integers(1, 6))
    edges = st.sampled_from([math.inf, -math.inf, 0.0, 1.0, 8.0, 20.0])
    cells = st.one_of(st.floats(-3.0, 25.0), edges)
    log10 = np.full((k, k + 1), np.nan)
    log10[np.tril_indices(k, 1, k + 1)] = draw(st.lists(cells, min_size=k * (k + 3) // 2,
                                                        max_size=k * (k + 3) // 2))
    header, *lines = formats.matrix_csv(DiscoveryMatrix(log10)).splitlines()
    newline = "\n"
    mutations = draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3))
    for kind in mutations:
        if not lines:
            break
        i, at = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines)))
        fields = lines[i].split(",")
        if kind == "blank":
            lines.insert(at, "")
        elif kind == "crlf":
            newline = "\r\n"
        elif kind == "swap":
            lines[i], lines[at - 1] = lines[at - 1], lines[i]
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(at, lines[i])
        elif kind == "add_comma":
            c = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:c] + "," + lines[i][c:]
        elif kind == "remove_comma":
            c = draw(st.sampled_from([c for c, ch in enumerate(lines[i]) if ch == ","] or [None]))
            lines[i] = lines[i] if c is None else lines[i][:c] + lines[i][c + 1:]
        elif len(fields) == 4:  # the field mutations need the writer's four fields
            if kind == "spaces":
                fields[2] = f" {fields[2]} "
            elif kind == "index":
                f = draw(st.integers(0, 1))
                fields[f] = draw(st.sampled_from(["0", "+"])) + fields[f]
            elif kind == "value":
                fields[2] = draw(st.sampled_from(["nan", "inf", "-inf", "1_0", "abc"]))
            else:
                fields[3] = draw(st.sampled_from([*formats._BUCKET_NAMES, "purple"]))
            lines[i] = ",".join(fields)
    return newline.join([header, *lines, ""]), mutations


@settings(max_examples=400, deadline=None)
@given(_mutated_matrix_csv())
@example(("r,j,log10_value,bucket\n1,0,nan,black\n1,1,0.0,green\n", ["value"]))  # NaN buckets black
@example(("r,j,log10_value,bucket\n1,0,0.0,green\n1,1,0.0,green\n02,0,0.0,green\n2,1,0.0,green\n"
          "2,2,0.0,green\n", ["index"]))  # a row's first index
def test_parse_matrix_csv_matches_line_oracle(case):
    """The row-at-a-time parser accepts exactly the texts the line-at-a-time
    oracle accepts, with bit-identical cells; on a text with at most one
    mutation that is not benign both name the same fault."""
    text, mutations = case
    try:
        want = parse_matrix_csv_oracle(text).log10
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            formats.parse_matrix_csv(text)
        if len([m for m in mutations if m not in _BENIGN]) <= 1:
            assert str(got.value) == str(exc)
    else:
        assert formats.parse_matrix_csv(text).log10.tobytes() == want.tobytes()


def _k500_u1_matrix() -> DiscoveryMatrix:
    rk = RankedValues.from_logs(np.random.default_rng(42).normal(0.0, 5.0, 500))
    return discovery_matrix(rk, U1)


def _peak(fn, arg):
    """(tracemalloc peak of ``fn(arg)``, its result), after one call that
    fills first-call caches."""
    out = fn(arg)
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_parse_matrix_csv_peak_memory():
    """Parsing a K = 500 u1 matrix (4.2 MB of text) peaks below 3.25 bytes of
    heap per byte of text (13.6 MB).  Measured on Python 3.11.7, numpy 2.4.6:
    12.4 MB, most of it the ``splitlines`` list; the line-at-a-time parser,
    which kept a Python float and a bucket index per line, peaked at 16.3 MB,
    and an earlier one, which also kept per-line r and j lists and a flat
    cell index to find repeated and missing cells, at 21.7 MB."""
    text = formats.matrix_csv(_k500_u1_matrix())
    peak, _ = _peak(formats.parse_matrix_csv, text)
    assert peak <= 3.25 * len(text), (peak, len(text))


@pytest.mark.parametrize("writer", [formats.matrix_csv, formats.heatmap_svg])
def test_matrix_writers_peak_memory(writer):
    """Writing a K = 500 u1 matrix (4.2 MB of CSV, 7.7 MB of SVG) peaks below
    2.25 bytes of heap per byte of text: the row strings plus the joined text.
    Measured on Python 3.11.7, numpy 2.4.6: 8.4 and 15.4 MB; writers that kept
    a string per cell peaked at 15.6 MB (CSV) and 22.5 MB (SVG)."""
    peak, text = _peak(writer, _k500_u1_matrix())
    assert peak <= 2.25 * len(text), (peak, len(text))


def test_series_csv_peak_memory():
    """An 80,000-line series (the paper study's 4 rows, 2 kinds and 10,000
    steps; 4.5 MB of text) peaks below 2.25 bytes of heap per byte of text.
    Measured on Python 3.11.7, numpy 2.4.6: 9.1 MB; one string per line
    joined once peaked at 13.6 MB."""
    l10 = np.random.default_rng(1).normal(3.0, 5.0, 80_000).tolist()
    keys = [(step, row, kind) for step in range(1, 10_001) for row in (98, 99, 100, 101)
            for kind in ("diagonal", "subdiagonal")]
    records = [(*key, x) for key, x in zip(keys, l10)]
    peak, text = _peak(formats.series_csv, records)
    assert peak <= 2.25 * len(text), (peak, len(text))


def test_matrix_csv_keeps_infinite_cells():
    text = "r,j,log10_value,bucket\n1,0,inf,black\n1,1,-inf,green\n"
    m = formats.parse_matrix_csv(text)
    assert m.rows[0].tolist() == [math.inf, -math.inf]
    assert formats.matrix_csv(m) == text


def test_values_csv_round_trip():
    values = [LogValue.of(v) for v in (8.0, 4.0, 1.0, 2.5e-30)]
    text = formats.values_csv(values)
    back = formats.parse_values_csv(text)
    assert [v.log10 for v in back] == [v.log10 for v in values]
    assert formats.values_csv(back) == text
    shuffled = "k,log10_value\n2,1.0\n\n1,0.5\n"
    assert [v.log10 for v in formats.parse_values_csv(shuffled)] == [0.5, 1.0]


def test_heatmap_svg_structure():
    rk = RankedValues.from_values([LogValue.of(v) for v in (8, 4, 1)])
    m = discovery_matrix(rk, U1)
    svg = formats.heatmap_svg(m)
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    # one rect per cell plus the background
    assert svg.count("<rect") == 1 + sum(r + 1 for r in range(1, 4))
    # fills match the public bucket mapping
    for r in range(1, 4):
        for j in range(r + 1):
            hexcode = formats.BUCKET_HEX[colorize(m.entry(r, j))]
            assert hexcode in svg


def test_series_svg_structure():
    _, run = small_run()
    svg = formats.series_svg(
        list(run.diagonal_series.values()) + list(run.subdiagonal_series.values())
    )
    assert svg.count("<polyline") == 4
    assert svg.startswith("<svg ")


def test_series_svg_pins_non_finite_points():
    """+inf and NaN points sit on the top edge, -inf on the bottom edge."""
    from evalanche.discovery import DiagonalSeries

    values = np.array([0.0, math.inf, -math.inf, math.nan, 1.0])
    svg = formats.series_svg([DiagonalSeries(row=1, kind="diagonal", log10_values=values)])
    assert '<line x1="0" y1="300.00" x2="640" y2="300.00"' in svg
    assert 'points="128.00,300.00 256.00,0.00 384.00,400.00 512.00,0.00 640.00,100.00"' in svg


def test_merge_spec_json_round_trip():
    for spec in (U1, MergeSpec.mixture((0.0, 0.5, 0.5))):
        obj = formats.merge_spec_to_obj(spec)
        assert formats.merge_spec_from_obj(obj) == spec
    with pytest.raises(DomainError):
        formats.merge_spec_from_obj({"kind": "nope"})


@pytest.mark.parametrize(
    "flag,expected",
    [
        ("u1", MergeSpec.nesp(1)),
        ("u4", MergeSpec.nesp(4)),
        ("mix:0,0.5,0.5", MergeSpec.mixture((0.0, 0.5, 0.5))),
    ],
)
def test_parse_merge_flag(flag, expected):
    assert formats.parse_merge_flag(flag) == expected


def test_parse_merge_flag_rejects_garbage():
    for bad in ("u0", "ux", "mix:", "mix:a,b", "plain"):
        with pytest.raises(DomainError):
            formats.parse_merge_flag(bad)


def test_config_json_round_trip():
    cfg, _ = small_run()
    text = formats.config_to_json(cfg)
    back = formats.config_from_json(text)
    assert back == cfg
    assert formats.config_to_json(back) == text


def test_config_json_errors():
    with pytest.raises(DomainError):
        formats.config_from_json("{not json")
    with pytest.raises(DomainError):
        formats.config_from_json(json.dumps({"k": 3}))
    with pytest.raises(DomainError, match="config must be a JSON object"):
        formats.config_from_json("[]")
    obj = formats.config_to_obj(small_run()[0])
    with pytest.raises(DomainError, match="bet_dist sd is too large"):
        formats.config_from_json(json.dumps({**obj, "bet_dist": {"mean": 0, "sd": 10 ** 400}}))
    with pytest.raises(DomainError, match="not valid JSON"):
        formats.config_from_json('{"k": 1' + "0" * 5000 + "}")


def test_config_schema_covers_every_field():
    """Every ExperimentConfig field type has a codec; a config that leaves no
    default in place (the scheduler has one legal value) round-trips byte for
    byte; a field is required exactly when it has no default."""
    fields = dataclasses.fields(ExperimentConfig)
    hints = typing.get_type_hints(ExperimentConfig)
    assert {hints[f.name] for f in fields} <= set(formats._CONFIG_CODECS)
    cfg = ExperimentConfig(
        k=7, n_false=3, null_dist=(0.25, 2.0), true_dist_false_nulls=(-1.5, 0.5),
        bet_dist=(-0.75, 1.25), steps=40, seed=2 ** 64 - 1, tracked_rows=(5, 2),
        merge_diagonal=MergeSpec.nesp(3), merge_subdiagonal=MergeSpec.mixture((0.25, 0.25, 0.5)),
        merge_matrix=MergeSpec.nesp(2), checkpoints=(40, 0),
    )
    for f in fields:
        if f.default is not dataclasses.MISSING and f.name != "scheduler":
            assert getattr(cfg, f.name) != f.default, f.name
    text = formats.config_to_json(cfg)
    assert list(json.loads(text)) == sorted(f.name for f in fields)
    assert formats.config_from_json(text) == cfg
    assert formats.config_to_json(formats.config_from_json(text)) == text
    obj = json.loads(text)
    for f in fields:
        rest = {name: value for name, value in obj.items() if name != f.name}
        if f.default is dataclasses.MISSING:
            with pytest.raises(DomainError, match=f"config is missing field '{f.name}'"):
                formats.config_from_obj(rest)
        else:
            assert getattr(formats.config_from_obj(rest), f.name) == f.default, f.name


def test_poly_json():
    poly = formats.poly_from_json(
        '{"k": 2, "coeffs": {"": 0.2, "1": 0.15, "2": 0.15, "1,2": 0.5}}'
    )
    assert poly.k == 2
    assert poly.coefficient((1, 2)) == 0.5
    assert poly.coefficient(()) == 0.2
    with pytest.raises(DomainError):
        formats.poly_from_json('{"k": 2}')
    with pytest.raises(DomainError, match="repeats a monomial"):
        formats.poly_from_json('{"k": 2, "coeffs": {"1,2": 0.5, "2,1": 0.5}}')
    with pytest.raises(DomainError, match="not valid JSON"):
        formats.poly_from_json('{"k": 1' + "0" * 5000 + ', "coeffs": {}}')


def test_manifest_lists_versions_and_files():
    cfg, _ = small_run()
    obj = json.loads(formats.manifest_json(cfg, ["a.csv", "b.svg"]))
    assert obj["seed"] == cfg.seed
    assert set(obj["versions"]) == {"evalanche", "numpy", "python"}
    assert obj["files"] == ["a.csv", "b.svg"]
    assert obj["config"]["k"] == cfg.k


def test_write_bundle(tmp_path):
    cfg, run = small_run()
    bundle = formats.write_bundle(cfg, run, tmp_path / "out")
    assert set(bundle) == {
        "manifest.json", "series.csv", "series.svg", "matrix_20.csv",
        "matrix_20_regularized.csv", "heatmap_20.svg", "regions_20.json",
    }
    assert all(path == tmp_path / "out" / name for name, path in bundle.items())
    manifest = json.loads(bundle["manifest.json"].read_text())
    on_disk = {p.name for p in (tmp_path / "out").iterdir()}
    assert manifest["files"] == sorted(bundle) == sorted(on_disk)
    # region report matches the library computation
    report = json.loads(bundle["regions_20.json"].read_text())
    reg = regularize(run.matrices[20])
    for entry in report["regions"]:
        region = confidence_region(reg, entry["r"], entry["alpha"])
        assert sorted(region.members) == entry["members"]
        assert region.lower_bound == entry["lower_bound"]


def test_bundle_matches_golden_bytes(tmp_path):
    """Every file of the small run's bundle but the manifest, which holds
    version strings, is pinned byte for byte."""
    cfg, run = small_run()
    bundle = formats.write_bundle(cfg, run, tmp_path)
    golden = GOLDEN / "small_run"
    assert sorted(p.name for p in golden.iterdir()) == sorted(set(bundle) - {"manifest.json"})
    for p in golden.iterdir():
        assert bundle[p.name].read_bytes() == p.read_bytes(), p.name


def test_json_text_is_strict():
    with pytest.raises(ValueError):
        formats.json_text({"x": math.nan})
    with pytest.raises(ValueError):
        formats.json_text({"x": math.inf})


def test_bundle_reproducible(tmp_path):
    cfg, run = small_run()
    a = formats.write_bundle(cfg, run, tmp_path / "a")
    cfg2, run2 = small_run()
    b = formats.write_bundle(cfg2, run2, tmp_path / "b")
    assert list(a) == list(b)
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes(), name
