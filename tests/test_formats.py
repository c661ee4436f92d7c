import contextlib
import dataclasses
import io
import json
import math
import tracemalloc
import typing
from pathlib import Path
from unittest import mock

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
    paper_experiment_config,
    regularize,
    run_experiment,
)
from evalanche import cli, discovery, formats
from evalanche.discovery import DiagonalSeries, DiscoveryMatrix, RowTracker
from evalanche.errors import DomainError
from evalanche.logvalue import LN10
from evalanche.martingales import MartingaleTable
from evalanche.polynomials import MultiaffinePoly
from evalanche.simulate import RunResult
from oracles import (
    bucket_oracle, linear_value_oracle, matrix_csv_oracle, matrix_json_oracle,
    parse_matrix_csv_oracle, series_csv_oracle, series_svg_oracle,
)
from test_cli import _pipe

GOLDEN = Path(__file__).parent / "golden"


def golden_config(name: str) -> ExperimentConfig:
    """The config of the golden bundle ``GOLDEN / name``."""
    return formats.config_from_json((GOLDEN / f"{name}.json").read_text())


def small_run():
    cfg = golden_config("small_run")
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
    """The small run's series CSV is the per-line writer's bytes, and each
    line's log10 text is the repr of its record's value, which reads back to
    the same bits."""
    _, run = small_run()
    records = formats.series_records(run)
    text = formats.series_csv(records)
    assert text.startswith("step,row,kind,log10_value,value\n")
    assert len(text.splitlines()) == 1 + 20 * 4
    assert text == series_csv_oracle(records)
    logs = [line.split(",")[3] for line in text.splitlines()[1:]]
    assert logs == [repr(l10) for *_, l10 in records]
    assert [float(x).hex() for x in logs] == [l10.hex() for *_, l10 in records]


def test_series_value_column_blank_outside_linear_range():
    from evalanche.discovery import DiagonalSeries
    from evalanche.simulate import RunResult
    from evalanche.martingales import MartingaleTable

    def series(row, kind, *values):
        return DiagonalSeries(row=row, kind=kind, log10_values=np.array(values))

    # rows 1 and 3, each with a diagonal and a subdiagonal of four steps, as
    # run_experiment makes them; row 3's diagonal crosses the double range
    run = RunResult(
        final_table=MartingaleTable.fresh(3),
        diagonal_series={3: series(3, "diagonal", 0.5, 400.0, -400.0, -math.inf),
                         1: series(1, "diagonal", 1.0, 2.0, 3.0, 4.0)},
        subdiagonal_series={1: series(1, "subdiagonal", 0.25, 0.75, 1.5, 2.5),
                            3: series(3, "subdiagonal", -1.0, 350.0, -350.0, 0.0)},
        matrices={},
        ground_truth=frozenset(),
    )
    records = formats.series_records(run)
    assert records == [
        (1, 1, "diagonal", 1.0), (1, 1, "subdiagonal", 0.25),
        (1, 3, "diagonal", 0.5), (1, 3, "subdiagonal", -1.0),
        (2, 1, "diagonal", 2.0), (2, 1, "subdiagonal", 0.75),
        (2, 3, "diagonal", 400.0), (2, 3, "subdiagonal", 350.0),
        (3, 1, "diagonal", 3.0), (3, 1, "subdiagonal", 1.5),
        (3, 3, "diagonal", -400.0), (3, 3, "subdiagonal", -350.0),
        (4, 1, "diagonal", 4.0), (4, 1, "subdiagonal", 2.5),
        (4, 3, "diagonal", -math.inf), (4, 3, "subdiagonal", 0.0),
    ]
    assert all(type(l10) is float for *_, l10 in records)
    untracked = RunResult(final_table=MartingaleTable.fresh(3), diagonal_series={},
                          subdiagonal_series={}, matrices={}, ground_truth=frozenset())
    assert formats.series_records(untracked) == []
    text = formats.series_csv(records)
    lines = [line for line in text.splitlines()[1:] if ",3,diagonal," in line]
    cells = [line.split(",")[4] for line in lines]
    logs = [line.split(",")[3] for line in lines]
    assert cells[0] != "" and float(cells[0]) == pytest.approx(10 ** 0.5)
    assert cells[1] == ""  # overflows a double
    assert cells[2] == ""  # positive but underflows
    assert cells[3] == "0.0"  # exact zero is representable
    assert logs[3] == "-inf"  # the log column is always present
    assert text == series_csv_oracle(records)


# the largest log10 values whose linear value is a finite double / rounds to
# the smallest subnormal, 5e-324 (log10 -323.306), rather than to 0.0
_OVERFLOW_LOG10 = 308.2547155599167
_UNDERFLOW_LOG10 = -323.6072453387797


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.floats(-400.0, 400.0),
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.sampled_from([math.nextafter(_OVERFLOW_LOG10, -math.inf), _OVERFLOW_LOG10,
                     math.nextafter(_OVERFLOW_LOG10, math.inf)]),
    st.sampled_from([math.nextafter(_UNDERFLOW_LOG10, -math.inf), _UNDERFLOW_LOG10,
                     math.nextafter(_UNDERFLOW_LOG10, math.inf)]),
    st.floats(-323.7, -323.2),  # the smallest subnormal and where it rounds to 0.0
    st.floats(allow_nan=False),
))
def test_linear_value_matches_logvalue_rule(log10_value):
    """linear_value computes the LogValue rule without making a LogValue:
    the same float, bit for bit, or None."""
    got, want = formats.linear_value(log10_value), linear_value_oracle(log10_value)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.hex() == want.hex()


def test_linear_value_edges():
    assert formats.linear_value(_OVERFLOW_LOG10) is not None
    assert formats.linear_value(math.nextafter(_OVERFLOW_LOG10, math.inf)) is None
    assert formats.linear_value(-323.306) == 5e-324
    assert formats.linear_value(_UNDERFLOW_LOG10) == 5e-324
    assert formats.linear_value(math.nextafter(_UNDERFLOW_LOG10, -math.inf)) is None
    assert formats.linear_value(-math.inf) == 0.0 and formats.linear_value(math.inf) is None
    for rule in (formats.linear_value, linear_value_oracle):
        with pytest.raises(DomainError):
            rule(math.nan)


_SERIES_KEYS = ((1, "diagonal"), (1, "subdiagonal"), (7, "diagonal"))
_SERIES_EDGES = (0.0, -0.0, math.inf, -math.inf, 1.0, math.nextafter(1.0, math.inf),
                 *(math.nextafter(edge, toward) for edge in (_OVERFLOW_LOG10, _UNDERFLOW_LOG10)
                   for toward in (-math.inf, math.inf)), _OVERFLOW_LOG10, _UNDERFLOW_LOG10)


@st.composite
def _series_with_runs(draw):
    """Records of three interleaved series, whose values often repeat the same
    series' value before them: runs, +-0.0 runs and the linear-range edges."""
    last: dict = {}
    records = []
    for step in range(1, draw(st.integers(0, 40)) + 1):
        key = draw(st.sampled_from(_SERIES_KEYS))
        how = draw(st.sampled_from(["repeat", "repeat", "edge", "any", "negate"]))
        if how == "edge" or key not in last:
            l10 = draw(st.sampled_from(_SERIES_EDGES))
        elif how == "any":
            l10 = draw(st.floats(allow_nan=False))
        else:
            l10 = -last[key] if how == "negate" else last[key]  # -0.0 after 0.0, and back
        last[key] = l10
        records.append((step, *key, l10))
    return records


@settings(max_examples=400, deadline=None)
@given(_series_with_runs())
def test_series_csv_matches_per_line_writer(records):
    """The series writer, which reuses the text of a value equal bit for bit
    to its series' value before it, writes the bytes of the per-line writer."""
    text = formats.series_csv(records)
    assert text == series_csv_oracle(records)


def test_series_csv_nan_after_a_run_raises():
    """A NaN is never equal to the value before it, so it is never reused: it
    raises as the per-line writer raises, after a run and after a NaN."""
    for tail in ([math.nan], [math.nan, math.nan]):
        records = [(step, 1, "diagonal", l10) for step, l10 in enumerate([2.0, 2.0, *tail], 1)]
        for writer in (formats.series_csv, series_csv_oracle):
            with pytest.raises(DomainError):
                writer(records)


def _tracked_run(rows, columns) -> RunResult:
    """A run tracking ``rows``, whose series CSV columns (row by row, diagonal
    first) hold ``columns``."""
    series = {kind: {row: DiagonalSeries(row=row, kind=kind, log10_values=np.asarray(c, float))
                     for row, c in zip(rows, columns[i::2])}
              for i, kind in enumerate(("diagonal", "subdiagonal"))}
    return RunResult(final_table=MartingaleTable.fresh(1), diagonal_series=series["diagonal"],
                     subdiagonal_series=series["subdiagonal"], matrices={},
                     ground_truth=frozenset())


# the edges, 308.0 just inside the linear range, and values with a blank linear cell
_COLUMN_POOL = np.array([*_SERIES_EDGES, 308.0, 309.0, -330.0, 3e300, -3e300])


@st.composite
def _tracked_columns(draw):
    """1-3 tracked rows of one length: 0, 1, or up to two chunk edges past
    (``_CHUNK_LINES // columns`` steps a chunk), each column runs of pool and
    normal values; at each chunk start a column's run goes on over the edge,
    flips 0.0 to -0.0 (or back), or is left as drawn."""
    rows = sorted(draw(st.sets(st.integers(1, 300), min_size=1, max_size=3)))
    steps = formats._CHUNK_LINES // (2 * len(rows))
    n = draw(st.sampled_from([0, 1, 2, steps - 1, steps, steps + 1, 2 * steps + 2])
             | st.integers(0, 2 * steps + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(2 * len(rows)):
        fresh = rng.random(n) < draw(st.sampled_from([0.05, 0.5, 1.0]))
        fresh[:1] = True
        picks = np.where(rng.random(n) < 0.5, _COLUMN_POOL[rng.integers(_COLUMN_POOL.size, size=n)],
                         rng.normal(0.0, 5.0, n))
        column = picks[np.maximum.accumulate(np.where(fresh, np.arange(n), 0))]
        for a in range(steps, n, steps):
            edge = draw(st.sampled_from(["span", "flip", "as drawn"]))
            if edge == "span":
                column[a] = column[a - 1]
            elif edge == "flip":
                column[a - 1], column[a] = draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0)]))
        columns.append(column)
    return rows, columns


@settings(max_examples=100, deadline=None)
@given(_tracked_columns())
def test_series_csv_columns_match_record_writers(tracked):
    """The column writer, which makes each column's line tail once per run of
    equal bits within a chunk of steps, writes the bytes of the record writer
    and of the per-line writer."""
    run = _tracked_run(*tracked)
    records = formats.series_records(run)
    text = "".join(formats.series_csv_columns(run))
    assert text == formats.series_csv(records)
    assert text == series_csv_oracle(records)


def test_series_csv_columns_nan_raises():
    """A NaN after a run, after a NaN, or at a chunk's first step starts a run,
    so ``linear_cell`` raises on it."""
    steps = formats._CHUNK_LINES // 2
    for tail in ([math.nan], [math.nan, math.nan]):
        run = _tracked_run([1], [[2.0, 2.0, *tail], [0.0] * (2 + len(tail))])
        with pytest.raises(DomainError):
            "".join(formats.series_csv_columns(run))
    column = [2.0] * (steps + 2)
    column[steps:] = [math.nan] * 2
    run = _tracked_run([1], [[1.0] * (steps + 2), column])
    chunks = formats.series_csv_columns(run)
    next(chunks), next(chunks)  # the header and the first chunk hold no NaN
    with pytest.raises(DomainError):
        next(chunks)


_SVG_POOL = (0.0, -0.0, 1.0, -3.5, 250.0, math.inf, -math.inf, math.nan)


# a series of runs: each value drawn, then repeated 1-5 times
_svg_series = st.lists(st.tuples(st.sampled_from(_SVG_POOL) | st.floats(-50.0, 50.0), st.integers(1, 5)),
                       max_size=12).map(lambda runs: [x for x, times in runs for _ in range(times)])


@settings(max_examples=200, deadline=None)
@given(st.lists(_svg_series, max_size=5).map(lambda columns: [*columns, [], [7.0]]))
def test_series_svg_matches_one_format_call(columns):
    """The SVG writer, which shares x texts across series and makes a y text
    once per run of equal bits, writes the bytes of one format call per
    series, on series of unequal lengths, a zero-length and a one-point one."""
    series = [DiagonalSeries(row=i, kind=("diagonal", "subdiagonal")[i % 2],
                             log10_values=np.array(c, float))
              for i, c in enumerate(columns)]
    assert formats.series_svg(series) == series_svg_oracle(series)


def test_matrix_csv_round_trip_and_buckets():
    """serialize -> parse -> serialize is byte-identical, each bucket is its
    cell's, and the JSON report holds the CSV's cells, bit for bit: the K = 3
    example, and K = 200 under u2, a quarter of whose cells repeat the bits of
    the cell above them."""
    for values, spec in (((8, 4, 1), U1),
                         (np.random.default_rng(7).lognormal(0.0, 2.0, 200).tolist(), MergeSpec.nesp(2))):
        m = discovery_matrix(RankedValues.from_values([LogValue.of(v) for v in values]), spec)
        text = formats.matrix_csv(m)
        assert text.startswith("r,j,log10_value,bucket\n")
        parsed = formats.parse_matrix_csv(text)
        assert formats.matrix_csv(parsed) == text
        for line in text.splitlines()[1:]:
            r, j, l10, bucket = line.split(",")
            assert colorize(LogValue.from_log10(float(l10))).value == bucket
        rows = json.loads("".join(formats.matrix_report(m, "json")))["rows"]
        assert [[float(x).hex() for x in row] for row in rows] == [[x.hex() for x in row.tolist()]
                                                                    for row in parsed.rows]


def test_matrix_csv_rejects_gaps():
    with pytest.raises(DomainError, match=r"^line 2: expected cell \(1,0\), got '2,0,0.0,green'$"):
        formats.parse_matrix_csv("r,j,log10_value,bucket\n2,0,0.0,green\n")
    with pytest.raises(DomainError, match="^matrix CSV must start with"):
        formats.parse_matrix_csv("nope\n")


# Text mutations of a matrix CSV's data lines; the benign ones change no cell.
_BENIGN = ("blank", "crlf", "spaces", "reformat")
_MUTATIONS = (*_BENIGN, "swap", "drop", "repeat", "add_comma", "remove_comma", "index",
              "value", "bucket")


@st.composite
def _mutated_matrix_csv(draw):
    """(text, mutations): a matrix CSV of K <= 6 after 1-3 mutations."""
    k = draw(st.integers(1, 6))
    edges = st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1.0, 8.0, 20.0])
    cells = st.one_of(st.floats(-3.0, 25.0), edges)
    log10 = np.full((k, k + 1), np.nan)
    log10[np.tril_indices(k, 1, k + 1)] = draw(st.lists(cells, min_size=k * (k + 3) // 2,
                                                        max_size=k * (k + 3) // 2))
    for i, j in zip(*np.tril_indices(k - 1, 1, k + 1)):  # cells with a cell above them
        if draw(st.booleans()):
            log10[i + 1, j] = log10[i, j]
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
            elif kind == "reformat":  # the same value in other text: 1.0 -> 1.00, 1e-05 -> 1.0e-05
                mantissa, e, exponent = fields[2].strip().partition("e")
                if "inf" not in mantissa:
                    fields[2] = mantissa + ("0" if "." in mantissa else ".0") + e + exponent
            else:
                fields[3] = draw(st.sampled_from([*formats._BUCKET_NAMES, "purple"]))
            lines[i] = ",".join(fields)
    return newline.join([header, *lines, ""]), mutations


class _Unseekable(io.StringIO):
    """A text stream that, like a pipe, cannot seek."""

    def seekable(self) -> bool:
        return False

    def seek(self, *_):
        raise io.UnsupportedOperation("seek")


@settings(max_examples=400, deadline=None)
@given(_mutated_matrix_csv())
@example(("r,j,log10_value,bucket\n1,0,nan,black\n1,1,0.0,green\n", ["value"]))  # NaN buckets black
@example(("r,j,log10_value,bucket\n1,0,0.0,green\n1,1,0.0,green\n02,0,0.0,green\n2,1,0.0,green\n"
          "2,2,0.0,green\n", ["index"]))  # a row's first index
@example(("r,j,log10_value,bucket\n1,0,1.0,yellow\n1,1,-0.0,green\n2,0,1.00,yellow\n2,1,0.0,green\n"
          "2,2,0.0,green\n", ["reformat"]))  # a value repeated in other text, and -0.0 above 0.0
@example(("r,j,log10_value,bucket\n1,0,0.0,green\n\n1,1,0.0,green\n\n2,0,0.0,green\n2,1,nan,green\n"
          "2,2,0.0,green\n", ["blank", "blank", "value"]))  # blank lines in and between rows: the NaN is line 7
def test_parse_matrix_csv_matches_line_oracle(case):
    """The row-at-a-time parser accepts exactly the texts the line-at-a-time
    oracle accepts, with bit-identical cells; on a text with at most one
    mutation that is not benign both name the same fault.  A stream that, like
    a pipe, cannot seek gives the cells or the message of the text."""
    text, mutations = case
    try:
        want = parse_matrix_csv_oracle(text).log10
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            formats.parse_matrix_csv(text)
        if len([m for m in mutations if m not in _BENIGN]) <= 1:
            assert str(got.value) == str(exc)
        with pytest.raises(DomainError) as piped:
            formats.parse_matrix_csv(_Unseekable(text, newline=""))
        assert str(piped.value) == str(got.value)
    else:
        assert formats.parse_matrix_csv(text).log10.tobytes() == want.tobytes()
        assert formats.parse_matrix_csv(_Unseekable(text, newline="")).log10.tobytes() == want.tobytes()


_MAX_DOUBLE = 1.7976931348623157e308
_MATRIX_EDGES = (0.0, -0.0, math.inf, -math.inf, 1.0, 1e307, 5e-324, -5e-324, _MAX_DOUBLE,
                 -_MAX_DOUBLE)


@st.composite
def _matrix_with_repeats(draw):
    """A matrix of K <= 8 whose cells often carry the bits of the cell above
    them, or a near miss: the negated cell (0.0 above -0.0 and the reverse,
    +inf above -inf) or a neighbour one ulp away."""
    k = draw(st.integers(1, 8))
    log10 = np.full((k, k + 1), np.nan)
    for i, j in zip(*np.tril_indices(k, 1, k + 1)):
        how = draw(st.sampled_from(["copy", "copy", "negate", "ulp", "edge", "any"]))
        above = log10[i - 1, j] if i and j <= i else None
        if how == "edge" or above is None:
            log10[i, j] = draw(st.sampled_from(_MATRIX_EDGES))
        elif how == "any":
            log10[i, j] = draw(st.floats(allow_nan=False, allow_infinity=False))
        elif how == "ulp" and np.isfinite(above):  # not +-inf: its neighbour is the max double
            log10[i, j] = math.nextafter(above, draw(st.sampled_from([-math.inf, math.inf])))
        else:
            log10[i, j] = -above if how == "negate" else above
    return DiscoveryMatrix(log10)


@settings(max_examples=400, deadline=None)
@given(_matrix_with_repeats())
def test_matrix_csv_matches_per_cell_writer(m):
    """The matrix writer, which reuses the repr of a cell equal bit for bit to
    the cell above it, writes the bytes of the per-cell writer, and the parser,
    which reuses the float of a token equal to the token above it, reads every
    cell back bit for bit, sign of zero included."""
    text = formats.matrix_csv(m)
    assert text == matrix_csv_oracle(m)
    assert formats.parse_matrix_csv(text).log10.tobytes() == m.log10.tobytes()


# each decade edge and its two neighbours, signed zeros, the least and largest doubles
_BUCKET_SPECIALS = [
    *(math.nextafter(float(d), to) for d in formats._BUCKET_DECADES for to in (-math.inf, math.inf)),
    *map(float, formats._BUCKET_DECADES),
    0.0, -0.0, 5e-324, -5e-324, _MAX_DOUBLE, -_MAX_DOUBLE, math.inf, -math.inf,
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False) | st.sampled_from(_BUCKET_SPECIALS), min_size=1))
@example(_BUCKET_SPECIALS)
def test_buckets_match_natural_log_rule(xs):
    """The writer's, heatmap's and parser's bucket of a log10 cell, compared
    with no arithmetic, is the bucket ``colorize`` gives ``LogValue.from_log10``
    of it, for every double that is not NaN, ones whose log overflows included."""
    log10 = np.array(xs)
    assert formats._buckets(log10).tolist() == bucket_oracle(log10).tolist()


def test_bucket_edges_are_pinned():
    """``colorize``'s edges keep the bits of ln 10, ln 100, ln 1e8, ln 1e14 and
    ln 1e20, and each log10 edge is the least double whose product with ln 10
    reaches its natural-log edge."""
    literals = np.array([math.log(x) for x in (10.0, 100.0, 1e8, 1e14, 1e20)])
    assert formats._BUCKET_EDGES.tobytes() == literals.tobytes()
    for x, edge in zip(formats._BUCKET_LOG10_EDGES.tolist(), literals.tolist()):
        assert math.nextafter(x, -math.inf) * LN10 < edge <= x * LN10


def _bench_like_k500_matrix() -> DiscoveryMatrix:
    """The u1 matrix of the final values of the untracked paper study scaled to
    K = 500 (250 false nulls, 25,000 steps, seed 42)."""
    cfg = dataclasses.replace(paper_experiment_config(seed=42), k=500, n_false=250,
                              steps=25_000, tracked_rows=(), checkpoints=())
    return discovery_matrix(RankedValues.from_values(run_experiment(cfg).final_table.current), U1)


def test_matrix_csv_formats_each_changed_cell_once(monkeypatch):
    """On the bench-like K = 500 matrix, where about 64% of cells repeat the
    bits of the cell above them, the writer calls ``repr`` once per cell whose
    bits differ from the cell above it, plus once per row for its last cell."""
    m = _bench_like_k500_matrix()
    bits = m.log10.view(np.int64)
    changed = sum(int((bits[i, :i + 1] != bits[i - 1, :i + 1]).sum()) for i in range(1, m.k))
    calls = []
    monkeypatch.setattr(formats, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    text = formats.matrix_csv(m)
    assert len(calls) == 1 + changed + m.k  # row 1's first cell has no cell above it
    assert 0.6 < 1 - changed / (m.k * (m.k + 1) / 2 - 1) < 0.7
    monkeypatch.undo()
    assert text == matrix_csv_oracle(m)


def test_matrix_json_report_streams_json_text():
    """``matrix --format json`` is written a row at a time, and its chunks
    join to the ``json_text`` of the whole report: K = 3 with +-inf and -0.0
    cells, the seed-42 K = 500 values, and a matrix with no rows."""
    log10 = np.full((3, 4), np.nan)
    log10[np.tril_indices(3, 1, 4)] = [math.inf, -0.0, 0.0, 1.5, -math.inf, -0.0, 2.0, 1e-300, 8.0]
    logs = np.random.default_rng(42).normal(0.0, 5.0, 500)
    for m in (DiscoveryMatrix(log10), regularize(DiscoveryMatrix(log10)),
              discovery_matrix(RankedValues.from_logs(logs), U1), DiscoveryMatrix(np.empty((0, 1)))):
        chunks = list(formats.matrix_report(m, "json"))
        assert len(chunks) == m.k + 2
        assert "".join(chunks) == matrix_json_oracle(m)


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


_LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.text("ab,\u00e9", max_size=3), st.sampled_from(_LINE_BREAKS)),
                max_size=12),
       st.text("ab", max_size=2), st.integers(0, 8))
@example([("a", "\r\n"), ("b", "\n")], "", 2)  # "a\r" and "\nb": a "\r\n" split between pieces
@example([("a", "\r"), ("", "\n"), ("", "\n")], "c", 1)  # "\r" then "\n" from two pieces: one break
def test_lines_match_splitlines(lines, tail, chunk):
    r"""The chunked line reader, in pieces a few characters long, of a text and
    of an open text stream (untranslated, so its ``"\r"`` reach the reader),
    reads every text as ``splitlines`` does: blank lines, every break it
    honours, a missing final newline and a ``"\r\n"`` or lone ``"\r"`` split
    between pieces included."""
    text = "".join(line + brk for line, brk in lines) + tail
    assert list(formats._lines(text, chunk)) == text.splitlines()
    assert list(formats._lines(io.StringIO(text, newline=""), chunk)) == text.splitlines()


def test_parse_matrix_csv_peak_memory():
    """Parsing a K = 500 u1 matrix (4.2 MB of text) peaks below 1.0 byte of
    heap per byte of text (4.2 MB).  Measured on Python 3.11.7, numpy 2.4.6:
    3.1 MB (0.73 bytes per byte), the row arrays and the matrix, with lines
    read a 64 KiB chunk at a time; one ``splitlines`` list of the whole text
    peaked at 12.4 MB, the line-at-a-time parser, which kept a Python float
    and a bucket index per line, at 16.3 MB, and an earlier one, which also
    kept per-line r and j lists and a flat cell index to find repeated and
    missing cells, at 21.7 MB."""
    text = formats.matrix_csv(_k500_u1_matrix())
    peak, _ = _peak(formats.parse_matrix_csv, text)
    assert peak <= 1.0 * len(text), (peak, len(text))


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


def _k500_values_csv(tmp_path) -> tuple[Path, DiscoveryMatrix]:
    """A values CSV of 500 values and the u1 matrix the CLI computes from it."""
    logs = np.random.default_rng(42).normal(0.0, 5.0, 500).tolist()
    path = tmp_path / "values_k500.csv"
    path.write_text(formats.values_csv([LogValue(x) for x in logs]))
    values = formats.parse_values_csv(path.read_text())
    return path, discovery_matrix(RankedValues.from_values(values), U1)


def test_cli_matrix_peak_memory(tmp_path):
    """``evalanche matrix --heatmap --out`` at K = 500 (4.2 MB of CSV, 7.7 MB
    of SVG) peaks below 5 MB of heap: the text is written a row at a time.
    Measured on Python 3.11.7, numpy 2.4.6: 3.7 MB; writing each whole text
    peaked at 17.5 MB."""
    values, _ = _k500_values_csv(tmp_path)
    argv = ["matrix", "--values", str(values), "--heatmap", str(tmp_path / "heatmap.svg"),
            "--out", str(tmp_path / "matrix.csv")]
    peak, code = _peak(cli.main, argv)
    assert code == 0
    assert peak <= 5e6, peak


def test_cli_region_peak_memory(tmp_path):
    """``evalanche region`` on a K = 500 u1 matrix CSV (4.2 MB), from a file
    and from a pipe (``<(cat m.csv)``), peaks below 1 MB of heap, less than
    the 2.0 MB of one dense (K, K+1) matrix: every line is read once, 64 KiB
    at a time, and checked, but only row r and the row above the one being
    read are kept.  Measured on Python 3.11.7, numpy 2.4.6: 0.56 MB from the
    file and 0.50 MB from the pipe; holding every row, the dense matrix and
    its regularized copy peaked at 4.1 MB, reading the whole text first at
    8.4 MB, and holding a pipe's bytes, so that a bad row could be read again
    from the start, at 4.78 MB."""
    m = _k500_u1_matrix()
    matrix, out = tmp_path / "matrix.csv", tmp_path / "region.txt"
    matrix.write_text(formats.matrix_csv(m))
    data = matrix.read_bytes()

    def region(pipe: bool) -> int:
        with _pipe(data) if pipe else contextlib.nullcontext() as fd:
            return cli.main(["region", "--matrix", f"/dev/fd/{fd}" if pipe else str(matrix), "--row", "250",
                             "--alpha", "10", "--out", str(out)])

    for pipe in (False, True):
        peak, code = _peak(region, pipe)
        assert code == 0
        assert peak <= 1e6, (pipe, peak)
        assert out.read_text() == formats.region_report(confidence_region(regularize(m), 250, 10.0), "text")


def test_parse_matrix_csv_skips_blank_runs_in_a_row():
    """A row whose two cells lie 1,000,000 blank lines apart parses below
    2 MB of heap, from a text and from a pipe: the blank lines past a row's
    first r+1 are skipped as they are read, not held.  With a bad bucket after
    the blanks, the error names line 1,000,003.  Measured on Python 3.11.7,
    numpy 2.4.6: 0.63 MB; holding and refilling the blanks one at a time
    peaked at 9.1 MB."""
    text = "r,j,log10_value,bucket\n1,0,0.0,green\n" + "\n" * 1_000_000 + "1,1,0.0,green\n"
    bad = text.replace("1,1,0.0,green", "1,1,0.0,red")

    def parse(source: str | bytes) -> DiscoveryMatrix:
        """The matrix of a text, or of bytes read from a pipe."""
        if isinstance(source, str):
            return formats.parse_matrix_csv(source)
        with _pipe(source) as fd, open(fd, closefd=False) as f:
            return formats.parse_matrix_csv(f)

    for good, wrong in ((text, bad), (text.encode(), bad.encode())):
        peak, m = _peak(parse, good)
        assert peak <= 2e6, (type(good), peak)
        assert m.log10.tolist() == [[0.0, 0.0]]
        with pytest.raises(DomainError, match=r"^line 1000003: bucket of '1,1,0.0,red' must be green$"):
            parse(wrong)


def test_cli_matrix_json_peak_memory(tmp_path):
    """``evalanche matrix --format json --out`` at K = 500 (3.3 MB of JSON)
    peaks below 5 MB of heap: the JSON is written a row at a time.  Measured
    on Python 3.11.7, numpy 2.4.6: 3.7 MB; writing the whole text peaked at
    20.2 MB."""
    values, m = _k500_values_csv(tmp_path)
    out = tmp_path / "matrix.json"
    peak, code = _peak(cli.main, ["matrix", "--values", str(values), "--format", "json",
                                  "--out", str(out)])
    assert code == 0
    assert peak <= 5e6, peak
    assert out.read_text() == matrix_json_oracle(m)


def test_streamed_matrix_text_equals_string_writers(tmp_path, capsys):
    """At K = 500 the CLI's stdout, its ``--out`` file and ``matrix_csv`` are
    one text, and its ``--heatmap`` file is ``heatmap_svg``, byte for byte."""
    values, m = _k500_values_csv(tmp_path)
    assert cli.main(["matrix", "--values", str(values)]) == 0
    stdout = capsys.readouterr().out
    assert cli.main(["matrix", "--values", str(values), "--heatmap", str(tmp_path / "h.svg"),
                     "--out", str(tmp_path / "m.csv")]) == 0
    text = formats.matrix_csv(m)
    assert stdout == text
    assert (tmp_path / "m.csv").read_bytes() == text.encode()
    assert (tmp_path / "h.svg").read_bytes() == formats.heatmap_svg(m).encode()


@pytest.fixture(scope="module")
def paper_run():
    cfg = paper_experiment_config(seed=42)
    return cfg, run_experiment(cfg)


def test_write_bundle_peak_memory(paper_run, tmp_path):
    """``write_bundle`` on the paper study (an 80,000-line series.csv, K = 200
    matrices) peaks below 6 MB of heap: every big artifact is written a chunk
    at a time.  Measured on Python 3.11.7, numpy 2.4.6: 2.3 MB, with the
    series CSV written from the columns and the SVG a polyline at a time;
    4.7 MB with the SVG made as one string, and writing each whole text
    peaked at 17.9 MB."""
    cfg, run = paper_run
    peak, _ = _peak(lambda out: formats.write_bundle(cfg, run, out), tmp_path)
    assert peak <= 6e6, peak


def test_streamed_bundle_equals_string_writers(paper_run, tmp_path):
    """Every file ``write_bundle`` streams is its string writer's text."""
    cfg, run = paper_run
    bundle = formats.write_bundle(cfg, run, tmp_path)
    (step, raw), = run.matrices.items()
    reg = regularize(raw)
    regions = [formats.region_to_obj(confidence_region(reg, r, alpha))
               for r in sorted(cfg.tracked_rows) for alpha in formats.REGION_ALPHAS]
    want = {
        "series.csv": formats.series_csv(formats.series_records(run)),
        "series.svg": formats.series_svg([*run.diagonal_series.values(),
                                          *run.subdiagonal_series.values()]),
        f"matrix_{step}.csv": formats.matrix_csv(raw),
        f"matrix_{step}_regularized.csv": formats.matrix_csv(reg),
        f"heatmap_{step}.svg": formats.heatmap_svg(raw),
        f"regions_{step}.json": formats.json_text({"step": step, "regions": regions}),
        "manifest.json": formats.manifest_json(cfg, list(bundle)),
    }
    assert sorted(bundle) == sorted(want)
    for name, text in want.items():
        assert bundle[name].read_bytes() == text.encode(), name


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
    # a repeated key, at the top or inside a field, is rejected, not read as its last value
    with pytest.raises(DomainError, match="config JSON repeats key 'k'"):
        formats.config_from_json('{"k": 5000, ' + json.dumps({**obj, "k": 200})[1:])
    with pytest.raises(DomainError, match="config JSON repeats key 'sd'"):
        formats.config_from_json(json.dumps(obj).replace('"sd": ', '"sd": 2, "sd": ', 1))


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
    with pytest.raises(DomainError, match="polynomial JSON repeats key '1'"):
        formats.poly_from_json('{"k": 2, "coeffs": {"": 0.2, "1": 0.9, "1": 0.15, "2": 0.15, "1,2": 0.5}}')
    with pytest.raises(DomainError, match="polynomial JSON repeats key 'k'"):
        formats.poly_from_json('{"k": 3, "k": 2, "coeffs": {"": 1.0}}')
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


def test_write_bundle_rejects_nan_series_before_writing(tmp_path):
    """A NaN series value raises linear_cell's DomainError before series.csv
    is opened, so no partly streamed file is left behind."""
    cfg, run = small_run()
    values = run.diagonal_series[3].log10_values.copy()
    values[7] = math.nan
    bad = dataclasses.replace(run, diagonal_series={
        **run.diagonal_series, 3: dataclasses.replace(run.diagonal_series[3], log10_values=values)})
    with pytest.raises(DomainError, match="^log10 value cannot be NaN$"):
        formats.write_bundle(cfg, bad, tmp_path)
    assert list(tmp_path.iterdir()) == []


def _assert_golden_bundle(cfg, run, name, path):
    """Every file of the bundle but the manifest, which holds version
    strings, matches ``GOLDEN / name`` byte for byte."""
    bundle = formats.write_bundle(cfg, run, path)
    golden = GOLDEN / name
    assert sorted(p.name for p in golden.iterdir()) == sorted(set(bundle) - {"manifest.json"})
    for p in golden.iterdir():
        assert bundle[p.name].read_bytes() == p.read_bytes(), p.name


def test_bundle_matches_golden_bytes(tmp_path):
    _assert_golden_bundle(*small_run(), "small_run", tmp_path)


def test_tracked_low_rows_bundle_matches_golden_bytes(tmp_path):
    """Tracked from row 8 of 12, 96 of the 200 steps move none of the values
    the anchored cells read, take the minima of the step before them and
    build no table of suffix levels of their own; the bundle is pinned byte
    for byte."""
    cfg = golden_config("tracked_low_rows")
    with mock.patch.object(discovery, "tail_merges", wraps=discovery.tail_merges) as spy, \
            mock.patch.object(discovery, "suffix_esp_levels", wraps=discovery.suffix_esp_levels) as levels:
        run = run_experiment(cfg)
    # the anchored calls are the batched ones, one per spec
    scored = [c.args[0].shape[0] for c in spy.call_args_list if c.args[0].ndim == 4]
    assert sum(scored) == 2 * (200 - 96)
    assert levels.call_args_list[0].args[0].shape == (200 - 96, 12 - 4)  # the values from a = 4 on
    _assert_golden_bundle(cfg, run, "tracked_low_rows", tmp_path)


def test_tracked_mid_rows_bundle_matches_golden_bytes(tmp_path):
    """Tracked rows 19-21 of 40, the diagonal under the u1/u2 mixture and the
    subdiagonal under u5: the tracker's table covers the values from column
    a = 15 on, built over the 131 of the 240 steps whose values from c = 17
    on are fresh, and the first 8 steps, whose values from a on are all
    tied, score their whole-suffix cells again over all 40 values.  The
    bundle, written before the tracker started at column a, is pinned byte
    for byte."""
    cfg = golden_config("tracked_mid_rows")
    with mock.patch.object(discovery, "suffix_esp_levels", wraps=discovery.suffix_esp_levels) as spy:
        run = run_experiment(cfg)
    # the one 240-step pass's fresh steps, its tied steps over the whole table, then the matrix's tables
    tracked = [c.args[0].shape for c in spy.call_args_list][:3]
    assert tracked == [(131, 25), (8, 40), (40,)]
    _assert_golden_bundle(cfg, run, "tracked_mid_rows", tmp_path)


def test_tracked_blocks_bundle_matches_golden_bytes(tmp_path):
    """Rows 19-21 of 40 over 700 steps: the run crosses two of the tracker's
    block ends, and the checkpoint at step 150 splits the first block.  The
    bundle, written in blocks of 199 steps, is pinned byte for byte."""
    cfg = golden_config("tracked_blocks")
    block = RowTracker(cfg.k, cfg.tracked_rows, cfg.merge_diagonal, cfg.merge_subdiagonal).block
    with mock.patch.object(RowTracker, "step", autospec=True, side_effect=RowTracker.step) as spy:
        run = run_experiment(cfg)
    passes = [len(c.args[1]) for c in spy.call_args_list]
    assert passes == [150, block - 150, block, cfg.steps - 2 * block], passes
    _assert_golden_bundle(cfg, run, "tracked_blocks", tmp_path)


def test_tracked_inf_rows_bundle_matches_golden_bytes(tmp_path):
    """Null sd 1e-160 sends each false null to +inf at its first test, so
    all 200 steps tracking rows 2, 6 and 12 of 12 are +inf-led, 185 of them
    with six +inf values.  They go through the tracker's kernel calls, as
    finite steps do, not through the row scans; the bundle, written when
    they went through the row scans, is pinned byte for byte."""
    cfg = golden_config("tracked_inf_rows")
    with mock.patch.object(RowTracker, "step", autospec=True, side_effect=RowTracker.step) as spy, \
            mock.patch.object(discovery, "row_bounds", wraps=discovery.row_bounds) as scans:
        run = run_experiment(cfg)
    block = np.concatenate([c.args[1] for c in spy.call_args_list])
    assert (block[:, 0] == math.inf).all() and ((block == math.inf).sum(axis=1) == 6).sum() == 185
    assert not scans.called
    _assert_golden_bundle(cfg, run, "tracked_inf_rows", tmp_path)


def test_golden_configs_are_the_compared_bundles():
    """``tests/golden/*.json`` names exactly the bundles the
    ``*_bundle_matches_golden_bytes`` tests compare (``small_run`` by
    ``test_bundle_matches_golden_bytes``), each beside its directory: a config
    with no test, or a test with no config, fails here."""
    suffix = "bundle_matches_golden_bytes"
    tested = {name.removeprefix("test_").removesuffix(suffix).rstrip("_") or "small_run"
              for name in globals() if name.endswith(suffix)}
    assert len(tested) == 5
    assert {p.stem for p in GOLDEN.glob("*.json")} == tested
    assert all((GOLDEN / name).is_dir() for name in tested)


def test_bundle_from_repeated_unsorted_rows_matches_golden_bytes(tmp_path):
    """Tracked rows given out of order and with a repeat write the bundle of
    the sorted, distinct rows."""
    cfg = dataclasses.replace(golden_config("small_run"), tracked_rows=(3, 1, 3))
    _assert_golden_bundle(cfg, run_experiment(cfg), "small_run", tmp_path)


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
