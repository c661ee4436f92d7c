"""Deterministic file formats: CSV series/matrices, JSON configs and
reports, SVG heatmaps and line charts, and the CLI reports.

Each output decision has one rule.  Float text is ``f"{x!r}"``, the
shortest round-trip repr, so serialize -> parse -> serialize is
byte-identical; columns come from ``.tolist()``, ``LogValue`` or
``float()``, so they are Python floats and no numpy scalar reaches the text.
The linear ``value`` is ``linear_value``, ``math.exp(log10_value * LN10)``
with no ``LogValue`` made: a blank CSV cell, and a null JSON value, outside
the double range (``log10_value`` still holds it).  A cell's color bucket
is ``_buckets`` of its log10 value: its decade class, found with no
arithmetic, the rule ``colorize`` applies to a value; its edges, names and
colors are all here.  JSON is strict RFC 8259
(``json_text``), so +-inf is written as the string ``"inf"`` / ``"-inf"``,
the CSV text (``_json_float_out``).  Every SVG has one frame (``_svg``).

Matrix text is made and read a row at a time, in bounded chunks: the
writers yield a row per chunk to ``write_chunks``, and every CSV parser reads
lines through ``_lines``, 64 KiB of a text or of an open file at a time.  At
K = 500, ``matrix --heatmap --out`` peaks at 3.7 MB of heap (17.5 MB whole),
the parse at 3.1 MB (12.4 MB) and ``region`` at 4.1 MB (8.4 MB with the whole
file read first).  Row r of a matrix CSV is its
r+1 non-empty lines ``r,j,log10_value,bucket`` for j = 0..r; joined with
newlines and split on commas they must be exactly the 3r+4 tokens ``r``,
then per cell ``j`` (the writer's ``str(j)``), a value ``float`` reads as
non-NaN, and ``bucket\nr`` (a bare ``bucket`` for the last cell), the bucket
being the name ``_buckets`` gives the value.  A row that fails is read again
line by line from the start (``_matrix_row_error``) to name its first bad
line, so a text with one fault gets the message a line-at-a-time reader would
give.

A value is converted once per column run: a matrix cell with the bits of the
cell above it reuses that cell's repr, the parser reuses the float of a token
with the text of the token above it, and the series CSV and SVG writers
format a column's value only where its bits change (``_runs``).  Bits, not
``==``: 0.0 and -0.0 differ, and a NaN after any other value starts a run,
so ``linear_cell`` raises on it.  On the seed-42 inputs 64-68% of matrix
cells and 57% of the paper study's series values repeat.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import itertools
import json
import math
import operator
import platform
import sys
import typing
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import __version__
from .discovery import ConfidenceRegion, DiagonalSeries, DiscoveryMatrix, confidence_region, regularize
from .errors import DomainError
from .logvalue import LN10, LogValue
from .merging import MergeSpec
from .polynomials import MultiaffinePoly, subset_to_mask
from .simulate import ExperimentConfig, RunResult

SERIES_HEADER = "step,row,kind,log10_value,value"
MATRIX_HEADER = "r,j,log10_value,bucket"
VALUES_HEADER = "k,log10_value"

# What a parser reads: a text, or a text file open for reading.
Source = str | TextIO


def linear_value(log10_value: float) -> float | None:
    """``exp`` of the natural log ``LogValue.from_log10`` forms, or None outside
    the double range: when it overflows, or a positive value underflows to 0.0."""
    if math.isnan(log10_value):
        raise DomainError("log10 value cannot be NaN")
    log_e = log10_value * LN10
    try:
        x = math.exp(log_e)
    except OverflowError:
        return None
    return x if 0.0 < x < math.inf or log_e == -math.inf else None


def linear_cell(log10_value: float) -> str:
    """CSV text of ``linear_value``: empty when it is None."""
    x = linear_value(log10_value)
    return "" if x is None else f"{x!r}"


def _json_float_out(x: float) -> float | str:
    """``x`` as strict JSON holds it: +-inf as the CSV text ``"inf"`` / ``"-inf"``."""
    return repr(x) if math.isinf(x) else x


def _value_obj(log10_value: float) -> dict:
    """``log10_value`` and ``value`` of a JSON report: null where the CSV cell is blank."""
    return {"log10_value": _json_float_out(log10_value), "value": linear_value(log10_value)}


def json_text(obj) -> str:
    """The one JSON layout of every report and file; NaN and +-inf raise."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _read_json(source: Source, what: str):
    """The JSON value of ``source``; an open file is read whole, as JSON files are small."""
    text = source if isinstance(source, str) else source.read()

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise DomainError(f"{what} JSON repeats key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise DomainError(f"{what} is not valid JSON: {exc}") from exc


def write_chunks(chunks: Iterable[str], path: str | Path | None) -> None:
    """Write each chunk as it is made to the file at ``path``, or to stdout
    (flushed) when it is None, so no whole text is held."""
    with contextlib.nullcontext(sys.stdout) if path is None else Path(path).open("w") as f:
        f.writelines(chunks)
        f.flush()


def _pieces(source: Source, size: int) -> Iterator[str]:
    """``source`` ``size`` characters at a time (at least one): slices of a
    text, or reads of an open text file up to its end."""
    size = max(size, 1)
    if isinstance(source, str):
        return (source[a:a + size] for a in range(0, len(source), size))
    return iter(lambda: source.read(size), "")


def _lines(source: Source, chunk: int = 1 << 16) -> Iterator[str]:
    r"""``splitlines()`` of the whole text of ``source``, read ``chunk``
    characters at a time, so no whole text is built.  Each piece is cut just
    after its last ``"\n"``, which ends a line whatever follows it (the
    ``"\n"`` of a ``"\r\n"`` included), and the rest is carried into the next
    piece, so every break ``splitlines`` honours still ends a line."""
    rest = ""
    for piece in _pieces(source, chunk):
        cut = piece.rfind("\n") + 1
        if cut:
            yield from (rest + piece[:cut]).splitlines()
            rest = piece[cut:]
        else:
            rest += piece
    yield from rest.splitlines()


def _after_header(source: Source, header: str, what: str) -> Iterator[str]:
    """The lines of ``source`` after its first, which must be ``header``."""
    lines = _lines(source)
    if next(lines, None) != header:
        raise DomainError(f"{what} CSV must start with {header!r}")
    return lines


def _data_lines(source: Source, header: str, what: str):
    """(line number, line) of each non-empty line after ``header``."""
    return ((n, line) for n, line in enumerate(_after_header(source, header, what), start=2) if line)


# ---------------------------------------------------------------------------
# color buckets


class ColorBucket(enum.Enum):
    GREEN = "green"
    YELLOW = "yellow"
    ORANGE = "orange"
    RED = "red"
    DARKRED = "darkred"
    BLACK = "black"


# Buckets above green start at 10^d, each edge in the bucket above it: ``colorize``
# compares logs with ln 10^d, and ``_buckets`` log10 cells with the least x whose
# x * LN10 reaches ln 10^d, which is d but 13.999999999999998 for 14.
_BUCKET_DECADES = (1, 2, 8, 14, 20)
_BUCKET_EDGES = np.array([math.log(10.0 ** d) for d in _BUCKET_DECADES])
_BUCKET_LOG10_EDGES = np.array([1.0, 2.0, 8.0, math.nextafter(14.0, 0.0), 20.0])
# Indexed in ColorBucket order, as ``bucket_indexes`` returns them.
_BUCKET_NAMES = [b.value for b in ColorBucket]
_BUCKET_HEXES = ["#2ca02c", "#ffdf00", "#ff7f0e", "#d62728", "#8b0000", "#000000"]
BUCKET_HEX: Mapping[ColorBucket, str] = dict(zip(ColorBucket, _BUCKET_HEXES))


def bucket_indexes(log_e: np.ndarray) -> np.ndarray:
    """Indexes into ``ColorBucket`` order of natural-log values (see ``colorize``)."""
    return np.searchsorted(_BUCKET_EDGES, log_e, side="right")


def colorize(v: LogValue) -> ColorBucket:
    """Evidence bucket of a merged value: [0,10) green, [10,100) yellow,
    [100,1e8) orange, [1e8,1e14) red, [1e14,1e20) dark red, [1e20,inf] black."""
    return ColorBucket(_BUCKET_NAMES[int(bucket_indexes(v.log_e))])


def _buckets(log10: np.ndarray) -> np.ndarray:
    """Bucket indexes of log10 cells, found with no arithmetic on them: each
    buckets as ``colorize`` buckets ``LogValue.from_log10`` of it.  NaN is black."""
    return np.searchsorted(_BUCKET_LOG10_EDGES, log10, side="right")


# ---------------------------------------------------------------------------
# series


_SERIES_KINDS = ("diagonal", "subdiagonal")
_CHUNK_LINES = 4096


def _series_columns(run: RunResult) -> list[tuple[int, str, np.ndarray]]:
    """(row, kind, log10 values) of each tracked series, in series CSV column
    order: by row, diagonal before subdiagonal."""
    return [(row, kind, by_row[row].log10_values) for row in sorted(run.diagonal_series)
            for kind, by_row in zip(_SERIES_KINDS, (run.diagonal_series, run.subdiagonal_series))]


def series_records(run: RunResult) -> list[tuple[int, int, str, float]]:
    """One (step, row, kind, log10_value) per series CSV line, ordered by step, row,
    then diagonal before subdiagonal.  Every tracked row must have both series,
    all of one length, as ``run_experiment`` makes them; an untracked run gives []."""
    columns = _series_columns(run)
    return [(step, row, kind, l10)
            for step, values in enumerate(zip(*[c.tolist() for *_, c in columns]), start=1)
            for (row, kind, _), l10 in zip(columns, values)]


def _runs(values: np.ndarray, text) -> np.ndarray:
    """``text(x)`` of each value as an object array, made for the first value
    and each whose bits differ from the value before it, reused down its run."""
    bits = values.view(np.int64)
    fresh = np.ones(bits.size, bool)
    fresh[1:] = bits[1:] != bits[:-1]
    texts = np.array([text(x) for x in values[fresh].tolist()], object)
    return texts[np.cumsum(fresh) - 1]


def series_csv_columns(run: RunResult) -> Iterator[str]:
    """``series_csv_chunks(series_records(run))`` from the series columns, with
    no record made: ``_CHUNK_LINES // columns`` steps a chunk, one object array
    of step texts and each column's ``_runs`` of line tails, joined once."""
    yield f"{SERIES_HEADER}\n"
    columns = _series_columns(run)
    n = len(columns[0][2]) if columns else 0
    steps = max(1, _CHUNK_LINES // max(1, len(columns)))
    for a in range(0, n, steps):
        b = min(a + steps, n)
        out = np.empty((b - a, 2 * len(columns)), object)
        out[:, 0::2] = np.array(list(map(str, range(a + 1, b + 1))), object)[:, None]
        for c, (row, kind, values) in enumerate(columns):
            out[:, 2 * c + 1] = _runs(values[a:b], lambda x: f",{row},{kind},{x!r},{linear_cell(x)}\n")
        yield "".join(out.ravel().tolist())


def series_csv_chunks(records: Iterable[tuple[int, int, str, float]]) -> Iterator[str]:
    """The header, then the lines 4,096 at a time.  The ``value`` column is
    derived here, by ``linear_cell``."""
    yield f"{SERIES_HEADER}\n"
    records = iter(records)
    while lines := [f"{step},{row},{kind},{l10!r},{linear_cell(l10)}\n"
                    for step, row, kind, l10 in itertools.islice(records, _CHUNK_LINES)]:
        yield "".join(lines)


def series_csv(records: Sequence[tuple[int, int, str, float]]) -> str:
    return "".join(series_csv_chunks(records))


def parse_series_csv(source: Source) -> list[tuple[int, int, str, float]]:
    """Inverse of ``series_csv``; a bad line, including a ``value`` that is
    not ``linear_cell(log10_value)``, raises DomainError naming it."""
    records = []
    for n, line in _data_lines(source, SERIES_HEADER, "series"):
        try:
            step_s, row_s, kind, l10_s, value = line.split(",")
            step, row, l10 = int(step_s), int(row_s), float(l10_s)
            cell = linear_cell(l10)  # DomainError when l10 is NaN
        except (ValueError, DomainError):
            raise DomainError(f"line {n}: expected {SERIES_HEADER}, got {line!r}") from None
        if kind not in _SERIES_KINDS:
            raise DomainError(f"line {n}: kind must be diagonal or subdiagonal, got {kind!r}")
        if value != cell:
            raise DomainError(f"line {n}: value {value!r} is not the linear value of {l10_s}")
        records.append((step, row, kind, l10))
    return records


# ---------------------------------------------------------------------------
# matrices and value lists


def matrix_csv_chunks(m: DiscoveryMatrix) -> Iterator[str]:
    """The header, then one string per row, joined from shared ``j,`` prefixes
    and ``,bucket`` tails around each cell's repr: no per-cell f-string, no K^2 list.
    A cell with the bits of the cell above it reuses that cell's repr."""
    j_prefixes = [f"{j}," for j in range(m.k + 1)]
    name_tails = [f",{name}\n" for name in _BUCKET_NAMES]
    texts = np.empty(m.k + 1, object)  # the reprs of the last row written
    above = np.empty(0, np.int64)  # the bits of that row
    yield f"{MATRIX_HEADER}\n"
    for r, row in enumerate(m.rows, start=1):
        bits = row.view(np.int64)
        fresh = np.ones(r + 1, bool)  # the last cell, and every cell of row 1
        fresh[:above.size] = bits[:above.size] != above
        new = np.flatnonzero(fresh)
        texts[new] = list(map(repr, row[new].tolist()))
        above = bits
        cells = zip(itertools.repeat(f"{r},"), j_prefixes, texts[:r + 1].tolist(),
                    map(name_tails.__getitem__, _buckets(row).tolist()))
        yield "".join(itertools.chain.from_iterable(cells))


def matrix_csv(m: DiscoveryMatrix) -> str:
    return "".join(matrix_csv_chunks(m))


def _matrix_row(tokens: list[str], index: list[str], above: tuple[list[str], np.ndarray]
                ) -> tuple[list[str], np.ndarray] | None:
    """The value tokens and values of row r = len(index) - 1 when ``tokens``
    are the writer's tokens of that row (module docstring), else None; ``index``
    holds str(j) for j = 0..r, and ``above`` is this pair for row r-1: a token
    with the text of the token above it takes that value, unparsed."""
    r = len(index) - 1
    if len(tokens) != 3 * r + 4 or tokens[0] != index[r] or tokens[1::3] != index:
        return None
    texts, (above_texts, above_values) = tokens[2::3], above
    fresh = list(map(operator.ne, texts, above_texts))
    fresh += [True] * (r + 1 - len(fresh))  # the last cell, and every cell of row 1
    n = fresh.count(True)  # a row with no repeat, n = r + 1, is parsed straight, with no mask
    try:
        row = np.fromiter(map(float, texts if n > r else itertools.compress(texts, fresh)), float, n)
    except ValueError:
        return None
    if n <= r:  # bytes() of the bools is the fastest mask to make
        row, new = np.append(above_values, 0.0), row
        row[np.frombuffer(bytes(fresh), bool)] = new
    if np.isnan(row).any():
        return None
    buckets = _buckets(row).tolist()
    tails = [f"{name}\n{r}" for name in _BUCKET_NAMES]
    want = list(map(tails.__getitem__, buckets))
    want[-1] = _BUCKET_NAMES[buckets[-1]]
    return (texts, row) if tokens[3::3] == want else None


def _matrix_row_error(source: Source, r: int) -> DomainError:
    """The error of row r, which ``_matrix_row`` rejected: its lines, read
    again from the start of ``source`` (a file must be seekable), are checked
    one by one (fields, cell index, NaN), then the end of the text, then their
    buckets, and the first fault is named with its line."""
    start = (r - 1) * (r + 2) // 2  # the cells of rows 1..r-1
    if not isinstance(source, str):
        source.seek(0)
    lines = _data_lines(source, MATRIX_HEADER, "matrix")
    numbered = list(itertools.islice(lines, start, start + r + 1))
    values, names = [], []
    for j, (n, line) in enumerate(numbered):
        try:
            r_s, j_s, l10, bucket = line.split(",")
            value = float(l10)
        except ValueError:
            return DomainError(f"line {n}: expected r,j,log10_value,bucket, got {line!r}")
        if r_s != str(r) or j_s != str(j):
            return DomainError(f"line {n}: expected cell ({r},{j}), got {line!r}")
        if math.isnan(value):
            return DomainError(f"line {n}: cell ({r},{j}) is NaN")
        values.append(value)
        names.append(bucket)
    if len(numbered) <= r:
        j = len(numbered)
        return DomainError(f"matrix CSV ends at line {n}, inside row {r}: missing cell ({r},{j})")
    want = [_BUCKET_NAMES[b] for b in _buckets(np.array(values)).tolist()]
    # every other check passed, so the row was rejected for a bucket
    j = next(j for j, (got, name) in enumerate(zip(names, want)) if got != name)
    n, line = numbered[j]
    return DomainError(f"line {n}: bucket of {line!r} must be {want[j]}")


def _matrix_rows(source: Source) -> list[np.ndarray]:
    """The rows of a matrix CSV, row r from its r+1 non-empty lines."""
    cells = filter(None, _after_header(source, MATRIX_HEADER, "matrix"))
    index = ["0"]
    rows = []
    above = ([], np.empty(0))
    for r in itertools.count(1):
        row_lines = list(itertools.islice(cells, r + 1))
        if not row_lines:
            return rows
        index.append(str(r))
        above = _matrix_row("\n".join(row_lines).split(","), index, above)
        if above is None:
            raise _matrix_row_error(source, r)
        rows.append(above[1])


def parse_matrix_csv(source: Source) -> DiscoveryMatrix:
    """Inverse of ``matrix_csv``: the cells in the order it writes them, rows
    1..K and columns j = 0..r within row r, never NaN (+-inf are legal), each
    in the bucket of its value; a bad line raises DomainError naming it.  Each
    line's ``r`` and ``j`` text must be the writer's ``str`` of the next cell,
    so a repeated, skipped or reordered cell fails on the line it is read.  An
    open ``source`` file is read a piece at a time, and must be seekable: a
    bad row is read again from the start to name its line."""
    rows = _matrix_rows(source)
    if not rows:
        raise DomainError("matrix CSV has no cells")
    k = len(rows)
    out = np.full((k, k + 1), np.nan)
    for i, row in enumerate(rows):
        out[i, : i + 2] = row
    return DiscoveryMatrix(out)


def values_csv(values: Sequence[LogValue]) -> str:
    lines = [VALUES_HEADER]
    for i, v in enumerate(values, start=1):
        lines.append(f"{i},{v.log10!r}")
    return "\n".join(lines) + "\n"


def parse_values_csv(source: Source) -> list[LogValue]:
    """Inverse of ``values_csv``: hypotheses 1..K once each, in any order; a
    bad line raises DomainError naming it."""
    by_index: dict[int, LogValue] = {}
    for n, line in _data_lines(source, VALUES_HEADER, "values"):
        try:
            k_s, l10_s = line.split(",")
            i, value = int(k_s), LogValue.from_log10(float(l10_s))  # DomainError on NaN
        except (ValueError, DomainError):
            raise DomainError(f"line {n}: expected k,log10_value, got {line!r}") from None
        if i in by_index:
            raise DomainError(f"line {n}: repeated hypothesis {i}")
        by_index[i] = value
    if not by_index:
        raise DomainError("values CSV has no values")
    if sorted(by_index) != list(range(1, len(by_index) + 1)):
        raise DomainError("values CSV must number hypotheses 1..K")
    return [by_index[i] for i in range(1, len(by_index) + 1)]


# ---------------------------------------------------------------------------
# SVG


def _svg(width: int, height: int, body: Iterable[str]) -> Iterator[str]:
    """A standalone SVG a chunk at a time: the header and a white background,
    the ``body`` strings, each made of newline-ended lines, then the footer."""
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">\n'
           f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n')
    yield from body
    yield "</svg>\n"


def heatmap_svg_chunks(m: DiscoveryMatrix) -> Iterator[str]:
    """One 4-pixel rect per matrix cell, row 1 at the top, colored by bucket;
    each row is one chunk, joined from shared x prefixes and fill tails, as
    in matrix_csv_chunks."""
    cell = 4
    x_prefixes = [f'<rect x="{j * cell}" y="' for j in range(m.k + 1)]
    fill_tails = [f'{hexcode}"/>\n' for hexcode in _BUCKET_HEXES]

    def rows():
        for y, row in enumerate(m.rows):
            middle = f'{y * cell}" width="{cell}" height="{cell}" fill="'
            rects = zip(x_prefixes, itertools.repeat(middle),
                        map(fill_tails.__getitem__, _buckets(row).tolist()))
            yield "".join(itertools.chain.from_iterable(rects))
    return _svg((m.k + 1) * cell, m.k * cell, rows())


def heatmap_svg(m: DiscoveryMatrix) -> str:
    return "".join(heatmap_svg_chunks(m))


_LINE_COLORS = ("#2ca02c", "#ff7f0e", "#1f77b4", "#d62728", "#9467bd", "#8c564b")


def series_svg_chunks(series: Sequence[DiagonalSeries]) -> Iterator[str]:
    """Log-scale 640 x 400 line chart of tracked bounds over steps, a polyline
    a chunk.  Point i of every series has x = i / n * width, so the x texts are
    made once, for the longest series; the y texts are ``_runs``."""
    width, height = 640, 400
    logs = np.concatenate([np.empty(0), *(s.log10_values for s in series)])
    finite = logs[np.isfinite(logs)]
    lo = (float(finite.min()) if finite.size else -1.0) - 0.5
    hi = (float(finite.max()) if finite.size else 1.0) + 0.5
    span = hi - lo if hi > lo else 1.0
    n = max((len(s) for s in series), default=1)
    x_texts = np.array(list(map("%.2f,".__mod__, (np.arange(1, n + 1) / n * width).tolist())), object)

    def lines():
        if lo < 0.0 < hi:
            y0 = height - (0.0 - lo) / span * height
            yield (f'<line x1="0" y1="{y0:.2f}" x2="{width}" y2="{y0:.2f}" '
                   f'stroke="#cccccc" stroke-width="1"/>\n')
        for idx, s in enumerate(sorted(series, key=lambda s: (s.kind, s.row))):
            color = _LINE_COLORS[idx % len(_LINE_COLORS)]
            v = np.nan_to_num(s.log10_values, nan=hi, posinf=hi, neginf=lo)  # pinned to the frame
            points = np.empty(2 * len(s), object)  # x, then y and a space, per point
            points[0::2] = x_texts[:len(s)]
            points[1::2] = _runs(height - (v - lo) / span * height, "%.2f ".__mod__)
            if len(s):
                points[-1] = points[-1][:-1]  # no space after the last point
            yield (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
                   f'{"".join(points.tolist())}"/>\n')
    return _svg(width, height, lines())


def series_svg(series: Sequence[DiagonalSeries]) -> str:
    return "".join(series_svg_chunks(series))


# ---------------------------------------------------------------------------
# JSON: merge specs, configs, polynomials, regions, manifest


def merge_spec_to_obj(spec: MergeSpec) -> dict:
    if spec.kind == "nesp":
        return {"kind": "nesp", "n": spec.n}
    return {"kind": "mixture", "weights": list(spec.weights)}  # type: ignore[arg-type]


def _json_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


def _json_ints(value, name: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise DomainError(f"{name} must be a list of integers, got {value!r}")
    return tuple(_json_int(v, f"{name} entry") for v in value)


def _json_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} is too large for a double, got {value!r}") from None


def _reject_unknown_fields(obj: dict, known, name: str) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise DomainError(f"{name} has unknown field {', '.join(map(repr, unknown))}")


def merge_spec_from_obj(obj, name: str = "merge spec") -> MergeSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"{name} must be an object with a kind, got {obj!r}")
    if obj["kind"] == "nesp":
        _reject_unknown_fields(obj, ("kind", "n"), name)
        fields = {"n": _json_int(obj.get("n"), f"{name} n")}
    elif obj["kind"] == "mixture":
        _reject_unknown_fields(obj, ("kind", "weights"), name)
        weights = obj.get("weights")
        if not isinstance(weights, list):
            raise DomainError(f"{name} weights must be a list of numbers, got {weights!r}")
        fields = {"weights": tuple(_json_float(w, f"{name} weight") for w in weights)}
    else:
        raise DomainError(f"{name} has unknown merge kind {obj['kind']!r}")
    try:
        return MergeSpec(kind=obj["kind"], **fields)
    except DomainError as exc:
        raise DomainError(f"{name}: {exc}") from None


def parse_merge_flag(text: str) -> MergeSpec:
    """CLI merge notation: u1, u2, ... or mix:w0,w1,..."""
    if text.startswith("u") and text[1:].isdigit():
        try:
            return MergeSpec.nesp(int(text[1:]))
        except ValueError:  # a digit int() does not read, such as "²", or over 4300 digits
            raise DomainError(f"bad merge degree in {text!r}") from None
    if text.startswith("mix:"):
        try:
            weights = [float(w) for w in text[4:].split(",")]
        except ValueError as exc:
            raise DomainError(f"bad mixture weights in {text!r}") from exc
        return MergeSpec.mixture(weights)
    raise DomainError(f"bad merge spec {text!r} (expected uN or mix:w0,w1,...)")


def _dist_from_obj(obj, name: str) -> tuple[float, float]:
    if not isinstance(obj, dict) or set(obj) != {"mean", "sd"}:
        raise DomainError(f"{name} must be an object with mean and sd, got {obj!r}")
    return (_json_float(obj["mean"], f"{name} mean"), _json_float(obj["sd"], f"{name} sd"))


def _as_is(value, *_):
    return value


# ExperimentConfig field type -> (reader(value, name), writer(value)); the str
# reader passes any value on, and ExperimentConfig names a scheduler it rejects
_CONFIG_CODECS = {
    int: (_json_int, _as_is),
    str: (_as_is, _as_is),
    tuple[float, float]: (_dist_from_obj, lambda d: {"mean": float(d[0]), "sd": float(d[1])}),
    tuple[int, ...]: (_json_ints, list),
    MergeSpec: (merge_spec_from_obj, merge_spec_to_obj),
}
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
# (name, required, reader, writer) per field, in dataclass order: a field is
# required exactly when it has no default
_CONFIG_SCHEMA = tuple((f.name, f.default is dataclasses.MISSING, *_CONFIG_CODECS[_FIELD_TYPES[f.name]])
                       for f in dataclasses.fields(ExperimentConfig))


def config_to_obj(cfg: ExperimentConfig) -> dict:
    return {name: write(getattr(cfg, name)) for name, _, _, write in _CONFIG_SCHEMA}


def config_to_json(cfg: ExperimentConfig) -> str:
    return json_text(config_to_obj(cfg))


def config_from_obj(obj) -> ExperimentConfig:
    """Unset optional fields take the ExperimentConfig defaults."""
    if not isinstance(obj, dict):
        raise DomainError("config must be a JSON object")
    _reject_unknown_fields(obj, [name for name, *_ in _CONFIG_SCHEMA], "config")
    for name, required, *_ in _CONFIG_SCHEMA:
        if required and name not in obj:
            raise DomainError(f"config is missing field {name!r}")
    return ExperimentConfig(**{name: read(obj[name], name)
                               for name, _, read, _ in _CONFIG_SCHEMA if name in obj})


def config_from_json(source: Source) -> ExperimentConfig:
    return config_from_obj(_read_json(source, "config"))


def poly_from_json(source: Source) -> MultiaffinePoly:
    """Polynomial JSON: {"k": 2, "coeffs": {"": 0.2, "1": 0.3, "1,2": 0.5}}."""
    obj = _read_json(source, "polynomial")
    if not isinstance(obj, dict) or "k" not in obj or not isinstance(obj.get("coeffs"), dict):
        raise DomainError("polynomial JSON needs fields k and coeffs, coeffs an object")
    k = _json_int(obj["k"], "polynomial k")
    coeffs: dict[int, float] = {}
    for key, val in obj["coeffs"].items():
        try:
            subset = tuple(int(s) for s in key.split(",")) if key.strip() else ()
        except ValueError:
            raise DomainError(f"coefficient key {key!r} is not a comma-separated index list") from None
        mask = subset_to_mask(subset, k)
        if mask in coeffs:
            raise DomainError(f"coefficient key {key!r} repeats a monomial")
        coeffs[mask] = _json_float(val, f"coefficient {key!r}")
    return MultiaffinePoly(k=k, coeffs=coeffs)


def region_to_obj(region: ConfidenceRegion) -> dict:
    return {
        "r": region.r,
        "alpha": _json_float_out(region.alpha),
        "members": sorted(region.members),
        "lower_bound": region.lower_bound,
    }


# ---------------------------------------------------------------------------
# CLI reports: each takes the --format value, and any value but json is the text form


def merge_report(spec: MergeSpec, v: LogValue, fmt: str) -> str:
    if fmt == "json":
        return json_text({"merge": merge_spec_to_obj(spec), **_value_obj(v.log10)})
    return f"log10_value,value\n{v.log10!r},{linear_cell(v.log10)}\n"


def row_table(kind: str, spec: MergeSpec, rows: Sequence[tuple[int, LogValue]], fmt: str) -> str:
    """Discovery diagonal or subdiagonal values, one per (row, value) pair."""
    if fmt == "json":
        table = [{"r": r, **_value_obj(v.log10)} for r, v in rows]
        return json_text({"kind": kind, "merge": merge_spec_to_obj(spec), "rows": table})
    lines = ["r,log10_value,value"]
    lines += [f"{r},{v.log10!r},{linear_cell(v.log10)}" for r, v in rows]
    return "\n".join(lines) + "\n"


def matrix_report(m: DiscoveryMatrix, fmt: str) -> Iterator[str]:
    """The report's chunks, a row at a time: the CSV, or the JSON text
    ``json_text`` makes of {"k", "regularized", "rows"}, each row dumped alone
    and indented to its depth in the frame made around one placeholder row."""
    if fmt != "json":
        yield from matrix_csv_chunks(m)
        return
    placeholder = [None][:m.k]  # the frame's one null; a matrix of no rows has none
    frame = json_text({"k": m.k, "regularized": m.regularized, "rows": placeholder})
    head, _, tail = frame.partition("null")
    yield head
    for r, row in enumerate(m.rows, start=1):
        text = json.dumps([_json_float_out(x) for x in row.tolist()], indent=2, allow_nan=False)
        yield ("" if r == 1 else ",\n    ") + text.replace("\n", "\n    ")
    yield tail


def region_report(region: ConfidenceRegion, fmt: str) -> str:
    if fmt == "json":
        return json_text(region_to_obj(region))
    members = f"{{{region.lower_bound}..{region.r}}}" if region.members else "{}"
    return (f"r={region.r} alpha={region.alpha!r} members={members} "
            f"lower_bound={region.lower_bound}\n")


def manifest_json(cfg: ExperimentConfig, files: Sequence[str]) -> str:
    obj = {
        "config": config_to_obj(cfg),
        "seed": cfg.seed,
        "versions": {
            "evalanche": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "files": sorted(files),
    }
    return json_text(obj)


# ---------------------------------------------------------------------------
# output bundle


REGION_ALPHAS = (10.0, 100.0)


def write_bundle(cfg: ExperimentConfig, run: RunResult, out_dir: str | Path) -> dict[str, Path]:
    """Write every artifact of a run, in chunks, as soon as it is made; the manifest
    pins (config, seed).  Returns {file name: path}, the manifest's file list."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    def write(name: str, chunks: Iterable[str]) -> None:
        paths[name] = out / name
        write_chunks(chunks, paths[name])

    rows = sorted(run.diagonal_series)
    if rows:
        series = [*run.diagonal_series.values(), *run.subdiagonal_series.values()]
        if any(np.isnan(s.log10_values).any() for s in series):  # linear_cell's error, before a file opens
            raise DomainError("log10 value cannot be NaN")
        write("series.csv", series_csv_columns(run))
        write("series.svg", series_svg_chunks(series))
    for step, raw in sorted(run.matrices.items()):
        reg = regularize(raw)  # the one regularized copy, dropped once written
        write(f"matrix_{step}.csv", matrix_csv_chunks(raw))
        write(f"matrix_{step}_regularized.csv", matrix_csv_chunks(reg))
        write(f"heatmap_{step}.svg", heatmap_svg_chunks(raw))
        if rows:
            regions = [region_to_obj(confidence_region(reg, r, alpha))
                       for r in rows for alpha in REGION_ALPHAS]
            write(f"regions_{step}.json", [json_text({"step": step, "regions": regions})])
    write("manifest.json", [manifest_json(cfg, [*paths, "manifest.json"])])
    return paths
