"""The three benchmark workloads, their traced replays and output checks.

Each workload is a closed loop with one client: ``run`` issues one pass of
calls, each waiting for the previous one, and returns one ``Op`` per call.
With a tracer, every call is wrapped in a span and followed by replays of
the public library functions it runs internally (see ``spans.py``).

``verify`` checks a pass's outputs after all timing is done, with parsers
of its own rather than the library's, and returns the problems per call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from evalanche import cli, discovery, formats, martingales, merging, simulate

from spans import Tracer

REGION_ALPHAS = (10.0, 100.0)
SERIES_TOLERANCE_LOG10 = 1e-12


@dataclass
class Op:
    """One call of a pass: its exit code (None if it raised) and outputs."""

    label: str
    code: int | None = 0
    error: str = ""
    files: dict[str, Path] = field(default_factory=dict)
    value: bytes | None = None  # in-memory output, canonically serialized

    def digests(self) -> dict[str, str]:
        out = {f"{self.label}:{name}": _sha256(p.read_bytes())
               for name, p in sorted(self.files.items()) if p.is_file()}
        if self.value is not None:
            out[f"{self.label}:value"] = _sha256(self.value)
        return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call_cli(label: str, argv: list[str], files: dict[str, Path]) -> Op:
    """Run ``evalanche`` in-process with its console output captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed call, not a crashed benchmark
        return Op(label, None, traceback.format_exc(), files)
    return Op(label, code, stderr.getvalue().strip(), files)


def spec_tag(spec: merging.MergeSpec) -> str:
    return f"u{spec.n}" if spec.kind == "nesp" else "mix"


def comb_row_cache():
    """cache_info() of discovery's per-degree log-binomial row cache, or None
    once a later version no longer has it."""
    fn = getattr(discovery, "_log_comb_row", None)
    return fn.cache_info() if hasattr(fn, "cache_info") else None


class PassCounters(dict):
    """Per-layer values of one traced pass, keyed by metric name."""

    def add(self, name: str, value: float) -> None:
        self[name] = self.get(name, 0) + value


def replay_matrix(tr: Tracer, parent, ranked, spec, counters: PassCounters):
    """Recompute one discovery matrix under a span and count its cells."""
    tag = f"k{ranked.k}_{spec_tag(spec)}"
    before = comb_row_cache()
    with tr.span(f"discovery.matrix_{tag}", parent, True) as ms:
        raw = discovery.discovery_matrix(ranked, spec)
    after = comb_row_cache()
    with tr.span("merging.suffix_esp_levels", ms, True):
        merging.suffix_esp_levels(ranked.sorted_logs, spec.max_degree)
    if before is not None and after is not None:
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        counters[f"discovery.log_comb_row_hit_ratio.{tag}"] = hits / lookups if lookups else 0.0
    cells = np.concatenate(raw.rows)
    finite = cells[np.isfinite(cells)]
    counters.add("discovery.cells", cells.size)
    counters.add("discovery.inf_cells", int(np.count_nonzero(np.isinf(cells))))
    if finite.size:
        lo, hi = float(finite.min()), float(finite.max())
        counters["discovery.min_log10"] = min(counters.get("discovery.min_log10", lo), lo)
        counters["discovery.max_log10"] = max(counters.get("discovery.max_log10", hi), hi)
    return raw


# ---------------------------------------------------------------------------
# output parsers of the benchmark's own


def read_matrix_csv(path: Path) -> list[np.ndarray]:
    """Rows of a matrix CSV as log10 arrays; raises ValueError if malformed."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "r,j,log10_value,bucket":
        raise ValueError(f"{path.name}: bad header")
    rows: list[list[float]] = []
    for line in lines[1:]:
        r, j, l10, _bucket = line.split(",")
        r, j = int(r), int(j)
        if j == 0:
            if r != len(rows) + 1:
                raise ValueError(f"{path.name}: row {r} out of order")
            rows.append([])
        if not rows or j != len(rows[-1]) or r != len(rows):
            raise ValueError(f"{path.name}: cell ({r},{j}) out of order")
        rows[-1].append(float(l10))
    if any(len(row) != r + 2 for r, row in enumerate(rows)):
        raise ValueError(f"{path.name}: incomplete lower triangle")
    return [np.array(row) for row in rows]


def running_min(rows: list[np.ndarray]) -> list[np.ndarray]:
    return [np.minimum.accumulate(row) for row in rows]


def region_bound(reg_row: np.ndarray, alpha: float) -> int | None:
    """Lower bound of the confidence region {lb..r} of a regularized row."""
    below = np.flatnonzero(reg_row < math.log10(alpha))
    if below.size and not (below == np.arange(below[0], len(reg_row))).all():
        raise ValueError("regularized row is not non-increasing")
    return int(below[0]) if below.size else None


def region_text(reg_row: np.ndarray, r: int, alpha: float) -> str:
    """The text `evalanche region` should print for a regularized row."""
    lb = region_bound(reg_row, alpha)
    members = "{}" if lb is None else f"{{{lb}..{r}}}"
    return f"r={r} alpha={alpha!r} members={members} lower_bound={lb}\n"


def count_svg_rects(path: Path) -> int:
    return path.read_text().count("<rect ")


def blank_linear_cells(path: Path) -> int:
    """Rows of a CSV whose last (linear value) column is empty."""
    return sum(1 for line in path.read_text().splitlines()[1:] if line.endswith(","))


def check_row_table(path: Path, rows: tuple[int, ...], expect: dict[int, float]) -> list[str]:
    """A diagonal/subdiag CSV must hold exactly ``rows`` with log10 values
    bit-identical to ``expect``."""
    lines = path.read_text().splitlines()
    if lines[0] != "r,log10_value,value":
        return [f"{path.name}: bad header"]
    got = {int(r): float(l10) for r, l10, _ in (line.split(",") for line in lines[1:])}
    if tuple(got) != rows:
        return [f"{path.name}: rows {tuple(got)} != {rows}"]
    return [f"{path.name}: row {r} log10 {got[r]!r} != regularized cell {expect[r]!r}"
            for r in rows if got[r] != expect[r]]


def common_problems(op: Op) -> list[str]:
    if op.code is None:
        return [f"raised: {op.error.splitlines()[-1] if op.error else '?'}"]
    problems = [] if op.code == 0 else [f"exit code {op.code}: {op.error}"]
    problems += [f"missing output {name}" for name, p in op.files.items() if not p.is_file()]
    return problems


# ---------------------------------------------------------------------------
# workloads


class PaperStudy:
    """`evalanche simulate` on the paper config, writing the full bundle."""

    name = "paper_study"

    def __init__(self, inputs: dict[str, Path]) -> None:
        self.config_path = inputs["paper"]
        self.cfg = formats.config_from_json(self.config_path.read_text())
        if self.cfg.checkpoints != (self.cfg.steps,):
            raise ValueError("the replay of the checkpoint matrix needs it at the final step")
        step = self.cfg.steps
        self.bundle_files = {
            "manifest.json", "series.csv", "series.svg", f"matrix_{step}.csv",
            f"matrix_{step}_regularized.csv", f"heatmap_{step}.svg", f"regions_{step}.json",
        }

    def run(self, out: Path, tr: Tracer | None = None) -> tuple[list[Op], PassCounters]:
        bundle = out / "bundle"
        files = {name: bundle / name for name in sorted(self.bundle_files)}
        argv = ["simulate", "--config", str(self.config_path), "--out", str(bundle)]
        counters = PassCounters()
        if tr is None:
            return [call_cli("simulate", argv, files)], counters
        with tr.span("cli.simulate") as root:
            op = call_cli("simulate", argv, files)
        self._replay(tr, root, out / "replay", counters)
        return [op], counters

    def _replay(self, tr: Tracer, root, scratch: Path, counters: PassCounters) -> None:
        cfg = self.cfg
        with tr.span("simulate.run_experiment", root, True) as rs:
            run = simulate.run_experiment(cfg)
        with tr.span("simulate.draw_streams", rs, True):
            simulate.draw_streams(cfg)
        with tr.span("martingales.rank", rs, True):
            ranked = martingales.rank(run.final_table)
        raw = replay_matrix(tr, rs, ranked, cfg.merge_matrix, counters)
        with tr.span("discovery.regularize", rs, True):
            reg = discovery.regularize(raw)
        counters.add("simulate.steps", cfg.steps)
        counters.add("simulate.tracked_row_steps", cfg.steps * len(set(cfg.tracked_rows)))
        counters.add("simulate.seeds", 1)

        with tr.span("formats.write_bundle", root, True) as ws:
            formats.write_bundle(cfg, run, scratch)
        with tr.span("formats.series_records", ws, True):
            records = formats.series_records(run)
        with tr.span("formats.series_csv", ws, True):
            formats.series_csv(records)
        series = list(run.diagonal_series.values()) + list(run.subdiagonal_series.values())
        with tr.span("formats.series_svg", ws, True):
            formats.series_svg(series)
        for m in (raw, reg):
            with tr.span("formats.matrix_csv", ws, True):
                formats.matrix_csv(m)
        with tr.span("formats.heatmap_svg", ws, True):
            formats.heatmap_svg(raw)
        for r in sorted(set(cfg.tracked_rows)):
            for alpha in REGION_ALPHAS:
                with tr.span("discovery.confidence_region", ws, True):
                    discovery.confidence_region(reg, r, alpha)

    def verify(self, ops: list[Op]) -> dict[str, list[str]]:
        (op,) = ops
        problems = common_problems(op)
        if not problems:
            try:
                problems = self._check_bundle(op.files)
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"malformed output: {exc!r}"]
        return {op.label: problems}

    def _check_bundle(self, files: dict[str, Path]) -> list[str]:
        cfg, step = self.cfg, self.cfg.steps
        bundle = files["manifest.json"].parent
        problems = []
        present = {p.name for p in bundle.iterdir()}
        if present != self.bundle_files:
            problems.append(f"bundle files {sorted(present)} != {sorted(self.bundle_files)}")
        manifest = json.loads(files["manifest.json"].read_text())
        if set(manifest["files"]) != self.bundle_files or manifest["seed"] != cfg.seed:
            problems.append("manifest does not list the bundle or the seed")

        raw = read_matrix_csv(files[f"matrix_{step}.csv"])
        reg = read_matrix_csv(files[f"matrix_{step}_regularized.csv"])
        if len(raw) != cfg.k:
            problems.append(f"matrix has {len(raw)} rows, expected {cfg.k}")
        if any((np.diff(row) > 0).any() for row in reg):
            problems.append("a regularized row increases")
        if not all(np.array_equal(a, b) for a, b in zip(running_min(raw), reg)):
            problems.append("regularized matrix is not the running minimum of the raw one")
        if count_svg_rects(files[f"heatmap_{step}.svg"]) != 1 + sum(map(len, raw)):
            problems.append("heatmap rect count does not match the matrix")

        rows = sorted(set(cfg.tracked_rows))
        lines = files["series.csv"].read_text().splitlines()
        if len(lines) != 1 + cfg.steps * len(rows) * 2:
            problems.append(f"series.csv has {len(lines) - 1} records")
        final = {}
        for line in lines[-2 * len(rows):]:
            s, r, kind, l10, _value = line.split(",")
            if int(s) == cfg.steps and kind == "diagonal":
                final[int(r)] = float(l10)
        if cfg.merge_diagonal == cfg.merge_matrix:
            for r in rows:
                cell = float(reg[r - 1][r - 1])
                d = final.get(r, math.nan)
                if not (d == cell or abs(d - cell) <= SERIES_TOLERANCE_LOG10):
                    problems.append(f"final diagonal r={r} {d!r} != matrix cell {cell!r}")

        report = json.loads(files[f"regions_{step}.json"].read_text())
        if len(report["regions"]) != len(rows) * len(REGION_ALPHAS):
            problems.append(f"regions report has {len(report['regions'])} regions")
        for region in report["regions"]:
            r, alpha, lb = region["r"], region["alpha"], region["lower_bound"]
            want = region_bound(reg[r - 1], alpha)
            members = [] if want is None else list(range(want, r + 1))
            if lb != want or region["members"] != members:
                problems.append(f"region r={r} alpha={alpha}: lower bound {lb} != {want}")
        return problems

    def counters(self, ops: list[Op]) -> PassCounters:
        return files_counters(ops, blank_in=("series.csv",))


def files_counters(ops: list[Op], blank_in: tuple[str, ...]) -> PassCounters:
    c = PassCounters(
        {"formats.bytes_written": 0, "formats.files_written": 0, "formats.blank_linear_cells": 0}
    )
    for op in ops:
        for name, p in op.files.items():
            if p.is_file():
                c.add("formats.bytes_written", p.stat().st_size)
                c.add("formats.files_written", 1)
                if name in blank_in:
                    c.add("formats.blank_linear_cells", blank_linear_cells(p))
    return c


class SeedSweep:
    """`simulate.replicate` over 20 seeds, one tracked row, no matrix, no files."""

    name = "seed_sweep"

    def __init__(self, inputs: dict[str, Path]) -> None:
        self.cfg = formats.config_from_json(inputs["sweep"].read_text())
        self.seeds = json.loads(inputs["seeds"].read_text())
        self.row = self.cfg.tracked_rows[0]

    def _replicate(self) -> Op:
        try:
            summary = simulate.replicate(self.cfg, self.seeds)
        except Exception:
            return Op("replicate", None, traceback.format_exc())
        value = {name: s.log10_values.tolist() for name, s in sorted(summary.items())}
        return Op("replicate", 0, value=json.dumps(value).encode())

    def run(self, out: Path, tr: Tracer | None = None) -> tuple[list[Op], PassCounters]:
        counters = PassCounters()
        if tr is None:
            return [self._replicate()], counters
        with tr.span("simulate.replicate") as root:
            op = self._replicate()
        for seed in self.seeds:
            cfg = replace(self.cfg, seed=seed)
            with tr.span("simulate.run_experiment", root, True) as rs:
                simulate.run_experiment(cfg)
            with tr.span("simulate.draw_streams", rs, True):
                simulate.draw_streams(cfg)
        counters.add("simulate.steps", self.cfg.steps * len(self.seeds))
        counters.add("simulate.tracked_row_steps",
                     self.cfg.steps * len(set(self.cfg.tracked_rows)) * len(self.seeds))
        counters.add("simulate.seeds", len(self.seeds))
        return [op], counters

    def verify(self, ops: list[Op]) -> dict[str, list[str]]:
        (op,) = ops
        problems = common_problems(op)
        if problems:
            return {op.label: problems}
        summary = json.loads(op.value)
        keys = {f"diagonal_r{self.row}", f"subdiagonal_r{self.row}"}
        if set(summary) != keys:
            return {op.label: [f"summary keys {sorted(summary)} != {sorted(keys)}"]}
        for name, values in summary.items():
            if len(values) != len(self.seeds) or any(math.isnan(v) for v in values):
                problems.append(f"{name}: {len(values)} values or NaN, expected {len(self.seeds)}")
        return {op.label: problems}

    def check_first_seed(self, op: Op) -> list[str]:
        """The sweep's first seed must equal its own run_experiment bit for bit."""
        if op.value is None:
            return []
        run = simulate.run_experiment(replace(self.cfg, seed=self.seeds[0]))
        summary = json.loads(op.value)
        own = {
            f"diagonal_r{self.row}": float(run.diagonal_series[self.row].log10_values[-1]),
            f"subdiagonal_r{self.row}": float(run.subdiagonal_series[self.row].log10_values[-1]),
        }
        return [f"{name} seed 0: replicate {summary[name][0]!r} != run_experiment {v!r}"
                for name, v in own.items() if summary.get(name, [None])[0] != v]

    def counters(self, ops: list[Op]) -> PassCounters:
        return files_counters(ops, blank_in=())


class MatrixScan:
    """The desk CLI path: matrices, row scans and regions over values CSVs."""

    name = "matrix_scan"
    ROWS = (98, 99, 100, 101)
    K200_SPECS = ("u1", "u2", "mix:0,0.5,0.5")
    REGIONS = ((100, 10.0), (100, 100.0), (250, 10.0), (250, 100.0))

    def __init__(self, inputs: dict[str, Path]) -> None:
        self.values = {"k200": inputs["values_k200"], "k500": inputs["values_k500"]}
        self.specs = {flag: formats.parse_merge_flag(flag) for flag in self.K200_SPECS}

    def run(self, out: Path, tr: Tracer | None = None) -> tuple[list[Op], PassCounters]:
        out.mkdir(parents=True, exist_ok=True)
        counters = PassCounters()
        ops = [self._matrix(out, "k200", flag, tr, counters) for flag in self.K200_SPECS]
        ops += [self._row_scan(out, kind, tr) for kind in ("diagonal", "subdiag")]
        ops.append(self._matrix(out, "k500", "u1", tr, counters))
        matrix = ops[-1].files["matrix.csv"]
        ops += [self._region(out, matrix, r, alpha, tr) for r, alpha in self.REGIONS]
        return ops, counters

    def _values(self, tr: Tracer, parent, size: str):
        text = self.values[size].read_text()
        with tr.span("formats.parse_values_csv", parent, True):
            values = formats.parse_values_csv(text)
        with tr.span("martingales.rank", parent, True):
            return martingales.RankedValues.from_values(values)

    def _matrix(self, out: Path, size: str, flag: str, tr, counters) -> Op:
        spec = self.specs[flag]
        label = f"matrix_{size}_{spec_tag(spec)}"
        files = {"matrix.csv": out / f"{label}.csv", "heatmap.svg": out / f"{label}.svg"}
        argv = ["matrix", "--values", str(self.values[size]), "--merge", flag,
                "--heatmap", str(files["heatmap.svg"]), "--out", str(files["matrix.csv"])]
        if tr is None:
            return call_cli(label, argv, files)
        with tr.span("cli.matrix") as root:
            op = call_cli(label, argv, files)
        ranked = self._values(tr, root, size)
        raw = replay_matrix(tr, root, ranked, spec, counters)
        with tr.span("formats.heatmap_svg", root, True):
            formats.heatmap_svg(raw)
        with tr.span("formats.matrix_csv", root, True):
            formats.matrix_csv(raw)
        return op

    def _row_scan(self, out: Path, kind: str, tr) -> Op:
        files = {"rows.csv": out / f"{kind}.csv"}
        argv = [kind, "--values", str(self.values["k200"]),
                "--rows", ",".join(map(str, self.ROWS)), "--out", str(files["rows.csv"])]
        if tr is None:
            return call_cli(kind, argv, files)
        with tr.span(f"cli.{kind}") as root:
            op = call_cli(kind, argv, files)
        ranked = self._values(tr, root, "k200")
        fn, spec = ((discovery.diagonal_row, merging.U1) if kind == "diagonal"
                    else (discovery.subdiagonal_row, merging.U2))
        for r in self.ROWS:
            with tr.span(f"discovery.{fn.__name__}", root, True):
                fn(ranked, r, spec)
        return op

    def _region(self, out: Path, matrix: Path, r: int, alpha: float, tr) -> Op:
        label = f"region_r{r}_a{alpha:g}"
        files = {"region.txt": out / f"{label}.txt"}
        argv = ["region", "--matrix", str(matrix), "--row", str(r), "--alpha", repr(alpha),
                "--out", str(files["region.txt"])]
        if tr is None:
            return call_cli(label, argv, files)
        with tr.span("cli.region") as root:
            op = call_cli(label, argv, files)
        text = matrix.read_text()
        with tr.span("formats.parse_matrix_csv", root, True):
            parsed = formats.parse_matrix_csv(text)
        with tr.span("discovery.regularize", root, True):
            reg = discovery.regularize(parsed)
        with tr.span("discovery.confidence_region", root, True):
            discovery.confidence_region(reg, r, alpha)
        return op

    def verify(self, ops: list[Op]) -> dict[str, list[str]]:
        by = {op.label: op for op in ops}
        problems = {op.label: common_problems(op) for op in ops}
        reg: dict[str, list[np.ndarray]] = {}
        for label, op in by.items():
            if not label.startswith("matrix_") or problems[label]:
                continue
            try:
                rows = read_matrix_csv(op.files["matrix.csv"])
            except ValueError as exc:
                problems[label].append(str(exc))
                continue
            if count_svg_rects(op.files["heatmap.svg"]) != 1 + sum(map(len, rows)):
                problems[label].append("heatmap rect count does not match the matrix")
            reg[label] = running_min(rows)

        for label, source, offset in (("diagonal", "matrix_k200_u1", 1),
                                      ("subdiag", "matrix_k200_u2", 2)):
            if problems[label]:
                continue
            if source not in reg:
                problems[label].append(f"cannot verify: {source} failed")
                continue
            expect = {r: float(reg[source][r - 1][r - offset]) for r in self.ROWS}
            try:
                problems[label] += check_row_table(by[label].files["rows.csv"], self.ROWS, expect)
            except ValueError as exc:
                problems[label].append(f"malformed output: {exc}")

        for r, alpha in self.REGIONS:
            label = f"region_r{r}_a{alpha:g}"
            if problems[label]:
                continue
            if "matrix_k500_u1" not in reg:
                problems[label].append("cannot verify: matrix_k500_u1 failed")
                continue
            want = region_text(reg["matrix_k500_u1"][r - 1], r, alpha)
            got = by[label].files["region.txt"].read_text()
            if got != want:
                problems[label].append(f"region output {got!r} != {want!r}")
        return problems

    def counters(self, ops: list[Op]) -> PassCounters:
        return files_counters(ops, blank_in=("rows.csv",))


WORKLOADS = {w.name: w for w in (PaperStudy, SeedSweep, MatrixScan)}
