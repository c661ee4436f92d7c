"""Command-line front end.

Subcommands: simulate, diagonal, subdiag, matrix, region, merge,
validate-poly, oracle-check.  This module parses flags, reads inputs and
dispatches; every ``--format`` output is rendered by ``formats``.  Data goes
to stdout or files; diagnostics go to stderr.  Exit codes: 0 success, 1
usage error (bad flags, unreadable or malformed input file, unwritable
output), 2 numerical or domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import formats
from .discovery import (
    confidence_region,
    diagonal_row,
    discovery_matrix,
    regularize,
    subdiagonal_row,
)
from .errors import DomainError, EvalancheError
from .logvalue import LN10, LogValue
from .martingales import RankedValues
from .merging import (
    MergeSpec,
    U1,
    U2,
    U1_U2_HALF,
    mixture_merge,
    nesp_log,
)
from .oracles import CONSTRAINT_EXACTLY_J_MISSING, CONSTRAINT_GE2_IN_TOP_R, CONSTRAINT_INTERSECTS_TOP_R
from .oracles import brute_force_bound, nesp_bell, nesp_enumerate, nesp_powersum
from .polynomials import decompose_symmetric, validate_merging_polynomial
from .simulate import MAX_K, run_experiment


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@contextlib.contextmanager
def _as_usage_error(context: str):
    """Reclassify input-parsing DomainErrors as usage errors (exit 1)."""
    try:
        yield
    except DomainError as exc:
        raise _UsageError(f"{context}: {exc}") from exc


def _read(path: str, what: str, parse):
    """``parse`` of the file's text; an unreadable or malformed file is a usage error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {what}: {exc}") from exc
    with _as_usage_error(f"bad {what} file {path!r}"):
        return parse(text)


def _load_values(text: str) -> list[LogValue]:
    """Either a values CSV path or an inline comma list of linear values; at
    most ``MAX_K`` of them, checked before any table is built."""
    try:
        is_file = Path(text).is_file()
    except OSError:  # too long for a path name: a long inline list
        is_file = False
    if is_file:
        values = _read(text, "values", formats.parse_values_csv)
    else:
        try:
            values = [float(t) for t in text.split(",")]
        except ValueError as exc:
            raise _UsageError(f"--values must be a file or comma-separated numbers, got {text!r}") from exc
    if len(values) > MAX_K:
        raise _UsageError(f"--values holds {len(values)} values, more than the limit of {MAX_K}")
    return values if is_file else [LogValue.of(x) for x in values]


def _parse_merge(text: str) -> MergeSpec:
    with _as_usage_error(f"bad merge spec {text!r}"):
        return formats.parse_merge_flag(text)


def _parse_rows(text: str | None, k: int) -> list[int]:
    if text is None:
        return list(range(1, k + 1))
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"--rows must be comma-separated integers, got {text!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_simulate(args) -> int:
    cfg = _read(args.config, "config", formats.config_from_json)
    if args.seed is not None:
        with _as_usage_error("bad --seed"):
            cfg = replace(cfg, seed=args.seed)
    run = run_experiment(cfg)
    bundle = formats.write_bundle(cfg, run, args.out)
    sys.stdout.write(f"{bundle['manifest.json']}\n")
    return 0


def _cmd_row_scan(args, kind: str) -> int:
    values = _load_values(args.values)
    spec = _parse_merge(args.merge)
    ranked = RankedValues.from_values(values)
    rows = _parse_rows(args.rows, ranked.k)
    fn = diagonal_row if kind == "diagonal" else subdiagonal_row
    table = [(r, fn(ranked, r, spec)) for r in rows]
    _emit(formats.row_table(kind, spec, table, args.format), args.out)
    return 0


def _cmd_matrix(args) -> int:
    values = _load_values(args.values)
    spec = _parse_merge(args.merge)
    ranked = RankedValues.from_values(values)
    m = discovery_matrix(ranked, spec)
    if args.regularize:
        m = regularize(m)
    if args.heatmap:
        Path(args.heatmap).write_text(formats.heatmap_svg(m))
    _emit(formats.matrix_report(m, args.format), args.out)
    return 0


def _cmd_region(args) -> int:
    m = regularize(_read(args.matrix, "matrix", formats.parse_matrix_csv))
    region = confidence_region(m, args.row, args.alpha)
    _emit(formats.region_report(region, args.format), args.out)
    return 0


def _cmd_merge(args) -> int:
    values = _load_values(args.values)
    spec = _parse_merge(args.merge)
    _emit(formats.merge_report(spec, mixture_merge(spec, values), args.format), args.out)
    return 0


def _cmd_validate_poly(args) -> int:
    poly = _read(args.poly, "polynomial", formats.poly_from_json)
    verdict = validate_merging_polynomial(poly)
    lines = ["valid" if verdict.ok else "invalid"]
    lines += [f"violation: {v}" for v in verdict.violations]
    try:
        weights = decompose_symmetric(poly)
        lines.append("weights: " + ",".join(map(repr, weights)))
    except DomainError as exc:
        lines.append(f"not symmetric: {exc}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    if args.instances < 1:
        raise _UsageError(f"--instances must be at least 1, got {args.instances}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    failures: list[str] = []

    def report(name: str, worst: float, tol: float, count: int) -> None:
        status = "ok" if worst <= tol else "FAIL"
        sys.stdout.write(f"{status} {name}: worst {worst:.3e} (tol {tol:.0e}, {count} instances)\n")
        if worst > tol:
            failures.append(name)

    worst = 0.0
    for _ in range(args.instances):
        k = int(rng.integers(1, 11))
        n = int(rng.integers(1, k + 1))
        values = [LogValue.of(v) for v in 10.0 ** rng.uniform(-6, 6, size=k)]
        a = nesp_log(values, n)
        b = nesp_enumerate(values, n)
        worst = max(worst, abs(a.log_e - b.log_e))
    report("nesp_log vs subset enumeration", worst, 1e-9, args.instances)

    worst = 0.0
    for _ in range(args.instances):
        k = int(rng.integers(2, 31))
        values = [LogValue.of(v) for v in rng.uniform(0.1, 10.0, size=k)]
        for n in range(1, 5):
            a = nesp_log(values, n)
            worst = max(worst, abs(nesp_powersum(values, n).log_e - a.log_e) / max(1.0, abs(a.log_e)))
        for n in range(1, 7):
            a = nesp_log(values, n)
            worst = max(worst, abs(nesp_bell(values, n).log_e - a.log_e) / max(1.0, abs(a.log_e)))
    report("power-sum and Bell paths vs nesp_log", worst, 1e-8, args.instances)

    worst = 0.0
    specs = (U1, U2, U1_U2_HALF)
    for _ in range(args.instances):
        k = int(rng.integers(2, 9))
        values = [LogValue.of(v) for v in 10.0 ** rng.uniform(-4, 4, size=k)]
        ranked = RankedValues.from_values(values)
        for spec in specs:
            m = discovery_matrix(ranked, spec)
            for r in range(1, k + 1):
                d = diagonal_row(ranked, r, spec)
                o = brute_force_bound(values, CONSTRAINT_INTERSECTS_TOP_R, r, spec)
                worst = max(worst, abs(d.log_e - o.log_e))
                ds = subdiagonal_row(ranked, r, spec)
                constraint = CONSTRAINT_GE2_IN_TOP_R if r >= 2 else CONSTRAINT_INTERSECTS_TOP_R
                os_ = brute_force_bound(values, constraint, r, spec)
                worst = max(worst, abs(ds.log_e - os_.log_e))
                for j in range(r + 1):
                    o = brute_force_bound(values, CONSTRAINT_EXACTLY_J_MISSING, r, spec, j=j)
                    worst = max(worst, abs(m.log10_entry(r, j) * LN10 - o.log_e))
    report("scans vs brute-force subset minima", worst, 1e-9, args.instances)

    return 0 if not failures else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="evalanche", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="run a seeded experiment and write its output bundle")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_simulate)

    for name, kind in (("diagonal", "diagonal"), ("subdiag", "subdiagonal")):
        p = sub.add_parser(name, help=f"compute the discovery {kind} for given values")
        p.add_argument("--values", required=True, help="values CSV path or inline v1,v2,...")
        p.add_argument("--merge", default="u1" if kind == "diagonal" else "u2",
                       help="u1|u2|...|mix:w0,w1,...")
        p.add_argument("--rows", default=None, help="comma-separated rows (default: all)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.set_defaults(fn=lambda args, kind=kind: _cmd_row_scan(args, kind))

    p = sub.add_parser("matrix", help="compute the discovery matrix for given values")
    p.add_argument("--values", required=True)
    p.add_argument("--merge", default="u1")
    p.add_argument("--regularize", action="store_true")
    p.add_argument("--heatmap", default=None, help="also write an SVG heatmap here")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("region", help="confidence region from a matrix CSV row")
    p.add_argument("--matrix", required=True, help="matrix CSV (regularized on load)")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("merge", help="merge values with a NESP or mixture")
    p.add_argument("--values", required=True)
    p.add_argument("--merge", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser("validate-poly", help="validate and decompose a merging polynomial")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_validate_poly)

    p = sub.add_parser("oracle-check", help="cross-check the fast paths against oracles")
    p.add_argument("--instances", type=int, default=25)
    p.add_argument("--seed", type=int, default=20240542)
    p.set_defaults(fn=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except EvalancheError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
