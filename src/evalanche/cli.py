"""Command-line front end.

Subcommands: simulate, diagonal, subdiag, matrix, region, merge,
validate-poly, oracle-check.  This module parses flags, reads inputs and
dispatches; every ``--format`` output is rendered by ``formats``.  Data goes
to stdout or files; diagnostics go to stderr.  Exit codes: 0 success, 1
usage error (bad flags, unreadable or malformed input file, unwritable
output), 2 numerical or domain error or a failed ``oracle-check`` row.  A
stdout closed early by its reader ends the output, with exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable

from . import formats
from .discovery import confidence_region, diagonal_row, discovery_matrix, regularize, subdiagonal_row
from .errors import DomainError, EvalancheError
from .logvalue import LogValue
from .martingales import RankedValues
from .merging import MergeSpec, mixture_merge
from .oracles import certify
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


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write ``chunks`` to the file ``out``, or to stdout.  A reader that closes
    stdout early ends the output: stdout is pointed at the null device, so the
    flush at exit is silent, and the command still succeeds."""
    try:
        formats.write_chunks(chunks, out)
    except BrokenPipeError:
        if out is not None:
            raise
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _cmd_simulate(args) -> int:
    cfg = _read(args.config, "config", formats.config_from_json)
    if args.seed is not None:
        with _as_usage_error("bad --seed"):
            cfg = replace(cfg, seed=args.seed)
    run = run_experiment(cfg)
    bundle = formats.write_bundle(cfg, run, args.out)
    _emit([f"{bundle['manifest.json']}\n"], None)
    return 0


def _cmd_row_scan(args, kind: str) -> int:
    values = _load_values(args.values)
    spec = _parse_merge(args.merge)
    ranked = RankedValues.from_values(values)
    rows = _parse_rows(args.rows, ranked.k)
    fn = diagonal_row if kind == "diagonal" else subdiagonal_row
    table = [(r, fn(ranked, r, spec)) for r in rows]
    _emit([formats.row_table(kind, spec, table, args.format)], args.out)
    return 0


def _cmd_matrix(args) -> int:
    values = _load_values(args.values)
    spec = _parse_merge(args.merge)
    ranked = RankedValues.from_values(values)
    m = discovery_matrix(ranked, spec)
    if args.regularize:
        m = regularize(m)
    if args.heatmap:
        _emit(formats.heatmap_svg_chunks(m), args.heatmap)
    _emit(formats.matrix_report(m, args.format), args.out)
    return 0


def _cmd_region(args) -> int:
    m = regularize(_read(args.matrix, "matrix", formats.parse_matrix_csv))
    region = confidence_region(m, args.row, args.alpha)
    _emit([formats.region_report(region, args.format)], args.out)
    return 0


def _cmd_merge(args) -> int:
    values = _load_values(args.values)
    spec = _parse_merge(args.merge)
    _emit([formats.merge_report(spec, mixture_merge(spec, values), args.format)], args.out)
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
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    if args.instances < 1:
        raise _UsageError(f"--instances must be at least 1, got {args.instances}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    rows = certify(args.instances, args.seed)
    _emit([f"{'ok' if worst <= tol else 'FAIL'} {name}: worst {worst:.3e} "
           f"(tol {tol:.0e}, {args.instances} instances)\n" for name, worst, tol in rows], None)
    return 0 if all(worst <= tol for _, worst, tol in rows) else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="evalanche", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # the flags several commands share, each defined once in a parent parser
    values, fmt, out = (_Parser(add_help=False) for _ in range(3))
    values.add_argument("--values", required=True, help="values CSV path or inline v1,v2,...")
    fmt.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    out.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("simulate", help="run a seeded experiment and write its output bundle")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_simulate)

    for name, kind in (("diagonal", "diagonal"), ("subdiag", "subdiagonal")):
        p = sub.add_parser(name, parents=[values, fmt, out],
                           help=f"compute the discovery {kind} for given values")
        p.add_argument("--merge", default="u1" if kind == "diagonal" else "u2",
                       help="u1|u2|...|mix:w0,w1,...")
        p.add_argument("--rows", default=None, help="comma-separated rows (default: all)")
        p.set_defaults(fn=lambda args, kind=kind: _cmd_row_scan(args, kind))

    p = sub.add_parser("matrix", parents=[values, fmt, out],
                       help="compute the discovery matrix for given values")
    p.add_argument("--merge", default="u1")
    p.add_argument("--regularize", action="store_true")
    p.add_argument("--heatmap", default=None, help="also write an SVG heatmap here")
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("region", parents=[out], help="confidence region from a matrix CSV row")
    p.add_argument("--matrix", required=True, help="matrix CSV (regularized on load)")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("merge", parents=[values, fmt, out], help="merge values with a NESP or mixture")
    p.add_argument("--merge", required=True)
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser("validate-poly", parents=[out], help="validate and decompose a merging polynomial")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
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
