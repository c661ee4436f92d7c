"""Command-line front end.

Subcommands: simulate, diagonal, subdiag, matrix, region, merge,
validate-poly, oracle-check.  argparse reads and converts each input once,
through its flag's ``type`` (but ``region`` reads ``--matrix`` after every
flag, with ``--row``, to keep one row), so a command only computes and emits;
every ``--format`` output is rendered by ``formats``.  Data goes to stdout or
files; diagnostics go to stderr.  Exit codes: 0 success, 1 usage error (bad
flags, unreadable or malformed input file, unwritable output), 2 numerical
or domain error or a failed ``oracle-check`` row.  A stdout closed early by
its reader ends the output, with exit 0.  ``simulate`` makes its ``--out``
directory before the run, so an unusable one exits 1 at once.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable

from . import formats
from .discovery import discovery_matrix, regularize, row_bounds, row_region
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
    """``parse`` of the file at ``path``, handed over open, so a CSV parser reads
    it a piece at a time; the bytes of a pipe (``<(cat m.csv)``) are held, as a
    bad matrix row is read again from the start.  An unreadable, undecodable
    or malformed file is a usage error; a decode error names no position."""
    try:
        with open(path) as f, _as_usage_error(f"bad {what} file {path!r}"):
            return parse(f if f.seekable() else io.TextIOWrapper(io.BytesIO(f.buffer.read())))
    except OSError as exc:
        raise _UsageError(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {what} file {path!r}: {exc.encoding!r} codec can't decode "
                          f"byte {exc.object[exc.start]:#04x}: {exc.reason}") from exc


def _load_values(text: str) -> list[LogValue]:
    """Either a values CSV path (any path but a directory, so a pipe too) or an
    inline comma list of linear values; at most ``MAX_K`` of them, checked
    before any table is built.  A long inline list, too long for a path name,
    does not exist as one."""
    is_file = os.path.exists(text) and not os.path.isdir(text)
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


def _parse_rows(text: str) -> list[int]:
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
    cfg = args.config
    if args.seed is not None:
        with _as_usage_error("bad --seed"):
            cfg = replace(cfg, seed=args.seed)
    out = Path(args.out)
    made = [p for p in (out, *out.parents) if not p.exists()]  # leaf first
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails here, before the run
    try:
        run = run_experiment(cfg)
    except BaseException:
        for p in made:  # a failed run writes nothing
            p.rmdir()
        raise
    bundle = formats.write_bundle(cfg, run, out)
    _emit([f"{bundle['manifest.json']}\n"], None)
    return 0


def _cmd_row_scan(args, kind: str, width: int) -> int:
    ranked = RankedValues.from_values(args.values)
    rows = args.rows or range(1, ranked.k + 1)
    table = list(zip(rows, map(LogValue, row_bounds(ranked.sorted_logs, rows, width, args.merge))))
    _emit([formats.row_table(kind, args.merge, table, args.format)], args.out)
    return 0


def _cmd_matrix(args) -> int:
    m = discovery_matrix(RankedValues.from_values(args.values), args.merge)
    m = regularize(m) if args.regularize else m
    if args.heatmap:
        _emit(formats.heatmap_svg_chunks(m), args.heatmap)
    _emit(formats.matrix_report(m, args.format), args.out)
    return 0


def _cmd_region(args) -> int:
    k, row = _read(args.matrix, "matrix", lambda f: formats.matrix_row(f, args.row))
    _emit([formats.region_report(row_region(row, k, args.row, args.alpha), args.format)], args.out)
    return 0


def _cmd_merge(args) -> int:
    _emit([formats.merge_report(args.merge, mixture_merge(args.merge, args.values), args.format)],
          args.out)
    return 0


def _cmd_validate_poly(args) -> int:
    verdict = validate_merging_polynomial(args.poly)
    lines = ["valid" if verdict.ok else "invalid"]
    lines += [f"violation: {v}" for v in verdict.violations]
    try:
        weights = decompose_symmetric(args.poly)
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
    parser = _Parser(prog="evalanche", description="Multiple hypothesis testing with merged test martingales: "
                     "discovery bounds, confidence regions and the seeded simulation study.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # the flags several commands share, each defined once in a parent parser
    values, fmt, out = (_Parser(add_help=False) for _ in range(3))
    values.add_argument("--values", required=True, type=_load_values,
                        help="values CSV path or inline v1,v2,...")
    fmt.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    out.add_argument("--out", default=None, help="output file (default: stdout)")

    def add_merge(p, default: str | None) -> None:  # not a parent: its one action would share a default
        p.add_argument("--merge", type=_parse_merge, default=default, required=default is None,
                       help="u1|u2|...|mix:w0,w1,... (default: u1 for diagonal and matrix, "
                            "u2 for subdiag; merge requires it)")

    p = sub.add_parser("simulate", help="run a seeded experiment and write its output bundle")
    p.add_argument("--config", required=True, help="experiment config JSON",
                   type=lambda path: _read(path, "config", formats.config_from_json))
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_simulate)

    for name, kind, width in (("diagonal", "diagonal", 1), ("subdiag", "subdiagonal", 2)):
        p = sub.add_parser(name, parents=[values, fmt, out],
                           help=f"compute the discovery {kind} for given values")
        add_merge(p, "u1" if kind == "diagonal" else "u2")
        p.add_argument("--rows", type=_parse_rows, help="comma-separated rows (default: all)")
        p.set_defaults(fn=lambda args, kind=kind, width=width: _cmd_row_scan(args, kind, width))

    p = sub.add_parser("matrix", parents=[values, fmt, out],
                       help="compute the discovery matrix for given values")
    add_merge(p, "u1")
    p.add_argument("--regularize", action="store_true", help="each row's running minimum in j")
    p.add_argument("--heatmap", default=None, help="also write an SVG heatmap here")
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("region", parents=[out], help="confidence region from a matrix CSV row")
    p.add_argument("--matrix", required=True, help="matrix CSV: every line checked, row r regularized")
    p.add_argument("--row", type=int, required=True, help="matrix row r, 1..K")
    p.add_argument("--alpha", type=float, required=True, help="level: the columns of row r below alpha")
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("merge", parents=[values, fmt, out], help="merge values with a NESP or mixture")
    add_merge(p, None)
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser("validate-poly", parents=[out], help="validate and decompose a merging polynomial")
    p.add_argument("--poly", required=True, help="polynomial JSON file",
                   type=lambda path: _read(path, "polynomial", formats.poly_from_json))
    p.set_defaults(fn=_cmd_validate_poly)

    p = sub.add_parser("oracle-check", help="cross-check the fast paths against oracles")
    p.add_argument("--instances", type=int, default=25, help="random instances per check (default: 25)")
    p.add_argument("--seed", type=int, default=20240542, help="generator seed (default: 20240542)")
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
