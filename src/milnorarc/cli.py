"""Command-line front end: analyze, milnor, arc-check, arc-search, trace, dims.

All JSON output is byte-deterministic for identical input, seed and config
(sorted keys, fixed float repr), and every report embeds enough provenance
to re-run it exactly.

Exit codes: 0 success, 1 user error (parse failure, bad arguments, a center
too large or a radius too small for floating point), 2 analysis ran but every
center was degenerate.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import __version__, arcs, milnor, poly, tracer
from .poly import ParseError, Polynomial, RationalArc
from .tracer import TraceConfig


class UserError(Exception):
    """Invalid user input; reported on stderr with exit code 1."""


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(payload: dict, args, var_names: List[str]) -> None:
    """The payload as JSON, with the input polynomial, variables and version."""
    payload.update(polynomial=args.poly, vars=var_names, version=__version__)
    _emit(_json_dumps(payload), args.out)


def _parse_vars(spec: str) -> List[str]:
    names = [v.strip() for v in spec.split(",") if v.strip()]
    if not names:
        raise UserError("--vars must list at least one variable name")
    if len(set(names)) != len(names):
        raise UserError("duplicate variable names")
    return names


def _parse_poly(text: str, var_names: Sequence[str]) -> Polynomial:
    try:
        return poly.parse(text, var_names)
    except ParseError as exc:
        raise UserError(f"polynomial parse error: {exc}") from exc


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UserError(f"invalid rational {text!r}") from exc


def _parse_center(text: str, n: int) -> Tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise UserError(f"center {text!r} has {len(parts)} coordinates, expected {n}")
    return tuple(_parse_rational(p) for p in parts)


def _parse_radii(spec: Optional[str]) -> dict:
    """The TraceConfig radius fields of an R0:factor:count spec; none for None."""
    if spec is None:
        return {}
    try:
        r0_s, factor_s, count_s = spec.split(":")
        return dict(r0=float(r0_s), radius_factor=float(factor_s), radius_count=int(count_s))
    except ValueError as exc:
        raise UserError(f"--radii must look like R0:factor:count, got {spec!r}") from exc


# ---------------------------------------------------------------------------
# Arc-spec text format: per-variable term lists, e.g. "x: 1/2 t^-1; y: -1 t^1"
# ---------------------------------------------------------------------------


def parse_arc_spec(spec: str, var_names: Sequence[str]) -> RationalArc:
    n = len(var_names)
    index = {name: i for i, name in enumerate(var_names)}
    coeffs: dict = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if ":" not in clause:
            raise UserError(f"arc clause {clause!r} is missing 'var:'")
        name, body = clause.split(":", 1)
        name = name.strip()
        if name not in index:
            raise UserError(f"unknown arc variable {name!r}")
        j = index[name]
        for coeff, k in _parse_arc_terms(body):
            if coeff == 0:
                continue
            vec = list(coeffs.get(k, (Fraction(0),) * n))
            vec[j] += coeff
            coeffs[k] = tuple(vec)
    return RationalArc(n, coeffs)


def _parse_arc_terms(body: str) -> List[Tuple[Fraction, int]]:
    import re

    token_re = re.compile(
        r"\s*(?P<sign>[+-])?\s*(?:(?P<num>\d+(?:/\d+)?)\s*\*?\s*)?"
        r"(?:t(?:\^(?P<exp>-?\d+))?)?"
    )
    terms: List[Tuple[Fraction, int]] = []
    pos = 0
    body = body.strip()
    while pos < len(body):
        m = token_re.match(body, pos)
        if not m or m.end() == pos:
            raise UserError(f"cannot parse arc terms at {body[pos:]!r}")
        sign, num, exp = m.group("sign"), m.group("num"), m.group("exp")
        has_t = "t" in body[m.start():m.end()]
        if num is None and not has_t:
            raise UserError(f"cannot parse arc terms at {body[pos:]!r}")
        coeff = _parse_rational(num) if num is not None else Fraction(1)
        if sign == "-":
            coeff = -coeff
        k = int(exp) if exp is not None else (1 if has_t else 0)
        terms.append((coeff, k))
        pos = m.end()
    return terms


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _config(cls, args, **fields):
    """A TraceConfig or ArcSearchConfig from `fields` and the --seed and --tol given."""
    fields.update({k: getattr(args, k) for k in ("seed", "tol") if getattr(args, k) is not None})
    try:
        return cls(**fields)
    except ValueError as exc:
        raise UserError(str(exc)) from exc


def _resolve_centers(args, f: Polynomial, cfg: TraceConfig) -> list:
    """The --center coordinates, then the screened systems of --centers seeded draws (3 when neither is given)."""
    centers = [_parse_center(c, f.num_vars) for c in args.center or ()]
    if args.centers is not None and args.centers < 1:
        raise UserError("--centers needs a count of at least 1")
    count = args.centers if args.centers is not None else (0 if centers else 3)
    return centers + [tracer._pick_generic_system(f, seed=cfg.seed + i) for i in range(count)]


def _traces_csv(traces, id_offset: int = 0) -> List[List]:
    return [[t.branch_id + id_offset, s.radius, *s.point, s.f_value, s.malgrange, s.residual]
            for t in traces for s in t.samples]


def _write_csv(rows: List[List], num_vars: int, out_path: Optional[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["branch_id", "R"] + [f"x{i + 1}" for i in range(num_vars)] + ["f", "malgrange", "residual"]
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _emit(buf.getvalue(), out_path)


def cmd_analyze(args) -> int:
    var_names = _parse_vars(args.vars)
    if len(var_names) < 2:
        raise UserError("analyze requires at least 2 variables")
    f = _parse_poly(args.poly, var_names)
    cfg = _config(TraceConfig, args, **_parse_radii(args.radii))
    centers = _resolve_centers(args, f, cfg)

    try:
        if len(centers) == 1:
            reports = [tracer.s_a_estimate(f, centers[0], cfg)]
            payload = {**reports[0].to_dict(), "mode": "single-center"}
        else:
            sreport = tracer.s_infinity_estimate(f, centers, cfg)
            reports = sreport.per_center
            payload = {**sreport.to_dict(), "mode": "multi-center"}
    except ValueError as exc:  # e.g. a center or radii too large for float evaluation
        raise UserError(str(exc)) from exc

    if args.format == "csv":
        rows = [row for i, r in enumerate(reports) for row in _traces_csv(r.traces, 1000 * i)]
        _write_csv(rows, f.num_vars, args.out)
    else:
        _emit_report(payload, args, var_names)
    return 2 if all(r.status == "degenerate" for r in reports) else 0


def cmd_milnor(args) -> int:
    var_names = _parse_vars(args.vars)
    f = _parse_poly(args.poly, var_names)
    if f.num_vars < 2:
        raise UserError("milnor requires at least 2 variables")
    if args.pivot is not None and args.minors:
        raise UserError("--pivot and --minors are mutually exclusive")
    center = _parse_center(args.center, f.num_vars) if args.center else (Fraction(0),) * f.num_vars
    pivot = milnor.PIVOT_MINORS if args.minors else (
        args.pivot - 1 if args.pivot is not None else milnor.default_pivot(f)
    )
    try:
        sys_ = milnor.milnor_equations([f], center, pivot=pivot)
    except (ValueError, IndexError) as exc:
        raise UserError(str(exc)) from exc
    _emit_report(sys_.to_dict(var_names), args, var_names)
    return 0


def cmd_arc_check(args) -> int:
    var_names = _parse_vars(args.vars)
    f = _parse_poly(args.poly, var_names)
    xi = parse_arc_spec(args.arc, var_names)
    try:
        report = arcs.check_membership(f, xi)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    _emit_report({**report.to_dict(), "arc": args.arc}, args, var_names)
    return 0


def cmd_arc_search(args) -> int:
    var_names = _parse_vars(args.vars)
    f = _parse_poly(args.poly, var_names)
    cfg = _config(arcs.ArcSearchConfig, args, starts=args.starts)
    try:
        found = arcs.search_arcs(f, cfg)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    _emit_report({
        "candidates": [c.to_dict() for c in found],
        "config": cfg.to_dict(),
        "complete": False,  # the search never certifies exhaustiveness
    }, args, var_names)
    return 0


def cmd_trace(args) -> int:
    var_names = _parse_vars(args.vars)
    if len(var_names) < 2:
        raise UserError("trace requires at least 2 variables")
    f = _parse_poly(args.poly, var_names)
    cfg = _config(TraceConfig, args, **_parse_radii(args.radii))
    center = _parse_center(args.center, f.num_vars) if args.center else tracer._pick_generic_system(f, cfg.seed)
    try:
        traces = tracer.trace_branches(f, center, cfg)
    except tracer.DegenerateMilnorError as exc:
        sys.stderr.write(f"error: degenerate Milnor system: {exc}\n")
        return 2
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    tracer.estimate_limits(traces, cfg)
    if args.format == "json":
        payload = {
            "branches": [
                {
                    "branch_id": t.branch_id,
                    "status": t.status,
                    "samples": [
                        {
                            "R": s.radius,
                            "x": list(s.point),
                            "f": s.f_value,
                            "malgrange": s.malgrange,
                            "residual": s.residual,
                        }
                        for s in t.samples
                    ],
                }
                for t in traces
            ],
            "center": [str(c) for c in (center if args.center else center.center)],
            "config": cfg.to_dict(),
        }
        _emit_report(payload, args, var_names)
    else:
        _write_csv(_traces_csv(traces), f.num_vars, args.out)
    return 0


def cmd_dims(args) -> int:
    n, d, limit = args.n, args.d, sys.get_int_max_str_digits()
    too_long = UserError(f"dims {n} {d}: a count has more than {limit} digits, "
                         "the interpreter's limit for printing an integer")
    # the larger count exceeds n * d^(n^2 + 1); its powers can take unbounded
    # time, so sizes well past the limit are refused from logarithms first
    if limit and n >= 2 and d >= 2 and math.log10(n) + (n * n + 1) * math.log10(d) > limit + 1:
        raise too_long
    try:
        dim_arc, dim_av = arcs.dims(n, d)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    if limit and dim_av >= 10 ** limit:
        raise too_long
    _emit(_json_dumps({"arc": dim_arc, "av": dim_av, "n": n, "d": d,
                       "version": __version__}), args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--vars", required=True, help="comma-separated variable names, in order")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # exit code 1 and one line, not usage and 2; subparsers inherit it
        raise UserError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="milnorarc",
        description="Estimate bifurcation values at infinity of a real polynomial",
    )
    parser.add_argument("--version", action="version", version=f"milnorarc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline over one or more centers")
    p.add_argument("poly")
    _add_common(p)
    p.add_argument("--center", action="append", help="explicit center 'c1,c2,...' (repeatable)")
    p.add_argument("--centers", type=int, help="count of seeded random centers")
    p.add_argument("--radii", help="radius schedule R0:factor:count")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("milnor", help="print the Milnor system for a center")
    p.add_argument("poly")
    _add_common(p)
    p.add_argument("--center", help="center 'c1,c2,...' (default all zeros)")
    p.add_argument("--pivot", type=int, default=None, help="1-based pivot variable")
    p.add_argument("--minors", action="store_true", help="use all 2x2 minors of [grad f; x - a]")
    p.set_defaults(func=cmd_milnor)

    p = sub.add_parser("arc-check", help="exact asymptotic membership check for an arc")
    p.add_argument("poly")
    p.add_argument("arc", help="arc spec, e.g. 'x: 1/2 t^-1; y: -1 t^1'")
    _add_common(p)
    p.set_defaults(func=cmd_arc_check)

    p = sub.add_parser("arc-search", help="numerical multistart search for asymptotic arcs")
    p.add_argument("poly")
    _add_common(p)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_arc_search)

    p = sub.add_parser("trace", help="emit per-branch samples as CSV or JSON")
    p.add_argument("poly")
    _add_common(p)
    p.add_argument("--center", help="center 'c1,c2,...' (default: seeded generic draw)")
    p.add_argument("--radii", help="radius schedule R0:factor:count")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("dims", help="coefficient-space dimension comparison")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dims)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parse_args keeps no state
    between calls (each call fills a new namespace)."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UserError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except milnor.DegenerateCenterError as exc:
        sys.stderr.write(f"error: {exc}\n")
        for line in exc.diagnostics:
            sys.stderr.write(f"  {line}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
