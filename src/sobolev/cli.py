"""Command-line front end; every subcommand emits a JSON report.

Exit codes: 0 = computed, 1 = a check verdict of NotGuaranteed (so
shells can branch on admissibility), 2 = usage or parse error (also a
malformed number or box, or a --grid or --k out of range), 3 = numerical
domain error or a result that is not finite.  Every report echoes the
fully resolved run configuration under "config", so a run is
reproducible from its own output.  Rational arguments are given as "a/b"
or decimal strings and are converted exactly; no floats reach the
exponent checks.
"""

from __future__ import annotations

import argparse
import json
import sys

from sobolev import atlas as atlas_mod
from sobolev import exponents as ex
from sobolev import manifold_norms as mn
from sobolev import operators as ops
from sobolev import quadrature as quad
from sobolev.funcexpr import ExprDomainError, ExprSyntaxError, parse_expr

__all__ = ["main", "execute"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2) with plain text
        raise UsageError(message)


_DOMAINS = {d.value: d for d in ex.DomainClass}


def _rationals(text: str, what: str) -> tuple:
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return ex.rational(parts[0].strip()), ex.rational(parts[1].strip())
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(
        f"expected a rational {what} such as '3/2,2', got {text!r}")


def _pair(text: str) -> ex.Exponent:
    return ex.Exponent(*_rationals(text, "'s,p' exponent pair"))


def _box(text: str) -> quad.BoxDomain:
    bounds = []
    for axis in text.split(";"):
        parts = axis.split(",")
        if len(parts) != 2:
            raise UsageError(f"expected 'lo,hi' for each axis, got {text!r}")
        bounds.append((float(parts[0]), float(parts[1])))
    return quad.BoxDomain(tuple(bounds))


def _grid(text: str) -> int:
    n = int(text)
    if n < 2:  # the two-grid error estimate halves every axis
        raise ValueError(
            f"grid resolution must be at least 2 per axis, got {n}")
    return n


def _order(text: str) -> int:
    k = int(text)
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    return k


def _checked(convert, keep_text=False):
    """An argparse type: a failed ``convert`` is a usage error (exit 2).

    With ``keep_text`` the argument keeps its text, which the report's
    config echo shows and the command converts again.
    """
    def check(text):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError) as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return text if keep_text else value
    return check


_RATIONAL = _checked(ex.rational, keep_text=True)
_GRID = _checked(_grid)


def _build_parser() -> _Parser:
    p = _Parser(prog="sobolev", description=__doc__)
    p.add_argument("--pretty", action="store_true",
                   help="indent the JSON output")
    p.add_argument("--output", help="also write the report to this file")
    sub = p.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="exact admissibility checks")
    csub = check.add_subparsers(dest="check_command", required=True)

    c = csub.add_parser("embed")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--from", dest="frm", required=True, metavar="S,P")
    c.add_argument("--to", required=True, metavar="T,Q")
    c.add_argument("--domain", default="fullspace", choices=sorted(_DOMAINS))

    c = csub.add_parser("multiply")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--a", required=True, metavar="S1,P1")
    c.add_argument("--b", required=True, metavar="S2,P2")
    c.add_argument("--target", required=True, metavar="S,P")
    c.add_argument("--domain", default="fullspace",
                   choices=["fullspace", "lipschitz"])

    c = csub.add_parser("pointwise")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--space", required=True, metavar="S,P")
    c.add_argument("--mode", required=True, choices=ex.POINTWISE_MODES)
    c.add_argument("--domain", default="fullspace", choices=sorted(_DOMAINS))

    c = csub.add_parser("derivative")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--space", required=True, metavar="S,P")
    c.add_argument("--order", type=int, required=True)
    c.add_argument("--domain", default="fullspace", choices=sorted(_DOMAINS))

    c = csub.add_parser("extend")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--space", required=True, metavar="S,P")
    c.add_argument("--enclosing", default="general",
                   choices=["general", "lipschitz", "fullspace"])

    norm = sub.add_parser("norm", help="numerical norms")
    nsub = norm.add_subparsers(dest="norm_command", required=True)

    c = nsub.add_parser("euclid")
    c.add_argument("--expr", required=True)
    c.add_argument("--box", type=_checked(_box, keep_text=True),
                   required=True, help="lo,hi per axis, ';'-separated")
    c.add_argument("--s", type=_RATIONAL, required=True)
    c.add_argument("--p", type=_RATIONAL, default="2")
    c.add_argument("--grid", type=_GRID, default=None)
    c.add_argument("--variant", default="seminorm",
                   choices=["seminorm", "full"])
    c.add_argument("--seminorm", action="store_true",
                   help="with 0 < s < 1: the fractional seminorm alone")

    c = nsub.add_parser("manifold")
    c.add_argument("--manifold", required=True)
    c.add_argument("--expr", required=True)
    c.add_argument("--e", type=_RATIONAL, default="1")
    c.add_argument("--q", type=_RATIONAL, default="2")
    c.add_argument("--grid", type=_GRID, default=None)
    c.add_argument("--pou", default="default", choices=["default", "alt"])
    c.add_argument("--intrinsic", action="store_true",
                   help="with --e 0: report both Lebesgue-norm variants")
    c.add_argument("--atlas-config", default=None)

    c = nsub.add_parser("connection")
    c.add_argument("--manifold", required=True)
    c.add_argument("--expr", required=True)
    c.add_argument("--k", type=_checked(_order), default=1)
    c.add_argument("--q", type=_RATIONAL, default="2")
    c.add_argument("--grid", type=_GRID, default=None)

    c = sub.add_parser("compare", help="norm-equivalence ratio brackets")
    c.add_argument("--manifold", required=True)
    c.add_argument("--expr", action="append", required=True,
                   help="repeat for each family member")
    c.add_argument("--e", type=_RATIONAL, default="1")
    c.add_argument("--q", type=_RATIONAL, default="2")
    c.add_argument("--grid", type=_GRID, default=None)
    c.add_argument("--against", default="pou-alt",
                   choices=["pou-alt", "connection"])

    op = sub.add_parser("op", help="differential operators")
    osub = op.add_subparsers(dest="op_command", required=True)

    c = osub.add_parser("apply")
    c.add_argument("--manifold", required=True)
    c.add_argument("--op", dest="op_id", required=True,
                   choices=ops.OPERATOR_IDS)
    c.add_argument("--expr", required=True)

    c = osub.add_parser("bound")
    c.add_argument("--manifold", required=True)
    c.add_argument("--op", dest="op_id", required=True,
                   choices=ops.OPERATOR_IDS)
    c.add_argument("--from", dest="frm", required=True, metavar="E,Q")
    c.add_argument("--to", required=True, metavar="ET,QT")
    c.add_argument("--expr", action="append", required=True)
    c.add_argument("--grid", type=_GRID, default=None)
    c.add_argument("--route", default=None, choices=["box", "chart"])

    c = sub.add_parser("atlas", help="atlas descriptors")
    asub = c.add_subparsers(dest="atlas_command", required=True)
    c = asub.add_parser("show")
    c.add_argument("--manifold", required=True)
    c.add_argument("--atlas-config", default=None)

    return p


def _config_echo(args) -> dict:
    skip = {"pretty", "output"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and v is not None}


def _load_manifold(args):
    cfg_path = getattr(args, "atlas_config", None)
    if cfg_path:
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        atlas, pou = atlas_mod.atlas_from_config(cfg)
        from sobolev.geometry import builtin_metric
        if pou is None:
            pou = atlas_mod.build_partition_of_unity(atlas)
        return atlas, pou, builtin_metric(atlas)
    return atlas_mod.builtin_manifold(args.manifold)


def _pou_by_name(atlas, name):
    if name == "alt":
        return atlas_mod.build_partition_of_unity(
            atlas, atlas_mod.alternate_seeds(atlas), "alt")
    return atlas_mod.build_partition_of_unity(atlas)


def _dispatch(args) -> tuple[dict, int]:
    cmd = args.command

    if cmd == "check":
        verdict = _run_check(args)
        report = verdict.to_json()
        return report, 0 if verdict.admissible else 1

    if cmd == "norm" and args.norm_command == "euclid":
        box = _box(args.box)
        expr = parse_expr(args.expr, box.n)
        s = float(ex.rational(args.s))
        p = float(ex.rational(args.p))
        if args.seminorm:
            if not 0.0 < s < 1.0:
                raise UsageError("--seminorm needs 0 < s < 1")
            rep = quad.gagliardo_seminorm(expr, box, theta=s, p=p, N=args.grid)
        else:
            rep = quad.sobolev_norm(expr, box, s=s, p=p, N=args.grid,
                                    variant=args.variant)
        return rep.to_json(), 0

    if cmd == "norm" and args.norm_command == "manifold":
        atlas, pou, g = _load_manifold(args)
        if getattr(args, "pou", "default") == "alt":
            pou = _pou_by_name(atlas, "alt")
        u = mn.ManifoldFunction.from_ambient(atlas, args.expr)
        e = float(ex.rational(args.e))
        q = float(ex.rational(args.q))
        if args.intrinsic:
            if e != 0:
                raise UsageError("--intrinsic applies to --e 0 only")
            rep = mn.manifold_lq_norm(u, g, atlas, pou, q=q, N=args.grid)
        else:
            rep = mn.chart_sobolev_norm(u, atlas, pou, e=e, q=q, N=args.grid)
        return rep.to_json(), 0

    if cmd == "norm" and args.norm_command == "connection":
        atlas, pou, g = _load_manifold(args)
        u = mn.ManifoldFunction.from_ambient(atlas, args.expr)
        rep = mn.connection_sobolev_norm(
            u, g, k=args.k, q=float(ex.rational(args.q)), N=args.grid,
            pou=pou)
        return rep.to_json(), 0

    if cmd == "compare":
        atlas, pou, g = _load_manifold(args)
        family = [mn.ManifoldFunction.from_ambient(atlas, t)
                  for t in args.expr]
        a = mn.NormVariant("chart", pou=pou)
        if args.against == "connection":
            b = mn.NormVariant("connection", metric=g, pou=pou)
        else:
            b = mn.NormVariant("chart", pou=_pou_by_name(atlas, "alt"))
        out = mn.compare_norms(family, a, b, e=float(ex.rational(args.e)),
                               q=float(ex.rational(args.q)), N=args.grid)
        return out, 0

    if cmd == "op" and args.op_command == "apply":
        atlas, pou, g = _load_manifold(args)
        u = mn.ManifoldFunction.from_ambient(atlas, args.expr)
        op = ops.build_operator(args.op_id, g)
        result = ops.apply_operator(op, u)
        charts = {}
        for ci, chart in enumerate(atlas.charts):
            charts[chart.name] = ops.describe_components(result, ci)
        return {
            "schema": "v1",
            "kind": "operator_apply",
            "operator": args.op_id,
            "source_valence": list(op.source_valence),
            "target_valence": list(op.target_valence),
            "charts": charts,
        }, 0

    if cmd == "op" and args.op_command == "bound":
        atlas, pou, g = _load_manifold(args)
        family = [mn.ManifoldFunction.from_ambient(atlas, t)
                  for t in args.expr]
        op = ops.build_operator(args.op_id, g)
        route = args.route or ("box" if atlas.family == "torus" else "chart")
        out = ops.empirical_bound(
            op, _rationals(args.frm, "'e,q' pair"),
            _rationals(args.to, "'e,q' pair"),
            family, N=args.grid, route=route, pou=pou)
        return out, 0

    if cmd == "atlas" and args.atlas_command == "show":
        atlas, pou, _ = _load_manifold(args)
        cfg = atlas.to_config()
        cfg["pou"] = pou.to_json()
        return cfg, 0

    raise UsageError(f"unhandled command {cmd!r}")  # pragma: no cover


def _run_check(args) -> ex.Verdict:
    sub = args.check_command
    domain = _DOMAINS[getattr(args, "domain", "fullspace")]
    if sub == "embed":
        frm = ex.SpaceSpec(_pair(args.frm), args.n, domain)
        to = ex.SpaceSpec(_pair(args.to), args.n, domain)
        return ex.check_embedding(frm, to)
    if sub == "multiply":
        return ex.check_multiplication(
            ex.SpaceSpec(_pair(args.a), args.n, domain),
            ex.SpaceSpec(_pair(args.b), args.n, domain),
            ex.SpaceSpec(_pair(args.target), args.n, domain))
    if sub == "pointwise":
        return ex.check_pointwise(
            ex.SpaceSpec(_pair(args.space), args.n, domain), args.mode)
    if sub == "derivative":
        return ex.check_derivative(
            ex.SpaceSpec(_pair(args.space), args.n, domain), args.order)
    if sub == "extend":
        spec = ex.SpaceSpec(_pair(args.space), args.n,
                            ex.DomainClass.COMPACT_SUPPORT_IN_OPEN,
                            enclosing=args.enclosing)
        return ex.check_extension(spec)
    raise UsageError(f"unknown check {sub!r}")  # pragma: no cover


def execute(argv=None) -> int:
    """Run one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        _emit({"schema": "v1", "error": str(err)}, pretty=False, output=None)
        return 2

    try:
        report, code = _dispatch(args)
    except (UsageError, ExprSyntaxError, ex.ExponentError,
            ex.DimensionMismatch, ex.WrongDomainClass,
            atlas_mod.UnknownManifold) as err:
        _emit({"schema": "v1", "error": str(err),
               "config": _config_echo(args)}, args.pretty, args.output)
        return 2
    except (ExprDomainError, quad.SupportViolation,
            atlas_mod.CoverConditionError, atlas_mod.EmptyOverlap,
            ArithmeticError, ValueError) as err:
        _emit({"schema": "v1", "error": str(err),
               "config": _config_echo(args)}, args.pretty, args.output)
        return 3

    report["config"] = _config_echo(args)
    try:
        _emit(report, args.pretty, args.output)
    except ValueError:  # NaN or infinity: not JSON, and not a result
        _emit({"schema": "v1",
               "error": "the computed report is not finite (NaN or infinity)",
               "config": _config_echo(args)}, args.pretty, args.output)
        return 3
    return code


def _emit(report: dict, pretty: bool, output: str | None):
    text = json.dumps(report, indent=2 if pretty else None, sort_keys=False,
                      allow_nan=False)
    print(text)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")


def main(argv=None) -> int:
    return execute(argv)


if __name__ == "__main__":
    sys.exit(main())
