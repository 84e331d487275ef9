"""Command-line front end; every subcommand emits a JSON report.

Exit codes: 0 = computed, 1 = a check verdict of NotGuaranteed (so
shells can branch on admissibility), 2 = usage or parse error (also a
malformed number or box, an integrability --p/--q or pair p/q at or below
1, a --grid or --k out of range, a negative order on a numerical route, a
check derivative --order below 1, an --atlas-config file that cannot be
read, is not an atlas descriptor or describes another manifold, or an op
bound exponent pair that fails its screen; an atlas descriptor is also
refused for a pou or pou.seeds of the wrong JSON type, an unknown key
inside pou, a true/false or non-finite number, and an echoed key, params
included, that differs from the built-in atlas's), 3 = numerical domain
error, a torus function that is not 1-periodic, or a result that is not
finite.  Every report echoes the fully resolved run configuration
under "config", so a run is reproducible from its own output.  Rational
arguments are given as "a/b" or decimal strings and are converted
exactly; no floats reach the exponent checks.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from sobolev import atlas as atlas_mod
from sobolev import exponents as ex
from sobolev import manifold_norms as mn
from sobolev import operators as ops
from sobolev import quadrature as quad
from sobolev.funcexpr import ExprSyntaxError, parse_expr
from sobolev.geometry import TensorField, builtin_metric

__all__ = ["execute"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2) with plain text
        raise UsageError(message)


_DOMAINS = {d.value: d for d in ex.DomainClass}
# The CLI builds functions only, so it offers the operators that take one.
_FUNCTION_OPS = [op for op, (source, _) in ops._VALENCES.items()
                 if source == (0, 0)]


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


def _integrability(text: str):
    p = ex.rational(text)
    if p <= 1:
        raise ValueError(f"integrability must be > 1, got {text}")
    return p


def _order(text: str) -> int:
    k = int(text)
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    return k


def _nonnegative(order, text: str):
    if order < 0:
        raise ValueError(
            f"a numerical route needs a nonnegative order, got {text}")
    return order


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


_INTEGRABILITY = _checked(_integrability, keep_text=True)
_PAIR = _checked(_pair, keep_text=True)
# The order of a numerical norm, alone or as the order of an 'e,q' pair.
_NORM_ORDER = _checked(lambda t: _nonnegative(ex.rational(t), t),
                       keep_text=True)
_NORM_PAIR = _checked(lambda t: _nonnegative(_pair(t).s, t), keep_text=True)


def _check_grid(grid, *orders, coarse_sups=0):
    """--grid against the halvings below it (see quadrature's
    ``_check_halvings``): one for a fractional order, plus ``coarse_sups``."""
    fractional = any(ex.rational(o).denominator > 1 for o in orders)
    if grid is not None:
        try:
            quad._check_halvings((grid,), fractional + coarse_sups)
        except ValueError as err:
            raise UsageError(str(err)) from None


@functools.cache  # parsing does not change the parser
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
    c.add_argument("--from", dest="frm", type=_PAIR, required=True,
                   metavar="S,P")
    c.add_argument("--to", type=_PAIR, required=True, metavar="T,Q")
    c.add_argument("--domain", default="fullspace", choices=sorted(_DOMAINS))

    c = csub.add_parser("multiply")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--a", type=_PAIR, required=True, metavar="S1,P1")
    c.add_argument("--b", type=_PAIR, required=True, metavar="S2,P2")
    c.add_argument("--target", type=_PAIR, required=True, metavar="S,P")
    c.add_argument("--domain", default="fullspace",
                   choices=["fullspace", "lipschitz"])

    c = csub.add_parser("pointwise")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--space", type=_PAIR, required=True, metavar="S,P")
    c.add_argument("--mode", required=True, choices=ex.POINTWISE_MODES)
    c.add_argument("--domain", default="fullspace", choices=sorted(_DOMAINS))

    c = csub.add_parser("derivative")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--space", type=_PAIR, required=True, metavar="S,P")
    c.add_argument("--order", type=int, required=True)
    c.add_argument("--domain", default="fullspace", choices=sorted(_DOMAINS))

    c = csub.add_parser("extend")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--space", type=_PAIR, required=True, metavar="S,P")
    c.add_argument("--enclosing", default="general",
                   choices=["general", "lipschitz", "fullspace"])

    norm = sub.add_parser("norm", help="numerical norms")
    nsub = norm.add_subparsers(dest="norm_command", required=True)

    c = nsub.add_parser("euclid")
    c.add_argument("--expr", required=True)
    c.add_argument("--box", type=_checked(_box, keep_text=True),
                   required=True, help="lo,hi per axis, ';'-separated")
    c.add_argument("--s", type=_NORM_ORDER, required=True)
    c.add_argument("--p", type=_INTEGRABILITY, default="2")
    c.add_argument("--grid", type=int, default=None)
    c.add_argument("--seminorm", action="store_true",
                   help="with 0 < s < 1: the fractional seminorm alone")

    c = nsub.add_parser("manifold")
    c.add_argument("--manifold", required=True)
    c.add_argument("--expr", required=True)
    c.add_argument("--e", type=_NORM_ORDER, default="1")
    c.add_argument("--q", type=_INTEGRABILITY, default="2")
    c.add_argument("--grid", type=int, default=None)
    c.add_argument("--pou", default="default", choices=["default", "alt"])
    c.add_argument("--intrinsic", action="store_true",
                   help="with --e 0: report both Lebesgue-norm variants")
    c.add_argument("--atlas-config", default=None)

    c = nsub.add_parser("connection")
    c.add_argument("--manifold", required=True)
    c.add_argument("--expr", required=True)
    c.add_argument("--k", type=_checked(_order), default=1)
    c.add_argument("--q", type=_INTEGRABILITY, default="2")
    c.add_argument("--grid", type=int, default=None)

    c = sub.add_parser("compare", help="norm-equivalence ratio brackets")
    c.add_argument("--manifold", required=True)
    c.add_argument("--expr", action="append", required=True,
                   help="repeat for each family member")
    c.add_argument("--e", type=_NORM_ORDER, default="1")
    c.add_argument("--q", type=_INTEGRABILITY, default="2")
    c.add_argument("--grid", type=int, default=None)
    c.add_argument("--against", default="pou-alt",
                   choices=["pou-alt", "connection"])

    op = sub.add_parser("op", help="differential operators")
    osub = op.add_subparsers(dest="op_command", required=True)

    c = osub.add_parser("apply")
    c.add_argument("--manifold", required=True)
    c.add_argument("--op", dest="op_id", required=True,
                   choices=_FUNCTION_OPS)
    c.add_argument("--expr", required=True)

    c = osub.add_parser("bound")
    c.add_argument("--manifold", required=True)
    c.add_argument("--op", dest="op_id", required=True,
                   choices=_FUNCTION_OPS)
    c.add_argument("--from", dest="frm", type=_NORM_PAIR, required=True,
                   metavar="E,Q")
    c.add_argument("--to", type=_NORM_PAIR, required=True, metavar="ET,QT")
    c.add_argument("--expr", action="append", required=True)
    c.add_argument("--grid", type=int, default=None)
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
    """(atlas, partition of unity, metric) of --manifold, rebuilt from
    --atlas-config where given."""
    path = getattr(args, "atlas_config", None)
    if not path:
        return atlas_mod.builtin_manifold(args.manifold)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as err:  # ValueError: not JSON
        raise UsageError(f"cannot read --atlas-config as JSON: {err}") \
            from None
    atlas, pou = atlas_mod.atlas_from_config(cfg)
    if atlas.manifold != args.manifold:
        raise UsageError(f"--atlas-config describes {atlas.manifold!r}, "
                         f"not --manifold {args.manifold!r}")
    if pou is None:
        pou = atlas_mod.build_partition_of_unity(atlas)
    return atlas, pou, builtin_metric(atlas)


def _alt_pou(atlas):
    """The partition of unity from the atlas's alternate bump seeds."""
    return atlas_mod.build_partition_of_unity(
        atlas, atlas_mod.alternate_seeds(atlas), "alt")


def _dispatch(args) -> tuple[dict, int]:
    cmd = args.command

    if cmd == "check":
        verdict = _run_check(args)
        report = verdict.to_json()
        return report, 0 if verdict.admissible else 1

    if cmd == "norm" and args.norm_command == "euclid":
        _check_grid(args.grid, args.s)
        box = _box(args.box)
        expr = parse_expr(args.expr, box.n)
        s = float(ex.rational(args.s))
        p = float(ex.rational(args.p))
        if args.seminorm:
            if not 0.0 < s < 1.0:
                raise UsageError("--seminorm needs 0 < s < 1")
            rep = quad.gagliardo_seminorm(expr, box, theta=s, p=p, N=args.grid)
        else:
            rep = quad.sobolev_norm(expr, box, s=s, p=p, N=args.grid)
        return rep, 0

    if cmd == "norm" and args.norm_command == "manifold":
        _check_grid(args.grid, args.e)
        atlas, pou, g = _load_manifold(args)
        if args.pou == "alt":
            pou = _alt_pou(atlas)
        u = TensorField.from_ambient(atlas, args.expr)
        e = float(ex.rational(args.e))
        q = float(ex.rational(args.q))
        if args.intrinsic:
            if e != 0:
                raise UsageError("--intrinsic applies to --e 0 only")
            rep = mn.manifold_lq_norm(u, g, pou, q=q, N=args.grid)
        else:
            rep = mn.chart_sobolev_norm(u, pou, e=e, q=q, N=args.grid)
        return rep, 0

    if cmd == "norm" and args.norm_command == "connection":
        _check_grid(args.grid)
        atlas, pou, g = _load_manifold(args)
        u = TensorField.from_ambient(atlas, args.expr)
        rep = mn.connection_sobolev_norm(
            u, g, k=args.k, q=float(ex.rational(args.q)), N=args.grid,
            pou=pou)
        return rep, 0

    if cmd == "compare":
        _check_grid(args.grid, args.e)
        if args.against == "connection" and \
                ex.rational(args.e).denominator != 1:
            raise UsageError("the connection route needs integer order")
        atlas, pou, g = _load_manifold(args)
        family = [TensorField.from_ambient(atlas, t)
                  for t in args.expr]
        a = mn.NormVariant("chart", pou=pou)
        if args.against == "connection":
            b = mn.NormVariant("connection", metric=g, pou=pou)
        else:
            b = mn.NormVariant("chart", pou=_alt_pou(atlas))
        out = mn.compare_norms(family, a, b, e=float(ex.rational(args.e)),
                               q=float(ex.rational(args.q)), N=args.grid)
        return out, 0

    if cmd == "op" and args.op_command == "apply":
        atlas, pou, g = _load_manifold(args)
        u = TensorField.from_ambient(atlas, args.expr)
        result = ops.apply_operator(args.op_id, g, u)
        charts = {}
        for ci, chart in enumerate(atlas.charts):
            charts[chart.name] = ops.describe_components(result, ci)
        return quad.Report("operator_apply", operator=args.op_id,
                           source_valence=[u.k_cov, u.l_con],
                           target_valence=[result.k_cov, result.l_con],
                           charts=charts), 0

    if cmd == "op" and args.op_command == "bound":
        frm = _rationals(args.frm, "'e,q' pair")
        to = _rationals(args.to, "'e,q' pair")
        _check_grid(args.grid, frm[0], to[0], coarse_sups=1)
        atlas, pou, g = _load_manifold(args)
        family = [TensorField.from_ambient(atlas, t)
                  for t in args.expr]
        if args.route == "box" and atlas.period_box is None:
            raise UsageError("--route box integrates one exact period; it "
                             "applies to the torus manifolds")
        out = ops.empirical_bound(args.op_id, g, frm, to, family,
                                  N=args.grid, route=args.route, pou=pou)
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
            atlas_mod.UnknownManifold, atlas_mod.AtlasConfigError) as err:
        _emit({"schema": "v1", "error": str(err),
               "config": _config_echo(args)}, args.pretty, args.output)
        return 2
    except (ArithmeticError, ValueError) as err:
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


if __name__ == "__main__":
    sys.exit(execute())
