"""Command-line front end; every subcommand emits a JSON report.

Exit codes: 0 = computed, 1 = a check verdict of NotGuaranteed (so
shells can branch on admissibility), 2 = a refused argument, which is
any :class:`sobolev.ArgumentError`, from the library or from the parser
itself, 3 = any other error: a numerical domain error, a torus function
that is not 1-periodic, or a result that is not finite.  Every report
echoes the fully resolved run configuration under "config", so a run
is reproducible from its own output.  Rational arguments are given as
"a/b" or decimal strings and are converted exactly; no floats reach the
exponent checks.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from sobolev import ArgumentError, Report
from sobolev import atlas as atlas_mod
from sobolev import exponents as ex
from sobolev import manifold_norms as mn
from sobolev import operators as ops
from sobolev import quadrature as quad
from sobolev.funcexpr import parse_expr
from sobolev.geometry import TensorField, builtin_metric

__all__ = ["execute"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2) with plain text
        raise ArgumentError(message)


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
    raise ArgumentError(
        f"expected a rational {what} such as '3/2,2', got {text!r}")


def _pair(text: str) -> ex.Exponent:
    return ex.Exponent(*_rationals(text, "'s,p' exponent pair"))


def _box(text: str) -> quad.BoxDomain:
    bounds = []
    for axis in text.split(";"):
        parts = axis.split(",")
        if len(parts) != 2:
            raise ArgumentError(
                f"expected 'lo,hi' for each axis, got {text!r}")
        bounds.append((float(parts[0]), float(parts[1])))
    return quad.BoxDomain(tuple(bounds))


def _number(text: str) -> float:
    """The float of exact rational text; one too large for a float is an
    ``OverflowError``."""
    return float(ex.rational(text))


def _checked(convert):
    """An argparse type that checks the text with ``convert`` and keeps
    the text, which the config echo shows and the command converts
    again; a failed ``convert`` is a usage error (exit 2)."""
    def check(text):
        try:
            convert(text)
        except (ValueError, ArithmeticError) as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return text
    return check


_PAIR = _checked(_pair)
# A numerical route's order or exponent, alone or as an 'e,q' pair: the
# library checks its range, the parser only that it is a finite number.
_NUMBER = _checked(_number)
_NUMBER_PAIR = _checked(
    lambda t: [float(x) for x in _rationals(t, "'e,q' pair")])


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
    c.add_argument("--domain", default="fullspace", choices=sorted(_DOMAINS))

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
    c.add_argument("--box", type=_checked(_box),
                   required=True, help="lo,hi per axis, ';'-separated")
    c.add_argument("--s", type=_NUMBER, required=True)
    c.add_argument("--p", type=_NUMBER, default="2")
    c.add_argument("--grid", type=int, default=None)
    c.add_argument("--seminorm", action="store_true",
                   help="with 0 < s < 1: the fractional seminorm alone")

    c = nsub.add_parser("manifold")
    c.add_argument("--manifold", required=True)
    c.add_argument("--expr", required=True)
    c.add_argument("--e", type=_NUMBER, default="1")
    c.add_argument("--q", type=_NUMBER, default="2")
    c.add_argument("--grid", type=int, default=None)
    c.add_argument("--pou", choices=["default", "alt"])
    c.add_argument("--intrinsic", action="store_true",
                   help="with --e 0: report both Lebesgue-norm variants")
    c.add_argument("--atlas-config", default=None)

    c = nsub.add_parser("connection")
    c.add_argument("--manifold", required=True)
    c.add_argument("--expr", required=True)
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--q", type=_NUMBER, default="2")
    c.add_argument("--grid", type=int, default=None)

    c = sub.add_parser("compare", help="norm-equivalence ratio brackets")
    c.add_argument("--manifold", required=True)
    c.add_argument("--expr", action="append", required=True,
                   help="repeat for each family member")
    c.add_argument("--e", type=_NUMBER, default="1")
    c.add_argument("--q", type=_NUMBER, default="2")
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
    c.add_argument("--from", dest="frm", type=_NUMBER_PAIR, required=True,
                   metavar="E,Q")
    c.add_argument("--to", type=_NUMBER_PAIR, required=True, metavar="ET,QT")
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


def _load_manifold(args, chosen=None):
    """(atlas, partition of unity, metric) of --manifold, rebuilt from
    --atlas-config where given.  The partition is the config's, else the
    one ``chosen`` names ("default" or "alt"); not both."""
    path = getattr(args, "atlas_config", None)
    if not path:
        atlas, pou, g = atlas_mod.builtin_manifold(args.manifold)
        return atlas, _alt_pou(atlas) if chosen == "alt" else pou, g
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as err:  # ValueError: not JSON
        raise ArgumentError(f"cannot read --atlas-config as JSON: {err}") \
            from None
    atlas, pou = atlas_mod.atlas_from_config(cfg)
    if atlas.manifold != args.manifold:
        raise ArgumentError(f"--atlas-config describes {atlas.manifold!r}, "
                            f"not --manifold {args.manifold!r}")
    if pou is not None and chosen is not None:
        raise ArgumentError("--pou and the 'pou' of --atlas-config both "
                            "choose the partition of unity; give one")
    if pou is None:
        pou = _alt_pou(atlas) if chosen == "alt" else \
            atlas_mod.build_partition_of_unity(atlas)
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
        box = _box(args.box)
        expr = parse_expr(args.expr, box.n)
        s, p = _number(args.s), _number(args.p)
        if args.seminorm:
            rep = quad.gagliardo_seminorm(expr, box, theta=s, p=p, N=args.grid)
        else:
            rep = quad.sobolev_norm(expr, box, s=s, p=p, N=args.grid)
        return rep, 0

    if cmd == "norm" and args.norm_command == "manifold":
        # echoed as "default" should the load fail
        chosen, args.pou = args.pou, args.pou or "default"
        atlas, pou, g = _load_manifold(args, chosen)
        args.pou = pou.name  # the partition used
        u = TensorField.from_ambient(atlas, args.expr)
        e, q = _number(args.e), _number(args.q)
        if args.intrinsic:
            if e != 0:
                raise ArgumentError("--intrinsic applies to --e 0 only")
            rep = mn.manifold_lq_norm(u, g, pou, q=q, N=args.grid)
        else:
            rep = mn.chart_sobolev_norm(u, pou, e=e, q=q, N=args.grid)
        return rep, 0

    if cmd == "norm" and args.norm_command == "connection":
        atlas, pou, g = _load_manifold(args)
        u = TensorField.from_ambient(atlas, args.expr)
        rep = mn.connection_sobolev_norm(u, g, k=args.k, q=_number(args.q),
                                         N=args.grid, pou=pou)
        return rep, 0

    if cmd == "compare":
        atlas, pou, g = _load_manifold(args)
        family = [TensorField.from_ambient(atlas, t)
                  for t in args.expr]
        a = mn.NormVariant("chart", pou=pou)
        if args.against == "connection":
            b = mn.NormVariant("connection", metric=g, pou=pou)
        else:
            b = mn.NormVariant("chart", pou=_alt_pou(atlas))
        out = mn.compare_norms(family, a, b, e=_number(args.e),
                               q=_number(args.q), N=args.grid)
        return out, 0

    if cmd == "op" and args.op_command == "apply":
        atlas, pou, g = _load_manifold(args)
        u = TensorField.from_ambient(atlas, args.expr)
        result = ops.apply_operator(args.op_id, g, u)
        charts = {}
        for ci, chart in enumerate(atlas.charts):
            charts[chart.name] = ops.describe_components(result, ci)
        return Report("operator_apply", operator=args.op_id,
                      source_valence=[u.k_cov, u.l_con],
                      target_valence=[result.k_cov, result.l_con],
                      charts=charts), 0

    if cmd == "op" and args.op_command == "bound":
        frm = _rationals(args.frm, "'e,q' pair")
        to = _rationals(args.to, "'e,q' pair")
        atlas, pou, g = _load_manifold(args)
        family = [TensorField.from_ambient(atlas, t)
                  for t in args.expr]
        out = ops.empirical_bound(args.op_id, g, frm, to, family,
                                  N=args.grid, route=args.route, pou=pou)
        return out, 0

    # atlas show: argparse takes no other command
    atlas, pou, _ = _load_manifold(args)
    cfg = atlas.to_config()
    cfg["pou"] = pou.to_json()
    return cfg, 0


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
    # extend: argparse takes no other check
    spec = ex.SpaceSpec(_pair(args.space), args.n,
                        ex.DomainClass.COMPACT_SUPPORT_IN_OPEN,
                        enclosing=args.enclosing)
    return ex.check_extension(spec)


def execute(argv=None) -> int:
    """Run one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ArgumentError as err:
        _emit({"schema": "v1", "error": str(err)}, pretty=False, output=None)
        return 2

    try:
        report, code = _dispatch(args)
    except (ArithmeticError, ValueError) as err:
        _emit({"schema": "v1", "error": str(err),
               "config": _config_echo(args)}, args.pretty, args.output)
        return 2 if isinstance(err, ArgumentError) else 3

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
