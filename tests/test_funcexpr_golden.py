"""A golden digest of the expression language over a fixed corpus.

The digest is the SHA-256 of, for every expression of the corpus in
order: its printed text, the text of each of its first and second
partials, the text of one substitution, and the values of the expression
and of its partials at two fixed sets of points as ``float.hex`` (or the
domain error's message); then the type, message and position of the error that
each malformed input raises.  So any change to what the parser builds,
to the printer, to a derivative rule, to a folding constructor, to an
evaluation or to an error changes the digest.
"""

import hashlib
import json

import numpy as np

from sobolev.funcexpr import (
    ExprDomainError, diff_expr, eval_many, expr_to_text, parse_expr,
    subst_expr,
)

N = 2
# inside every domain of the corpus, then with zeros and negative values
POINTS = (np.array([[0.5, 0.25], [1.5, 0.75], [0.3, 2.0], [2.25, 0.125]]),
          np.array([[0.5, 0.25], [1.5, -0.75], [0.0, 2.0], [-1.25, 0.125]]))
SUBST = {1: "x2 + 1", 2: "2*x1"}

CORPUS = (
    # atoms, constants and unary minus
    "x1", "x2", "pi", "3", "-3", "0.25", "-1/2", "2.5*x1", "-x1", "--x1",
    "-(x1 + x2)", "-pi", "0",
    # every infix operator
    "x1 + x2", "x1 - x2", "x1*x2", "x1/x2", "1/x1", "x1/(x2 - x2)",
    # precedence pairs
    "x1 + x2*x1", "x1*x2 + x1", "(x1 + x2)*x1", "x1 - x2 - x1",
    "x1 - (x2 - x1)", "x1 - (x2 + x1)", "x1 + (x2 - x1)", "x1/x2/x1",
    "x1/(x2*x1)", "x1/x2*x1", "x1*(x2/x1)", "x1*x2/x1", "x1 - x2/x1",
    "(x1 - x2)/x1", "-x1^2", "(-x1)^2", "-x1*x2", "x1*-x2", "x1 - -x2",
    "x1^2*x2", "(x1*x2)^2", "(x1/x2)^3", "-(x1*x2)", "-(x1/x2)",
    # powers and exponent literals
    "x1^3", "x1^-1", "x1^(-2)", "x1^(1/2)", "x1^(-3/2)", "x1^0.5",
    "x1^2/3", "x1^2/x2", "x1^2.0/3", "x1^2/3.0", "x1^1/-2", "x1^((2))",
    "(x1^2 + 1)^(3/2)", "x1^0", "x1^1", "2^3", "0^2", "(x1 + x2)^2",
    "(2/3)^2", "x2^(-1/3)",
    # every function
    "sin(x1)", "cos(2*pi*x1)", "exp(x1*x2)", "log(x1)", "log(x1^2 + 1)",
    "sqrt(x1)", "sqrt(x1^2 + x2^2 + 1)", "abs(x1)", "abs(x1 - x2)",
    "sin(x1)*cos(x2) - exp(-x1)/(1 + x2^2)", "log(abs(x1) + 1)",
    "sqrt(abs(x2))", "exp(1000*x1)", "abs(sin(pi*x1))*x2",
    "cos(sin(x1*x2))^2", "log(sqrt(x2^2 + 1))/exp(x1)",
)

MALFORMED = (
    "", "x1 +", "(x1", "x1)", "x1 $ 2", "x1^", "x1^x2", "x1^(1/2",
    "x1^-", "x1^(-)", "x1^--1", "x1^2^3", "sin x1", "sin()", "foo(x1)",
    "x3", "x0", "1.", ".5", "2 3", "x1 ** 2", "pi(1)", "x1^1/", "x1 @",
    "x1^(1/2))", "sin(x1", "x_1", "X1", "1e5", "x1^(1/2.0)", "x1^pi",
    "x1^-(1)", "*x1", "x1 +* x2",
)


def _values(roots, pts):
    try:
        return [[v.hex() for v in row] for row in eval_many(roots, pts)]
    except ExprDomainError as err:
        return {"error": str(err)}


def _expression(text):
    e = parse_expr(text, N)
    firsts = [diff_expr(e, i) for i in range(1, N + 1)]
    seconds = [diff_expr(d, j) for d in firsts for j in range(1, N + 1)]
    mapping = {i: parse_expr(t, N) for i, t in SUBST.items()}
    return {
        "text": expr_to_text(e),
        "partials": [expr_to_text(d) for d in firsts + seconds],
        "subst": expr_to_text(subst_expr(e, mapping)),
        "values": [_values([e], pts) for pts in POINTS],
        "partial_values": [_values(firsts + seconds, pts) for pts in POINTS],
    }


def _malformed(text):
    try:
        parse_expr(text, N)
    except ValueError as err:
        return [type(err).__name__, str(err), getattr(err, "position", None)]
    raise AssertionError(f"{text!r} parsed")


def _records():
    for text in CORPUS:
        yield _expression(text)
    for text in MALFORMED:
        yield _malformed(text)
    try:
        parse_expr("x1", 0)
    except ValueError as err:
        yield [type(err).__name__, str(err)]


GOLDEN = (
    "f25bf2877b725bb1651facaccbcfb1316efd1485c3663fe216bc38f91a9267d3")


def test_expression_language_digest():
    digest = hashlib.sha256()
    for record in _records():
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN
