"""Golden digests of every exponent check over a fixed input grid.

Each digest is the SHA-256 of the verdict JSON (or the exception's type
and message) of every input of its grid, in grid order, so any change to
a result, a theorem tag, a condition text, its exact sides or the order
of the conditions or candidates changes the digest.  Every verdict's
condition trace is also re-evaluated on the way (``_record``).
"""

import hashlib
import itertools
import json

import pytest

from sobolev.exponents import (
    DomainClass, check_derivative, check_embedding, check_extension,
    check_multiplication, check_pointwise, space,
)

DOMAINS = list(DomainClass)
DIMS = (1, 2, 3)
ORDERS = ("-2", "-3/2", "-1", "-1/2", "0", "1/4", "1/2", "1", "3/2", "2",
          "5/2")
PS = ("3/2", "2", "4")
ENCLOSING = ("general", "lipschitz", "fullspace")


def _record(check, *args):
    """The verdict JSON of one check, after checking that its condition
    trace re-evaluates independently: each condition's
    ``reevaluate()`` equals its ``satisfied`` flag."""
    try:
        verdict = check(*args)
    except ValueError as err:
        return {"error": type(err).__name__, "message": str(err)}
    for cond in itertools.chain(
            verdict.conditions,
            *(cand.conditions for cand in verdict.candidates)):
        assert cond.reevaluate() == cond.satisfied, cond
    return verdict.to_json()


def _embedding():
    orders = ("-1", "0", "1/4", "1/2", "1", "3/2", "2")
    for d, n, (s, t), (p, q) in itertools.product(
            DOMAINS, DIMS, itertools.product(orders, repeat=2),
            itertools.product(("2", "4"), repeat=2)):
        yield _record(check_embedding, space(s, p, n, d), space(t, q, n, d))
    # mismatched dimensions and domain classes raise
    yield _record(check_embedding, space(1, 2, 1), space(1, 2, 2))
    yield _record(check_embedding, space(1, 2, 1, DOMAINS[0]),
                  space(1, 2, 1, DOMAINS[1]))


def _multiplication():
    orders = ("-3/2", "-1/2", "0", "1/2", "1", "2")
    spaces = list(itertools.product(orders, ("2", "4")))
    for d, n in itertools.product(
            (DomainClass.FULL_SPACE, DomainClass.BOUNDED_LIPSCHITZ), (1, 3)):
        for a, b, c in itertools.product(spaces, spaces[::2], spaces[1::3]):
            yield _record(check_multiplication, space(*a, n, d),
                          space(*b, n, d), space(*c, n, d))
    for d in DOMAINS[2:]:
        yield _record(check_multiplication, space(1, 2, 3, d),
                      space(1, 2, 3, d), space(0, 2, 3, d))
    yield _record(check_multiplication, space(1, 2, 1), space(1, 2, 1),
                  space(1, 2, 2))


def _pointwise():
    for d, n, s, p, mode in itertools.product(
            DOMAINS, DIMS, ORDERS, PS,
            ("algebra", "linfty", "composition", "frobnicate")):
        yield _record(check_pointwise, space(s, p, n, d), mode)


def _derivative():
    for d, n, s, p, order in itertools.product(
            DOMAINS, DIMS, ORDERS, PS + ("3",), (0, 1, 2, 3)):
        yield _record(check_derivative, space(s, p, n, d), order)


def _extension():
    for d, n, s, p, enc in itertools.product(
            DOMAINS, DIMS, ORDERS, PS, ENCLOSING):
        yield _record(check_extension, space(s, p, n, d, enc))


GOLDEN = {
    "embedding": (
        _embedding,
        "91c0e13d89193157121442c8e0fe00f6331a80905468446037ce4ca31ab14073"),
    "multiplication": (
        _multiplication,
        "56a34a4c64019aafaa8b17be08e77a9dd220a564d71e5214da95f9e9a9f98681"),
    "pointwise": (
        _pointwise,
        "6350e78795cf53319eb7961282ff56df3780d38feaefac2f4c0d513f808f8fca"),
    "derivative": (
        _derivative,
        "641828a1ad51f5c034c56a716879548873645c8041b50e540ef2f27c19ecfd26"),
    "extension": (
        _extension,
        "e377aae13a12f7166a0eead62de43e9f468cf1f348f97d831ccecaf7d043791a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verdict_digest(name):
    grid, expected = GOLDEN[name]
    digest = hashlib.sha256()
    for record in grid():
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == expected
