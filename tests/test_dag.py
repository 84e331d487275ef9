"""Hash-consed expressions: interning, memoized derivatives, DAG evaluation.

The evaluator is checked bit for bit against a recursive tree walk kept
here as a test-only oracle, on random expressions that share subtrees and
contain piecewise nodes, one root at a time and several roots in one
program, at point counts around the block length of the memory bound;
piecewise nodes of one region are one step with one mask per block, and
a failing program still raises the tree walk's error; ``diff_expr`` is
checked against sympy.
"""

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev import funcexpr
from sobolev.atlas import builtin_manifold
from sobolev.fields import AnnulusRegion, BoxRegion, box_bump, interval_bump
from sobolev.funcexpr import (
    _INTERNED, Add, Call, Const, Div, ExprDomainError, Mul, Neg, Pi,
    Piecewise, Pow, Sub, Var, _plan, add, diff_expr, div, eval_expr,
    eval_many, eval_on_points, mul, neg, parse_expr, sub,
)
from sobolev.geometry import TensorField
from sobolev.manifold_norms import chart_sobolev_norm


# --- oracle: one numpy operation per tree node, children left to right ----

def tree_eval(e, pts):
    if isinstance(e, Const):
        return np.full(pts.shape[0], float(e.value))
    if isinstance(e, Pi):
        return np.full(pts.shape[0], np.pi)
    if isinstance(e, Var):
        return pts[:, e.index - 1].astype(float, copy=True)
    if isinstance(e, Neg):
        return -tree_eval(e.arg, pts)
    if isinstance(e, (Add, Sub, Mul, Div)):
        a = tree_eval(e.left, pts)
        b = tree_eval(e.right, pts)
        if isinstance(e, Add):
            return a + b
        if isinstance(e, Sub):
            return a - b
        if isinstance(e, Mul):
            return a * b
        if np.any(b == 0.0):
            raise ExprDomainError("division by zero")
        return a / b
    if isinstance(e, Pow):
        base = tree_eval(e.base, pts)
        p = e.power
        if p.denominator != 1 and np.any(base < 0.0):
            raise ExprDomainError("negative base for fractional power "
                                  f"{p.numerator}/{p.denominator}")
        if p < 0 and np.any(base == 0.0):
            raise ExprDomainError("zero raised to a negative power")
        return base ** float(p)
    if isinstance(e, Call):
        a = tree_eval(e.arg, pts)
        if e.func == "log" and np.any(a <= 0.0):
            raise ExprDomainError("log of a non-positive value")
        if e.func == "sqrt" and np.any(a < 0.0):
            raise ExprDomainError("sqrt of a negative value")
        return getattr(np, e.func)(a)
    if isinstance(e, Piecewise):
        mask = e.region.contains(pts)
        out = np.empty(pts.shape[0])
        if mask.any():
            out[mask] = tree_eval(e.inside, pts[mask])
        if not mask.all():
            out[~mask] = tree_eval(e.outside, pts[~mask])
        return out
    raise TypeError(e)


def tree_eval_on_points(e, pts):
    out = tree_eval(e, pts)
    if np.any(np.isnan(out)):
        raise ExprDomainError("evaluation produced NaN")
    return out


def outcome(evaluate, e, pts):
    with np.errstate(all="ignore"):
        try:
            return evaluate(e, pts)
        except ExprDomainError as err:
            return err


# --- random DAGs: every new node picks its operands from all earlier ones --

REGIONS = [
    BoxRegion([0.0, None], [None, None], closed=False),
    BoxRegion([None, -0.5], [0.5, 0.5], closed=False),
    AnnulusRegion(None, 1.0),
]
FUNCS = ("sin", "cos", "exp", "log", "sqrt", "abs")
POWERS = [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2),
          Fraction(-3, 2)]
COORDS = [-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0]


@st.composite
def pools(draw, funcs=FUNCS, piecewise=True):
    """Leaves, then 1-14 nodes, each built on earlier ones."""
    pool = [Var(1), Var(2), Const(0), Const(1), Const(Fraction(-3, 2)), Pi()]
    kinds = ["neg", "add", "sub", "mul", "div", "pow", "call"]
    if piecewise:
        kinds.append("piecewise")

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "neg":
            node = Neg(pick())
        elif kind == "pow":
            node = Pow(pick(), draw(st.sampled_from(POWERS)))
        elif kind == "call":
            node = Call(draw(st.sampled_from(funcs)), pick())
        elif kind == "piecewise":
            node = Piecewise(draw(st.sampled_from(REGIONS)), pick(), pick())
        else:
            cls = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
            node = cls(pick(), pick())
        pool.append(node)
    return pool


def dags(funcs=FUNCS, piecewise=True):
    return pools(funcs, piecewise).map(lambda pool: pool[-1])


points = st.lists(st.tuples(st.sampled_from(COORDS), st.sampled_from(COORDS)),
                  min_size=1, max_size=6).map(np.array)


@settings(max_examples=400, deadline=None)
@given(dags(), points)
def test_dag_evaluation_matches_tree_walk_bit_for_bit(e, pts):
    want = outcome(tree_eval_on_points, e, pts)
    got = outcome(eval_on_points, e, pts)
    if isinstance(want, ExprDomainError):
        assert isinstance(got, ExprDomainError)
        assert str(got) == str(want)
    else:
        assert got.tobytes() == want.tobytes()


def test_division_by_zero_in_shared_subexpression():
    zero = Sub(Var(1), Var(1))
    shared = Div(Var(2), zero)
    e = Add(Mul(shared, Var(1)), shared)
    with pytest.raises(ExprDomainError, match="division by zero"):
        eval_on_points(e, np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("flip", [False, True])
def test_leftmost_domain_error_is_reported(flip):
    # both operands fail at x1 = 1; the walk order decides which one reports
    bad_log = Call("log", Sub(Var(1), Const(1)))
    bad_div = Div(Const(1), Sub(Var(1), Const(1)))
    left, right = (bad_div, bad_log) if flip else (bad_log, bad_div)
    shared = Mul(left, right)
    e = Add(shared, Neg(shared))
    with pytest.raises(ExprDomainError) as err:
        eval_on_points(e, np.array([[1.0]]))
    assert str(err.value) == str(outcome(tree_eval_on_points, e,
                                         np.array([[1.0]])))
    assert ("division" in str(err.value)) == flip


class CountingRegion:
    """x1 > 0, counting its mask evaluations."""

    def __init__(self):
        self.calls = 0

    def contains(self, pts):
        self.calls += 1
        return pts[:, 0] > 0.0


def test_shared_node_evaluated_once():
    region = CountingRegion()
    p = Piecewise(region, Call("log", Var(1)), Const(0))
    e = Add(Mul(p, p), Sub(p, Var(1)))
    pts = np.array([[-1.0], [0.0], [1.0], [math.e]])
    vals = eval_on_points(e, pts)
    assert region.calls == 1
    assert vals.tolist() == [1.0, 0.0, -1.0, 2.0 - math.e]


def test_deep_sharing_is_linear():
    # 2^60 tree nodes, 61 distinct ones
    x = Var(1)
    for _ in range(60):
        x = Mul(x, x)
    assert eval_expr(x, [1.0]) == 1.0
    assert eval_expr(diff_expr(x, 1), [1.0]) == 2.0 ** 60


# --- several roots in one program ----------------------------------------

def tree_eval_many(roots, pts):
    """The oracle of ``eval_many``: each column by tree walk; the first root
    whose walk fails a domain check decides the error, and only without
    one does a NaN anywhere count."""
    cols = []
    for root in roots:
        col = outcome(tree_eval, root, pts)
        if isinstance(col, ExprDomainError):
            return col
        cols.append(col)
    out = np.stack(cols, axis=1)
    if np.any(np.isnan(out)):
        return ExprDomainError("evaluation produced NaN")
    return out


def check_many(roots, pts):
    want = tree_eval_many(roots, pts)
    got = outcome(eval_many, roots, pts)
    if isinstance(want, ExprDomainError):
        assert isinstance(got, ExprDomainError)
        assert str(got) == str(want)
        return
    assert got.shape == (pts.shape[0], len(roots))
    assert got.tobytes() == want.tobytes()
    for c, root in enumerate(roots):
        assert got[:, c].tobytes() == outcome(eval_on_points, root,
                                              pts).tobytes()


def block_length(roots, budget):
    return max(1, budget // _plan(tuple(roots))[1])


@settings(max_examples=300, deadline=None)
@given(pools(), st.data())
def test_eval_many_matches_tree_walk_at_block_boundaries(pool, data):
    # roots drawn from the whole pool: repeats, roots inside other roots
    roots = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=5))
    budget = data.draw(st.sampled_from([1, 5, 16, 64]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcexpr, "_LIVE_VALUES", budget)
        size = block_length(roots, budget)
        m = max(1, data.draw(st.sampled_from([1, 2])) * size
                + data.draw(st.sampled_from([-1, 0, 1])))
        pts = np.array(data.draw(st.lists(
            st.tuples(st.sampled_from(COORDS), st.sampled_from(COORDS)),
            min_size=m, max_size=m)))
        check_many(roots, pts)


SHARED = Mul(Call("sin", Var(1)), Add(Var(2), Pi()))
PIECE = Piecewise(REGIONS[0], Call("sqrt", Var(1)), Neg(SHARED))
# a bump and its partials: per axis, Piecewise nodes on one plateau region
# whose outside branches are Piecewise nodes on one band region
BUMP = box_bump(2, (Fraction(1, 4), 0), Fraction(1, 2), Fraction(3, 2))
BUMP_PARTIALS = [BUMP, diff_expr(BUMP, 1), diff_expr(BUMP, 2),
                 diff_expr(diff_expr(BUMP, 1), 1),
                 diff_expr(diff_expr(BUMP, 1), 2)]
ROOT_SETS = {
    "shared subtree": [Add(SHARED, Var(1)), Sub(Const(1), SHARED)],
    "repeated root": [SHARED, Var(2), SHARED, SHARED],
    "root inside another": [Div(SHARED, Const(3)), SHARED, Call("sin", Var(1))],
    "piecewise roots": [PIECE, Mul(PIECE, SHARED), PIECE],
    "constant and variable": [Const(Fraction(1, 3)), Var(1), Pi()],
    "bump partials": BUMP_PARTIALS,
}


@pytest.mark.parametrize("budget", [None, 1, 10, 40])
@pytest.mark.parametrize("name", sorted(ROOT_SETS))
def test_eval_many_cases(name, budget):
    roots = ROOT_SETS[name]
    rng = np.random.default_rng(3)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(funcexpr, "_LIVE_VALUES", budget)
        size = block_length(roots, funcexpr._LIVE_VALUES)
        for m in sorted({0, 1, size - 1, size, size + 1, 3 * size + 2}):
            check_many(roots, rng.uniform(-2.0, 2.0, size=(m, 2)))


def test_eval_many_of_no_roots_has_no_columns():
    pts = np.zeros((5, 2))
    out = eval_many([], pts)
    assert out.shape == (5, 0) and out.dtype == np.float64


def test_error_does_not_depend_on_blocks():
    # log fails at x1 = 0.5, the division at x1 = 2; with one point per
    # block the division fails first, but the log is first in program order
    bad_log = Call("log", Sub(Var(1), Const(1)))
    bad_div = Div(Const(1), Sub(Var(1), Const(2)))
    roots = [Var(1), Add(bad_log, bad_div)]
    pts = np.array([[2.0], [0.5]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcexpr, "_LIVE_VALUES", 1)
        assert block_length(roots, 1) == 1
        with pytest.raises(ExprDomainError, match="log of a non-positive"):
            eval_many(roots, pts)
        with pytest.raises(ExprDomainError, match="division by zero"):
            eval_many(roots, pts[:1])


def test_domain_error_of_any_root_raises():
    ok = Call("cos", Var(1))
    bad = Call("sqrt", Var(1))
    pts = np.array([[1.0], [-1.0]])
    for roots in ([ok, bad], [bad, ok], [ok, Neg(bad), ok]):
        with pytest.raises(ExprDomainError, match="sqrt of a negative"):
            eval_many(roots, pts)
    nan = Mul(Const(0), Call("exp", Mul(Const(1000), Var(1))))
    with pytest.raises(ExprDomainError, match="NaN"):
        with np.errstate(over="ignore", invalid="ignore"):
            eval_many([ok, nan], pts)
    # a domain error anywhere wins over a NaN in an earlier column
    with pytest.raises(ExprDomainError, match="sqrt"):
        with np.errstate(over="ignore", invalid="ignore"):
            eval_many([nan, bad], pts)


def test_one_program_per_root_tuple():
    first = Mul(Call("cos", Var(1)), Add(Var(2), Pi()))
    roots = (first, Add(first, Var(1)))
    pts = np.array([[0.5, 1.0]])
    eval_many(roots, pts)
    plans = first.__dict__["_plans"]
    assert len(plans) == 1
    (steps, _), = plans.values()
    assert len(steps) == 7  # x1, cos, x2, pi, +, *, and the second +
    eval_many(list(roots), pts)
    eval_on_points(first, pts)
    assert len(plans) == 2
    assert any(plan[0] is steps for plan in plans.values())


def test_program_without_repeated_region_is_not_grouped():
    # three Piecewise nodes on three regions: one step each, as many steps
    # as distinct nodes, and the same program as with grouping off
    first = Add(Piecewise(REGIONS[0], Call("sin", Var(1)), Var(2)),
                Piecewise(REGIONS[1], Var(1), Const(0)))
    roots = (first, Mul(first, Piecewise(REGIONS[2], Var(2), Var(1))))
    steps, peak = _plan(roots)
    assert len(steps) == 5  # the three Piecewise nodes, + and *
    assert (steps, peak) == _plan(roots, group=False)
    eval_many(roots, np.array([[0.5, 1.0]]))
    (cached, _), = first.__dict__["_plans"].values()
    assert len(cached) == 5


def test_piecewise_nodes_of_one_region_are_one_step():
    # the bump and its partials hold 14 Piecewise nodes on 4 regions, a
    # plateau and a band per axis; the 7 plateau nodes are at the top (4
    # on the x1 plateau, 3 on the x2 one) and the bands in their branches
    grouped, _ = _plan(tuple(BUMP_PARTIALS))
    single, _ = _plan(tuple(BUMP_PARTIALS), group=False)
    pieces = [s for s in grouped if s[0] is funcexpr._piecewise]
    assert [len(s[1]) for s in pieces] == [4, 3]
    assert len(single) - len(grouped) == 5
    assert sum(len(s[1]) for s in pieces) == sum(
        s[0] is funcexpr._piecewise for s in single)


def test_constant_branches_run_no_program(monkeypatch):
    # a bump is 1 on its plateau and 0 outside its band, and its partials
    # are 0 on both: those sides are filled, and only the top program and
    # the band's inside branches run
    bump = interval_bump(1, 1, Fraction(1, 4), Fraction(1, 2), Fraction(1))
    pts = np.linspace(-1.5, 2.0, 36)[:, None]
    for roots in ([bump], [bump, diff_expr(bump, 1)]):
        check_many(roots, pts)
        runs = []
        run = funcexpr._run

        def counting(branches, at):
            runs.append(branches)
            return run(branches, at)
        monkeypatch.setattr(funcexpr, "_run", counting)
        eval_many(roots, pts)
        monkeypatch.undo()
        assert len(runs) == 3  # the roots, the plateau's outside, the band's
        assert not any(all(type(e) is Const for e in branches)
                       for branches in runs)


class BlockRegion:
    """x1 > 0, hashing by identity; records the program block it is
    evaluated in (None in a tree walk)."""

    def __init__(self, blocks, log):
        self.blocks, self.log = blocks, log

    def contains(self, pts):
        self.log.append((self, self.blocks[-1] if self.blocks else None))
        return pts[:, 0] > 0.0


@pytest.mark.parametrize("budget", [None, 24])
def test_one_mask_per_region_and_program_block(monkeypatch, budget):
    blocks, log = [], []
    run_block = funcexpr._run_block

    def recording(steps, pts, out):
        blocks.append(object())
        try:
            run_block(steps, pts, out)
        finally:
            blocks.pop()

    monkeypatch.setattr(funcexpr, "_run_block", recording)
    if budget is not None:
        monkeypatch.setattr(funcexpr, "_LIVE_VALUES", budget)
    plateau, band = BlockRegion(blocks, log), BlockRegion(blocks, log)
    roots = [Piecewise(plateau, Const(1),
                       Piecewise(band, Call("sin", Var(2)), Const(0))),
             Piecewise(plateau, Const(0),
                       Piecewise(band, Call("cos", Var(2)), Const(0))),
             Mul(Var(2), Piecewise(plateau, Var(2),
                                   Piecewise(band, Var(1), Const(2))))]
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(40, 2))
    check_many(roots, pts)
    log.clear()
    eval_many(roots, pts)
    assert len(log) == len(set(log))  # no region twice in one block
    tops = -(-40 // block_length(roots, funcexpr._LIVE_VALUES))
    assert tops == (1 if budget is None else 10)
    assert sum(r is plateau for r, _ in log) == tops
    assert sum(r is band for r, _ in log) >= tops


def test_group_error_is_the_tree_walk_error():
    # the group of x1 > 0 sits at the first node of that region, so the
    # division in its second node's branch runs before the log, which the
    # walk reaches first; the error must still be the log's
    bad_log = Call("log", Sub(Var(1), Const(1)))
    bad_div = Div(Const(1), Sub(Var(1), Const(2)))
    first = Piecewise(REGIONS[0], Var(1), Const(0))
    later = Piecewise(REGIONS[0], bad_div, Const(0))
    pts = np.array([[1.0, 0.0], [2.0, 0.0]])
    for roots in ([Add(first, bad_log), later],
                  [Add(Add(first, bad_log), later)]):
        steps, _ = _plan(tuple(roots))
        assert sum(s[0] is funcexpr._piecewise for s in steps) == 1
        with pytest.raises(ExprDomainError, match="log of a non-positive"):
            eval_many(roots, pts)
        check_many(roots, pts)
    with pytest.raises(ExprDomainError, match="division by zero"):
        eval_many([later, Add(first, bad_log)], pts)


def test_programs_keep_no_node_alive():
    # no reference cycle either: the nodes die without the cycle collector
    marker = Fraction(123456791, 1000033)
    x = Mul(Const(marker), Var(1))
    pw = Piecewise(REGIONS[0], Call("sin", x), Neg(x))
    roots = [x, Add(pw, x), x, pw]
    probes = [weakref.ref(r) for r in roots]
    pts = np.array([[0.5, 1.0], [-0.5, 2.0]])
    gc.disable()
    try:
        eval_many(roots, pts)
        eval_on_points(roots[1], pts)
        del roots, x, pw
        assert [p() for p in probes] == [None] * 4
    finally:
        gc.enable()


# --- interning ---------------------------------------------------------------

class TestInterning:
    def test_parse_twice_gives_one_node(self):
        text = "sin(2*pi*x1)*x2 + x1^(3/2)/(1 + x2^2)"
        assert parse_expr(text, 2) is parse_expr(text, 2)
        assert parse_expr("x1 + x2", 2) is Add(Var(1), Var(2))

    def test_derivative_memoized(self):
        e = parse_expr("exp(x1*x2)/(1 + x1^2)", 2)
        assert diff_expr(e, 1) is diff_expr(e, 1)
        assert diff_expr(e, 2) is not diff_expr(e, 1)

    def test_constants_intern_by_value(self):
        assert Const(1) is Const(Fraction(1))
        assert Const(0.5) is Const(Fraction(1, 2))
        assert type(Const(1).value) is Fraction
        assert Pow(Var(1), 2) is Pow(Var(1), Fraction(2))

    def test_equal_regions_intern_together(self):
        a = Piecewise(BoxRegion([0.0], [1.0]), Var(1), Const(0))
        b = Piecewise(BoxRegion((0.0,), (1.0,)), Var(1), Const(0))
        assert a is b

    def test_arity_checked(self):
        with pytest.raises(TypeError):
            Add(Var(1))
        with pytest.raises(TypeError):
            Var(index=1)

    def test_equality_and_hash_are_identity(self):
        e = parse_expr("x1*x2", 2)
        assert e == Mul(Var(1), Var(2))
        assert hash(e) == hash(Mul(Var(1), Var(2)))
        assert e != parse_expr("x2*x1", 2)

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            Var(1).index = 2

    def test_freed_tree_leaves_the_table(self):
        marker = Fraction(987654321, 1000003)

        def marked():
            return [n for n in [ref() for ref in list(_INTERNED.values())]
                    if isinstance(n, Const) and n.value == marker]

        root = Call("exp", Mul(Const(marker),
                               Call("sqrt", Add(Var(1), Var(2)))))
        eval_on_points(diff_expr(root, 1), np.array([[1.0, 2.0]]))
        probe = weakref.ref(root)
        assert marked()
        del root
        gc.collect()
        assert probe() is None
        assert not marked()

    def test_reinterned_key_maps_to_the_new_node(self):
        marker = Fraction(987654323, 1000003)
        node = Const(marker)
        (key, stale), = [(k, r) for k, r in _INTERNED.items()
                         if r() is node]
        del node
        assert stale() is None and key not in _INTERNED
        node = Const(marker)
        assert _INTERNED[key]() is node
        # a dead node's callback comes after a new node took its key
        funcexpr._forget(stale)
        assert _INTERNED[key]() is node
        # a lookup between a node's death and its callback builds anew
        del node
        _INTERNED[key] = stale
        node = Const(marker)
        assert _INTERNED[key]() is node and Const(marker) is node

    def test_table_is_back_at_its_baseline_after_a_norm(self):
        atlas, pou, _ = builtin_manifold("torus2")

        def norm(k):
            u = TensorField.from_ambient(atlas, f"sin(2*pi*{k}*x1)*cos(2*pi*x2)")
            return chart_sobolev_norm(u, pou, e=1, q=2, N=8).value

        norm(3)  # the atlas's own lazily built expressions, if any
        gc.collect()
        baseline = len(_INTERNED)
        assert norm(5) > 0
        gc.collect()
        assert len(_INTERNED) == baseline


# --- folding constructors -------------------------------------------------------

def folded_by_value(fold, a, b):
    """The folding rules stated with value tests, as the tree of a fold."""
    def is_const(e, v=None):
        return isinstance(e, Const) and (v is None or e.value == v)
    both = is_const(a) and is_const(b)
    if fold is add:
        return (Const(a.value + b.value) if both else b if is_const(a, 0)
                else a if is_const(b, 0) else Add(a, b))
    if fold is sub:
        return (Const(a.value - b.value) if both else a if is_const(b, 0)
                else neg(b) if is_const(a, 0) else Sub(a, b))
    if fold is mul:
        return (Const(a.value * b.value) if both else Const(0)
                if is_const(a, 0) or is_const(b, 0) else b if is_const(a, 1)
                else a if is_const(b, 1) else Mul(a, b))
    return (Const(a.value / b.value) if both and b.value != 0 else a
            if is_const(b, 1) else Const(0) if is_const(a, 0)
            and not is_const(b, 0) else Div(a, b))


@pytest.mark.parametrize("fold", [add, sub, mul, div])
def test_identity_folds_match_the_value_rules(fold):
    others = [Var(1), Pi(), Neg(Var(2)), Const(Fraction(-3, 2)),
              Const(Fraction(0)), Const(Fraction(1))]
    for fresh in (Const(Fraction(0)), Const(Fraction(1))):
        for other in others:
            for a, b in ((fresh, other), (other, fresh)):
                assert fold(a, b) is folded_by_value(fold, a, b)


# --- sympy oracle for diff_expr ----------------------------------------------

def to_sympy(e, syms):
    sp = pytest.importorskip("sympy")
    if isinstance(e, Const):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Pi):
        return sp.pi
    if isinstance(e, Var):
        return syms[e.index - 1]
    if isinstance(e, Neg):
        return -to_sympy(e.arg, syms)
    if isinstance(e, Pow):
        return to_sympy(e.base, syms) ** sp.Rational(
            e.power.numerator, e.power.denominator)
    if isinstance(e, Call):
        fn = sp.Abs if e.func == "abs" else getattr(sp, e.func)
        return fn(to_sympy(e.arg, syms))
    a, b = to_sympy(e.left, syms), to_sympy(e.right, syms)
    if isinstance(e, Add):
        return a + b
    if isinstance(e, Sub):
        return a - b
    if isinstance(e, Mul):
        return a * b
    return a / b


def exact_value(expr, at):
    """expr at the point in 30-digit arithmetic; None where undefined."""
    v = expr.evalf(30, subs=at)
    return complex(v) if v.is_finite else None


@settings(max_examples=80, deadline=None)
@given(dags(piecewise=False), st.integers(1, 2),
       st.tuples(st.sampled_from(["-1.3", "-0.4", "0.35", "0.8", "1.7"]),
                 st.sampled_from(["-1.1", "-0.2", "0.45", "1.25"])))
def test_diff_matches_sympy(e, axis, point):
    sp = pytest.importorskip("sympy")
    syms = sp.symbols("x1 x2", real=True)
    try:
        eval_expr(e, [float(x) for x in point])
    except ExprDomainError:
        return  # outside the domain of e
    at = {x: sp.Rational(v) for x, v in zip(syms, point)}
    ours = exact_value(to_sympy(diff_expr(e, axis), syms), at)
    theirs = exact_value(sp.diff(to_sympy(e, syms), syms[axis - 1]), at)
    if ours is None or theirs is None:
        return  # singular in exact arithmetic, e.g. 1/sin(pi)
    assert ours == pytest.approx(theirs, rel=1e-15, abs=1e-25)
