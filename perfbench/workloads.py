"""Seeded workload items for the benchmark, with the references they are checked against.

Every item is a CLI argv built from a fixed template.  The seed changes only
values that leave the cost unchanged:

* a rational scale ``c`` with ``|c|`` in [3/2, 4] and a prime denominator
  of at least 97 that multiplies the template.  ``c`` is never 0 or +-1, so
  the folding constructors of ``sobolev.funcexpr`` never collapse
  ``c*(template)``, and no constant derived from ``c`` equals a constant of
  the template, so the expression trees, the grid work and the exact trace
  counts are the same for every seed;
* the order of the ``check`` batch, a seeded permutation of a fixed
  multiset, so that the batch holds the same calls for every seed.

References hold for every seed: norms are 1-homogeneous, so a norm item
must read ``|c|`` times the value pinned for its template; the ratios of
``op bound`` and ``compare`` are 0-homogeneous and are pinned as they are.
Grids are always passed explicitly, so a changed default moves nothing.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("euclid-frac", "connection-deep", "chart-mixed")

# A pinned value may move by this share of itself: loose enough for a
# reordered sum (new kernels are allowed 1e-12) and for the rounding of
# the scale c, tight enough to catch a wrong kernel.
PINNED_RTOL = 1e-9

TORUS_TRIG = "sin(2*pi*x1)*cos(2*pi*x2)"


def _gagliardo_linear_1d(theta: float, p: float) -> float:
    """|x|_{theta,p} on [0, 1]: (2 / (p(1-theta) (p(1-theta)+1)))^(1/p)."""
    a = p * (1.0 - theta)
    return (2.0 / (a * (a + 1.0))) ** (1.0 / p)


def _connection_torus_trig(k: int) -> float:
    """W^{k,2} connection norm of sin(2 pi x1) cos(2 pi x2) on the flat
    2-torus: sum_i 2^i (2 pi)^(2i) / 4 under the square root."""
    w2 = (2.0 * math.pi) ** 2
    return math.sqrt(sum((2.0 * w2) ** i / 4.0 for i in range(k + 1)))


def _connection_circle_half_sin2(k: int) -> float:
    """W^{k,2} connection norm of x1*x2 = sin(2t)/2 on the unit circle,
    t the arc length: sum_i 4^i pi / 4 under the square root."""
    return math.sqrt(sum(4.0 ** i * math.pi / 4.0 for i in range(k + 1)))


@dataclass(frozen=True)
class Norm:
    """A norm item: ``value`` and ``error_estimate`` scale with |c|."""

    argv: tuple          # with "{u}" where the scaled expression goes
    template: str
    value: float         # pinned at c = 1
    error: float         # pinned at c = 1
    closed_form: float | None = None
    closed_rtol: float = 0.0   # discretisation allowance of the closed form


@dataclass(frozen=True)
class Ratios:
    """An ``op bound`` or ``compare`` item: its ratios do not depend on c."""

    argv: tuple          # with "{u0}", "{u1}", ... for the family members
    templates: tuple
    ratios: tuple        # pinned


@dataclass(frozen=True)
class Check:
    """An exact admissibility check with its pinned verdict."""

    argv: str
    code: int
    result: str
    theorem: str | None


EUCLID = (
    Norm(("norm", "euclid", "--expr", "{u}", "--box", "0,1", "--s", "1/2",
          "--p", "2", "--grid", "4096", "--seminorm"), "x1",
         0.9998779222360098, 0.0003662332974292415,
         _gagliardo_linear_1d(0.5, 2.0), 5e-4),
    Norm(("norm", "euclid", "--expr", "{u}", "--box", "0,1", "--s", "3/10",
          "--p", "3", "--grid", "4096", "--seminorm"), "x1",
         0.6747605175842957, 4.8397735707972345e-08,
         _gagliardo_linear_1d(0.3, 3.0), 1e-6),
    Norm(("norm", "euclid", "--expr", "{u}", "--box", "0,1;0,1", "--s", "1/2",
          "--p", "2", "--grid", "96", "--seminorm"), "sin(x1)*x2",
         0.8482566490964817, 0.03364836002218852),
    Norm(("norm", "euclid", "--expr", "{u}", "--box", "0,1;0,1", "--s", "1/2",
          "--p", "3", "--grid", "80", "--seminorm"), "sin(x1)*x2",
         0.6272493107176725, 0.00409566929465055),
    Norm(("norm", "euclid", "--expr", "{u}", "--box", "0,1;0,1", "--s", "3/2",
          "--p", "2", "--grid", "64"), "sin(x1)*x2",
         3.4374039249003108, 0.12037272837839591),
)

CONNECTION = (
    Norm(("norm", "connection", "--manifold", "s2-stereo", "--expr", "{u}",
          "--k", "3", "--grid", "64"), "x1*x3",
         11.897786511020549, 0.03943393969221454),
    Norm(("norm", "connection", "--manifold", "s2-stereo", "--expr", "{u}",
          "--k", "3", "--q", "3", "--grid", "48"), "x1*x3",
         7.513285712333138, 0.09498078278266497),
    # curved and deep but one-dimensional: k=4 on the circle
    Norm(("norm", "connection", "--manifold", "s1-stereo", "--expr", "{u}",
          "--k", "4", "--grid", "256"), "x1*x2",
         16.36529199549549, 0.003894616804284823,
         _connection_circle_half_sin2(4), 1e-5),
    # flat control: zero Christoffel symbols, small trees
    Norm(("norm", "connection", "--manifold", "torus2", "--expr", "{u}",
          "--k", "4", "--grid", "64"), TORUS_TRIG,
         3137.0151695742984, 0.38575013522813606,
         _connection_torus_trig(4), 1e-3),
)

CHART_MIXED = (
    Norm(("norm", "manifold", "--manifold", "torus2", "--expr", "{u}",
          "--e", "3/2", "--grid", "24"), TORUS_TRIG,
         237.6401346604631, 136.03887688166097),
    Ratios(("op", "bound", "--manifold", "s2-stereo", "--op", "laplace",
            "--from", "2,2", "--to", "0,2", "--expr", "{u0}", "--expr", "{u1}",
            "--grid", "24"), ("x1*x3", "x2"),
           (0.14316711897395729, 0.07774048355612564)),
    Ratios(("compare", "--manifold", "s1-stereo", "--expr", "{u0}",
            "--expr", "{u1}", "--e", "1/2", "--grid", "512"), ("x1", "x1*x2"),
           (1.0544658148844641, 1.045517933947507)),
)

CHECK_POOL = (
    Check("embed --n 2 --from 2,2 --to 1,4", 0, "Admissible", "embedding I"),
    Check("embed --n 3 --from 1,2 --to 0,6", 0, "Admissible", "embedding I"),
    Check("embed --n 3 --from 1,2 --to 0,7", 1, "NotGuaranteed", None),
    Check("embed --n 1 --from 1/2,2 --to 0,4", 0, "Admissible", "embedding I"),
    Check("embed --n 2 --from 3/2,2 --to 1/2,4 --domain lipschitz", 0,
          "Admissible", "embedding III"),
    Check("embed --n 3 --from 2,3/2 --to 1,3", 0, "Admissible", "embedding I"),
    Check("multiply --n 3 --a 1,2 --b 1,2 --target 0,2", 0, "Admissible",
          "multiplication 4.6 (iii strict)"),
    Check("multiply --n 3 --a 1/2,2 --b 1/2,2 --target 1/2,2", 1,
          "NotGuaranteed", None),
    Check("multiply --n 2 --a 2,2 --b 2,2 --target 2,2", 0, "Admissible",
          "algebra 3.3"),
    Check("multiply --n 1 --a 1,2 --b 1/2,2 --target 1/2,2 --domain lipschitz",
          0, "Admissible", "multiplication 4.1"),
    Check("pointwise --n 3 --space 2,2 --mode algebra", 0, "Admissible",
          "algebra 3.3"),
    Check("pointwise --n 3 --space 1,2 --mode algebra", 1, "NotGuaranteed",
          None),
    Check("pointwise --n 2 --space 3/2,2 --mode linfty", 0, "Admissible",
          "embedding II (L-infinity)"),
    Check("pointwise --n 2 --space 1,2 --mode linfty", 1, "NotGuaranteed",
          None),
    Check("pointwise --n 1 --space 1,2 --mode composition", 0, "Admissible",
          "composition"),
    Check("derivative --n 1 --space 1/2,2 --order 1", 0, "Admissible",
          "derivative 1 (whole space, any s)"),
    Check("derivative --n 2 --space 2,3 --order 2", 0, "Admissible",
          "derivative 1 (whole space, any s)"),
    Check("derivative --n 3 --space 1,2 --order 1 --domain lipschitz", 0,
          "Admissible", "derivative 3 (|alpha| <= s, any open set)"),
    Check("derivative --n 2 --space 1/2,2 --order 1 --domain lipschitz", 1,
          "NotGuaranteed", None),
    Check("extend --n 1 --space=-1/2,2", 0, "Admissible",
          "extension by zero (-1 < s < 0)"),
    Check("extend --n 2 --space 1/2,2", 0, "Admissible",
          "extension by zero (s >= 0)"),
    Check("extend --n 2 --space 1/2,2 --enclosing lipschitz", 0, "Admissible",
          "extension by zero (s >= 0)"),
    Check("extend --n 3 --space 3/2,2 --enclosing fullspace", 0, "Admissible",
          "extension by zero (s >= 0)"),
)
CHECK_REPEATS = 6    # 23 * 6 = 138 checks, about 0.6 s

# Prime denominators keep c and its multiples c*k apart from every constant
# of the templates and their derivatives (small rationals): otherwise the
# count of structurally distinct nodes would depend on the seed.
SCALE_DENOMINATORS = (97, 101, 103, 107, 109, 113, 127)

SMOKE_GRID = {"4096": "64", "96": "8", "80": "8", "64": "8", "48": "8",
              "24": "8", "256": "16", "512": "32"}


@dataclass(frozen=True)
class Item:
    argv: tuple
    spec: object          # Norm | Ratios | Check
    scale: Fraction       # |c| for a Norm item, 1 otherwise


def _scale(rng: random.Random) -> Fraction:
    q = rng.choice(SCALE_DENOMINATORS)
    p = q
    while p % q == 0:
        p = rng.randint(math.ceil(1.5 * q), 4 * q)
    c = Fraction(p, q)
    return c if rng.random() < 0.5 else -c


def _scaled(template: str, c: Fraction) -> str:
    return f"({c})*({template})"


def _smoke(argv: tuple) -> tuple:
    out = list(argv)
    for i, a in enumerate(out[:-1]):
        if a == "--grid":
            out[i + 1] = SMOKE_GRID[out[i + 1]]
        elif a == "--k":
            out[i + 1] = str(min(int(out[i + 1]), 2))
    return tuple(out)


def generate(workload: str, seed: int, smoke: bool = False) -> list[Item]:
    """The items of one pass, in their fixed order, for this seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    specs = {"euclid-frac": EUCLID, "connection-deep": CONNECTION,
             "chart-mixed": CHART_MIXED}[workload]
    items = []
    for spec in specs:
        if isinstance(spec, Norm):
            c = _scale(rng)
            argv = tuple(_scaled(spec.template, c) if a == "{u}" else a
                         for a in spec.argv)
            items.append(Item(argv, spec, abs(c)))
        else:
            members = {f"{{u{i}}}": _scaled(t, _scale(rng))
                       for i, t in enumerate(spec.templates)}
            argv = tuple(members.get(a, a) for a in spec.argv)
            items.append(Item(argv, spec, Fraction(1)))
    if workload == "chart-mixed":
        batch = list(CHECK_POOL) * (1 if smoke else CHECK_REPEATS)
        rng.shuffle(batch)
        items += [Item(("check",) + tuple(chk.argv.split()), chk, Fraction(1))
                  for chk in batch]
    if smoke:
        items = [Item(_smoke(it.argv), it.spec, it.scale) for it in items]
    return items


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


def parse_strict(text: str):
    """Parse one JSON report; NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def check(item: Item, code, text: str, smoke: bool = False) -> str | None:
    """None when the output of one item is correct, else the reason."""
    spec = item.spec
    allowed = (0, 1) if isinstance(spec, Check) else (0,)
    if code not in allowed:
        return f"exit code {code}: {text.strip()[:200]}"
    try:
        rep = parse_strict(text)
    except ValueError as err:
        return f"output is not strict JSON: {err}"
    if isinstance(spec, Check):
        got = (code, rep.get("result"), rep.get("theorem"))
        want = (spec.code, spec.result, spec.theorem)
        return None if got == want else f"verdict {got}, expected {want}"
    if isinstance(spec, Norm):
        for key in ("value", "error_estimate"):
            if not isinstance(rep.get(key), (int, float)) \
                    or not math.isfinite(rep[key]):
                return f"{key} is not a finite number: {rep.get(key)!r}"
        if smoke:
            return None
        s = float(item.scale)
        want = s * spec.value
        if not _close(rep["value"], want, PINNED_RTOL * want):
            return f"value {rep['value']!r}, pinned {want!r}"
        if not _close(rep["error_estimate"], s * spec.error,
                      PINNED_RTOL * want):
            return (f"error_estimate {rep['error_estimate']!r}, "
                    f"pinned {s * spec.error!r}")
        if spec.closed_form is not None:
            cf = s * spec.closed_form
            if not _close(rep["value"], cf, spec.closed_rtol * cf):
                return f"value {rep['value']!r}, closed form {cf!r}"
        return None
    ratios = rep.get("ratios")
    if not isinstance(ratios, list) or len(ratios) != len(spec.ratios):
        return f"ratios {ratios!r}, expected {len(spec.ratios)} numbers"
    if smoke:
        return None
    for got, want in zip(ratios, spec.ratios):
        if not isinstance(got, (int, float)) \
                or not _close(got, want, PINNED_RTOL * want):
            return f"ratio {got!r}, pinned {want!r}"
    return None


def value_fields(text: str):
    """The bit-stable result fields of one report, for bit-identity checks."""
    try:
        rep = parse_strict(text)
    except ValueError:
        return text
    keys = ("value", "error_estimate", "ratios", "sup", "bracket", "result")
    return {k: rep[k] for k in keys if k in rep}
