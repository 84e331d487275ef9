"""Built-in compact manifolds: charts, transitions, partitions of unity.

Four manifolds are built in.  ``s1-stereo`` and ``s2-stereo`` are the
unit circle and unit sphere with the two stereographic charts from the
poles; both chart images are all of R^n, so the atlases are classified
"super nice".  ``torus1`` and ``torus2`` are R^n/Z^n with translated
unit-box charts (two per axis, offset by 1/2), classified "GL" and GL
compatible with themselves.

Manifold points are ambient: S^1 in R^2, S^2 in R^3, tori as coset
representatives in [0,1)^n.  All numerics run on a compact truncation
box inside each chart image, fixed by the manifold's name: [-4, 4]^n on
the spheres, each cell shrunk by 0.02 a side on the tori.  Partitions of
unity are built from mollifier bumps whose supports stay inside the
truncation boxes, so L^q and integer-order chart terms lose nothing.  A
fractional chart term is the Gagliardo seminorm over the truncation box,
not over the chart image: it leaves out every pair with one point in the
box and the other in the image outside it, so its value depends on the
box.

The partition of unity follows the telescoping product construction:
psi_1 = eta_1 and psi_a = eta_a * (1-eta_1) *...* (1-eta_{a-1}), which
sums to 1 wherever some eta equals 1; the built-in bump plateaus are
sized so those sets cover the manifold.  Every eta, read in its own
chart or in another, is a public bump of :mod:`sobolev.fields`.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sobolev import ArgumentError, Report
from sobolev.fields import (
    box_bump, inverted_radial_bump, radial_bump, radius_squared,
)
from sobolev.funcexpr import (
    ONE, Const, Expr, Var, add, div, eval_many, eval_on_points, mul, pow_,
    prod_exprs, sub, subst_expr, sum_exprs,
)
from sobolev.quadrature import BoxDomain

__all__ = [
    "Atlas", "Chart", "PartitionOfUnity", "BumpSeed", "TransitionMap",
    "UnknownManifold", "CoverConditionError",
    "PeriodicityError", "AtlasConfigError",
    "builtin_manifold", "build_partition_of_unity",
    "default_seeds", "alternate_seeds", "quasirandom_points",
    "MANIFOLD_NAMES", "atlas_from_config",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class UnknownManifold(ArgumentError, LookupError):
    pass


class AtlasConfigError(ArgumentError):
    """An atlas-config descriptor that does not describe a built-in atlas."""


class CoverConditionError(ValueError):
    """A partition of unity that does not sum to 1, with a witness point,
    or a bump whose support leaves its chart's truncation box (witness
    None)."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class PeriodicityError(ValueError):
    """A function on a torus is not 1-periodic in its ambient coordinates."""


class Chart:
    """One coordinate chart; a subclass is a family of built-in manifolds
    and gives its maps ``to_chart`` (ambient -> coordinates) and
    ``contains`` and every other per-family rule.

    ``truncation`` is the compact coordinate box on which all numerics
    run; it contains the supports of every partition-of-unity function
    assigned to this chart.  ``params`` are the family's fixed settings,
    echoed by :meth:`Atlas.to_config`.  ``inverse_exprs`` is the inverse
    map (coordinates -> ambient) as expressions, where it has a closed
    form; :meth:`to_manifold` evaluates it.  ``period_box`` is the unit
    cell over which a function on the manifold is 1-periodic in its
    ambient coordinates, or None.
    """

    name: str
    dim: int
    truncation: BoxDomain
    image_kind = "fullspace"             # "fullspace" | "box"
    image_bounds = None                  # per-axis (lo, hi) of a box image
    inverse_exprs = None
    period_box = None
    params = {}

    def descriptor(self) -> dict:
        out = {"name": self.name, "image": self.image_kind,
               "truncation": self.truncation.to_json()}
        if self.image_bounds is not None:
            out["image_bounds"] = [list(b) for b in self.image_bounds]
        return out

    def seed(self, which: str) -> "BumpSeed":
        """A ``seed_kind`` bump about ``seed_center`` with the (plateau,
        support) of ``seed_sizes[which]``, ``which`` "default" or "alt"."""
        return BumpSeed(self.seed_kind, *self.seed_sizes[which],
                        center=self.seed_center)

    def to_manifold(self, coords: np.ndarray) -> np.ndarray:
        """The inverse map at (m, n) coordinates: ``inverse_exprs``
        evaluated there, an (m, ambient_dim) array."""
        return eval_many(self.inverse_exprs, coords)

    def transition_jacobian(self, coords: np.ndarray) -> np.ndarray:
        """(m, n, n) Jacobians of the transition into another chart of the
        cover; this base rule is a translation's, the identity."""
        m, n = coords.shape
        return np.broadcast_to(np.eye(n), (m, n, n)).copy()


class StereoChart(Chart):
    """Stereographic projection of the unit sphere S^dim in R^{dim+1} from
    the pole (0,..,0,sign): x' / (1 - sign*z), truncated to [-R, R]^dim
    with R the ``truncation_radius`` of ``params``."""

    family = "stereo"
    classification = "super nice"
    gl_self_compatible = False
    seed_kind = "radial"
    seed_sizes = {"default": (1.5, 3.0), "alt": (1.1, 3.6)}
    seed_center = ()
    params = {"truncation_radius": 4.0}

    def __init__(self, dim: int, sign: int):
        self.name = "minus-north-pole" if sign > 0 else "minus-south-pole"
        self.dim, self.ambient_dim = dim, dim + 1
        self.sign = sign
        radius = self.params["truncation_radius"]
        self.truncation = BoxDomain(((-radius, radius),) * dim)
        r2 = radius_squared(dim)
        denom = add(ONE, r2)
        self.inverse_exprs = [div(mul(Const(Fraction(2)), Var(ax)), denom)
                              for ax in range(1, dim + 1)]
        self.inverse_exprs.append(mul(Const(sign), div(sub(r2, ONE), denom)))
        self.conformal_factor = div(Const(Fraction(4)),
                                    pow_(denom, Fraction(2)))

    @classmethod
    def cover(cls, dim: int):
        """The charts from the two poles."""
        return [cls(dim, sign) for sign in (1, -1)]

    def to_chart(self, ambient: np.ndarray) -> np.ndarray:
        denom = 1.0 - self.sign * ambient[:, -1]
        return ambient[:, :-1] / denom[:, None]

    def contains(self, ambient: np.ndarray) -> np.ndarray:
        return 1.0 - self.sign * ambient[:, -1] > 1e-12

    def local_representation(self, u: Expr) -> Expr:
        """u o phi^{-1}: the inverse map substituted into u."""
        return subst_expr(u, dict(enumerate(self.inverse_exprs, start=1)))

    def pulled_bump(self, seed: "BumpSeed") -> Expr:
        """The other chart's radial bump through the inversion x / |x|^2."""
        return inverted_radial_bump(self.dim, seed.plateau, seed.support)

    def transition_jacobian(self, coords: np.ndarray) -> np.ndarray:
        """Jacobians of the inversion x / |x|^2 into the other chart."""
        r2 = np.sum(coords * coords, axis=1)[:, None, None]
        if np.any(r2 == 0.0):
            raise ValueError("transition jacobian is undefined at the origin")
        outer = coords[:, :, None] * coords[:, None, :]
        return (np.eye(self.dim) * r2 - 2.0 * outer) / r2 ** 2


class TorusChart(Chart):
    """The unit cell [offsets, offsets + 1) of R^n/Z^n, truncated to
    [offsets + 0.02, offsets + 0.98].  The metric is flat."""

    family = "torus"
    classification = "GL"
    gl_self_compatible = True
    seed_kind = "box"
    seed_sizes = {"default": (0.3, 0.45), "alt": (0.27, 0.38)}
    conformal_factor = ONE
    image_kind = "box"

    def __init__(self, offsets: tuple):
        self.name = "cell-" + "".join("b" if o else "a" for o in offsets)
        self.dim = self.ambient_dim = len(offsets)
        self.offsets = offsets
        self.truncation = BoxDomain(tuple((o + 0.02, o + 0.98)
                                          for o in offsets))
        self.image_bounds = tuple((o, o + 1.0) for o in offsets)
        self.period_box = BoxDomain(((0.0, 1.0),) * self.dim)
        self.seed_center = tuple(0.5 + off for off in offsets)

    @classmethod
    def cover(cls, dim: int):
        """Two cells per axis, offset by 1/2."""
        return [cls(o) for o in itertools.product((0.0, 0.5), repeat=dim)]

    def to_chart(self, ambient: np.ndarray) -> np.ndarray:
        rep = np.mod(ambient, 1.0)
        return rep + (rep < np.array(self.offsets)) * 1.0

    def to_manifold(self, coords: np.ndarray) -> np.ndarray:
        return np.mod(coords, 1.0)

    def contains(self, ambient: np.ndarray) -> np.ndarray:
        return np.all(np.abs(np.mod(ambient, 1.0) - self.offsets) > 1e-12,
                      axis=1)

    def local_representation(self, u: Expr) -> Expr:
        """A 1-periodic u itself: a chart coordinate differs from its
        ambient representative by an integer vector."""
        return u

    def pulled_bump(self, seed: "BumpSeed") -> Expr:
        """Another cell's box bump here: the sum of its integer translates
        that meet this truncation box, at most one active at any point."""
        n, b = self.dim, seed.support
        terms = []
        for combo in itertools.product((-1, 0, 1), repeat=n):
            center = tuple(Fraction(str(c)) + k
                           for c, k in zip(seed.center, combo))
            if all(lo < float(c) + b and float(c) - b < hi
                   for c, (lo, hi) in zip(center, self.truncation.bounds)):
                terms.append(box_bump(n, center, Fraction(str(seed.plateau)),
                                      Fraction(str(b))))
        return sum_exprs(terms)


# name: (chart class, dim)
_BUILTINS = {"s1-stereo": (StereoChart, 1), "s2-stereo": (StereoChart, 2),
             "torus1": (TorusChart, 1), "torus2": (TorusChart, 2)}
MANIFOLD_NAMES = tuple(_BUILTINS)


def _chart_fact(name: str) -> property:
    """An :class:`Atlas` property read off its first chart's class."""
    return property(lambda atlas: getattr(atlas.charts[0], name))


@dataclass
class Atlas:
    manifold: str
    charts: list[Chart]
    dim = _chart_fact("dim")
    ambient_dim = _chart_fact("ambient_dim")
    family = _chart_fact("family")  # "stereo" | "torus"
    classification = _chart_fact("classification")  # "super nice" | "GL"
    gl_self_compatible = _chart_fact("gl_self_compatible")
    period_box = _chart_fact("period_box")  # a torus's unit cell, or None

    @property
    def params(self) -> dict:  # the chart family's fixed settings
        return dict(self.charts[0].params)

    def to_config(self) -> Report:
        return Report(
            "atlas-config", manifold=self.manifold, family=self.family,
            dim=self.dim, classification=self.classification,
            gl_self_compatible=self.gl_self_compatible, params=self.params,
            charts=[c.descriptor() for c in self.charts])

    def local_representations(self, ambient_expr: Expr) -> list[Expr]:
        """The function u written in the coordinates of every chart,
        u o phi^{-1}, in chart order.  On a torus ``ambient_expr`` must be
        1-periodic, which :func:`_check_periodic` checks once."""
        if self.period_box is not None:
            _check_periodic(ambient_expr, self)
        return [chart.local_representation(ambient_expr)
                for chart in self.charts]


# A torus function passes the periodicity check when every sampled gap
# |u(x + k) - u(x)| is at most this factor times the sampled max |u|.
_PERIOD_TOL = 1e-9


def _check_periodic(expr: Expr, atlas: Atlas) -> None:
    """Raise :class:`PeriodicityError` unless ``expr`` is 1-periodic in
    every ambient coordinate, sampled at 256 quasirandom points x of the
    unit cell and every shift k in {0,1}^n other than 0."""
    pts = quasirandom_points(atlas.manifold, 256)
    shifts = np.array(list(itertools.product((0.0, 1.0), repeat=atlas.dim)))
    vals = eval_on_points(expr, (shifts[:, None, :] + pts[None]).reshape(
        -1, atlas.dim)).reshape(len(shifts), len(pts))
    gaps = np.abs(vals[1:] - vals[0])
    scale = np.max(np.abs(vals[0]))
    if np.max(gaps) > _PERIOD_TOL * scale:
        k, i = np.unravel_index(np.argmax(gaps), gaps.shape)
        raise PeriodicityError(
            f"the function is not 1-periodic on {atlas.manifold}: "
            f"|u(x + {shifts[k + 1].astype(int).tolist()}) - u(x)| = "
            f"{gaps[k, i]:.6g} at x = {pts[i].tolist()}, above "
            f"{_PERIOD_TOL:g} * max|u| = {_PERIOD_TOL * scale:.6g}")


# ---------------------------------------------------------------------------
# Bump seeds and partitions of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpSeed:
    """Mollifier bump in chart coordinates: 1 on the plateau, 0 outside
    the support (radius for radial bumps, per-axis half-width for box
    bumps)."""

    kind: str          # "radial" | "box"
    plateau: float
    support: float
    center: tuple = ()

    def to_json(self) -> dict:
        out = {"kind": self.kind, "plateau": self.plateau,
               "support": self.support}
        if self.kind == "box":
            out["center"] = list(self.center)
        return out

    def field(self, n: int) -> Expr:
        if self.kind == "radial":
            return radial_bump(n, self.plateau, self.support)
        return box_bump(n, self.center, Fraction(str(self.plateau)),
                        Fraction(str(self.support)))


@dataclass
class PartitionOfUnity:
    """Subordinate partition of unity; one expression per chart, in that
    chart's coordinates."""

    atlas: Atlas
    name: str
    fields: list[Expr]
    seeds: list[BumpSeed]

    def values_at(self, ambient: np.ndarray) -> np.ndarray:
        """psi_alpha at manifold points; shape (n_charts, m)."""
        ambient = np.asarray(ambient, dtype=float)
        out = np.zeros((len(self.fields), ambient.shape[0]))
        for a, (chart, f) in enumerate(zip(self.atlas.charts, self.fields)):
            mask = chart.contains(ambient)
            if mask.any():
                coords = chart.to_chart(ambient[mask])
                out[a, mask] = eval_on_points(f, coords)
        return out

    def to_json(self) -> dict:
        return {"name": self.name, "seeds": [s.to_json() for s in self.seeds]}


def build_partition_of_unity(atlas: Atlas, seeds=None,
                             name: str = "default") -> PartitionOfUnity:
    """psi_1 = eta_1, psi_a = eta_a * prod_{b<a} (1 - eta_b).

    Raises :class:`CoverConditionError` when a seed's support (a box of
    half-width ``support`` around its center, the origin for a radial
    seed) leaves its chart's truncation box, and, with a witness point,
    when a sampled partition sum differs from 1 by more than 1e-9.
    """
    if seeds is None:
        seeds = default_seeds(atlas)
    if len(seeds) != len(atlas.charts):
        raise ArgumentError("one bump seed per chart is required")
    for chart, seed in zip(atlas.charts, seeds):
        center = seed.center or (0.0,) * atlas.dim
        if not all(lo <= c - seed.support and c + seed.support <= hi
                   for c, (lo, hi) in zip(center, chart.truncation.bounds)):
            raise CoverConditionError(
                f"the bump of chart {chart.name} has support "
                f"{seed.support:g} around {list(center)}, which leaves its "
                f"truncation box {chart.truncation.to_json()}", None)
    fields = []
    for a, chart in enumerate(atlas.charts):
        factors = [seeds[a].field(atlas.dim)]
        factors += [sub(ONE, chart.pulled_bump(seeds[b])) for b in range(a)]
        fields.append(prod_exprs(factors))
    pou = PartitionOfUnity(atlas, name, fields, list(seeds))

    pts = quasirandom_points(atlas.manifold, 2000)
    sums = pou.values_at(pts).sum(axis=0)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > 1e-9:
        what = ("bump plateaus do not cover the manifold"
                if sums[worst] < 1.0 else "the bumps overlap beyond 1")
        raise CoverConditionError(
            f"{what}: partition sum {sums[worst]:.12f} at "
            f"{pts[worst].tolist()}", pts[worst].tolist())
    return pou


def default_seeds(atlas: Atlas) -> list[BumpSeed]:
    return [chart.seed("default") for chart in atlas.charts]


def alternate_seeds(atlas: Atlas) -> list[BumpSeed]:
    """A second, genuinely different subordinate family (for equivalence
    experiments)."""
    return [chart.seed("alt") for chart in atlas.charts]


# ---------------------------------------------------------------------------
# Transition maps
# ---------------------------------------------------------------------------

@dataclass
class TransitionMap:
    """phi_b o phi_a^{-1}, evaluated through the ambient representation."""

    atlas: Atlas
    a: int
    b: int

    def domain_mask(self, coords: np.ndarray) -> np.ndarray:
        amb = self.atlas.charts[self.a].to_manifold(np.asarray(coords, float))
        return self.atlas.charts[self.b].contains(amb)

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if not self.domain_mask(coords).all():
            raise ValueError("some points lie outside the overlap image")
        amb = self.atlas.charts[self.a].to_manifold(coords)
        return self.atlas.charts[self.b].to_chart(amb)

    def jacobian(self, coords: np.ndarray) -> np.ndarray:
        """(m, n, n) array of d(transition)/d(coords)."""
        coords = np.asarray(coords, dtype=float)
        chart = self.atlas.charts[self.a]
        if self.a == self.b:  # the identity map
            return Chart.transition_jacobian(chart, coords)
        return chart.transition_jacobian(coords)


# ---------------------------------------------------------------------------
# Built-in manifolds
# ---------------------------------------------------------------------------

def quasirandom_points(manifold: str, m: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of ambient manifold points."""
    cls, dim = _builtin(manifold)
    i = np.arange(m)
    if cls is StereoChart and dim == 1:
        t = np.mod((i + 0.5) * _GOLDEN, 1.0)
        ang = 2.0 * np.pi * t
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if cls is StereoChart:
        z = 1.0 - 2.0 * (i + 0.5) / m
        ang = 2.0 * np.pi * np.mod(i * _GOLDEN, 1.0)
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)
    if dim == 1:  # the tori
        return np.mod((i[:, None] + 0.5) * _GOLDEN, 1.0)
    rho = 1.3247179572447460  # plastic ratio; R2 sequence
    a = np.array([1.0 / rho, 1.0 / rho ** 2])
    return np.mod((i[:, None] + 0.5) * a[None, :], 1.0)


def builtin_manifold(name: str):
    """Return (Atlas, default PartitionOfUnity, MetricField) for a built-in
    (see :func:`sobolev.geometry.builtin_metric`)."""
    atlas = _builtin_atlas(name)
    pou = build_partition_of_unity(atlas)
    from sobolev.geometry import builtin_metric
    return atlas, pou, builtin_metric(atlas)


def _builtin(name: str) -> tuple:
    """The (chart class, dim) of a built-in manifold's name."""
    if name not in _BUILTINS:
        raise UnknownManifold(f"unknown manifold {name!r}; "
                              f"known: {', '.join(MANIFOLD_NAMES)}")
    return _BUILTINS[name]


def _builtin_atlas(name: str) -> Atlas:
    cls, dim = _builtin(name)
    return Atlas(name, cls.cover(dim))


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"schema", "kind", "manifold", "family", "dim",
                "classification", "gl_self_compatible", "params", "charts",
                "pou"}
_SEED_KEYS = {"kind", "plateau", "support", "center"}


def atlas_from_config(config: dict):
    """Rebuild a built-in-family atlas (and optional partition of unity)
    from its JSON descriptor; the atlas itself is fixed by ``manifold``.
    These raise :class:`AtlasConfigError`: a descriptor that is not an
    object with a string ``manifold`` key; an unknown key, at the top or
    in ``pou`` (``name`` and ``seeds``); an echoed key of
    :meth:`Atlas.to_config` that differs from the rebuilt atlas's
    (``true`` and ``false`` differ from every number); a ``pou`` that
    is not an object; a ``pou.name`` that is not a string; a
    ``pou.seeds`` that is not a list of one well-formed bump seed per
    chart (see :func:`_seed_from_config`)."""
    if not isinstance(config, dict) or \
            not isinstance(config.get("manifold"), str):
        raise AtlasConfigError(
            "an atlas config is a JSON object with a string 'manifold' key")
    _config_object(config, "atlas-config", _CONFIG_KEYS)
    atlas = _builtin_atlas(config["manifold"])
    for key, rebuilt in atlas.to_config().items():
        if key in config and not _same_json(config[key], rebuilt):
            raise AtlasConfigError(
                f"atlas-config key {key!r} is {config[key]!r}, but the "
                f"rebuilt {atlas.manifold} atlas has {rebuilt!r}")
    if "pou" not in config:
        return atlas, None
    spec = _config_object(config["pou"], "pou", ("name", "seeds"))
    name, seeds = spec.get("name", "custom"), spec.get("seeds", [])
    if not isinstance(name, str):
        raise AtlasConfigError(f"pou.name must be a string, got {name!r}")
    if not isinstance(seeds, list):
        raise AtlasConfigError(f"pou.seeds must be a list, got {seeds!r}")
    if len(seeds) != len(atlas.charts):
        raise AtlasConfigError(
            f"{atlas.manifold} has {len(atlas.charts)} charts, so its "
            f"pou needs as many bump seeds, got {len(seeds)}")
    seeds = [_seed_from_config(s, atlas) for s in seeds]
    return atlas, build_partition_of_unity(atlas, seeds, name=name)


def _same_json(given, rebuilt) -> bool:
    """JSON equality, numbers compared by value (``1`` is ``1.0``), but
    ``true`` and ``false`` equal only themselves."""
    if isinstance(given, dict) and isinstance(rebuilt, dict):
        return given.keys() == rebuilt.keys() and \
            all(_same_json(given[k], rebuilt[k]) for k in given)
    if isinstance(given, list) and isinstance(rebuilt, list):
        return len(given) == len(rebuilt) and \
            all(map(_same_json, given, rebuilt))
    return isinstance(given, bool) == isinstance(rebuilt, bool) and \
        given == rebuilt


def _config_object(value, what: str, known) -> dict:
    """``value`` if it is a JSON object with no key outside ``known``."""
    if not isinstance(value, dict):
        raise AtlasConfigError(f"{what} must be a JSON object, got {value!r}")
    unknown = set(value) - set(known)
    if unknown:
        raise AtlasConfigError(f"unknown {what} keys: {sorted(unknown)}; "
                               f"known: {sorted(known)}")
    return value


def _config_number(value, what: str) -> float:
    """A JSON number that is a finite float; ``true`` and ``false`` are
    not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            not abs(value) <= sys.float_info.max:
        raise AtlasConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _seed_from_config(s, atlas: Atlas) -> BumpSeed:
    """The bump seed of one JSON object: ``kind`` radial on a sphere and
    box on a torus, numeric ``plateau`` and ``support``, and a ``center``
    of ``atlas.dim`` numbers for a box seed and of none for a radial one."""
    if not isinstance(s, dict) or set(s) - _SEED_KEYS:
        raise AtlasConfigError(f"a bump seed is a JSON object with keys "
                               f"among {sorted(_SEED_KEYS)}, got {s!r}")
    missing = {"kind", "plateau", "support"} - set(s)
    if missing:
        raise AtlasConfigError(f"bump seed without {sorted(missing)}")
    if s["kind"] not in ("radial", "box"):
        raise AtlasConfigError(
            f"unknown bump-seed kind {s['kind']!r}; known: radial, box")
    kind = atlas.charts[0].seed_kind
    if s["kind"] != kind:
        raise AtlasConfigError(f"{atlas.manifold} takes {kind} bump seeds, "
                               f"got a {s['kind']} seed")
    dim = atlas.dim if kind == "box" else 0
    center = s.get("center", [])
    if not isinstance(center, list) or len(center) != dim:
        raise AtlasConfigError(f"a {kind} seed needs a center of {dim} "
                               f"numbers")
    plateau = _config_number(s["plateau"], "plateau")
    support = _config_number(s["support"], "support")
    if not 0 < plateau < support:
        raise AtlasConfigError("a bump seed needs 0 < plateau < support")
    return BumpSeed(s["kind"], plateau, support,
                    tuple(_config_number(c, "center") for c in center))
