"""Built-in compact manifolds: charts, transitions, partitions of unity.

Four manifolds are built in.  ``s1-stereo`` and ``s2-stereo`` are the
unit circle and unit sphere with the two stereographic charts from the
poles; both chart images are all of R^n, so the atlases are classified
"super nice".  ``torus1`` and ``torus2`` are R^n/Z^n with translated
unit-box charts (two per axis, offset by 1/2), classified "GL" and GL
compatible with themselves.

Manifold points are ambient: S^1 in R^2, S^2 in R^3, tori as coset
representatives in [0,1)^n.  All numerics run on a compact truncation
box inside each chart image; partitions of unity are built from
mollifier bumps whose supports stay inside the truncation boxes, so the
truncation is exact rather than approximate.

The partition of unity follows the telescoping product construction:
psi_1 = eta_1 and psi_a = eta_a * (1-eta_1) *...* (1-eta_{a-1}), which
sums to 1 wherever some eta equals 1; the built-in bump plateaus are
sized so those sets cover the manifold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from sobolev.fields import (
    _SEAM, AnnulusRegion, _band_expr, box_bump, radial_bump,
    radius_squared,
)
from sobolev.funcexpr import (
    ONE, ZERO, Call, Const, Expr, Piecewise, Var, add, div, eval_on_points,
    mul, prod_exprs, sub, subst_expr, sum_exprs,
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

# name: (family, dim, ambient dim, classification, GL self-compatible)
_BUILTINS = {
    "s1-stereo": ("stereo", 1, 2, "super nice", False),
    "s2-stereo": ("stereo", 2, 3, "super nice", False),
    "torus1": ("torus", 1, 1, "GL", True),
    "torus2": ("torus", 2, 2, "GL", True),
}
MANIFOLD_NAMES = tuple(_BUILTINS)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class UnknownManifold(LookupError):
    pass


class AtlasConfigError(ValueError):
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
    """One coordinate chart; a subclass gives its numeric maps
    ``to_chart`` (ambient -> coordinates), ``to_manifold`` and the
    ambient mask ``contains``.

    ``truncation`` is the compact coordinate box on which all numerics
    run; it contains the supports of every partition-of-unity function
    assigned to this chart.  ``inverse_exprs`` is the inverse map
    (coordinates -> ambient) as expressions, where it has a closed form.
    """

    name: str
    dim: int
    truncation: BoxDomain
    image_kind = "fullspace"             # "fullspace" | "box"
    image_bounds = None                  # per-axis (lo, hi) of a box image
    inverse_exprs = None

    def descriptor(self) -> dict:
        out = {"name": self.name, "image": self.image_kind,
               "truncation": self.truncation.to_json()}
        if self.image_bounds is not None:
            out["image_bounds"] = [list(b) for b in self.image_bounds]
        return out


class StereoChart(Chart):
    """Stereographic projection of the unit sphere S^dim in R^{dim+1} from
    the pole (0,..,0,sign): x' / (1 - sign*z), truncated to
    [-trunc_radius, trunc_radius]^dim."""

    def __init__(self, dim: int, sign: int, trunc_radius: float):
        self.name = "minus-north-pole" if sign > 0 else "minus-south-pole"
        self.dim = dim
        self.sign = sign
        self.truncation = BoxDomain(((-trunc_radius, trunc_radius),) * dim)
        r2 = radius_squared(dim)
        denom = add(ONE, r2)
        self.inverse_exprs = [div(mul(Const(Fraction(2)), Var(ax)), denom)
                              for ax in range(1, dim + 1)]
        self.inverse_exprs.append(mul(Const(sign), div(sub(r2, ONE), denom)))

    def to_chart(self, ambient: np.ndarray) -> np.ndarray:
        denom = 1.0 - self.sign * ambient[:, -1]
        return ambient[:, :-1] / denom[:, None]

    def to_manifold(self, coords: np.ndarray) -> np.ndarray:
        r2 = np.sum(coords * coords, axis=1)
        denom = 1.0 + r2
        out = np.empty((coords.shape[0], self.dim + 1))
        out[:, :-1] = 2.0 * coords / denom[:, None]
        out[:, -1] = self.sign * (r2 - 1.0) / denom
        return out

    def contains(self, ambient: np.ndarray) -> np.ndarray:
        return 1.0 - self.sign * ambient[:, -1] > 1e-12


class TorusChart(Chart):
    """The unit cell [offsets, offsets + 1) of R^n/Z^n, truncated to
    [offsets + 0.02, offsets + 0.98]."""

    image_kind = "box"

    def __init__(self, offsets: tuple):
        self.name = "cell-" + "".join("b" if o else "a" for o in offsets)
        self.dim = len(offsets)
        self.offsets = offsets
        self.truncation = BoxDomain(tuple((o + 0.02, o + 0.98)
                                          for o in offsets))
        self.image_bounds = tuple((o, o + 1.0) for o in offsets)

    def to_chart(self, ambient: np.ndarray) -> np.ndarray:
        rep = np.mod(ambient, 1.0)
        return rep + (rep < np.array(self.offsets)) * 1.0

    def to_manifold(self, coords: np.ndarray) -> np.ndarray:
        return np.mod(coords, 1.0)

    def contains(self, ambient: np.ndarray) -> np.ndarray:
        return np.all(np.abs(np.mod(ambient, 1.0) - self.offsets) > 1e-12,
                      axis=1)


@dataclass
class Atlas:
    manifold: str
    family: str                 # "stereo" | "torus"
    dim: int
    ambient_dim: int
    charts: list[Chart]
    classification: str         # "nice" | "super nice" | "GL" | "GGL"
    gl_self_compatible: bool
    params: dict = dataclass_field(default_factory=dict)

    def to_config(self) -> dict:
        return {
            "schema": "v1",
            "kind": "atlas-config",
            "manifold": self.manifold,
            "family": self.family,
            "dim": self.dim,
            "classification": self.classification,
            "gl_self_compatible": self.gl_self_compatible,
            "params": dict(self.params),
            "charts": [c.descriptor() for c in self.charts],
        }

    # -- local representations of ambient-coordinate functions ------------

    def local_representations(self, ambient_expr: Expr) -> list[Expr]:
        """The function u written in the coordinates of every chart,
        u o phi^{-1}, in chart order.

        On a sphere this substitutes each chart's inverse map.  A torus
        chart coordinate differs from its ambient representative by an
        integer vector, so a 1-periodic u is its own local representation:
        ``ambient_expr`` itself is returned for every chart, after one
        :func:`_check_periodic`.
        """
        if self.family == "torus":
            _check_periodic(ambient_expr, self)
            return [ambient_expr] * len(self.charts)
        return [subst_expr(ambient_expr, dict(enumerate(chart.inverse_exprs,
                                                        start=1)))
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


def _pulled_bump(atlas: Atlas, seed: BumpSeed, beta: int, alpha: int) -> Expr:
    """eta_beta written in chart alpha's coordinates."""
    n = atlas.dim
    if alpha == beta:
        return seed.field(n)
    if atlas.family == "stereo":
        return _inverted_radial_bump(n, seed.plateau, seed.support)
    return _torus_pulled_bump(atlas, seed, beta, alpha)


def _inverted_radial_bump(n: int, plateau: float, support: float) -> Expr:
    # bump(1/|x|): plateau |x| >= 1/a, vanishing for |x| <= 1/b; smooth
    # across the origin because it is constant there.  The seams are those
    # of radial_bump, mapped through the inversion.
    a, b = float(plateau), float(support)
    band = AnnulusRegion(1.0 / b * (1.0 + _SEAM), 1.0 / a * (1.0 - _SEAM),
                         closed=False)
    r = Call("sqrt", radius_squared(n))
    return Piecewise(AnnulusRegion(1.0 / a * (1.0 - _SEAM), None), ONE,
                     Piecewise(band, _band_expr(div(ONE, r), a, b), ZERO))


def _torus_pulled_bump(atlas: Atlas, seed: BumpSeed, beta: int,
                       alpha: int) -> Expr:
    """Periodized translate sum; at most one translate is active per
    point because bump supports are narrower than the unit cell."""
    n = atlas.dim
    trunc = atlas.charts[alpha].truncation
    terms = []
    for combo in itertools.product((-1, 0, 1), repeat=n):
        center = tuple(Fraction(str(c)) + k for c, k in zip(seed.center, combo))
        if all(lo < float(c) + seed.support and float(c) - seed.support < hi
               for c, (lo, hi) in zip(center, trunc.bounds)):
            terms.append(box_bump(n, center, Fraction(str(seed.plateau)),
                                  Fraction(str(seed.support))))
    return sum_exprs(terms)


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
        raise ValueError("one bump seed per chart is required")
    for chart, seed in zip(atlas.charts, seeds):
        center = seed.center or (0.0,) * atlas.dim
        if not all(lo <= c - seed.support and c + seed.support <= hi
                   for c, (lo, hi) in zip(center, chart.truncation.bounds)):
            raise CoverConditionError(
                f"the bump of chart {chart.name} has support "
                f"{seed.support:g} around {list(center)}, which leaves its "
                f"truncation box {chart.truncation.to_json()}", None)
    fields = []
    for a in range(len(atlas.charts)):
        factors = [_pulled_bump(atlas, seeds[a], a, a)]
        for b in range(a):
            factors.append(sub(ONE, _pulled_bump(atlas, seeds[b], b, a)))
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
    return _seeds(atlas, stereo=(1.5, 3.0), torus=(0.3, 0.45))


def alternate_seeds(atlas: Atlas) -> list[BumpSeed]:
    """A second, genuinely different subordinate family (for equivalence
    experiments)."""
    return _seeds(atlas, stereo=(1.1, 3.6), torus=(0.27, 0.38))


def _seeds(atlas: Atlas, stereo: tuple, torus: tuple) -> list[BumpSeed]:
    """One seed per chart from the (plateau, support) of the atlas's
    family: radial at the origin of a sphere chart, a box at the center
    of a torus cell."""
    if atlas.family == "stereo":
        return [BumpSeed("radial", *stereo) for _ in atlas.charts]
    return [BumpSeed("box", *torus,
                     center=tuple(0.5 + off for off in chart.offsets))
            for chart in atlas.charts]


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
        m, n = coords.shape
        if self.a == self.b or self.atlas.family == "torus":
            return np.broadcast_to(np.eye(n), (m, n, n)).copy()
        # stereographic pair: inversion x / |x|^2
        r2 = np.sum(coords * coords, axis=1)
        if np.any(r2 == 0.0):
            raise ValueError("transition jacobian is undefined at the origin")
        eye = np.eye(n)
        outer = coords[:, :, None] * coords[:, None, :]
        return (eye[None, :, :] * r2[:, None, None] - 2.0 * outer) \
            / (r2 ** 2)[:, None, None]


# ---------------------------------------------------------------------------
# Built-in manifolds
# ---------------------------------------------------------------------------

def quasirandom_points(manifold: str, m: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of ambient manifold points."""
    i = np.arange(m)
    if manifold == "s1-stereo":
        t = np.mod((i + 0.5) * _GOLDEN, 1.0)
        ang = 2.0 * np.pi * t
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if manifold == "s2-stereo":
        z = 1.0 - 2.0 * (i + 0.5) / m
        ang = 2.0 * np.pi * np.mod(i * _GOLDEN, 1.0)
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)
    if manifold == "torus1":
        return np.mod((i[:, None] + 0.5) * _GOLDEN, 1.0)
    if manifold == "torus2":
        rho = 1.3247179572447460  # plastic ratio; R2 sequence
        a = np.array([1.0 / rho, 1.0 / rho ** 2])
        return np.mod((i[:, None] + 0.5) * a[None, :], 1.0)
    raise UnknownManifold(manifold)


def builtin_manifold(name: str):
    """Return (Atlas, default PartitionOfUnity, MetricField) for a built-in.

    s1-stereo / s2-stereo carry the round metric in stereographic
    coordinates (conformal factor 4/(1+|x|^2)^2); tori are flat.
    """
    atlas = _builtin_atlas(name)
    pou = build_partition_of_unity(atlas)
    from sobolev.geometry import builtin_metric
    return atlas, pou, builtin_metric(atlas)


def _builtin_atlas(name: str, trunc_radius: float = 4.0) -> Atlas:
    if name not in _BUILTINS:
        raise UnknownManifold(f"unknown manifold {name!r}; "
                              f"known: {', '.join(MANIFOLD_NAMES)}")
    family, dim, ambient_dim, classification, self_compatible = \
        _BUILTINS[name]
    if family == "torus":
        charts = [TorusChart(offsets)
                  for offsets in itertools.product((0.0, 0.5), repeat=dim)]
        params = {}
    else:
        charts = [StereoChart(dim, sign, trunc_radius) for sign in (1, -1)]
        params = {"truncation_radius": trunc_radius}
    return Atlas(name, family, dim, ambient_dim, charts, classification,
                 self_compatible, params)


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"schema", "kind", "manifold", "family", "dim",
                "classification", "gl_self_compatible", "params", "charts",
                "pou"}
_SEED_KEYS = {"kind", "plateau", "support", "center"}


def atlas_from_config(config: dict):
    """Rebuild a built-in-family atlas (and optional partition of unity)
    from its JSON descriptor.  A descriptor that is not an object with a
    ``manifold`` key, that has unknown keys, a non-numeric truncation
    radius, an echoed key of :meth:`Atlas.to_config` (all but ``params``)
    that differs from the rebuilt atlas's, malformed bump seeds (see
    :func:`_seed_from_config`), or not one seed per chart, raises
    :class:`AtlasConfigError`."""
    if not isinstance(config, dict) or "manifold" not in config:
        raise AtlasConfigError(
            "an atlas config is a JSON object with a 'manifold' key")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise AtlasConfigError(f"unknown atlas-config keys: {sorted(unknown)}")
    params = config.get("params", {})
    if set(params) - {"truncation_radius"}:
        raise AtlasConfigError("unknown atlas-config params")
    radius = _config_number(params.get("truncation_radius", 4.0),
                            "params.truncation_radius")
    atlas = _builtin_atlas(config["manifold"], radius)
    for key, rebuilt in atlas.to_config().items():
        if key != "params" and key in config and config[key] != rebuilt:
            raise AtlasConfigError(
                f"atlas-config key {key!r} is {config[key]!r}, but the "
                f"rebuilt {atlas.manifold} atlas has {rebuilt!r}")
    pou = None
    if "pou" in config:
        seeds = [_seed_from_config(s, atlas)
                 for s in config["pou"].get("seeds", [])]
        if len(seeds) != len(atlas.charts):
            raise AtlasConfigError(
                f"{atlas.manifold} has {len(atlas.charts)} charts, so its "
                f"pou needs as many bump seeds, got {len(seeds)}")
        pou = build_partition_of_unity(
            atlas, seeds, name=config["pou"].get("name", "custom"))
    return atlas, pou


def _config_number(value, what: str) -> float:
    if not isinstance(value, (int, float)):
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
    kind = "radial" if atlas.family == "stereo" else "box"
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
