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
    AnnulusRegion, BoxRegion, Field, box_bump, radial_bump, radius_squared,
    smoothstep_expr,
)
from sobolev.funcexpr import (
    ONE, ZERO, Call, Const, Expr, Piecewise, Var, add, div, mul,
    prod_exprs, sub, subst_expr, sum_exprs,
)
from sobolev.quadrature import BoxDomain, midpoint_grid

__all__ = [
    "Atlas", "Chart", "PartitionOfUnity", "BumpSeed", "TransitionMap",
    "UnknownManifold", "CoverConditionError", "EmptyOverlap",
    "builtin_manifold", "build_partition_of_unity", "transition_map",
    "default_seeds", "alternate_seeds", "quasirandom_points",
    "MANIFOLD_NAMES", "atlas_from_config",
]

MANIFOLD_NAMES = ("s1-stereo", "s2-stereo", "torus1", "torus2")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class UnknownManifold(KeyError):
    pass


class CoverConditionError(ValueError):
    """Bump plateaus fail to cover the manifold; carries a witness point."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class EmptyOverlap(ValueError):
    pass


@dataclass
class Chart:
    """One coordinate chart with numeric forward/inverse maps.

    ``truncation`` is the compact coordinate box on which all numerics
    run; it contains the supports of every partition-of-unity function
    assigned to this chart.
    """

    name: str
    dim: int
    image_kind: str                      # "fullspace" | "ball" | "box"
    truncation: BoxDomain
    image_bounds: tuple | None = None    # box/ball descriptor data
    inverse_exprs: list[Expr] | None = None  # coords -> ambient, when closed form
    offsets: tuple | None = None         # torus cell offsets

    _to_chart: callable = None
    _to_manifold: callable = None
    _contains: callable = None

    def to_chart(self, ambient: np.ndarray) -> np.ndarray:
        return self._to_chart(np.asarray(ambient, dtype=float))

    def to_manifold(self, coords: np.ndarray) -> np.ndarray:
        return self._to_manifold(np.asarray(coords, dtype=float))

    def contains(self, ambient: np.ndarray) -> np.ndarray:
        return self._contains(np.asarray(ambient, dtype=float))

    def descriptor(self) -> dict:
        out = {"name": self.name, "image": self.image_kind,
               "truncation": self.truncation.to_json()}
        if self.image_bounds is not None:
            out["image_bounds"] = [list(b) for b in self.image_bounds]
        return out


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

    def chart_count(self) -> int:
        return len(self.charts)

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

    def local_representation(self, ambient_expr: Expr, chart_index: int) -> Field:
        """The function u written in the coordinates of one chart.

        For tori the ambient representative is coords mod 1, handled as a
        piecewise unit shift per axis; agreement across the seams (i.e.
        periodicity of the input) is the caller's contract, checked by
        sampling in the norm layer.
        """
        chart = self.charts[chart_index]
        if self.family == "stereo":
            mapping = {i + 1: chart.inverse_exprs[i]
                       for i in range(self.ambient_dim)}
            return Field(subst_expr(ambient_expr, mapping), self.dim)
        return _torus_local_rep(ambient_expr, chart, self.dim)

    def sample_points(self, m: int) -> np.ndarray:
        return quasirandom_points(self.manifold, m)


def _torus_local_rep(ambient_expr: Expr, chart: Chart, n: int) -> Field:
    # pieces: per-axis regions where coords - k lie in the unit cell
    pieces = []
    lo = [b[0] for b in chart.truncation.bounds]
    hi = [b[1] for b in chart.truncation.bounds]
    shift_ranges = []
    for ax in range(n):
        ks = [k for k in (-1, 0, 1) if not (hi[ax] - k <= 0.0 or lo[ax] - k >= 1.0)]
        shift_ranges.append(ks)
    for combo in itertools.product(*shift_ranges):
        mapping = {ax + 1: sub(Var(ax + 1), Const(Fraction(combo[ax])))
                   for ax in range(n)}
        region = BoxRegion([combo[ax] + 0.0 for ax in range(n)],
                           [combo[ax] + 1.0 for ax in range(n)],
                           lo_closed=True, hi_closed=False)
        pieces.append((region, subst_expr(ambient_expr, mapping)))
    out = ZERO
    for region, expr in reversed(pieces):
        out = Piecewise(region, expr, out)
    return Field(out, n)


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

    def field(self, n: int) -> Field:
        if self.kind == "radial":
            return radial_bump(n, self.plateau, self.support)
        return box_bump(n, self.center, Fraction(str(self.plateau)),
                        Fraction(str(self.support)))


@dataclass
class PartitionOfUnity:
    """Subordinate partition of unity; one field per chart, in that
    chart's coordinates."""

    atlas: Atlas
    name: str
    fields: list[Field]
    seeds: list[BumpSeed]

    def values_at(self, ambient: np.ndarray) -> np.ndarray:
        """psi_alpha at manifold points; shape (n_charts, m)."""
        ambient = np.asarray(ambient, dtype=float)
        out = np.zeros((len(self.fields), ambient.shape[0]))
        for a, (chart, f) in enumerate(zip(self.atlas.charts, self.fields)):
            mask = chart.contains(ambient)
            if mask.any():
                coords = chart.to_chart(ambient[mask])
                out[a, mask] = f.values(coords)
        return out

    def to_json(self) -> dict:
        return {"name": self.name, "seeds": [s.to_json() for s in self.seeds]}


def _pulled_bump(atlas: Atlas, seed: BumpSeed, beta: int, alpha: int) -> Expr:
    """eta_beta written in chart alpha's coordinates."""
    n = atlas.dim
    if alpha == beta:
        return seed.field(n).expr
    if atlas.family == "stereo":
        return _inverted_radial_bump(n, seed.plateau, seed.support)
    return _torus_pulled_bump(atlas, seed, beta, alpha)


def _inverted_radial_bump(n: int, plateau: float, support: float) -> Expr:
    # bump(1/|x|): plateau |x| >= 1/a, vanishing for |x| <= 1/b; smooth
    # across the origin because it is constant there.  Seam margins keep
    # the band expression away from the smoothstep endpoints (where the
    # profile is 1.0/0.0 to double precision anyway).
    a, b = float(plateau), float(support)
    seam = 1e-9
    r = Call("sqrt", radius_squared(n))
    tau = div(sub(Const(Fraction(b)), div(ONE, r)),
              Const(Fraction(b) - Fraction(a)))
    band = AnnulusRegion(1.0 / b * (1.0 + seam), 1.0 / a * (1.0 - seam),
                         lo_closed=False, hi_closed=False)
    return Piecewise(AnnulusRegion(1.0 / a * (1.0 - seam), None), ONE,
                     Piecewise(band, smoothstep_expr(tau), ZERO))


def _torus_pulled_bump(atlas: Atlas, seed: BumpSeed, beta: int,
                       alpha: int) -> Expr:
    """Periodized translate sum; at most one translate is active per
    point because bump supports are narrower than the unit cell."""
    n = atlas.dim
    trunc = atlas.charts[alpha].truncation
    terms = []
    for combo in itertools.product((-1, 0, 1), repeat=n):
        center = tuple(Fraction(str(c)) + k for c, k in zip(seed.center, combo))
        ok = True
        for ax, (lo, hi) in enumerate(trunc.bounds):
            c = float(center[ax])
            if c + seed.support <= lo or c - seed.support >= hi:
                ok = False
                break
        if ok:
            terms.append(box_bump(n, center, Fraction(str(seed.plateau)),
                                  Fraction(str(seed.support))).expr)
    return sum_exprs(terms)


def build_partition_of_unity(atlas: Atlas, seeds=None,
                             name: str = "default") -> PartitionOfUnity:
    """psi_1 = eta_1, psi_a = eta_a * prod_{b<a} (1 - eta_b).

    Raises :class:`CoverConditionError` (with a witness point) when the
    plateau sets fail to cover the manifold, detected as a sampled
    partition sum below 1 - 1e-9.
    """
    if seeds is None:
        seeds = default_seeds(atlas)
    if len(seeds) != len(atlas.charts):
        raise ValueError("one bump seed per chart is required")
    fields = []
    for a in range(len(atlas.charts)):
        factors = [_pulled_bump(atlas, seeds[a], a, a)]
        for b in range(a):
            factors.append(sub(ONE, _pulled_bump(atlas, seeds[b], b, a)))
        fields.append(Field(prod_exprs(factors), atlas.dim))
    pou = PartitionOfUnity(atlas, name, fields, list(seeds))

    pts = atlas.sample_points(2000)
    sums = pou.values_at(pts).sum(axis=0)
    worst = int(np.argmin(sums))
    if sums[worst] < 1.0 - 1e-9:
        raise CoverConditionError(
            f"bump plateaus do not cover the manifold: partition sum "
            f"{sums[worst]:.12f} at {pts[worst].tolist()}",
            pts[worst].tolist())
    return pou


def default_seeds(atlas: Atlas) -> list[BumpSeed]:
    if atlas.family == "stereo":
        return [BumpSeed("radial", 1.5, 3.0) for _ in atlas.charts]
    return [BumpSeed("box", 0.3, 0.45,
                     center=tuple(0.5 + off for off in chart.offsets))
            for chart in atlas.charts]


def alternate_seeds(atlas: Atlas) -> list[BumpSeed]:
    """A second, genuinely different subordinate family (for equivalence
    experiments)."""
    if atlas.family == "stereo":
        return [BumpSeed("radial", 1.1, 3.6) for _ in atlas.charts]
    return [BumpSeed("box", 0.27, 0.38,
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

    def __post_init__(self):
        pts, _, _ = _trunc_grid(self.atlas.charts[self.a], 8)
        if not self.domain_mask(pts).any():
            raise EmptyOverlap(
                f"charts {self.a} and {self.b} have no sampled overlap")

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
        if self.a == self.b:
            return np.broadcast_to(np.eye(n), (m, n, n)).copy()
        if self.atlas.family == "torus":
            return np.broadcast_to(np.eye(n), (m, n, n)).copy()
        # stereographic pair: inversion x / |x|^2
        r2 = np.sum(coords * coords, axis=1)
        if np.any(r2 == 0.0):
            raise ValueError("transition jacobian is undefined at the origin")
        eye = np.eye(n)
        outer = coords[:, :, None] * coords[:, None, :]
        return (eye[None, :, :] * r2[:, None, None] - 2.0 * outer) \
            / (r2 ** 2)[:, None, None]


def transition_map(atlas: Atlas, a: int, b: int) -> TransitionMap:
    return TransitionMap(atlas, a, b)


def _trunc_grid(chart: Chart, per_axis: int):
    return midpoint_grid(chart.truncation, (per_axis,) * chart.dim)


# ---------------------------------------------------------------------------
# Built-in manifolds
# ---------------------------------------------------------------------------

def _stereo_charts(dim: int, trunc_radius: float) -> list[Chart]:
    amb = dim + 1
    trunc = BoxDomain(tuple((-trunc_radius, trunc_radius) for _ in range(dim)))

    def make(sign: float, name: str) -> Chart:
        # sign=+1: project from (0,..,0,+1); chart formula x' / (1 - sign*z)
        def to_chart(ambient):
            denom = 1.0 - sign * ambient[:, -1]
            return ambient[:, :-1] / denom[:, None]

        def to_manifold(coords):
            r2 = np.sum(coords * coords, axis=1)
            denom = 1.0 + r2
            out = np.empty((coords.shape[0], amb))
            out[:, :-1] = 2.0 * coords / denom[:, None]
            out[:, -1] = sign * (r2 - 1.0) / denom
            return out

        def contains(ambient):
            return 1.0 - sign * ambient[:, -1] > 1e-12

        # inverse map as expressions, coords -> ambient
        r2 = radius_squared(dim)
        denom = add(ONE, r2)
        inv = [div(mul(Const(Fraction(2)), Var(ax)), denom)
               for ax in range(1, dim + 1)]
        last = div(sub(r2, ONE), denom)
        inv.append(last if sign > 0 else mul(Const(Fraction(-1)), last))

        return Chart(name=name, dim=dim, image_kind="fullspace",
                     truncation=trunc, inverse_exprs=inv,
                     _to_chart=to_chart, _to_manifold=to_manifold,
                     _contains=contains)

    return [make(+1.0, "minus-north-pole"), make(-1.0, "minus-south-pole")]


def _torus_charts(dim: int) -> list[Chart]:
    charts = []
    for offsets in itertools.product((0.0, 0.5), repeat=dim):
        lo = [o + 0.02 for o in offsets]
        hi = [o + 0.98 for o in offsets]
        image = tuple((o, o + 1.0) for o in offsets)

        def make(offsets=offsets):
            offs = np.array(offsets)

            def to_chart(ambient):
                rep = np.mod(ambient, 1.0)
                return rep + (rep < offs[None, :]) * 1.0

            def to_manifold(coords):
                return np.mod(coords, 1.0)

            def contains(ambient):
                rep = np.mod(ambient, 1.0)
                mask = np.ones(ambient.shape[0], dtype=bool)
                for ax, o in enumerate(offs):
                    seam = np.mod(o, 1.0)
                    mask &= np.abs(rep[:, ax] - seam) > 1e-12
                return mask

            return to_chart, to_manifold, contains

        to_chart, to_manifold, contains = make()
        name = "cell-" + "".join("b" if o else "a" for o in offsets)
        charts.append(Chart(name=name, dim=dim, image_kind="box",
                            truncation=BoxDomain(tuple(zip(lo, hi))),
                            image_bounds=image, offsets=offsets,
                            _to_chart=to_chart, _to_manifold=to_manifold,
                            _contains=contains))
    return charts


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
    if name == "s1-stereo":
        return Atlas(name, "stereo", 1, 2, _stereo_charts(1, trunc_radius),
                     "super nice", False, {"truncation_radius": trunc_radius})
    if name == "s2-stereo":
        return Atlas(name, "stereo", 2, 3, _stereo_charts(2, trunc_radius),
                     "super nice", False, {"truncation_radius": trunc_radius})
    if name == "torus1":
        return Atlas(name, "torus", 1, 1, _torus_charts(1), "GL", True, {})
    if name == "torus2":
        return Atlas(name, "torus", 2, 2, _torus_charts(2), "GL", True, {})
    raise UnknownManifold(f"unknown manifold {name!r}; "
                          f"known: {', '.join(MANIFOLD_NAMES)}")


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"schema", "kind", "manifold", "family", "dim",
                "classification", "gl_self_compatible", "params", "charts",
                "pou"}


def atlas_from_config(config: dict):
    """Rebuild a built-in-family atlas (and optional partition of unity)
    from its JSON descriptor.  Unknown keys are rejected."""
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown atlas-config keys: {sorted(unknown)}")
    name = config["manifold"]
    params = config.get("params", {})
    if set(params) - {"truncation_radius"}:
        raise ValueError("unknown atlas-config params")
    atlas = _builtin_atlas(name, float(params.get("truncation_radius", 4.0)))
    pou = None
    if "pou" in config:
        seeds = []
        for s in config["pou"].get("seeds", []):
            unknown = set(s) - {"kind", "plateau", "support", "center"}
            if unknown:
                raise ValueError(f"unknown bump-seed keys: {sorted(unknown)}")
            seeds.append(BumpSeed(s["kind"], float(s["plateau"]),
                                  float(s["support"]),
                                  tuple(s.get("center", ()))))
        pou = build_partition_of_unity(
            atlas, seeds, name=config["pou"].get("name", "custom"))
    return atlas, pou
