"""Sobolev-Slobodeckij norms on Euclidean boxes by midpoint quadrature.

Everything runs on uniform cell-midpoint grids: the L^p norm is a plain
composite midpoint rule, integer-order norms combine midpoint rules of
analytic derivatives, and the fractional seminorm

    |u|_{theta,p}^p = integral integral |u(x)-u(y)|^p / |x-y|^{n+theta p}

is a midpoint rule over the grid of cell pairs with exact-diagonal pairs
excluded.  The excluded diagonal is integrable (theta < 1); a local
Lipschitz model for its contribution enters the error estimate but never
the value.  The pair kernel depends only on the index offset of a pair:
for p = 2 the double sum is a block-Toeplitz product taken by FFT in
O(M log M) for M = N^n cells; for any other p all M^2/2 pairs are
visited, one kernel block per axis-0 offset, by products for an integer
p <= 8.  On that path axis 0, whatever its length, is folded into
trailing blocks of at most 64 cells, padded by fewer zero cells than it
has folded rows (their pairs count 0); each block of differences is one
batched rank-2 product, which keeps the bits of a subtraction, and
each chunk of |u_i - u_j|^p is reduced against its kernel block by one
matrix-vector product; temporaries hold about 32 K values.  The work
buffers of both paths start on a 64-byte boundary: malloc aligns to 16
bytes only, and an operand that splits cache lines slows the kernel by
about a quarter, by heap state.
Defaults: N=256 (n=1), N=64 (n=2).

Every norm route of the package, the manifold ones included, takes its
two grids from :func:`_ladder` (k cells per axis and k // 2) and its
(value, coarse value, error) as one :class:`Estimate`, built only here:
:func:`_two_grid` for one term (|value - coarse| plus, for a fractional
seminorm, the diagonal model) and :func:`_total` for a sum of terms.  A
box norm (:func:`sobolev_norm`, of which :func:`lp_norm` is the s = 0
term) samples each grid in one evaluation program, so it holds R x M
float64 values for the R roots of its fine grid: d^nu u for |nu| <= k
and, at a fractional order, the first partials of each top-order
d^nu u.  A zero extension (:func:`extend_by_zero`) is an expression like
any other.

All inputs are immutable during computation and the evaluation order is
fixed, making every value reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from sobolev import ArgumentError, Report
from sobolev.fields import BoxRegion
from sobolev.funcexpr import ZERO, Expr, Piecewise, eval_many

__all__ = [
    "BoxDomain", "SupportViolation", "Estimate",
    "lp_norm", "gagliardo_seminorm", "sobolev_norm", "extend_by_zero",
    "gagliardo_double_sum", "multi_indices", "grid_shape",
]


class SupportViolation(ValueError):
    """The declared compact support leaks onto the boundary margin."""


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned product of closed bounded intervals with interior."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", b)
        for lo, hi in b:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ArgumentError("box bounds must be finite")
            if not lo < hi:
                raise ArgumentError(f"empty interval [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.bounds)

    @property
    def volume(self) -> float:
        v = 1.0
        for lo, hi in self.bounds:
            v *= hi - lo
        return v

    def interior(self, pts: np.ndarray) -> np.ndarray:
        """Mask of the points strictly inside the box."""
        return BoxRegion(*zip(*self.bounds), closed=False).contains(pts)

    def to_json(self):
        return [list(b) for b in self.bounds]


def grid_shape(n: int, N=None, order: float = 0) -> tuple[int, ...]:
    """Per-axis cell counts from N: one count for every axis, a per-axis
    tuple, or None for the default (256 cells for n=1, 64 per axis
    otherwise).  A count is an integer, a numpy one too; any other is
    refused, never truncated.

    This is the grid rule of every norm route.  Every axis needs at
    least 2 cells, because the two-grid error estimate halves each
    count, and at least 4 at a fractional ``order``, whose double sum is
    also taken on the halved grid.
    """
    if N is None:
        N = 256 if n == 1 else 64
    try:
        shape = tuple(map(operator.index, (N,) * n if np.ndim(N) == 0 else N))
    except TypeError:
        raise ArgumentError(f"grid resolution must be integer cell counts, "
                            f"got {N!r}") from None
    if len(shape) != n:
        raise ArgumentError(
            "per-axis resolution length must match dimension")
    need = 4 if order % 1 else 2
    if min(shape) < need:
        raise ArgumentError(f"grid resolution must be at least {need} per "
                            f"axis, got {list(shape)}")
    return shape


def _ladder(sample, shape: tuple[int, ...]):
    """(sample(shape), sample(coarse)) with coarse the grid of k // 2
    cells per axis: a route's samples on the two grids of its two-grid
    error estimate, each sampled once, the bits of separate runs there."""
    return sample(shape), sample(tuple(k // 2 for k in shape))


def midpoint_grid(box: BoxDomain, shape: tuple[int, ...]):
    """Cell midpoints (row-major), cell volume, per-axis spacings."""
    axes = []
    hs = []
    for (lo, hi), k in zip(box.bounds, shape):
        h = (hi - lo) / k
        axes.append(lo + (np.arange(k) + 0.5) * h)
        hs.append(h)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    cellvol = float(np.prod(hs))
    return pts, cellvol, np.array(hs)


class Estimate(NamedTuple):
    """A route's value on the fine and the coarse grid, and its error."""

    value: float
    coarse: float
    error: float


def _two_grid(value, coarse, model=0.0) -> Estimate:
    """One term's estimate: the error is |value - coarse| + ``model``."""
    return Estimate(value, coarse, abs(value - coarse) + model)


def _total(terms) -> Estimate:
    """The estimate of a sum: each field added up in term order."""
    total = Estimate(0.0, 0.0, 0.0)
    for term in terms:
        total = Estimate(*map(operator.add, total, term))
    return total


def _norm_report(est: Estimate, terms, grid, extras=None, **where) -> Report:
    """The report of a norm route from its estimate (``rep.estimate``); a
    manifold route's ``manifold``, ``atlas`` and ``pou`` go between the
    value and the terms, and empty ``extras`` are left out."""
    kind = "manifold_norm_report" if where else "norm_report"
    rep = Report(kind, value=est.value, **where, terms=terms, grid=grid,
                 error_estimate=est.error,
                 **({"extras": extras} if extras else {}))
    rep.estimate = est
    return rep


def _check_p(p: float):
    p = float(p)
    if not (p > 1 and math.isfinite(p)):
        raise ArgumentError(
            f"integrability p must be finite and > 1, got {p}")
    return p


def _check_order(s: float, name: str = "s"):
    """The order rule of every norm route: ``s`` finite and >= 0."""
    s = float(s)
    if not (s >= 0 and math.isfinite(s)):
        raise ArgumentError(
            f"order {name} must be finite and >= 0, got {s}")
    return s


# ---------------------------------------------------------------------------
# L^p norm
# ---------------------------------------------------------------------------

def _lp(vals: np.ndarray, cellvol: float, p: float) -> float:
    return float(np.sum(np.abs(vals) ** p) * cellvol) ** (1.0 / p)


def lp_norm(u, box: BoxDomain, p: float = 2.0, N=None) -> Report:
    """Composite-midpoint L^p norm of an expression: the one term of
    :func:`sobolev_norm` at s = 0, reported as an ``lp`` term."""
    rep = sobolev_norm(u, box, 0, p, N)
    return _norm_report(rep.estimate, [{"kind": "lp", "p": rep.terms[0]["p"],
                                         "value": rep.value}], rep.grid)


# ---------------------------------------------------------------------------
# Gagliardo seminorm
# ---------------------------------------------------------------------------

def _offset_kernel(box: BoxDomain, shape, alpha: float) -> np.ndarray:
    """|o h|^(-alpha) at the offsets o = -(k-1)..k-1 (index o + k - 1) of
    every axis, h the spacing of that axis; 0 at o = 0, the diagonal."""
    axes = [np.arange(1 - k, k) * ((hi - lo) / k)
            for (lo, hi), k in zip(box.bounds, shape)]
    d2 = sum(x * x for x in np.meshgrid(*axes, indexing="ij", sparse=True))
    d2[tuple(k - 1 for k in shape)] = np.inf
    return d2 ** (-alpha / 2.0)


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of ``shape`` that starts
    on a 64-byte boundary.  malloc aligns numpy's buffers to 16 bytes only,
    and an operand off a cache line splits every 64-byte vector access."""
    n = math.prod(shape)
    raw = np.empty(n + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + n].reshape(shape)


_NEAR = 8  # near-field radius of the p = 2 path, in finest-axis spacings
_BUFFER = 1 << 15  # values per temporary of a pair sum (256 KB): in cache


def _fft_pair_sum(u: np.ndarray, K: np.ndarray, alpha: float) -> float:
    """sum_{i != j} K[i-j] (u_i - u_j)^2 for the offset kernel K ~ |o|^-alpha.

    Offsets within _NEAR spacings of the finest axis carry the largest
    kernel values and are summed directly (:func:`_near_field`).  The rest
    is 2 sum_i u_i ((K1)_i u_i - (Ku)_i), whose Toeplitz products are
    circular convolutions of period 2k per axis (the embedding needs
    2k - 1; an even length FFTs faster).  Its roundoff scales with the
    largest kernel value left in it, so the direct near field keeps the
    sum within about 1e-14 of pair-by-pair summation.
    """
    # flat index c is offset 0, and the offsets after it in flat order are
    # one of each pair o, -o
    c = K.size // 2
    near = K >= K.max() * _NEAR**-alpha
    near.flat[:c + 1] = False
    direct = _near_field(u, np.where(near, K, 0.0))
    K = np.where(near | near[(slice(None, None, -1),) * K.ndim], 0.0, K)
    axes = tuple(range(1, u.ndim + 1))
    size = [2 * k for k in u.shape]
    kernel = np.fft.ifftshift(np.pad(K, [(1, 0)] * u.ndim))
    spectrum = np.fft.rfftn(np.stack([u, np.ones_like(u)]), s=size, axes=axes)
    conv = np.fft.irfftn(spectrum * np.fft.rfftn(kernel), s=size, axes=axes)
    Ku, K1 = conv[(slice(None),) + tuple(slice(0, k) for k in u.shape)]
    return 2.0 * (direct + float(np.sum(u * (K1 * u - Ku))))


def _near_field(u: np.ndarray, W: np.ndarray) -> float:
    """sum_o W[o] sum_i (u_{i+o} - u_i)^2 over the offsets o where W, a
    kernel on the offset lattice, is not 0, and the i with i + o in the
    grid.  One difference per axis-0 offset a covers all its trailing
    offsets through a window of u, in blocks of rows of about _BUFFER
    values that reuse one buffer, 64-byte aligned (:func:`_aligned`)
    since malloc aligns to 16 bytes and split cache lines slow it."""
    if u.ndim == 1:
        u, W = u[:, None], W[:, None]
    k0, rest, m = u.shape[0], u.shape[1:], u.ndim - 1
    nz = np.nonzero(W)
    radius = [int(np.abs(i - k + 1).max()) for i, k in zip(nz[1:], rest)]
    grid = tuple(slice(q, q + k) for k, q in zip(rest, radius))
    pad = np.zeros((k0,) + tuple(k + 2 * q for k, q in zip(rest, radius)))
    pad[(slice(None),) + grid] = u
    on = np.zeros(pad.shape[1:], dtype=bool)
    on[grid] = True
    # win[r, j, w] = u[r, j + w - radius] where inside[j, w], else 0
    window = tuple(2 * q + 1 for q in radius)
    win = as_strided(pad, (k0,) + rest + window,
                     pad.strides + pad.strides[1:], writeable=False)
    inside = as_strided(on, rest + window, on.strides * 2, writeable=False)
    lattice = W[(slice(None),) + tuple(slice(k - 1 - q, k + q)
                                       for k, q in zip(rest, radius))]
    u = u.reshape(u.shape + (1,) * m)
    buf = _aligned((max(_BUFFER, inside.size),))
    total = 0.0
    for row in np.flatnonzero(lattice.reshape(2 * k0 - 1, -1).any(axis=1)):
        a = row - (k0 - 1)
        box = (Ellipsis,) + tuple(slice(i.min(), i.max() + 1)
                                  for i in np.nonzero(lattice[row]))
        wa = lattice[row][box] * inside[box]
        rows = max(1, _BUFFER // wa.size)
        for r0 in range(0, k0 - a, rows):
            r1 = min(r0 + rows, k0 - a)
            w = win[r0 + a:r1 + a][box]
            d = buf[:w.size].reshape(w.shape)
            np.subtract(w, u[r0:r1], out=d)
            d *= d
            total += float(np.vdot(d.sum(axis=0), wa))
    return total


_FOLD = 64  # widest trailing block that axis 0 is folded into
_MAX_PRODUCT_P = 8  # the largest integer p taken by repeated products


def _offset_pair_sum(u: np.ndarray, K: np.ndarray, p: float,
                     m: int | None = None) -> float:
    """sum_{i != j} K[i-j] |u_i - u_j|^p: twice the pairs (r, j), (r+a, j')
    of axis-0 offsets a >= 0, each against one kernel block over the
    flattened trailing axes (at a = 0 its strict upper triangle).

    Axis 0 is folded first into (q, m), the offset a m + b, by default
    into q = ceil(k0 / m0) rows of m = ceil(k0 / q) cells, m0 the most
    (at least 1) that keeps a block at most _FOLD wide.  Axis 0 and K gain
    the q m - k0 < q zero cells and kernel rows this takes, and the pairs
    of a pad cell count 0.  A block of differences u_{r+a, j'} - u_{r, j}
    is one batched product [1, -u_r] [u_{r+a}, 1] of rank 2: both terms
    are exact and their sum is rounded once, so it has the bits of the
    subtraction.  |u_i - u_j|^p goes into two reused buffers of _BUFFER
    values, by a square and products for an integer p <= _MAX_PRODUCT_P,
    else by np.power, and a chunk of R rows is reduced by one product
    of its (R, F) view with the flattened block: five passes over the
    chunk at p = 3.  Both buffers and the block start on a 64-byte
    boundary (:func:`_aligned`), since malloc aligns to 16 bytes and
    split cache lines slow the kernel."""
    k0, rest = u.shape[0], u.shape[1:]
    if m is None:
        m = min(k0, max(1, _FOLD // math.prod(rest)))
    q = -(-k0 // m)
    m = -(-k0 // q)
    pad = q * m - k0
    u = np.pad(u, [(0, pad)] + [(0, 0)] * len(rest))
    K = np.pad(K, [(pad, pad)] + [(0, 0)] * len(rest))
    outer, inner = np.ogrid[1 - q:q, 1 - m:m]
    slabs = K[outer * m + inner + q * m - 1].reshape(2 * q - 1, -1)
    rest = (m,) + rest
    # flat[j, j'] indexes the trailing offset j' - j within one slab
    lattice = np.arange(slabs.shape[1]).reshape([2 * k - 1 for k in rest])
    g = lattice[tuple(slice(0, k) for k in rest)].ravel()
    flat = lattice[tuple(k - 1 for k in rest)] + g[None, :] - g[:, None]
    u = u.reshape(q, g.size)
    valid = (m - pad) * g.size // m  # real cells of the last row
    ones = np.ones_like(u)
    left = np.stack([ones, -u], axis=-1)
    right = np.stack([u, ones], axis=1)
    rows = max(1, _BUFFER // flat.size)
    chunk = (rows,) + flat.shape
    d_buf, e_buf, blk = _aligned(chunk), _aligned(chunk), _aligned(flat.shape)
    total = 0.0
    for a in range(q):
        np.take(slabs[q - 1 + a], flat, out=blk, mode="wrap")
        if a == 0:
            blk[np.tril_indices(g.size)] = 0.0
        for r0 in range(0, q - a, rows):
            r1 = min(r0 + rows, q - a)
            d, e = d_buf[:r1 - r0], e_buf[:r1 - r0]
            np.matmul(left[r0:r1], right[r0 + a:r1 + a], out=d)
            if r1 == q - a:
                d[-1, :, valid:] = 0.0
            np.abs(d, out=d)
            if p == int(p) <= _MAX_PRODUCT_P:
                np.square(d, out=e)
                for _ in range(int(p) - 2):
                    np.multiply(e, d, out=e)
            else:
                np.power(d, p, out=e)
            total += float((e.reshape(r1 - r0, -1) @ blk.ravel()).sum())
    return 2.0 * total


def _pair_sum(vals: np.ndarray, box: BoxDomain, shape, cellvol: float,
              theta: float, p: float) -> float:
    """:func:`gagliardo_double_sum` of the grid values ``vals``."""
    vals = vals.reshape(shape)
    alpha = box.n + theta * p
    K = _offset_kernel(box, shape, alpha)
    if p == 2.0:
        u = vals - vals.flat[0]  # so that a constant is exactly 0
        total = max(_fft_pair_sum(u - np.mean(u), K, alpha), 0.0)
    else:
        total = _offset_pair_sum(vals, K, p)
    return total * cellvol * cellvol


def gagliardo_double_sum(u, box: BoxDomain, theta: float,
                         p: float, N=None) -> float:
    """Raw midpoint double sum over distinct cell pairs (no 1/p power).

    The kernel |x - y|^-(n + theta p) of a pair depends only on its index
    offset and is built once on the offset lattice.  For p = 2 the sum
    takes O(M log M) for M cells by FFT, applied to u minus its mean (the
    sum is shift invariant; this bounds cancellation) and clamped at 0;
    for any other p every pair is visited, one block per axis-0 offset,
    by products for an integer p <= 8, with axis 0 folded into trailing
    blocks of at most 64 cells (padded by zero cells whose pairs count 0),
    differences taken as batched rank-2 products with the bits of a
    subtraction, each chunk reduced by one matrix-vector product, and
    temporaries of about 32 K values.  Both paths keep their work
    buffers 64-byte aligned, since malloc aligns to 16 bytes and split
    cache lines slow the kernel; the bits do not depend on where the
    heap puts them.
    """
    p = _check_p(p)
    if not (0.0 < theta < 1.0):
        raise ArgumentError(
            f"theta must lie strictly in (0, 1), got {theta}")
    shape = grid_shape(box.n, N)
    pts, cellvol, _ = midpoint_grid(box, shape)
    vals = u.values(pts)
    return _pair_sum(vals, box, shape, cellvol, theta, p)


def _diagonal_model(grads, box: BoxDomain, theta: float, p: float, shape):
    """Upper bound for the excluded diagonal cells via a Lipschitz model,
    from the first partials ``grads`` of u on the grid of ``shape``.

    Each diagonal cell pair contributes at most
    L^p * c(n, theta, p) * h^(n + p(1-theta)) with L the local gradient
    magnitude; summed over cells this is O(h^{p(1-theta)}) total.
    """
    n = box.n
    hmax = max((hi - lo) / k for (lo, hi), k in zip(box.bounds, shape))
    lp_grad = sum(g * g for g in grads) ** (p / 2.0)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    c = omega * math.sqrt(n) ** (p * (1.0 - theta)) / (p * (1.0 - theta))
    return float(np.sum(lp_grad) * c * hmax ** (n + p * (1.0 - theta)))


def _seminorm(S: float, S_coarse: float, D: float, p: float) -> Estimate:
    """The estimate of a seminorm from its double sums S and S_coarse on
    the two grids and its diagonal model D."""
    value, coarse = S ** (1.0 / p), S_coarse ** (1.0 / p)
    return _two_grid(value, coarse, (S + D) ** (1.0 / p) - value)


def gagliardo_seminorm(u, box: BoxDomain, theta: float, p: float = 2.0,
                       N=None) -> Report:
    """Fractional-smoothness seminorm by the cell-pair midpoint rule.

    The exact-diagonal pairs are excluded from the value; a Lipschitz
    model of their contribution, from the first partials of u sampled in
    one program, is folded into ``error_estimate`` together with a
    two-grid difference.
    """
    p = _check_p(p)
    shape = grid_shape(box.n, N, theta)
    S, S_coarse = _ladder(
        lambda shp: gagliardo_double_sum(u, box, theta, p, shp), shape)
    pts, _, _ = midpoint_grid(box, shape)
    grads = [u.partial(ax) for ax in range(1, box.n + 1)]
    D = _diagonal_model(eval_many(grads, pts).T, box, theta, p, shape)
    est = _seminorm(S, S_coarse, D, p)
    return _norm_report(
        est, [{"kind": "gagliardo", "theta": float(theta), "p": p,
               "value": est.value}],
        {"box": box.to_json(), "resolution": list(shape)},
        {"diagonal_model": D,
         "two_grid_difference": abs(est.value - est.coarse)})


# ---------------------------------------------------------------------------
# Full Sobolev-Slobodeckij norm
# ---------------------------------------------------------------------------

def multi_indices(n: int, upto: int):
    """All multi-indices of order <= upto in n variables, graded lexicographic."""
    out = []
    for total in range(upto + 1):
        for combo in itertools.product(range(total + 1), repeat=n):
            if sum(combo) == total:
                out.append(combo)
    return out


def _derivative(u: Expr, nu) -> Expr:
    for ax, k in enumerate(nu, start=1):
        for _ in range(k):
            u = u.partial(ax)
    return u


def sobolev_norm(u, box: BoxDomain, s: float, p: float = 2.0,
                 N=None) -> Report:
    """W^{s,p} norm: lower-order L^p terms plus top-order fractional terms.

    value = sum_{|nu| <= k} ||d^nu u||_p  +  sum_{|nu| = k} |d^nu u|_{theta,p}
    with k = floor(s), theta = s - k.  Each grid samples every derivative
    in one program, and each term equals :func:`lp_norm` or
    :func:`gagliardo_seminorm` of its d^nu u bit for bit.  ``extras`` also
    carries the equivalent full Slobodeckij form, which counts the L^p norm
    of each top-order derivative once more inside its fractional term, and
    its ratio to ``value``; its error is not estimated.  ``coarse`` is the
    value at N // 2, the :func:`_total` of the coarse grid's terms: the
    bits of a separate call there.
    """
    s = _check_order(s)
    p = _check_p(p)
    shape = grid_shape(box.n, N, s)
    k = int(math.floor(s))
    theta = s - k

    nus = multi_indices(box.n, k)
    tops = [theta > 0.0 and sum(nu) == k for nu in nus]
    derivs = [_derivative(u, nu) for nu in nus]
    # each top-order d^nu u is followed by its diagonal model's gradient,
    # so a failing domain check raises what the per-derivative order did
    fine_roots = [r for d, top in zip(derivs, tops) for r in
                  [d] + [d.partial(ax) for ax in range(1, box.n + 1) if top]]

    def sample(shp):
        pts, cellvol, _ = midpoint_grid(box, shp)
        roots = fine_roots if shp == shape else derivs
        return iter(eval_many(roots, pts).T), shp, cellvol
    (fine, _, cellvol), (coarse, shape_c, cellvol_c) = _ladder(sample, shape)

    terms, ests = [], []
    top_lp = 0.0  # the L^p norms of the top-order derivatives, summed
    for nu, top in zip(nus, tops):
        vals, vals_c = next(fine), next(coarse)
        lp, lp_c = _lp(vals, cellvol, p), _lp(vals_c, cellvol_c, p)
        ests.append(_two_grid(lp, lp_c))
        terms.append({"kind": "lp", "multi_index": list(nu), "p": p,
                      "value": lp})
        if top:
            top_lp += lp
            D = _diagonal_model([next(fine) for _ in range(box.n)], box,
                                theta, p, shape)
            S_c = _pair_sum(vals_c, box, shape_c, cellvol_c, theta, p)
            ests.append(_seminorm(
                _pair_sum(vals, box, shape, cellvol, theta, p), S_c, D, p))
            terms.append({"kind": "gagliardo", "multi_index": list(nu),
                          "theta": theta, "p": p, "value": ests[-1].value})

    est = _total(ests)
    value_full = est.value + top_lp
    extras = {"variant": "seminorm", "seminorm_variant_value": est.value,
              "full_variant_value": value_full}
    if est.value > 0:
        extras["variant_ratio"] = value_full / est.value
    grid = {"box": box.to_json(), "resolution": list(shape)}
    return _norm_report(est, terms, grid, extras)


# ---------------------------------------------------------------------------
# Extension by zero
# ---------------------------------------------------------------------------

_SUPPORT_TOL = 1e-9  # the largest |u| extend_by_zero accepts on the margin


def extend_by_zero(u, inner: BoxDomain, N=None) -> Expr:
    """The zero extension of a compactly supported function to any larger
    box: ``Piecewise(open inner box, u, 0)``, an expression like any other.

    ``u`` must vanish (within ``_SUPPORT_TOL`` = 1e-9) on the outermost
    cell layer of the inner grid of ``N`` and on probe points of the inner
    box's boundary facets; otherwise :class:`SupportViolation`.
    """
    shape = grid_shape(inner.n, N)
    pts, _, _ = midpoint_grid(inner, shape)
    vals = u.values(pts).reshape(shape)
    worst = max(float(np.max(np.abs(np.take(vals, [0, -1], axis=ax))))
                for ax in range(inner.n))
    worst = max(worst, float(np.max(np.abs(u.values(_boundary_probe(inner))))))
    if worst > _SUPPORT_TOL:
        raise SupportViolation(
            f"|u| reaches {worst:.3e} on the support margin of the inner box "
            f"(tolerance {_SUPPORT_TOL:.1e})")
    return Piecewise(BoxRegion(*zip(*inner.bounds), closed=False), u, ZERO)


def _boundary_probe(box: BoxDomain):
    """Deterministic probe points, 64 on each boundary facet."""
    t = (np.arange(64) + 0.5) / 64
    pts = []
    for ax in range(box.n):
        for side in (0, 1):
            pts.append(np.stack([
                np.full_like(t, (lo, hi)[side]) if j == ax
                else lo + t * (hi - lo)
                for j, (lo, hi) in enumerate(box.bounds)], axis=1))
    return np.concatenate(pts, axis=0)
