"""Hyperboloid model of n-dimensional hyperbolic space.

Points live on the upper sheet {<x,x> = -1, x0 > 0} of the unit hyperboloid
in Minkowski space R^{n,1}, with bilinear form <u,v> = -u0*v0 + sum_i ui*vi.
Ideal boundary points are future null rays, stored normalized to xi0 = 1.
Every geometric quantity here is a closed form in Minkowski products, which
stays well conditioned arbitrarily close to the boundary.

Each closed form has one body: a private array core on raw coordinate rows
(_busemann, _chord, _visual, _direction_rows, _endpoint_rows,
_geodesic_rows, _tangent_rows, _point_rows, _basis, _exp_coords).  The
cores build no typed value and validate nothing.  The typed public
functions are one-row views of the cores: they pass their arguments'
coordinates as single rows and validate the result by building a typed
value (SpacePoint, BoundaryDirection, UnitTangent), whose checks NaN and
inf fail.  The array layers and the solver loops call the cores directly;
the solvers check each trial point with _on_sheet, SpacePoint's own check
on raw coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Constraint residual tolerated on stored coordinates.
CONSTRAINT_TOL = 1e-10
# Drift threshold beyond which composite operations re-project their output.
RENORM_TOL = 1e-12


def minkowski(u, v):
    """Minkowski product -u0*v0 + u1*v1 + ... along the last axis."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.add.reduce(u[..., 1:] * v[..., 1:], axis=-1) - u[..., 0] * v[..., 0]


@dataclass(frozen=True)
class ModelConfig:
    """Ambient parameters: dimension n of H^n and the pinching constant b.

    The realized curvature is always -1; b >= 1 only enters audit formulas
    that evaluate both sides of b-dependent inequalities.
    """

    dim: int = 2
    b: float = 1.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.b < 1.0:
            raise ValueError(f"b must be >= 1, got {self.b}")


@dataclass(frozen=True, eq=False)
class SpacePoint:
    """A point of H^n in Minkowski coordinates: <x,x> = -1, x0 > 0."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if c.ndim != 1 or c.size < 3:
            raise ValueError("coords must be a flat (n+1)-vector with n >= 2")
        c = _on_sheet(c).copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.size - 1


@dataclass(frozen=True, eq=False)
class BoundaryDirection:
    """An ideal boundary point: a future null ray, normalized so xi0 = 1.

    Any positive multiple of a future null vector is accepted; the
    constructor rescales it, so all operations are invariant under
    positive rescaling of their boundary inputs.
    """

    coords: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if c.ndim != 1 or c.size < 3:
            raise ValueError("coords must be a flat (n+1)-vector with n >= 2")
        if not c[0] > 0.0:
            raise ValueError("null vector is not future-pointing (xi0 <= 0)")
        c = c / c[0]
        res = minkowski(c, c)
        # written so that NaN fails it; an infinite entry makes res NaN or inf
        if not abs(res) <= CONSTRAINT_TOL:
            raise ValueError(f"coords are not on the null cone (<xi,xi> = {res:g})")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.size - 1

    @property
    def unit(self) -> np.ndarray:
        """Spatial part; a Euclidean unit vector on the sphere of directions."""
        return self.coords[1:]


@dataclass(frozen=True, eq=False)
class UnitTangent:
    """A unit tangent vector (base, dir): <dir,dir> = 1, <base,dir> = 0.

    Doubles as the complete unit-speed geodesic
    gamma(t) = cosh(t)*base + sinh(t)*dir.
    """

    base: SpacePoint
    dir: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.dir, dtype=float))
        if d.shape != self.base.coords.shape:
            raise ValueError("dir shape does not match base point")
        x = self.base.coords
        nres = minkowski(d, d) - 1.0
        ores = minkowski(x, d)
        dd = d @ d
        ntol = CONSTRAINT_TOL * max(1.0, dd)
        otol = CONSTRAINT_TOL * max(1.0, math.sqrt((x @ x) * dd))
        # written so that NaN fails it; an infinite entry would meet the
        # relative tolerances, so dd must be finite too
        if not (abs(nres) <= ntol and abs(ores) <= otol and dd < math.inf):
            raise ValueError(
                f"dir is not unit tangent at base (<d,d>-1 = {nres:g}, <x,d> = {ores:g})"
            )
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "dir", d)

    @property
    def dim(self) -> int:
        return self.base.dim


def _on_sheet(c: np.ndarray) -> np.ndarray:
    """The SpacePoint check on raw coordinates: returns c, or raises.

    Kept beside the row check of measures._check_rows: one point is checked
    several times faster here, and the solvers check every trial point.
    """
    # each comparison is written so that NaN fails it
    if not c[0] > 0.0:
        raise ValueError("point is not on the future sheet (x0 <= 0)")
    res = minkowski(c, c) + 1.0
    # the constraint is checked relative to the magnitude of the products
    # entering the quadratic form: beyond x0 ~ 1e3 a double vector cannot
    # satisfy it to 1e-10 absolute, only to scale * eps; an infinite entry
    # makes the scale infinite, which would pass any residual
    scale = max(1.0, c @ c)
    if not (abs(res) <= CONSTRAINT_TOL * scale and scale < math.inf):
        raise ValueError(f"coords are off the hyperboloid (<x,x>+1 = {res:g})")
    return c


def origin(dim: int = 2) -> SpacePoint:
    """The basepoint o = (1, 0, ..., 0) of H^dim."""
    c = np.zeros(dim + 1)
    c[0] = 1.0
    return SpacePoint(c)


# ---------------------------------------------------------------------------
# renormalization helpers: composite operations drift off the constraint
# surfaces by rounding; re-project only past RENORM_TOL so exact inputs
# pass through bit-identically.

def _reproject(c: np.ndarray) -> np.ndarray:
    # _point_rows on one point, kept as its own body because the damped
    # Newton step calls it on every trial point
    # a point whose -<c, c> has lost its sign to rounding raises here
    q = minkowski(c, c)
    if abs(q + 1.0) > RENORM_TOL * max(1.0, c @ c):
        c = c / math.sqrt(-q)
    return c


def _point(c: np.ndarray) -> SpacePoint:
    return SpacePoint(_reproject(c))


def _tangent(base: SpacePoint, d: np.ndarray) -> UnitTangent:
    return UnitTangent(base, _tangent_rows(base.coords[None, :], d[None, :])[0])


def _sq_rows(a: np.ndarray) -> np.ndarray:
    """Euclidean squared norm of each row: c @ c row by row."""
    return np.einsum("ij,ij->i", a, a)


def _point_rows(c: np.ndarray) -> np.ndarray:
    """_point on every row of an (m, n+1) array, returning a new array.

    Validation is left to the caller (DiscreteMeasure checks all rows).
    """
    q = minkowski(c, c)
    fix = np.abs(q + 1.0) > RENORM_TOL * np.maximum(1.0, _sq_rows(c))
    c = c.copy()
    c[fix] /= np.sqrt(-q[fix])[:, None]
    return c


def _tangent_rows(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Re-project every row pair of two (m, n+1) arrays of base points and
    directions to a unit tangent, returning new directions; validation as
    in _point_rows."""
    scale = RENORM_TOL * np.maximum(1.0, _sq_rows(d))
    fix = (np.abs(minkowski(d, d) - 1.0) > scale) | (np.abs(minkowski(x, d)) > scale)
    d = d.copy()
    xf, df = x[fix], d[fix]
    df = df + minkowski(df, xf)[:, None] * xf
    d[fix] = df / np.sqrt(minkowski(df, df))[:, None]
    return d


# ---------------------------------------------------------------------------
# distances, geodesics, boundary

def dist(x: SpacePoint, y: SpacePoint) -> float:
    """Geodesic distance arccosh(-<x,y>).

    Evaluated through the chord, <x-y, x-y> = 4 sinh^2(d/2), which stays
    fully accurate for nearby points where arccosh(-<x,y>) loses half its
    digits to cancellation.
    """
    delta = x.coords - y.coords
    q = minkowski(delta, delta)
    return 2.0 * math.asinh(0.5 * math.sqrt(max(q, 0.0)))


def geodesic_point(u: UnitTangent, t: float) -> SpacePoint:
    """The point gamma(t) on the geodesic carried by u."""
    return _point(math.cosh(t) * u.base.coords + math.sinh(t) * u.dir)


def geodesic_flow(u: UnitTangent, t: float) -> UnitTangent:
    """Flow u for time t along its geodesic: (gamma(t), gamma'(t))."""
    b = math.cosh(t) * u.base.coords + math.sinh(t) * u.dir
    d = math.sinh(t) * u.base.coords + math.cosh(t) * u.dir
    return _tangent(_point(b), d)


def flip(u: UnitTangent) -> UnitTangent:
    """Reverse the direction of travel: (base, dir) -> (base, -dir)."""
    return UnitTangent(u.base, -u.dir)


def boundary_endpoint(u: UnitTangent) -> BoundaryDirection:
    """The forward ideal endpoint gamma(+inf), the null direction of base + dir."""
    return BoundaryDirection(_endpoint_rows(u.base.coords[None, :], u.dir[None, :])[0])


def _endpoint_rows(bases: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """boundary_endpoint of every row pair of base points and directions,
    as rays normalized to a leading 1; validation as in _point_rows."""
    c = bases + dirs
    c = c / c[:, :1]
    # base + dir is null in exact arithmetic, but the cancellation when the
    # leading component is small (a ray pointing nearly back past the
    # origin from a far base) leaves a defect; renormalizing the spatial
    # part restores the cone exactly
    c[:, 1:] /= np.linalg.norm(c[:, 1:], axis=1, keepdims=True)
    return c


def direction_to(x: SpacePoint, xi: BoundaryDirection) -> UnitTangent:
    """The unit tangent at x pointing at xi; inverse of boundary_endpoint on T^1_x."""
    return UnitTangent(x, _direction_rows(x.coords, xi.coords[None, :])[0])


def _direction_rows(x: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """direction_to from one point to every row of an (m, n+1) array of
    rays, as raw directions; validation as in _point_rows."""
    return rays / -minkowski(x, rays)[:, None] - x


def antipode(x: SpacePoint, xi: BoundaryDirection) -> BoundaryDirection:
    """The ideal point diametrically opposite xi as seen from x."""
    return boundary_endpoint(flip(direction_to(x, xi)))


def busemann(x: SpacePoint, y: SpacePoint, xi: BoundaryDirection) -> float:
    """Horospherical displacement B(x, y, xi) = lim_{a -> xi} d(x,a) - d(y,a).

    Closed form log(<x,xi>/<y,xi>); both products are negative, their ratio
    positive, and the value is independent of the scaling of xi.
    """
    return float(_busemann(x.coords, y.coords, xi.coords))


def _busemann(x: np.ndarray, y: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """busemann for every row of an array of rays; x and y are one point
    each, or one point per ray."""
    return np.log(minkowski(rays, x) / minkowski(rays, y))


def _chord(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # half the squared spatial chord of paired rows of rays: -<a, b> for
    # rays normalized to a leading 1, up to the null defect of the stored
    # coords, and exactly zero on identical rays
    delta = a[..., 1:] - b[..., 1:]
    return 0.5 * np.sum(delta * delta, axis=-1)


def gromov_product(x: SpacePoint, xi: BoundaryDirection, eta: BoundaryDirection) -> float:
    """The product (xi|eta)_x = -log rho_x(xi, eta) >= 0; +inf when the two
    rays coincide."""
    r = visual_metric(x, xi, eta)
    return -math.log(r) if r > 0.0 else math.inf


def visual_metric(x: SpacePoint, xi: BoundaryDirection, eta: BoundaryDirection) -> float:
    """rho_x(xi, eta) = exp(-(xi|eta)_x), the diameter-one visual metric at x.

    Exactly 0.0 for coincident rays.
    """
    return float(_visual(x.coords, xi.coords, eta.coords))


def _visual(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """visual_metric of x on paired rows of two arrays of rays."""
    return np.sqrt(_chord(a, b) / (2.0 * minkowski(a, x) * minkowski(b, x)))


def cross_ratio(
    xi: BoundaryDirection,
    xip: BoundaryDirection,
    eta: BoundaryDirection,
    etap: BoundaryDirection,
) -> float:
    """Quadruple ratio rho(xi,eta)*rho(xi',eta') / (rho(xi,eta')*rho(xi',eta)).

    The basepoint factors of rho_x cancel, leaving a pure Minkowski-product
    expression; the value is independent of the choice of basepoint.
    """
    n_ab = -minkowski(xi.coords, eta.coords)
    n_apbp = -minkowski(xip.coords, etap.coords)
    n_abp = -minkowski(xi.coords, etap.coords)
    n_apb = -minkowski(xip.coords, eta.coords)
    if min(n_ab, n_apbp, n_abp, n_apb) <= 0.0:
        raise ValueError("degenerate quadruple")
    return math.sqrt((n_ab * n_apbp) / (n_abp * n_apb))


def comparison_angle(
    k: float, x: SpacePoint, xi: BoundaryDirection, eta: BoundaryDirection
) -> float:
    """Angle at x between xi and eta in the curvature -k^2 comparison model.

    Defined through sin(theta/2) = rho_x(xi, eta)^k; k = 1 recovers the
    Riemannian angle of this constant-curvature model.  rho = 0 gives 0.
    """
    if k <= 0.0:
        raise ValueError("comparison curvature parameter k must be positive")
    r = visual_metric(x, xi, eta)
    return 2.0 * math.asin(min(r**k, 1.0))


# ---------------------------------------------------------------------------
# first and second derivatives of Busemann functions

def busemann_gradient(z: SpacePoint, eta: BoundaryDirection) -> np.ndarray:
    """Gradient of B(., y, eta) at z: the unit vector -(z -> eta)."""
    return -direction_to(z, eta).dir


def busemann_hessian(z: SpacePoint, eta: BoundaryDirection, w) -> float:
    """Second derivative d2 B^eta_z(w, w) for a tangent vector w at z.

    In curvature -1 this equals <w,w> - <w, grad B>^2, the squared norm of
    the component of w orthogonal to the radial direction z -> eta.
    """
    w = np.asarray(w, dtype=float)
    g = busemann_gradient(z, eta)
    return float(minkowski(w, w) - minkowski(w, g) ** 2)


# ---------------------------------------------------------------------------
# tangent-space calculus

def tangent_projection(x: SpacePoint, v) -> np.ndarray:
    """Project an ambient vector onto the tangent space at x."""
    v = np.asarray(v, dtype=float)
    return v + minkowski(v, x.coords) * x.coords


def tangent_basis(x: SpacePoint) -> np.ndarray:
    """Minkowski-orthonormal basis of T_x, one row per basis vector.

    Built by projecting the spatial coordinate axes and orthogonalizing;
    the tangent metric is positive definite so this never degenerates.
    """
    return _basis(x.coords)


def _basis(x: np.ndarray) -> np.ndarray:
    # tangent_basis on raw coordinates
    n = x.size - 1
    rows = []
    for k in range(1, n + 1):
        v = np.zeros(n + 1)
        v[k] = 1.0
        v = v + minkowski(v, x) * x
        for e in rows:
            v = v - minkowski(v, e) * e
        v = v / math.sqrt(minkowski(v, v))
        rows.append(v)
    return np.array(rows)


def exp_map(x: SpacePoint, v) -> SpacePoint:
    """Follow the geodesic from x with initial velocity v for unit time."""
    c = _exp_coords(x.coords, np.asarray(v, dtype=float))
    return x if c is x.coords else SpacePoint(c)


def _exp_coords(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    # exp_map on raw coordinates, re-projected but not validated
    r2 = minkowski(v, v)
    if r2 <= 0.0:
        # tangent vectors are spacelike; <=0 only for the zero vector + rounding
        return x
    r = math.sqrt(r2)
    return _reproject(math.cosh(r) * x + (math.sinh(r) / r) * v)


def log_map(x: SpacePoint, y: SpacePoint) -> np.ndarray:
    """Tangent vector at x reaching y under exp_map; length dist(x, y)."""
    d = dist(x, y)
    if d == 0.0:
        return np.zeros_like(x.coords)
    u = y.coords - math.cosh(d) * x.coords
    return (d / math.sinh(d)) * u


def boundary_geodesic(
    xi: BoundaryDirection, eta: BoundaryDirection, s: float
) -> UnitTangent:
    """Unit tangent at arclength s on the geodesic from xi (s -> -inf) to eta.

    The parametrization is the unique unit-speed one with
    B(gamma(s), gamma(0), eta) = -s.
    """
    if not minkowski(xi.coords, eta.coords) < 0.0:
        raise ValueError("coincident ideal endpoints span no geodesic")
    b, d = _geodesic_rows(xi.coords[None, :], eta.coords[None, :], np.array([s], float))
    return _tangent(_point(b[0]), d[0])


def _geodesic_rows(back: np.ndarray, fwd: np.ndarray, s: np.ndarray):
    """boundary_geodesic row by row: base points and directions at
    arclength s[i] on the geodesic from back[i] to fwd[i], not re-projected."""
    r = np.sqrt(-2.0 * minkowski(back, fwd))[:, None]
    em, ep = np.exp(-s)[:, None], np.exp(s)[:, None]
    return (em * back + ep * fwd) / r, (ep * fwd - em * back) / r
