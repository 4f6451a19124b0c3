"""Boundary maps, Moebius metrics and their conformal derivatives, the
metric d_M on the Moebius class, and the induced conjugacy of geodesics.

Two map variants exist.  A matrix preserving the Minkowski form acts on
null rays and is genuinely Moebius; a warped variant composes it with a
Fourier reparametrization of the boundary circle and exists to be caught
by the cross-ratio gate, not to be extended.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .barycenter import SolverConfig, _minimax
from .hyperboloid import (
    BoundaryDirection,
    SpacePoint,
    UnitTangent,
    _busemann,
    _chord,
    _direction_rows,
    _endpoint_rows,
    _geodesic_rows,
    _point_rows,
    _tangent_rows,
    _visual,
    busemann,
    cross_ratio,
    dist,
    minkowski,
    origin,
)
from .measures import DiscreteMeasure, uniform_boundary_grid

LORENTZ_TOL = 1e-10
MOEBIUS_GATE = 1e-6
DERIV_CONDITION_TOL = 1e-8
PROJECTION_PASSES = 4    # grid re-centrings in nearest_visual_projection


def _minkowski_J(n):
    J = np.eye(n)
    J[0, 0] = -1.0
    return J


def _lorentz_inverse(g):
    # J g^T J, the inverse of a matrix g that preserves the Minkowski form;
    # built per call, as storing it would add a matrix to every map kept
    J = _minkowski_J(g.shape[0])
    return J @ g.T @ J


@dataclass(frozen=True)
class BoundaryMap:
    """A boundary correspondence: matrix action on null rays, optionally
    post-composed with an angular warp (dimension 2 only)."""

    variant: str
    matrix: np.ndarray
    warp: np.ndarray | None = field(default=None)

    def __post_init__(self):
        g = np.array(self.matrix, float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 3:
            raise ValueError("matrix must be square, at least 3x3")
        J = _minkowski_J(g.shape[0])
        if np.max(np.abs(g.T @ J @ g - J)) > LORENTZ_TOL:
            raise ValueError("matrix does not preserve the Minkowski form")
        if g[0, 0] <= 0:
            raise ValueError("matrix reverses the time orientation")
        if self.variant == "lorentz":
            if self.warp is not None:
                raise ValueError("lorentz maps carry no warp")
            warp = None
        elif self.variant == "perturbed":
            if g.shape[0] != 3:
                raise ValueError(
                    "warped maps are only defined on the boundary circle; "
                    "in higher dimensions restrict to a planar slice"
                )
            warp = np.asarray(self.warp, float).ravel()
            if warp.size == 0:
                raise ValueError("perturbed map needs warp coefficients")
            orders = np.repeat(np.arange(1, warp.size // 2 + 2), 2)[: warp.size]
            if np.sum(orders * np.abs(warp)) >= 1.0:
                raise ValueError("warp is too strong to stay a bijection")
            warp = warp.copy()
            warp.flags.writeable = False
        else:
            raise ValueError(f"unknown variant {self.variant!r}")
        g.flags.writeable = False
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "warp", warp)

    @property
    def dim(self):
        return self.matrix.shape[0] - 1

    @functools.cached_property
    def gate_deviation(self):
        """Cross-ratio deviation on the probe quadruples.  The map is frozen
        and its arrays are read-only, so it is computed once per map."""
        return cross_ratio_deviation(self, probe_quadruples(self.dim))

    @classmethod
    def identity(cls, dim=2):
        return cls("lorentz", np.eye(dim + 1))

    def __call__(self, xi):
        return BoundaryDirection(self.apply_rays(xi.coords[None, :])[0])

    def apply_rays(self, rays):
        """Vectorized forward map on an (m, n+1) array of null rays."""
        out = np.asarray(rays, float) @ self.matrix.T
        out = out / out[:, :1]
        if self.warp is not None:
            theta = np.arctan2(out[:, 2], out[:, 1])
            theta = theta + self._warp_shift(theta)
            out = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)], axis=1)
        return out

    def _warp_shift(self, theta):
        shift = np.zeros_like(theta)
        for i, c in enumerate(self.warp):
            k = i // 2 + 1
            shift += c * (np.cos(k * theta) if i % 2 == 0 else np.sin(k * theta))
        return shift

    def inverse(self, xi):
        """Inverse evaluation; exact for the matrix, root-found for the warp."""
        return BoundaryDirection(self.inverse_rays(xi.coords[None, :])[0])

    def inverse_rays(self, rays):
        """Vectorized inverse map on an (m, n+1) array of null rays."""
        rays = np.asarray(rays, float)
        if self.warp is not None:
            rays = np.stack([self._unwarp(r) for r in rays])
        out = rays @ _lorentz_inverse(self.matrix).T
        return out / out[:, :1]

    def _unwarp(self, ray):
        # the ray on the circle whose warped angle is the angle of ray
        from scipy.optimize import brentq

        target = math.atan2(ray[2], ray[1])
        amp = float(np.sum(np.abs(self.warp)))

        def h(t):
            return t + float(self._warp_shift(np.array([t]))[0]) - target

        # the warp moves angles by at most amp, and h is increasing
        lo, hi = target - amp - 1e-9, target + amp + 1e-9
        if h(lo) > 0 or h(hi) < 0:
            raise ValueError("warp inversion lost its bracket")
        t = brentq(h, lo, hi, xtol=1e-14)
        return np.array([1.0, math.cos(t), math.sin(t)])


@dataclass(frozen=True)
class MoebiusMetric:
    """A metric in the Moebius class of the visual metrics: either the
    visual metric of a point or the pushforward of one under a map."""

    x: SpacePoint
    f: BoundaryMap | None = field(default=None)

    @property
    def is_visual(self):
        return self.f is None

    def _preimage_rays(self, rays):
        if self.f is None:
            return np.asarray(rays, float)
        return self.f.inverse_rays(rays)


def metric_eval(rho, xi, eta):
    """rho(xi, eta), through stored preimages for a pushforward."""
    a = rho._preimage_rays(xi.coords[None, :])
    b = rho._preimage_rays(eta.coords[None, :])
    return float(_visual(rho.x.coords, a, b)[0])


# ---------------------------------------------------------------------------
# cross-ratio gate

def probe_quadruples(dim=2):
    """Deterministic quadruples used to test maps for Moebius-ness."""
    grid = uniform_boundary_grid(12, origin(dim))
    atoms = grid.atoms
    quads = []
    for i in range(3):
        quads.append((atoms[i], atoms[i + 3], atoms[i + 6], atoms[i + 9]))
    for i in range(3):
        quads.append((atoms[i], atoms[i + 1], atoms[i + 5], atoms[i + 8]))
    return quads


def cross_ratio_deviation(f, quadruples):
    """Max over samples of |log CR(f quad) - log CR(quad)|."""
    worst = 0.0
    for quad in quadruples:
        before = math.log(cross_ratio(*quad))
        after = math.log(cross_ratio(*(f(xi) for xi in quad)))
        worst = max(worst, abs(after - before))
    return worst


def _require_moebius(f, context):
    if f is None:
        return
    dev = f.gate_deviation
    if dev > MOEBIUS_GATE:
        raise ValueError(
            f"{context} needs a Moebius map; cross-ratio deviation {dev:.3e} "
            f"exceeds the {MOEBIUS_GATE:g} gate"
        )


# ---------------------------------------------------------------------------
# conformal derivatives and d_M

@functools.lru_cache(maxsize=None)
def _probe_rays(dim):
    return uniform_boundary_grid(8, origin(dim)).coords


class _ProbeFrame:
    """Rays and probe rays in one metric's coordinates, with the spatial
    chords between them; only the observer's pairings change per point."""

    def __init__(self, rays, probes):
        self.rays = rays
        self.probes = probes
        self.ray_chords = _chord(rays[None], probes[:, None])
        self.probe_chords = _chord(probes[:, None], probes[None])[..., None]

    def separations(self, x):
        """Visual metric of x from every ray to every probe, shape (probes,
        rays), and between every two probes, shape (probes, probes, rays).

        x is one point or one point per ray; for one point the probe table
        is a broadcast view along the last axis.
        """
        qr = -minkowski(self.rays, x)
        qp = -minkowski(self.probes[:, None], x)
        # the visual metric of _visual, on chords computed once per frame
        ray_probe = np.sqrt(self.ray_chords / (2.0 * qr * qp))
        probe_probe = np.sqrt(self.probe_chords / (2.0 * qp[:, None] * qp[None, :]))
        return ray_probe, np.broadcast_to(probe_probe, probe_probe.shape[:2] + qr.shape)


def _metric_separations(rho, rays, probes):
    frame = _ProbeFrame(rho._preimage_rays(rays), rho._preimage_rays(probes))
    return frame.separations(rho.x.coords)


def _derivative_from_separations(seps2, seps1):
    """d rho2 / d rho1 at each ray, closed through two auxiliary probes.

    seps2 and seps1 are the _ProbeFrame.separations tables of the two
    metrics on the same rays.  The mean-value identity rho2(u,v)^2 = D(u) D(v)
    rho1(u,v)^2 applied to (xi, a), (xi, b), (a, b) eliminates the
    auxiliary derivatives; per ray, the two probes most separated from it
    in both metrics keep every factor of the identity away from zero.
    """
    (r2, r2pp), (r1, r1pp) = seps2, seps1
    order = np.argsort(-np.minimum(r1, r2), axis=0)
    a, b = order[0], order[1]
    cols = np.arange(r1.shape[1])
    return (r2[a, cols] * r2[b, cols] * r1pp[a, b, cols]) / (
        r1[a, cols] * r1[b, cols] * r2pp[a, b, cols]
    )


def _derivative_on_rays(rho2, rho1, rays):
    """d rho2 / d rho1 at each ray of an (m, n+1) array."""
    rays = np.asarray(rays, float)
    probes = _probe_rays(rays.shape[1] - 1)
    return _derivative_from_separations(
        _metric_separations(rho2, rays, probes), _metric_separations(rho1, rays, probes)
    )


def metric_derivative(rho2, rho1, xi):
    """d rho2 / d rho1 at xi; Moebius-ness of any maps involved is gated."""
    if rho2.is_visual and rho1.is_visual:
        return math.exp(busemann(rho1.x, rho2.x, xi))
    _require_moebius(rho2.f, "metric derivative")
    _require_moebius(rho1.f, "metric derivative")
    return float(_derivative_on_rays(rho2, rho1, xi.coords[None, :])[0])


def dM_distance(rho1, rho2, grid):
    """Grid-sampled sup of |log d(rho2)/d(rho1)|; the reported value grows
    monotonically under grid refinement."""
    rays = grid.coords if isinstance(grid, DiscreteMeasure) else np.asarray(grid, float)
    if rays.shape[0] == 0:
        raise ValueError("d_M needs a non-empty grid")
    _require_moebius(rho1.f, "d_M")
    _require_moebius(rho2.f, "d_M")
    if rho1.is_visual and rho2.is_visual:
        logd = _busemann(rho1.x.coords, rho2.x.coords, rays)
    else:
        logd = np.log(_derivative_on_rays(rho2, rho1, rays))
    return float(np.max(np.abs(logd)))


# ---------------------------------------------------------------------------
# geodesic conjugacy

def _conjugate_rows(f, x, back, fwd):
    """Conjugated tangents of the geodesics back[i] -> fwd[i] through the
    observer x, as re-projected base points and directions, one row each.

    Row i lies on the geodesic from f(back[i]) to f(fwd[i]) at the
    arclength s where h(s), the log-derivative of the pushed metric of x
    against the visual metric of the base point, vanishes at f(fwd[i]).
    h has slope exactly -1 in the standard parametrization, so s = h(0).
    The pushed metric's separations are computed once for all rows and the
    visual side with one observer per row.  A row whose residual h(s)
    exceeds DERIV_CONDITION_TOL takes one more step s + h(s); a row that
    still fails raises ValueError.
    """
    _require_moebius(f, "geodesic conjugacy")
    fF = f.apply_rays(fwd)
    fB = f.apply_rays(back)
    probes = _probe_rays(x.dim)
    pushed = _metric_separations(MoebiusMetric(x, f), fF, probes)
    visual = _ProbeFrame(fF, probes)

    def log_derivative(observers):
        return np.log(_derivative_from_separations(pushed, visual.separations(observers)))

    y0, _ = _geodesic_rows(fB, fF, np.zeros(len(fF)))
    s = log_derivative(y0)
    bases, tangents = _geodesic_rows(fB, fF, s)
    residual = log_derivative(bases)
    # written so that a NaN row fails the check too
    redo = ~(np.abs(residual) <= DERIV_CONDITION_TOL)
    if redo.any():
        again, tangents_again = _geodesic_rows(fB, fF, s + residual)
        bases[redo], tangents[redo] = again[redo], tangents_again[redo]
        residual = log_derivative(bases)
        failed = np.flatnonzero(~(np.abs(residual) <= DERIV_CONDITION_TOL))
        if failed.size:
            i = failed[0]
            raise ValueError(
                f"geodesic conjugacy: row {i} misses the derivative condition by "
                f"{residual[i]:.3e} after the correction step "
                f"(tolerance {DERIV_CONDITION_TOL:g})"
            )
    bases = _point_rows(bases)
    return bases, _tangent_rows(bases, tangents)


def geodesic_conjugacy(f, u):
    """Carry a unit tangent through the boundary map.

    The image lies on the geodesic between the mapped endpoints, at the
    unique point where the conformal derivative of the pushed metric of
    u.base against the local visual metric equals 1 in the forward
    direction.  This is the one-row case of conjugacy_footpoints.
    """
    x, d = u.base.coords[None, :], u.dir[None, :]
    bases, tangents = _conjugate_rows(f, u.base, _endpoint_rows(x, -d), _endpoint_rows(x, d))
    return UnitTangent(SpacePoint(bases[0]), tangents[0])


def conjugacy_footpoints(f, x, grid):
    """The tangent measure of the conjugated tangents of x -> xi over a
    boundary grid, in grid order and with the grid's weights.

    The backward endpoints of the rays x -> xi are built from the grid in
    one array pass, and all rows are conjugated at once as in
    geodesic_conjugacy; the measure validates the rows all at once.
    """
    rays_fwd = grid.coords
    back = _endpoint_rows(x.coords, -_direction_rows(x.coords, rays_fwd))
    bases, tangents = _conjugate_rows(f, x, back, rays_fwd)
    return DiscreteMeasure("tangent", bases, grid.weights, tangents)


# ---------------------------------------------------------------------------
# nearest visual metric

def nearest_visual_projection(rho, cfg=None, grid_n=360):
    """The point whose visual metric is d_M-closest to rho.

    With L_i(z) = log d rho_z / d rho at the rays xi_i of a boundary grid,
    -L_i(z) = log(-<z, xi_i>) + kappa_i, where kappa_i = log d rho / d rho_o
    depends on rho alone: the Busemann function for a visual rho, the probe
    identity of _derivative_on_rays for a pushforward.  max_i -L_i(z) is
    then the p = infinity energy with rows b_i = e^kappa_i xi_i, solved by
    barycenter._minimax with cfg's grad_tol and max_iters.  On the
    continuum this one-sided max equals max |L|, the d_M distance; a grid
    that leaves a gap as seen from the answer loses that, so the grid is
    centred at the start point (cfg.initial, else the image point, else
    rho's point) and re-centred at each answer, until an answer moves by at
    most 1e-9 or PROJECTION_PASSES solves have run.  Nothing here touches
    the conjugacy machinery, so the result stays an independent check of
    the extension constructions.
    """
    _require_moebius(rho.f, "nearest visual projection")
    cfg = cfg or SolverConfig()
    o = origin(rho.x.dim)
    if cfg.initial is not None:
        z = cfg.initial.coords
    elif rho.f is not None:
        z = rho.f.matrix @ rho.x.coords
    else:
        z = rho.x.coords
    for _ in range(PROJECTION_PASSES):
        centre = SpacePoint(z)
        grid = uniform_boundary_grid(grid_n, centre)
        if rho.is_visual:
            kappa = _busemann(o.coords, rho.x.coords, grid.coords)
        else:
            kappa = np.log(_derivative_on_rays(rho, MoebiusMetric(o), grid.coords))
        B = grid.coords * np.exp(kappa)[:, None]
        z = _minimax(B, z, grid.weights, cfg.grad_tol, cfg.max_iters)[0]
        if dist(SpacePoint(z), centre) <= 1e-9:
            break
    return SpacePoint(z)


# ---------------------------------------------------------------------------
# JSON interchange

def map_to_dict(f):
    out = {
        "variant": f.variant,
        "matrix": f.matrix.tolist(),
    }
    if f.warp is not None:
        out["warp"] = {"type": "fourier", "coeffs": f.warp.tolist()}
    return out


def map_from_dict(data):
    try:
        variant = data["variant"]
        matrix = np.array(data["matrix"], float)
        warp = None
        if variant == "perturbed":
            w = data["warp"]
            if w.get("type", "fourier") != "fourier":
                raise ValueError(f"unknown warp type {w.get('type')!r}")
            warp = np.array(w["coeffs"], float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed boundary map object: {exc}") from exc
    return BoundaryMap(variant, matrix, warp)
