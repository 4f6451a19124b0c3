"""Independent reference computations for pinning expected values.

Everything here goes through defining limits, finite differences, or brute
force on the Poincare disk -- never through the closed forms under test --
except the two-pass audit references at the end, which repeat the library's
own arithmetic with each point conjugated afresh, to pin bit-identity.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from horobary.barycenter import (
    BUSEMANN_MODE,
    ObjectiveSpec,
    SolverConfig,
    _atom_kernel,
    _auto_initial,
    _lse,
    _newton,
)
from horobary.extension import (
    MAIN_INEQ_SLACK,
    ArgmaxSet,
    BalanceReport,
    _audit,
    _image_dirs,
    conjugated_measure,
    extension_result,
)
from horobary.hyperboloid import (
    SpacePoint,
    _busemann,
    boundary_endpoint,
    boundary_geodesic,
    direction_to,
    dist,
    exp_map,
    flip,
    minkowski,
    origin,
    tangent_basis,
)
from horobary.measures import DiscreteMeasure, uniform_boundary_grid
from horobary.moebius import (
    MoebiusMetric,
    _derivative_from_separations,
    _metric_separations,
    _probe_rays,
    _ProbeFrame,
    metric_derivative,
)

RADIAL_T = 20.0
NM_RESTARTS = 10


def _ray_point(base, xi, t):
    """Raw coordinates of the point t units from base toward xi.

    Deliberately bypasses the SpacePoint constraint check: at t ~ 20 the
    coordinates are ~e^t and the quadratic form of the stored doubles is
    only accurate to about ulp(e^{2t}), far coarser than the constructor
    tolerance.  Distances taken below only need the bilinear form, whose
    relative error stays near machine precision.
    """
    u = direction_to(base, xi)
    return np.cosh(t) * u.base.coords + np.sinh(t) * u.dir


def _raw_dist(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    m = a[0] * b[0] - a[1:] @ b[1:]
    return np.arccosh(max(m, 1.0))


def busemann_limit(x, y, xi, t=RADIAL_T):
    """Defining limit d(x, a) - d(y, a) along the ray from y toward xi."""
    a = _ray_point(y, xi, t)
    return _raw_dist(x.coords, a) - t


def gromov_limit(x, xi, eta, t=RADIAL_T):
    """Defining limit (1/2)(d(x,a) + d(x,a') - d(a,a')) along rays from x."""
    a = _ray_point(x, xi, t)
    ap = _ray_point(x, eta, t)
    return 0.5 * (2.0 * t - _raw_dist(a, ap))


def visual_limit(x, xi, eta, t=RADIAL_T):
    return np.exp(-gromov_limit(x, xi, eta, t))


def cross_ratio_limit(xi, xip, eta, etap, t=RADIAL_T, anchor=None):
    """Defining limit exp((1/2)(d(a,b) + d(a',b') - d(a,b') - d(a',b)))."""
    if anchor is None:
        anchor = origin(xi.dim)
    a = _ray_point(anchor, xi, t)
    ap = _ray_point(anchor, xip, t)
    b = _ray_point(anchor, eta, t)
    bp = _ray_point(anchor, etap, t)
    return np.exp(
        0.5 * (_raw_dist(a, b) + _raw_dist(ap, bp) - _raw_dist(a, bp) - _raw_dist(ap, b))
    )


def bracketed_conjugacy(f, u):
    """Conjugated tangent of u under f by a bracketed root find.

    Solves the defining condition -- the derivative of the pushed metric of
    u.base against the visual metric of the base point equals 1 at the
    forward image -- along the image geodesic with brentq, doubling the
    bracket until the sign changes.  Unlike the library it assumes nothing
    about the slope of the log-derivative.
    """
    from scipy.optimize import brentq

    f_back = f(boundary_endpoint(flip(u)))
    f_fwd = f(boundary_endpoint(u))
    pushed = MoebiusMetric(u.base, f)

    def h(s):
        y = boundary_geodesic(f_back, f_fwd, s).base
        return float(np.log(metric_derivative(pushed, MoebiusMetric(y), f_fwd)))

    lo, hi = -1.0, 1.0
    for _ in range(60):
        if h(lo) >= 0.0 >= h(hi):
            break
        lo, hi = 2 * lo, 2 * hi
    else:
        raise ValueError("no sign change while bracketing the derivative condition")
    return boundary_geodesic(f_back, f_fwd, brentq(h, lo, hi, xtol=1e-13))


def directional_derivative(f, z, w, h=1e-5):
    """Central difference of a scalar field on the hyperboloid along w."""
    return (f(exp_map(z, h * np.asarray(w))) - f(exp_map(z, -h * np.asarray(w)))) / (2 * h)


def second_derivative(f, z, w, h=1e-3):
    """Second central difference of a scalar field along the geodesic exp_z(tw)."""
    return (f(exp_map(z, h * np.asarray(w))) - 2.0 * f(z) + f(exp_map(z, -h * np.asarray(w)))) / h**2


# ---------------------------------------------------------------------------
# Poincare-disk brute force.  The disk model is an entirely separate route:
# its own distance and horospherical formulas, minimized by exhaustive grid
# search plus local refinement.

def to_disk(x) -> np.ndarray:
    """Hyperboloid coordinates to Poincare-ball coordinates."""
    c = x.coords if hasattr(x, "coords") else np.asarray(x, float)
    return c[1:] / (1.0 + c[0])


def from_disk(q) -> SpacePoint:
    q = np.asarray(q, float)
    s = q @ q
    return SpacePoint(np.concatenate(([(1.0 + s)], 2.0 * q)) / (1.0 - s))


def _sq_dist(grid, q):
    # |row - q|^2 for each grid row, one coordinate column at a time: the
    # same sums as np.sum over the last axis, without its strided reduction
    return sum((grid[:, k] - q[k]) ** 2 for k in range(grid.shape[1]))


def _disk_gap(grid):
    # 1 - |row|^2 for each grid row
    return 1.0 - _sq_dist(grid, (0.0, 0.0))


def disk_cosh_excess(grid, q, grid_gap=None):
    """cosh d - 1 = 2|z - q|^2 / ((1 - |z|^2)(1 - |q|^2)) from each grid row z
    to the disk point q.

    grid_gap, when given, is 1 - |row|^2 for each grid row, so that callers
    measuring one grid against many points compute it once.
    """
    grid = np.asarray(grid, float)
    q = np.asarray(q, float)
    if grid_gap is None:
        grid_gap = _disk_gap(grid)
    return 2.0 * _sq_dist(grid, q) / (grid_gap * (1.0 - q @ q))


def disk_busemann_exp(grid, q, xi_unit):
    """exp B(z, q, xi) for each grid row z: the ratio of the horospherical
    potentials |xi - z|^2 / (1 - |z|^2) at z and at q."""
    grid = np.asarray(grid, float)
    q = np.asarray(q, float)
    xi_unit = np.asarray(xi_unit, float)
    at_q = np.sum((xi_unit - q) ** 2) / (1.0 - q @ q)
    return _sq_dist(grid, xi_unit) / _disk_gap(grid) / at_q


def _square_grid(center, half, step):
    axis = np.arange(-half, half + step / 2, step)
    gx, gy = np.meshgrid(center[0] + axis, center[1] + axis)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return grid[np.sum(grid**2, axis=-1) < 0.96**2]


@functools.lru_cache(maxsize=4)
def _full_disk_grid(half, step):
    # the level-0 grid is centred at the origin, so every search with the
    # same radius and step shares it
    grid = _square_grid(np.zeros(2), half, step)
    grid.flags.writeable = False
    return grid


def grid_minimize(objective, radius=0.92, step=1e-3):
    """argmin over a disk grid of spacing `step`, then two refinement passes.

    `objective` maps an (m, 2) array of disk points to (m,) values.
    Returns the best disk point found.
    """
    best = np.zeros(2)
    half = radius
    for level in range(3):
        grid = _full_disk_grid(half, step) if level == 0 else _square_grid(best, half, step)
        values = objective(grid)
        best = grid[int(np.argmin(values))]
        half = 3.0 * step
        step = step / 10.0
    return best


def oracle_p_barycenter(atoms, weights, p, step=1e-3):
    """Brute-force minimizer of the log cosh-distance p-mean on the disk."""
    disk_atoms = np.array([to_disk(a) for a in atoms])
    logw = np.log(np.asarray(weights, float))

    def objective(grid):
        gap = _disk_gap(grid)
        # log cosh d = log1p(cosh d - 1), with no arccosh to undo
        phi = np.stack([np.log1p(disk_cosh_excess(grid, a, gap)) for a in disk_atoms])
        terms = logw[:, None] + p * phi
        top = terms.max(axis=0)
        return (top + np.log(np.sum(np.exp(terms - top), axis=0))) / p

    return from_disk(grid_minimize(objective, step=step))


def _disk_minimax(objective, step):
    """argmin of a max-type disk objective: grid search, then a simplex.

    The max landscape is a kinked valley, quadratically flat along its
    floor, so a shrinking-window grid alone can stall several grid cells
    along the valley; a derivative-free simplex started from the grid answer
    finishes the localization.
    """
    from scipy.optimize import minimize as simplex

    coarse = grid_minimize(objective, step=step)

    def single(q):
        if q @ q >= 0.96**2:
            return np.inf
        return float(objective(q[None, :])[0])

    res = simplex(
        single,
        coarse,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
    )
    return from_disk(res.x)


def oracle_circumcenter(atoms, step=1e-3):
    """Brute-force minimax-distance point on the disk."""
    disk_atoms = np.array([to_disk(a) for a in atoms])

    def objective(grid):
        gap = _disk_gap(grid)
        # arccosh is increasing, so it is taken once, of the max
        excess = np.max(np.stack([disk_cosh_excess(grid, a, gap) for a in disk_atoms]), axis=0)
        return np.arccosh(1.0 + excess)

    return _disk_minimax(objective, step)


def oracle_asymptotic_circumcenter(bases, xi_units, step=2e-3):
    """Brute-force minimizer of the sup of horospherical displacements on
    the disk, for atoms given as in oracle_asymptotic_p_barycenter."""
    disk_bases = np.array([to_disk(y) for y in bases])

    def objective(grid):
        # log is increasing, so it is taken once, of the max
        return np.log(
            np.max(
                np.stack([disk_busemann_exp(grid, y, u) for y, u in zip(disk_bases, xi_units)]),
                axis=0,
            )
        )

    return _disk_minimax(objective, step)


def oracle_asymptotic_p_barycenter(bases, xi_units, weights, p, step=1e-3):
    """Brute-force minimizer of the exp-Busemann p-mean on the disk.

    Atoms are geodesics given by a base point and forward ideal endpoint
    (a Euclidean unit vector on the disk boundary).
    """
    disk_bases = np.array([to_disk(y) for y in bases])
    w = np.asarray(weights, float)

    def objective(grid):
        # the energy is log/p of the p-mean of exp B, which is increasing in
        # that mean; the mean overflows only for p far above the tests' own
        ratios = np.stack([disk_busemann_exp(grid, y, u) for y, u in zip(disk_bases, xi_units)])
        mean = w @ ratios**p
        if not np.all(np.isfinite(mean)):
            raise OverflowError(f"the exp-Busemann p-mean overflows at p = {p:g}")
        return mean

    return from_disk(grid_minimize(objective, step=step))


def doubling_extension(ctx, x, p):
    """The exponent-p extension at x by warm-started doubling: Newton solves
    at p = 2, 4, ..., each started from the last minimizer, then at p.

    A reference for minimize's ladder from p = 64, not for the solver: every
    rung is the library's own Newton solve, to the default tolerance and
    iteration cap.  Returns the minimizer and whether the solve at p
    converged.
    """
    spec = ObjectiveSpec(p, BUSEMANN_MODE, conjugated_measure(ctx, x))
    A, const, logw = _atom_kernel(spec)
    z = _auto_initial(spec)
    cfg = SolverConfig()
    for q in [2.0**k for k in range(1, 15) if 2.0**k < p] + [p]:
        z, grad_norm, _ = _newton(A, const, logw, q, z, cfg.grad_tol, cfg.max_iters)
    return SpacePoint(z), grad_norm <= cfg.grad_tol


def oracle_visual_projection(rho, cfg=None, grid_n=360):
    """The point whose visual metric is d_M-closest to rho, by direct
    derivative-free minimization of z -> max |log d rho_z / d rho| on the
    origin-centred boundary grid.

    A reference for moebius.nearest_visual_projection that shares none of
    its solver: Nelder-Mead in the tangent space at the start point
    (cfg.initial, else the image point, else rho's point), on the two-sided
    sup.  A finished descent is restarted from its result, up to
    NM_RESTARTS times, while the restart still lowers d_M.
    """
    from scipy.optimize import minimize as simplex

    dim = rho.x.dim
    rays = uniform_boundary_grid(grid_n, origin(dim)).coords
    if cfg is not None and cfg.initial is not None:
        base = cfg.initial
    elif rho.f is not None:
        base = SpacePoint(rho.f.matrix @ rho.x.coords)
    else:
        base = rho.x
    E = tangent_basis(base)
    if rho.is_visual:
        def log_derivative(z):
            return _busemann(rho.x.coords, z.coords, rays)
    else:
        fixed = _metric_separations(rho, rays, _probe_rays(dim))
        visual = _ProbeFrame(rays, _probe_rays(dim))

        def log_derivative(z):
            return np.log(_derivative_from_separations(visual.separations(z.coords), fixed))

    def objective(v):
        return float(np.max(np.abs(log_derivative(exp_map(base, v @ E)))))

    def descend(v0):
        return simplex(
            objective,
            v0,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000, "maxfev": 4000},
        )

    # the simplex can collapse short of the minimum, as it does in
    # dimension 3 from one start in four, so restart from each result with
    # a fresh simplex until d_M stops dropping by more than fatol
    res = descend(np.zeros(dim))
    for _ in range(NM_RESTARTS):
        again = descend(res.x)
        if again.fun >= res.fun - 1e-12:
            break
        res = again
    return exp_map(base, res.x @ E)


# ---------------------------------------------------------------------------
# Two-pass references for the audits: the solve at x and the conformal
# weights at x each conjugate x afresh, as the audits did before they shared
# one conjugated measure per point.  Same arithmetic, so the same bits.

def _two_pass_weights(ctx, x, z):
    images = ctx.f.apply_rays(ctx.base_measure.coords)
    return _busemann(z.coords, conjugated_measure(ctx, x).coords, images)


def two_pass_mu_x_p(ctx, x, p):
    """extension.mu_x_p with x conjugated twice."""
    z = extension_result(ctx, x, p).minimizer
    logits = np.log(ctx.base_measure.weights) + p * _two_pass_weights(ctx, x, z)
    logc = _lse(logits)
    weights = np.exp(logits - logc)
    weights = weights / weights.sum()
    r = weights @ _image_dirs(ctx, z)
    residual = math.sqrt(max(minkowski(r, r), 0.0))
    measure = DiscreteMeasure("boundary", ctx.base_measure.coords, weights)
    return measure, BalanceReport(z, residual, float(logc))


def two_pass_argmax_set(ctx, x, y, epsilon):
    """extension.argmax_set with x conjugated apart from any solve."""
    values = _two_pass_weights(ctx, x, y)
    keep = values >= float(np.max(values)) - epsilon
    members = [ctx.base_measure.atom(i) for i in np.flatnonzero(keep)]
    return ArgmaxSet(x, y, epsilon, members, _image_dirs(ctx, y)[keep])


def two_pass_main_inequality(ctx, pairs, p):
    """extension.main_inequality_audit at the context's pinching, each pair
    solved by two_pass_mu_x_p at x and extension_result at y."""
    b = ctx.model.b
    images = ctx.f.apply_rays(ctx.base_measure.coords)
    rows = []
    for x, y in pairs:
        measure, report = two_pass_mu_x_p(ctx, x, p)
        fx, fy = report.point, extension_result(ctx, y, p).minimizer
        bus = _busemann(fy.coords, fx.coords, images)
        d = dist(fx, fy)
        upper = float(measure.weights @ np.exp(bus))
        lower = float(measure.weights @ np.exp(b * bus))
        rows.append(
            {
                "distance": d,
                "cosh_distance": math.cosh(d),
                "exp_busemann_mean": upper,
                "curvature_side": lower,
                "violation": max(math.cosh(d) - upper, lower - math.cosh(b * d)),
            }
        )
    return _audit("main-inequality", [r["violation"] for r in rows], MAIN_INEQ_SLACK, rows)
