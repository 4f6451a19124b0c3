"""Barycentric extension of boundary maps into the interior.

A boundary map plus a reference boundary measure induce, at every interior
point, a weighted family of conjugated tangents; minimizing the associated
exponential-Busemann energies extends the map.  The finite-exponent
extensions interpolate toward the circumcenter extension, and the audits
here check the balance, derivative, comparison, and rigidity statements
that make that limit work.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .barycenter import (
    BUSEMANN_MODE,
    ObjectiveSpec,
    _basis_coords,
    _lse,
    _pairings,
    minimize,
)
from .hyperboloid import (
    ModelConfig,
    SpacePoint,
    _busemann,
    busemann,
    direction_to,
    dist,
    exp_map,
    log_map,
    minkowski,
    tangent_basis,
)
from .measures import DiscreteMeasure
from .moebius import (
    BoundaryMap,
    _require_moebius,
    conjugacy_footpoints,
    geodesic_conjugacy,
)

BALANCE_TOL = 1e-8
MAIN_INEQ_SLACK = 1e-9
LIPSCHITZ_SLACK = 1e-8
ISOMETRY_TOL = 1e-6
INVERSE_TOL = 1e-6
HULL_SLACK = 1e-9
EPS_ARGMAX = 1e-4
IMAGE_DISTINCT_TOL = 1e-9


@dataclass(frozen=True)
class ExtensionContext:
    """Frozen bundle of the data defining one extension problem."""

    f: BoundaryMap
    base_measure: DiscreteMeasure
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.base_measure.kind != "boundary":
            raise ValueError("base measure must live on the boundary")
        if len(self.base_measure) < 2:
            raise ValueError("base measure needs at least two atoms")
        if self.f.dim != self.base_measure.dim or self.f.dim != self.model.dim:
            raise ValueError("dimension mismatch between map, measure, and model")
        _require_moebius(self.f, "extension context")
        images = self.f.apply_rays(self.base_measure.coords)
        spread = np.max(images, axis=0) - np.min(images, axis=0)
        if np.max(spread) <= IMAGE_DISTINCT_TOL:
            raise ValueError("the map collapses every atom to one direction")


@dataclass(frozen=True)
class BalanceReport:
    """Balance defect of a boundary measure at a point, with the log of the
    exponential-weight normalizer that produced the measure."""

    point: SpacePoint
    residual: float
    normalizer: float

    def __post_init__(self):
        if self.residual < 0.0:
            raise ValueError("residual is a norm, cannot be negative")


@dataclass(frozen=True)
class ArgmaxSet:
    """Atoms within epsilon of the maximal conformal weight for (center,
    candidate), together with the candidate-side image directions."""

    center: SpacePoint
    candidate: SpacePoint
    epsilon: float
    members: list
    image_dirs: np.ndarray

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not self.members:
            raise ValueError("argmax set cannot be empty")


@dataclass(frozen=True)
class HullCertificate:
    """Outcome of the convex-hull feasibility check at a candidate point."""

    feasible: bool
    weights: np.ndarray
    min_norm: float
    separator: np.ndarray | None


# ---------------------------------------------------------------------------
# conjugated data and conformal weights

def conjugated_measure(ctx, x):
    """The tangent measure of conjugated directions x -> atom under f."""
    return conjugacy_footpoints(ctx.f, x, ctx.base_measure)


def conformal_weight(ctx, x, z, xi):
    """log of the derivative of the pushed visual metric of x against the
    visual metric of z, evaluated at f(xi)."""
    y = geodesic_conjugacy(ctx.f, direction_to(x, xi))
    return busemann(z, y.base, ctx.f(xi))


def _conformal_weights(ctx, foots, z):
    """conformal_weight(ctx, x, z, atom) for every atom at once, from
    foots = conjugated_measure(ctx, x): B(z, y_i, f(xi_i)) with y_i the
    conjugated footpoint of x -> xi_i."""
    images = ctx.f.apply_rays(ctx.base_measure.coords)
    return _busemann(z.coords, foots.coords, images)


def _dirs_to(z, rays):
    # unit tangents z -> ray, one row per ray; hyperboloid._direction_rows
    # with the matmul pairing of the solver, whose bits differ from it
    return rays / _pairings(rays, z.coords)[:, None] - z.coords[None, :]


def _image_dirs(ctx, z):
    # unit tangents z -> f(atom), one row per atom
    return _dirs_to(z, ctx.f.apply_rays(ctx.base_measure.coords))


# ---------------------------------------------------------------------------
# the extension maps

def extension_result(ctx, x, p):
    """Full solver outcome for the exponent-p extension at x; the
    convergence flag of the returned result is authoritative.  At p = inf
    it is also False where 0 lies outside the hull of the directions
    x -> xi_i, since the discrete minimax then misses the extension."""
    return _extension_result(ctx, x, conjugated_measure(ctx, x), p)


def _extension_result(ctx, x, foots, p):
    # extension_result from foots = conjugated_measure(ctx, x)
    res = minimize(ObjectiveSpec(p, BUSEMANN_MODE, foots))
    if math.isinf(p) and res.converged:
        coords = _basis_coords(_dirs_to(x, ctx.base_measure.coords), tangent_basis(x))
        if np.linalg.norm(_min_norm_point(coords)[0]) > HULL_SLACK:
            res = replace(res, converged=False)
    return res


def p_extension(ctx, x, p):
    """The exponent-p barycentric extension evaluated at x."""
    return extension_result(ctx, x, p).minimizer


def circumcenter_extension(ctx, x):
    """The limiting minimax extension evaluated at x.

    The minimax objective depends only on the support of the base measure,
    so the quality of the discrete answer is set by how densely that support
    covers the boundary as seen from x.  Where the grid leaves a gap wider
    than a half turn, 0 lies outside the hull of the directions x -> xi_i and
    the minimizer drifts into the gap; extension_result reports such a point
    as not converged, while this function returns the discrete minimizer.
    """
    return extension_result(ctx, x, math.inf).minimizer


def mu_x_p(ctx, x, p):
    """The reweighted boundary measure seen from x at exponent p, and the
    balance report of its pushforward at the extension point.  x is
    conjugated once, for both the solve and the weights."""
    return _mu_x_p(ctx, x, conjugated_measure(ctx, x), p)


def _mu_x_p(ctx, x, foots, p):
    # mu_x_p from foots = conjugated_measure(ctx, x)
    if not math.isfinite(p):
        raise ValueError("the reweighted measure needs a finite exponent")
    z = _extension_result(ctx, x, foots, p).minimizer
    logits = np.log(ctx.base_measure.weights) + p * _conformal_weights(ctx, foots, z)
    logc = _lse(logits)
    weights = np.exp(logits - logc)
    weights = weights / weights.sum()
    measure = DiscreteMeasure("boundary", ctx.base_measure.coords, weights)
    dirs = _image_dirs(ctx, z)
    r = weights @ dirs
    residual = math.sqrt(max(minkowski(r, r), 0.0))
    return measure, BalanceReport(z, residual, float(logc))


def balance_residual(nu, z):
    """Norm of the nu-weighted sum of unit tangents z -> atom."""
    if nu.kind != "boundary":
        raise ValueError("balance is defined for boundary measures")
    r = nu.weights @ _dirs_to(z, nu.coords)
    return math.sqrt(max(minkowski(r, r), 0.0))


# ---------------------------------------------------------------------------
# argmax sets and hull certificates

def argmax_set(ctx, x, y, epsilon=EPS_ARGMAX):
    """Atoms whose conformal weight at (x, y) is within epsilon of the max;
    x is conjugated once."""
    return _argmax_set(ctx, x, conjugated_measure(ctx, x), y, epsilon)


def _argmax_set(ctx, x, foots, y, epsilon=EPS_ARGMAX):
    # argmax_set from foots = conjugated_measure(ctx, x)
    values = _conformal_weights(ctx, foots, y)
    cut = float(np.max(values)) - epsilon
    keep = values >= cut
    members = [ctx.base_measure.atom(i) for i in np.flatnonzero(keep)]
    dirs = _image_dirs(ctx, y)[keep]
    return ArgmaxSet(x, y, epsilon, members, dirs)


def _min_norm_point(points, tol=1e-12):
    """Wolfe's nearest-point-in-hull algorithm on Euclidean row vectors.

    Returns the least-norm hull element and its convex weights over the
    input rows.
    """
    m = points.shape[0]
    norms2 = np.einsum("ij,ij->i", points, points)
    S = [int(np.argmin(norms2))]
    lam = np.array([1.0])
    for _ in range(16 * m + 16):
        g = lam @ points[S]
        gg = float(g @ g)
        dots = points @ g
        j = int(np.argmin(dots))
        if dots[j] >= gg - tol * max(1.0, gg) or j in S:
            break
        S.append(j)
        lam = np.append(lam, 0.0)
        while True:
            Q = points[S]
            k = len(S)
            M = np.empty((k + 1, k + 1))
            M[0, 0] = 0.0
            M[0, 1:] = 1.0
            M[1:, 0] = 1.0
            M[1:, 1:] = Q @ Q.T
            rhs = np.zeros(k + 1)
            rhs[0] = 1.0
            alpha = np.linalg.lstsq(M, rhs, rcond=None)[0][1:]
            if np.all(alpha >= 1e-12):
                lam = alpha
                break
            neg = alpha < 1e-12
            ratios = lam[neg] / np.maximum(lam[neg] - alpha[neg], 1e-300)
            theta = float(np.clip(np.min(ratios), 0.0, 1.0))
            lam = (1.0 - theta) * lam + theta * alpha
            lam[lam < 1e-12] = 0.0
            keep = lam > 0.0
            if not np.any(keep):
                keep[int(np.argmax(alpha))] = True
            S = [s for s, k_ in zip(S, keep) if k_]
            lam = lam[keep]
            lam = lam / lam.sum()
    g = lam @ points[S]
    full = np.zeros(m)
    full[S] = lam
    return g, full


def hull_certificate(aset):
    """Feasibility of balancing a measure on the argmax directions.

    Feasible: witness convex weights whose direction sum vanishes within
    tolerance.  Infeasible: a separating tangent making a strictly acute
    angle with every member direction.
    """
    E = tangent_basis(aset.candidate)
    g, lam = _min_norm_point(_basis_coords(aset.image_dirs, E))
    nrm = float(np.linalg.norm(g))
    if nrm <= HULL_SLACK:
        return HullCertificate(True, lam, nrm, None)
    return HullCertificate(False, lam, nrm, g @ E)


# ---------------------------------------------------------------------------
# derivative audits

def extension_differential(ctx, x, v, p, h=1e-3):
    """Central-difference differential of the exponent-p extension.

    Returns the base value F_p(x) and DF_p(v) transported to its tangent
    space by the logarithm map.
    """
    base = extension_result(ctx, x, p).minimizer
    return base, _central_difference(ctx, _sides(ctx, x, v, h), p, h, base)


def _sides(ctx, x, v, h):
    # the points exp_map(x, +-h v) of the central difference, each with its
    # conjugated measure, which serves every exponent
    v = np.asarray(v, float)
    return [(y, conjugated_measure(ctx, y)) for y in (exp_map(x, h * v), exp_map(x, -h * v))]


def _central_difference(ctx, sides, p, h, base):
    # DF_p(v) at x, transported to the tangent space of base = F_p(x)
    plus, minus = (_extension_result(ctx, y, foots, p).minimizer for y, foots in sides)
    return (log_map(base, plus) - log_map(base, minus)) / (2.0 * h)


def derivative_identity_residual(ctx, x, v, p, h=1e-3):
    """Relative defect of the implicit-derivative identity at (x, v, p).

    Both sides are assembled from the reweighted measure, the Busemann
    Hessian, and a finite-difference differential; the residual is
    |lhs - rhs| / (1 + |rhs|).
    """
    if not (1e-4 <= h <= 1e-2):
        raise ValueError("step h must lie in [1e-4, 1e-2]")
    reweighted = mu_x_p(ctx, x, p)
    return _derivative_residual(ctx, x, v, p, h, reweighted, _sides(ctx, x, v, h))


def _derivative_residual(ctx, x, v, p, h, reweighted, sides):
    # derivative_identity_residual from reweighted = mu_x_p(ctx, x, p) and
    # sides = _sides(ctx, x, v, h)
    measure, report = reweighted
    base = report.point
    du = _central_difference(ctx, sides, p, h, base)
    w = measure.weights
    du_norm2 = minkowski(du, du)
    du_dot = minkowski(_image_dirs(ctx, base), du)
    v_dot = minkowski(_dirs_to(x, ctx.base_measure.coords), v)
    hess = du_norm2 - du_dot**2
    lhs = float(w @ hess + p * w @ du_dot**2)
    rhs = float(p * w @ (du_dot * v_dot))
    return abs(lhs - rhs) / (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# audit suites

def _audit(name, violations, tol, rows=None):
    """One audit record: the worst violation against the tolerance, with the
    per-pair rows when there are any."""
    worst = max(violations, default=-math.inf)
    record = {
        "audit": name,
        "pairs": len(violations),
        "max_violation": float(worst),
        "tolerance": float(tol),
        "pass": bool(worst <= tol),
    }
    if rows is not None:
        record["rows"] = rows
    return record


def main_inequality_audit(ctx, pairs, p, b=None):
    """Both comparison inequalities for cosh of extension displacements."""
    foots = [(conjugated_measure(ctx, x), conjugated_measure(ctx, y)) for x, y in pairs]
    return _main_inequality(ctx, pairs, foots, p, ctx.model.b if b is None else b)


def _main_inequality(ctx, pairs, foots, p, b):
    # main_inequality_audit from the conjugated measures (of x, of y) of
    # the pairs
    images = ctx.f.apply_rays(ctx.base_measure.coords)
    rows = []
    for (x, y), (foots_x, foots_y) in zip(pairs, foots):
        measure, report = _mu_x_p(ctx, x, foots_x, p)
        fx = report.point
        fy = _extension_result(ctx, y, foots_y, p).minimizer
        bus = _busemann(fy.coords, fx.coords, images)
        d = dist(fx, fy)
        upper = float(measure.weights @ np.exp(bus))
        lower = float(measure.weights @ np.exp(b * bus))
        v1 = math.cosh(d) - upper
        v2 = lower - math.cosh(b * d)
        rows.append(
            {
                "distance": d,
                "cosh_distance": math.cosh(d),
                "exp_busemann_mean": upper,
                "curvature_side": lower,
                "violation": max(v1, v2),
            }
        )
    return _audit("main-inequality", [r["violation"] for r in rows], MAIN_INEQ_SLACK, rows)


def lipschitz_audit(ctx, pairs, b=None):
    """Contraction ratios of the circumcenter extension at pinching b."""
    images = [
        (circumcenter_extension(ctx, x), circumcenter_extension(ctx, y)) for x, y in pairs
    ]
    return _lipschitz_rows(pairs, images, ctx.model.b if b is None else b)


def _lipschitz_rows(pairs, images, b):
    # lipschitz_audit from the solved images (f x, f y) of the pairs
    rows = []
    for (x, y), (fx, fy) in zip(pairs, images):
        d_src = dist(x, y)
        d_img = dist(fx, fy)
        ratio = math.cosh(d_img) ** b / math.cosh(b * d_src)
        viol = ratio - 1.0
        if b == 1.0:
            # constant curvature leaves no room between the two bounds, so
            # the extension must move distances by at most the solver error
            viol = max(viol, abs(d_img - d_src) - ISOMETRY_TOL)
        rows.append(
            {
                "source_distance": d_src,
                "image_distance": d_img,
                "ratio": ratio,
                "violation": viol,
            }
        )
    return _audit("lipschitz", [r["violation"] for r in rows], LIPSCHITZ_SLACK, rows)


def inverse_consistency(ctx_f, ctx_g, samples):
    """Round-trip error of the two circumcenter extensions."""
    images = [circumcenter_extension(ctx_f, x) for x in samples]
    return _round_trips(ctx_g, samples, images)


def _round_trips(ctx_g, samples, images):
    # inverse_consistency from the solved forward images of the samples
    errs = [dist(circumcenter_extension(ctx_g, y), x) for x, y in zip(samples, images)]
    rows = [{"round_trip_error": err} for err in errs]
    return _audit("inverse-consistency", errs, INVERSE_TOL, rows)
