"""Minimizers of the horospherical convex energies: p-barycenters,
circumcenters, and their asymptotic (boundary-data) versions.

Both objective families reduce to the same atom kernel.  With c_i(z) the
Minkowski pairing -<z, a_i> against a fixed vector a_i,

    log cosh d(z, y_i) = log c_i(z)          (a_i the atom point)
    B(z, y_i, xi_i)    = log c_i(z) + const  (a_i the atom's null ray)

so every energy here is a log-sum-exp of log-linear terms.  The gradient is
grad_i = z - a_i / c_i and the Hessian of each term is exactly
metric - grad_i (x) grad_i, which makes damped Newton steps cheap.  At
p = infinity, log max_i -<z, b_i> with b_i = e^const_i a_i is one convex
program, solved by an interior point whose duality gap certifies it.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .hyperboloid import SpacePoint, _basis, _exp_coords, _on_sheet, _reproject, dist, minkowski
from .measures import DiscreteMeasure, write_csv

COSH_MODE = "cosh-distance"
BUSEMANN_MODE = "exp-busemann"

CENTERING = 10.0        # barrier weight growth per interior-point step
ARMIJO = 1e-4
SLOPE_FLOOR = 1e-12     # a predicted decrease below this is lost to rounding
                        # in energy values of order one
STEP_CLAMP = 20.0       # keeps cosh of the step length in floating range
ESCAPE_HEIGHT = 1e6     # iterate height where tangent arithmetic degrades;
                        # reached only when the energy is unbounded below
ENDPOINT_TOL = 1e-10
LADDER = tuple(float(2 ** k) for k in range(6, 15))   # minimize's warm rungs
CONTINUATION_PS = tuple(float(2 ** k) for k in range(1, 15))


@dataclass(frozen=True)
class ObjectiveSpec:
    """One convex energy: exponent, atom kernel, and the data measure."""

    exponent: float
    mode: str
    data: DiscreteMeasure

    def __post_init__(self):
        if self.mode not in (COSH_MODE, BUSEMANN_MODE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (self.exponent >= 1.0):
            raise ValueError("exponent must be >= 1")
        want = "space" if self.mode == COSH_MODE else "tangent"
        if self.data.kind != want:
            raise ValueError(f"{self.mode} mode needs a {want} measure")
        if (
            self.mode == BUSEMANN_MODE
            and math.isinf(self.exponent)
            and _endpoints_coincide(self.data)
        ):
            raise ValueError(
                "sup of horospherical displacements needs at least two "
                "distinct endpoint directions"
            )


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-10
    max_iters: int = 500
    initial: SpacePoint | None = None

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        # the solvers stop at it == max_iters, which a negative or fractional
        # cap would never meet
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0:
            raise ValueError("max_iters must be a non-negative integer")


@dataclass(frozen=True)
class SolverResult:
    minimizer: SpacePoint
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def _tangent_rays(mu):
    # hyperboloid._endpoint_rows without the spatial renormalization, which
    # would move the solver's bits
    rays = mu.coords + mu.dirs
    return rays / rays[:, :1]


def _endpoints_coincide(mu, tol=ENDPOINT_TOL):
    rays = _tangent_rays(mu)
    return np.max(np.abs(rays - rays[0])) <= tol


def _atom_kernel(spec):
    """(a_i vectors, additive constants, log weights) for the spec."""
    mu = spec.data
    logw = np.log(mu.weights)
    if spec.mode == COSH_MODE:
        return mu.coords, np.zeros(len(mu)), logw
    rays = _tangent_rays(mu)
    # B(z, y_i, xi_i) = log(-<z, ray_i>) - log(-<y_i, ray_i>)
    return rays, -np.log(-minkowski(mu.coords, rays)), logw


def _pairings(A, z):
    # -minkowski(A, z) as one matrix-vector product; the two differ by up to
    # 1.8e-15, so each keeps the bits of its own callers
    return A[:, 0] * z[0] - A[:, 1:] @ z[1:]


def _lse(a):
    m = a.max()
    return m + math.log(np.add.reduce(np.exp(a - m)))


def _log_terms(A, const, logw, p, z):
    """Pairings c_i, exponents a_i = log w_i + p log phi_i and their
    log-sum-exp at z; None when a pairing has lost its sign to rounding."""
    c = _pairings(A, z)
    if c.min() <= 0.0:
        return None
    a = logw + p * (np.log(c) + const)
    return c, a, _lse(a)


def _objective_value(A, const, logw, p, z):
    if math.isinf(p):
        c = _pairings(A, z)
        # a pairing that lost its sign to rounding far out reads as infinite
        return math.inf if c.min() <= 0.0 else float((np.log(c) + const).max())
    terms = _log_terms(A, const, logw, p, z)
    return math.inf if terms is None else terms[2] / p


def evaluate_objective(spec, z):
    """Log-domain energy (1/p) log sum w_i exp(p log phi_i); max at p = inf."""
    A, const, logw = _atom_kernel(spec)
    return _objective_value(A, const, logw, spec.exponent, z.coords)


def _auto_initial(spec):
    mu = spec.data
    s = mu.weights @ mu.coords
    return _on_sheet(s / math.sqrt(-minkowski(s, s)))


def _basis_coords(G_amb, E):
    # Minkowski contraction of ambient gradients against the basis rows
    GJ = G_amb.copy()
    GJ[:, 0] = -GJ[:, 0]
    return GJ @ E.T


def _norm(v):
    return math.sqrt(v.dot(v))


def _newton(A, const, logw, p, z, grad_tol, max_iters):
    """Damped Newton descent for finite p.  Returns (z, grad_norm, iters).

    Iterates on raw coordinates; every trial point passes the on-sheet
    check, and an accepted one hands its kernel terms to the next step."""
    eye = np.eye(z.shape[0] - 1)
    c = _pairings(A, z)
    a = logw + p * (np.log(c) + const)
    lse = _lse(a)
    value = lse / p if c.min() > 0.0 else math.inf
    it = 0
    while True:
        what = np.exp(a - lse)
        E = _basis(z)
        g = _basis_coords(z[None, :] - A / c[:, None], E)
        gbar = what @ g
        grad_norm = _norm(gbar)
        if grad_norm <= grad_tol or it == max_iters:
            return z, grad_norm, it
        S = (g * what[:, None]).T @ g
        H = eye + (p - 1.0) * S - p * np.outer(gbar, gbar)
        try:
            delta = np.linalg.solve(H, -gbar)
        except np.linalg.LinAlgError:
            delta = -gbar
        slope = float(delta @ gbar)
        if slope >= 0:
            delta, slope = -gbar, -grad_norm**2
        norm = _norm(delta)
        if norm > STEP_CLAMP:
            delta *= STEP_CLAMP / norm
            slope *= STEP_CLAMP / norm
        v = delta @ E
        tau = 1.0
        for _ in range(60):
            try:
                z_new = _on_sheet(_exp_coords(z, tau * v))
            except ValueError:
                # a step that lands so far out that -<c, c> loses its sign
                # to rounding has no point on the sheet: shorten it
                tau *= 0.5
                continue
            terms = _log_terms(A, const, logw, p, z_new)
            new_value = math.inf if terms is None else terms[2] / p
            if new_value <= value + ARMIJO * tau * slope:
                break
            if -slope <= SLOPE_FLOOR and math.isfinite(new_value):
                # the value cannot resolve the decrease, so Armijo would pass
                # only a step too short to move z: take the full Newton step
                break
            tau *= 0.5
        else:
            # no representable decrease left; grad criterion decides below
            return z, grad_norm, it + 1
        if z_new[0] > ESCAPE_HEIGHT:
            # running off toward the boundary: no minimum to find
            return z, grad_norm, it + 1
        z, value = z_new, new_value
        c, a, lse = terms
        it += 1


def _minimax(B, z, weights, grad_tol, max_iters):
    """Primal-dual interior point (Boyd & Vandenberghe 11.7) for the p = inf
    energy log max_i c_i(z), c_i = -<z, b_i>: with w = z / t, minimize the
    convex -log |w|_L subject to -<w, b_i> <= 1, on (n+1) x (n+1) systems.
    The multipliers, normalized to lambda, give W = sum_i lambda_i b_i and
    the duality gap log max_i c_i(z) - log |W|_L >= E(z) - min E; a start
    whose gap with lambda = weights meets grad_tol is returned as it is.
    Returns (z, the lambda-weighted subgradient norm, iterations, gap)."""
    # solve in the frame where the start is the origin: there every pairing
    # is a sum of terms of its own size, and the slacks keep their digits
    start, E = z, _basis(z)
    sig = np.append(1.0, -np.ones(len(z) - 1))
    B = B @ (np.vstack([z, -E]) * sig).T
    D = B * sig                             # D @ w = -<w, b_i>
    z = np.eye(len(sig))[0]
    w = z / (2.0 * (D @ z).max())           # every slack starts at 1/2 or more
    y = weights.copy()
    it, last = 0, 0.0
    while True:
        c = D @ z
        lam = y / y.sum()
        G = _basis_coords(z[None, :] - B / c[:, None], _basis(z))
        lc = lam * c
        rho = _norm(lc @ G) / lc.sum()
        # log max c - log |W|_L, with W split along z and its tangent space
        gap = math.log(c.max() / lc.sum()) - 0.5 * math.log1p(-rho * rho) if rho < 1 else math.inf
        # past the tolerance, go on while each step still halves the gap
        if gap <= grad_tol and (gap > 0.5 * last or gap <= 1e-3 * grad_tol) or it == max_iters:
            break
        last = gap
        s = 1.0 - D @ w
        t = CENTERING * len(B) / (s @ y)
        Mw = sig * w
        q = w @ Mw
        H = np.outer(Mw, Mw) * (2.0 / q**2) - np.diag(sig / q) + (D.T * (y / s)) @ D
        try:
            dw = np.linalg.solve(H, Mw / q - (D.T @ (1.0 / s)) / t)
        except np.linalg.LinAlgError:
            break
        dy = y * (D @ dw) / s - y + 1.0 / (t * s)
        res = _kkt_residual(D, sig, w, y, s, t)
        neg = dy < 0
        step = min(1.0, 0.99 * float(np.min(-y[neg] / dy[neg]))) if neg.any() else 1.0
        for _ in range(60):
            w_new, y_new = w + step * dw, y + step * dy
            s_new, q_new = 1.0 - D @ w_new, w_new @ (sig * w_new)
            if s_new.min() > 0.0 and w_new[0] > 0.0 < q_new and (
                _kkt_residual(D, sig, w_new, y_new, s_new, t) <= (1.0 - 0.01 * step) * res
            ):
                break
            step *= 0.5
        else:
            break
        w, y, z = w_new, y_new, w_new / math.sqrt(q_new)
        it += 1
    # re-projected as the Newton's trial points are, so that a stalled solve
    # far out is reported by its gap rather than raised by SpacePoint
    z = start if it == 0 else _reproject(z[0] * start + z[1:] @ E)
    return z, _norm(lam @ G), it, gap


def _kkt_residual(D, sig, w, y, s, t):
    # Boyd's r_t: the dual residual grad f0 + D^T y and the centrality y s - 1/t
    Mw = sig * w
    return math.hypot(_norm(D.T @ y - Mw / (w @ Mw)), _norm(y * s - 1.0 / t))


def minimize(spec, cfg=None):
    """Minimize the energy; finite exponents above 64 climb a warm-started
    ladder, and p = infinity is one interior-point solve.

    Each rung q < p of LADDER = 64, 128, ..., 2^14 is a Newton solve to
    max(grad_tol, 1e-9) from the last minimizer, the first from the start
    point, and a Newton solve at p ends the climb.  p <= 64 takes no rung,
    so the cold solves that callers make there keep their bits; near 2^14 a
    cold start can stall.  iterations is summed over the rungs and the last
    solve.  At p = infinity converged means a duality gap, which bounds the
    energy above its minimum, of at most grad_tol.
    """
    cfg = cfg or SolverConfig()
    A, const, logw = _atom_kernel(spec)
    if spec.mode == BUSEMANN_MODE and _endpoints_coincide(spec.data):
        warnings.warn(
            "all endpoint directions coincide; the energy has no minimum",
            stacklevel=2,
        )
    z = _auto_initial(spec) if cfg.initial is None else cfg.initial.coords
    p = spec.exponent
    if math.isinf(p):
        B = A * np.exp(const)[:, None]          # the rows b_i
        z, grad_norm, its, gap = _minimax(B, z, spec.data.weights, cfg.grad_tol, cfg.max_iters)
        converged = gap <= cfg.grad_tol
    else:
        total = 0
        for q in LADDER:
            if q >= p:
                break
            z, _, its = _newton(A, const, logw, q, z, max(cfg.grad_tol, 1e-9), cfg.max_iters)
            total += its
        z, grad_norm, its = _newton(A, const, logw, p, z, cfg.grad_tol, cfg.max_iters)
        its += total
        converged = grad_norm <= cfg.grad_tol
    value = _objective_value(A, const, logw, p, z)
    return SolverResult(SpacePoint(z), value, grad_norm, its, converged)


def circumcenter(points, cfg=None):
    """Minimax center of a finite point set."""
    mu = DiscreteMeasure.from_atoms(list(points))
    res = minimize(ObjectiveSpec(math.inf, COSH_MODE, mu), cfg)
    return res.minimizer


def asymptotic_p_barycenter(nu, p, cfg=None):
    """Minimizer of the L^p norm of exp-Busemann weights over nu."""
    res = minimize(ObjectiveSpec(p, BUSEMANN_MODE, nu), cfg)
    return res.minimizer


def asymptotic_circumcenter(atoms, cfg=None):
    """Minimizer of the sup of horospherical displacements over K."""
    nu = atoms if isinstance(atoms, DiscreteMeasure) else DiscreteMeasure.from_atoms(list(atoms))
    res = minimize(ObjectiveSpec(math.inf, BUSEMANN_MODE, nu), cfg)
    return res.minimizer


# ---------------------------------------------------------------------------
# limit experiments

@dataclass(frozen=True)
class ExperimentTable:
    """Rows of (parameter, minimizer coords, distance to limit, diagnostics)."""

    parameter: str
    rows: list = field(default_factory=list)

    def header(self):
        n_coords = len(self.rows[0][1]) if self.rows else 0
        return [self.parameter] + [f"coord_{i}" for i in range(n_coords)] + [
            "distance",
            "grad_norm",
            "iterations",
        ]

    def write_csv(self, path):
        """Write the table atomically; rows end in CRLF."""
        rows = [(param, *coords, *rest) for param, coords, *rest in self.rows]
        write_csv(path, self.header(), rows, newline="\r\n")


def _limit_row(param, res, limit):
    # one ExperimentTable row: the solve at param against the limit point
    z = res.minimizer
    return float(param), tuple(z.coords), dist(z, limit), res.grad_norm, res.iterations


def flow_limit_experiment(nu, p, t_schedule, cfg=None):
    """Track the p-barycenter of the flowed measures mu_t toward the
    asymptotic p-barycenter of nu."""
    from .measures import flow_project

    limit = asymptotic_p_barycenter(nu, p, cfg)
    table = ExperimentTable(parameter="t")
    for t in t_schedule:
        res = minimize(ObjectiveSpec(p, COSH_MODE, flow_project(nu, float(t))), cfg)
        table.rows.append(_limit_row(t, res, limit))
    return table


def p_limit_experiment(nu, p_schedule=CONTINUATION_PS, cfg=None):
    """Track asymptotic p-barycenters toward the asymptotic circumcenter;
    the final row is the p = infinity minimizer itself."""
    limit = minimize(ObjectiveSpec(math.inf, BUSEMANN_MODE, nu), cfg)
    table = ExperimentTable(parameter="p")
    for p in p_schedule:
        res = minimize(ObjectiveSpec(float(p), BUSEMANN_MODE, nu), cfg)
        table.rows.append(_limit_row(p, res, limit.minimizer))
    table.rows.append(_limit_row(math.inf, limit, limit.minimizer))
    return table
