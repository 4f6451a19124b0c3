"""Minimizers of the horospherical convex energies: p-barycenters,
circumcenters, and their asymptotic (boundary-data) versions.

Both objective families reduce to the same atom kernel.  With c_i(z) the
Minkowski pairing -<z, a_i> against a fixed vector a_i,

    log cosh d(z, y_i) = log c_i(z)          (a_i the atom point)
    B(z, y_i, xi_i)    = log c_i(z) + const  (a_i the atom's null ray)

so every energy here is a log-sum-exp of log-linear terms.  The gradient is
grad_i = z - a_i / c_i and the Hessian of each term is exactly
metric - grad_i (x) grad_i, which makes damped Newton steps cheap and the
p = infinity polish a small KKT solve.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .hyperboloid import SpacePoint, _basis, _exp_coords, _on_sheet, dist, minkowski
from .measures import DiscreteMeasure, write_csv

COSH_MODE = "cosh-distance"
BUSEMANN_MODE = "exp-busemann"

EPS_ACTIVE = 1e-6       # active-set threshold for the minimax polish
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
        # a pairing that lost its sign is a rounding artifact of a trial point
        # far outside the working region; an infinite value rejects it
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


def _polish_minimax(A, const, z, grad_tol, max_iters=100):
    """Active-set KKT Newton for the p = infinity energy max_i log phi_i.

    Stationarity is the subgradient condition: some convex combination of
    the active gradients vanishes.  Unknowns are the tangent step, the
    multipliers on the active set, and the common max value m.
    """
    n = z.shape[0] - 1
    c = _pairings(A, z)
    phi = np.log(c) + const
    m = float(phi.max())
    # cast a wide net at first: the continuation warm start leaves the truly
    # active values spread by ~log(atoms)/p_max, and spurious members exit
    # through negative multipliers
    active = np.flatnonzero(phi >= m - max(EPS_ACTIVE, 1e-3))
    lam = np.full(active.size, 1.0 / active.size)
    iters = 0
    while True:
        E = _basis(z)
        G = _basis_coords(z[None, :] - A[active] / c[active, None], E)
        if iters == max_iters:
            break
        iters += 1
        k = active.size
        r1 = G.T @ lam
        r2 = phi[active] - m
        r3 = lam.sum() - 1.0
        grad_norm = _norm(r1)
        if grad_norm <= grad_tol and np.max(np.abs(r2)) <= 1e-12 and abs(r3) <= 1e-12:
            # drop any negative-weight stragglers from the certificate
            if k > 1 and np.min(lam) < -1e-12:
                drop = int(np.argmin(lam))
                active = np.delete(active, drop)
                lam = np.delete(lam, drop)
                lam = np.maximum(lam, 0.0)
                lam /= lam.sum()
                continue
            break
        M = lam.sum() * np.eye(n) - (G * lam[:, None]).T @ G
        KKT = np.zeros((n + k + 1, n + k + 1))
        KKT[:n, :n] = M
        KKT[:n, n : n + k] = G.T
        KKT[n : n + k, :n] = G
        KKT[n : n + k, n + k] = -1.0
        KKT[n + k, n : n + k] = 1.0
        rhs = np.concatenate([-r1, -r2, [-r3]])
        sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
        delta, dlam, dm = sol[:n], sol[n : n + k], sol[n + k]
        norm = _norm(delta)
        if norm > 1.0:
            # polish steps are corrections; a long one means a misidentified
            # active set, and shrinking it lets the multiplier signs sort it out
            delta /= norm
        z = _on_sheet(_exp_coords(z, delta @ E))
        lam = lam + dlam
        m = m + float(dm)
        if active.size > 1 and np.min(lam) < -1e-12:
            drop = int(np.argmin(lam))
            active = np.delete(active, drop)
            lam = np.delete(lam, drop)
            total = lam.sum()
            lam = np.full(active.size, 1.0 / active.size) if total <= 0 else lam / total
        c = _pairings(A, z)
        phi = np.log(c) + const
        violators = np.flatnonzero(phi > m + EPS_ACTIVE)
        fresh = np.setdiff1d(violators, active)
        if fresh.size:
            active = np.concatenate([active, fresh])
            lam = np.concatenate([lam, np.zeros(fresh.size)])
            lam = np.maximum(lam, 1e-16)
            lam /= lam.sum()
            m = float(np.max(phi))
    # the certificate is the clipped convex combination at the exit point
    lam = np.maximum(lam, 0.0)
    lam /= lam.sum()
    return z, _norm(G.T @ lam), iters


def minimize(spec, cfg=None):
    """Minimize the energy; exponents above 64 climb a warm-started ladder.

    One rung loop serves every p: each rung q < p of LADDER = 64, 128, ...,
    2^14 is a Newton solve to max(grad_tol, 1e-9) from the last minimizer,
    the first from the start point.  Finite p ends with a Newton solve at p,
    p = infinity with the active-set polish.  p <= 64 takes no rung, so the
    cold solves that callers make there keep their bits; near 2^14 a cold
    start can stall.  iterations is summed over the rungs and the last solve.
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
    total = 0
    for q in LADDER:
        if q >= p:
            break
        z, _, its = _newton(A, const, logw, q, z, max(cfg.grad_tol, 1e-9), cfg.max_iters)
        total += its
    if math.isinf(p):
        z, grad_norm, its = _polish_minimax(A, const, z, cfg.grad_tol)
        converged = grad_norm <= EPS_ACTIVE
    else:
        z, grad_norm, its = _newton(A, const, logw, p, z, cfg.grad_tol, cfg.max_iters)
        converged = grad_norm <= cfg.grad_tol
    value = _objective_value(A, const, logw, p, z)
    return SolverResult(SpacePoint(z), value, grad_norm, total + its, converged)


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
