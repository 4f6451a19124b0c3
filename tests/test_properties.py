"""Property tests of the closed forms: invariance under Lorentz maps and
under positive rescaling of every boundary input.  Two last properties
check the large-exponent solves against the p = infinity limit, and the
Lorentz naturality of the p = infinity extension itself.

Cases are drawn in dims 2-4 with points up to distance 8 from the origin,
where <x, xi> loses digits to cancellation at x0 ~ cosh(8).  Each bound is
ten times the worst error measured over 9000 seeded cases of the same
construction (seeds 0-2999 in each dimension, log-uniform scales in
[1e-3, 1e3]); the measured worst is given beside each bound.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from horobary.barycenter import BUSEMANN_MODE, ObjectiveSpec, evaluate_objective, minimize
from horobary.extension import ExtensionContext, extension_result
from horobary.hyperboloid import (
    BoundaryDirection,
    ModelConfig,
    SpacePoint,
    antipode,
    boundary_geodesic,
    busemann,
    busemann_gradient,
    busemann_hessian,
    comparison_angle,
    cross_ratio,
    direction_to,
    dist,
    gromov_product,
    origin,
    tangent_basis,
    visual_metric,
)
from horobary.measures import DiscreteMeasure, uniform_boundary_grid
from horobary.moebius import BoundaryMap
from horobary.sampling import (
    random_boundary_direction,
    random_lorentz,
    random_space_point,
    random_unit_tangent,
)

RADIUS = 8.0
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
dims = st.integers(2, 4)
scales = st.floats(1e-3, 1e3)


def _case(seed, dim):
    rng = np.random.default_rng([seed, dim])
    x, y = (random_space_point(rng, dim, RADIUS) for _ in range(2))
    rays = [random_boundary_direction(rng, dim) for _ in range(4)]
    return rng, x, y, rays


def _rel(a, b):
    return abs(a - b) / abs(b)


@PROPERTY
@given(seed=seeds, dim=dims)
def test_closed_forms_are_lorentz_invariant(seed, dim):
    rng, x, y, rays = _case(seed, dim)
    g = random_lorentz(rng, dim=dim)
    gx, gy = (SpacePoint(g @ p.coords) for p in (x, y))
    xi, eta, xip, etap = rays
    gxi, geta, gxip, getap = (BoundaryDirection(g @ r.coords) for r in rays)
    assert abs(busemann(gx, gy, gxi) - busemann(x, y, xi)) <= 3e-9  # 2.7e-10
    assert _rel(visual_metric(gx, gxi, geta), visual_metric(x, xi, eta)) <= 3e-8  # 2.4e-9
    assert abs(gromov_product(gx, gxi, geta) - gromov_product(x, xi, eta)) <= 3e-8  # 2.4e-9
    cr = cross_ratio(xi, xip, eta, etap)
    assert _rel(cross_ratio(gxi, gxip, geta, getap), cr) <= 3e-7  # 2.3e-8


@PROPERTY
@given(seed=seeds, dim=dims, factors=st.tuples(scales, scales, scales, scales))
def test_boundary_inputs_are_scale_invariant(seed, dim, factors):
    _, x, y, rays = _case(seed, dim)
    xi, eta, xip, etap = rays
    sxi, seta, sxip, setap = (BoundaryDirection(c * r.coords) for c, r in zip(factors, rays))
    assert abs(busemann(x, y, sxi) - busemann(x, y, xi)) <= 2e-11  # 1.7e-12
    assert _rel(visual_metric(x, sxi, seta), visual_metric(x, xi, eta)) <= 2e-11  # 1.9e-12
    assert abs(gromov_product(x, sxi, seta) - gromov_product(x, xi, eta)) <= 2e-11  # 1.9e-12
    cr = cross_ratio(xi, xip, eta, etap)
    assert _rel(cross_ratio(sxi, sxip, seta, setap), cr) <= 4e-10  # 3.5e-11
    angle = comparison_angle(1.5, x, xi, eta)
    assert abs(comparison_angle(1.5, x, sxi, seta) - angle) <= 1e-10  # 1.0e-11
    d = direction_to(x, xi).dir
    assert np.max(np.abs(direction_to(x, sxi).dir - d)) <= 3e-10  # 2.6e-11
    assert np.max(np.abs(busemann_gradient(x, sxi) + d)) <= 3e-10  # 2.6e-11
    assert np.max(np.abs(antipode(x, sxi).coords - antipode(x, xi).coords)) <= 2e-9  # 1.3e-10
    w = tangent_basis(x)[0]
    assert abs(busemann_hessian(x, sxi, w) - busemann_hessian(x, xi, w)) <= 5e-9  # 4.7e-10
    a, b = boundary_geodesic(sxi, seta, 0.4), boundary_geodesic(xi, eta, 0.4)
    for got, want in ((a.base.coords, b.base.coords), (a.dir, b.dir)):
        assert np.max(np.abs(got - want)) <= 2e-10 * np.max(np.abs(want))  # 1.2e-11


@PROPERTY
@given(
    seed=seeds,
    dim=dims,
    weights=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=8),
    p=st.sampled_from([128.0, 1024.0, 2.0**14]),
)
def test_large_exponents_land_within_the_sandwich_bound(seed, dim, weights, p):
    # max_i phi_i + log(w_min) / p <= E_p <= max_i phi_i, so the minimax
    # energy of the p-minimizer exceeds the limit's by at most log(1/w_min)/p
    rng = np.random.default_rng([seed, dim])
    atoms = [random_unit_tangent(rng, dim, radius=1.0) for _ in weights]
    nu = DiscreteMeasure.from_atoms(atoms, np.array(weights) / sum(weights))
    res = minimize(ObjectiveSpec(p, BUSEMANN_MODE, nu))
    assert res.converged
    sup = ObjectiveSpec(math.inf, BUSEMANN_MODE, nu)
    gap = evaluate_objective(sup, res.minimizer) - minimize(sup).value
    assert gap <= math.log(1.0 / nu.weights.min()) / p + 1e-12


@PROPERTY
@given(seed=seeds, dim=dims)
def test_circumcenter_extension_is_lorentz_natural(seed, dim):
    # a Lorentz map g extends to g itself wherever the grid leaves no gap
    # around x; where it does, the solve must say so instead of converging
    rng = np.random.default_rng([seed, dim])
    g = random_lorentz(rng, dim=dim)
    ctx = ExtensionContext(
        BoundaryMap("lorentz", g), uniform_boundary_grid(64, origin(dim)), ModelConfig(dim)
    )
    x = random_space_point(rng, dim)
    res = extension_result(ctx, x, math.inf)
    # the unit tangents x -> xi_i, and whether convex weights balance them
    rays, xc = ctx.base_measure.coords, x.coords
    dirs = rays / (rays[:, 0] * xc[0] - rays[:, 1:] @ xc[1:])[:, None] - xc
    balanced = linprog(
        np.zeros(len(dirs)),
        A_eq=np.vstack([dirs.T, np.ones(len(dirs))]),
        b_eq=np.concatenate([np.zeros(dim + 1), [1.0]]),
        method="highs",
    ).status == 0
    if balanced:
        assert res.converged
        assert dist(res.minimizer, SpacePoint(g @ xc)) <= 1e-9
    else:
        assert not res.converged
