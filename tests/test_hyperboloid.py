import math
import os
import subprocess
import sys

import numpy as np
import pytest

import horobary
from horobary.hyperboloid import (
    BoundaryDirection,
    ModelConfig,
    SpacePoint,
    UnitTangent,
    _basis,
    _exp_coords,
    _on_sheet,
    antipode,
    boundary_endpoint,
    boundary_geodesic,
    busemann,
    busemann_gradient,
    busemann_hessian,
    comparison_angle,
    cross_ratio,
    direction_to,
    dist,
    exp_map,
    flip,
    geodesic_flow,
    geodesic_point,
    gromov_product,
    log_map,
    minkowski,
    origin,
    tangent_basis,
    tangent_projection,
    visual_metric,
)
from horobary.sampling import (
    _expm,
    random_boundary_direction,
    random_lorentz,
    random_space_point,
    random_tangent_vector,
    random_unit_tangent,
)

import oracles


def boundary_at_angle(theta):
    return BoundaryDirection([1.0, math.cos(theta), math.sin(theta)])


# ---------------------------------------------------------------------------
# types

def test_model_config_validation():
    ModelConfig(dim=2, b=1.0)
    with pytest.raises(ValueError):
        ModelConfig(dim=1)
    with pytest.raises(ValueError):
        ModelConfig(dim=3, b=0.5)


def test_space_point_validation():
    with pytest.raises(ValueError):
        SpacePoint([1.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        SpacePoint([-1.0, 0.0, 0.0])


def test_boundary_direction_rescales():
    xi = BoundaryDirection([3.0, 3.0, 0.0])
    assert xi.coords[0] == 1.0
    np.testing.assert_allclose(xi.coords, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        BoundaryDirection([1.0, 0.5, 0.0])


def test_unit_tangent_validation():
    o = origin(2)
    UnitTangent(o, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        UnitTangent(o, [0.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        UnitTangent(o, [1.0, 1.0, 0.0])


FAR = [math.cosh(1.0), math.sinh(1.0), 0.0]
NON_FINITE = {
    "point-nan": lambda: SpacePoint([math.nan, math.nan, math.nan]),
    "point-inf-inf": lambda: SpacePoint([math.inf, math.inf, 0.0]),
    "point-inf": lambda: SpacePoint([math.inf, 0.0, 0.0]),
    "ray-nan": lambda: BoundaryDirection([1.0, math.nan, 0.0]),
    "ray-inf": lambda: BoundaryDirection([math.inf, 1.0, 0.0]),
    "tangent-nan": lambda: UnitTangent(origin(2), [0.0, math.nan, 0.0]),
    "tangent-inf": lambda: UnitTangent(SpacePoint(FAR), [0.0, math.inf, 0.0]),
}


@pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_typed_values_reject_nan_and_inf(build):
    # NaN fails every comparison of the checks, and an infinite entry would
    # otherwise meet the relative tolerances
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# distance and geodesics

def test_dist_identity_and_unit_speed():
    o = origin(2)
    assert dist(o, o) == 0.0
    y = SpacePoint([math.cosh(1.0), math.sinh(1.0), 0.0])
    assert abs(dist(o, y) - 1.0) < 1e-12


def test_dist_symmetry_and_triangle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = random_space_point(rng)
        y = random_space_point(rng)
        z = random_space_point(rng)
        assert abs(dist(x, y) - dist(y, x)) < 1e-12
        assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-10


def test_geodesic_point_cases():
    o = origin(2)
    u = UnitTangent(o, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(geodesic_point(u, 0.0).coords, u.base.coords)
    assert abs(dist(geodesic_point(u, 0.0), geodesic_point(u, 2.0)) - 2.0) < 1e-12
    np.testing.assert_allclose(
        geodesic_point(u, 1.0).coords, [math.cosh(1.0), math.sinh(1.0), 0.0], atol=1e-15
    )


def test_geodesic_point_isometric_embedding():
    rng = np.random.default_rng(8)
    for _ in range(200):
        u = random_unit_tangent(rng)
        s, t = rng.uniform(-4, 4, size=2)
        assert abs(dist(geodesic_point(u, s), geodesic_point(u, t)) - abs(s - t)) < 1e-9


def test_geodesic_flow_group_law_and_flip():
    o = origin(2)
    u = UnitTangent(o, [0.0, 1.0, 0.0])
    v = geodesic_flow(u, 0.0)
    np.testing.assert_allclose(v.base.coords, u.base.coords)
    np.testing.assert_allclose(v.dir, u.dir)
    np.testing.assert_allclose(flip(u).dir, [0.0, -1.0, 0.0])
    assert np.array_equal(flip(flip(u)).dir, u.dir)

    rng = np.random.default_rng(9)
    for _ in range(100):
        w = random_unit_tangent(rng)
        s, t = rng.uniform(-3, 3, size=2)
        a = geodesic_flow(geodesic_flow(w, t), s)
        b = geodesic_flow(w, s + t)
        np.testing.assert_allclose(a.base.coords, b.base.coords, atol=1e-9)
        np.testing.assert_allclose(a.dir, b.dir, atol=1e-9)


# ---------------------------------------------------------------------------
# boundary correspondence

def test_direction_to_origin_case():
    o = origin(2)
    u = direction_to(o, BoundaryDirection([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(u.base.coords, o.coords)
    np.testing.assert_allclose(u.dir, [0.0, 1.0, 0.0], atol=1e-15)


def test_boundary_round_trips():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = random_space_point(rng)
        xi = random_boundary_direction(rng)
        u = direction_to(x, xi)
        np.testing.assert_allclose(
            boundary_endpoint(u).coords, xi.coords, atol=1e-9
        )
    for _ in range(100):
        u = random_unit_tangent(rng)
        v = direction_to(u.base, boundary_endpoint(u))
        np.testing.assert_allclose(v.dir, u.dir, atol=1e-9)


def test_antipode_involution_and_flip_compatibility():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = random_space_point(rng)
        xi = random_boundary_direction(rng)
        np.testing.assert_allclose(
            antipode(x, antipode(x, xi)).coords, xi.coords, atol=1e-9
        )
        u = direction_to(x, antipode(x, xi))
        np.testing.assert_allclose(u.dir, flip(direction_to(x, xi)).dir, atol=1e-9)


def test_antipode_at_origin_negates_direction():
    o = origin(2)
    xi = boundary_at_angle(0.3)
    np.testing.assert_allclose(
        antipode(o, xi).coords[1:], -xi.coords[1:], atol=1e-12
    )


# ---------------------------------------------------------------------------
# Busemann functions

def test_busemann_vanishes_on_diagonal():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = random_space_point(rng)
        xi = random_boundary_direction(rng)
        assert busemann(x, x, xi) == 0.0


def test_busemann_along_ray():
    # y on the ray [x, xi) at distance s has displacement exactly s
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = random_space_point(rng)
        xi = random_boundary_direction(rng)
        s = rng.uniform(0.0, 4.0)
        y = geodesic_point(direction_to(x, xi), s)
        assert abs(busemann(x, y, xi) - s) < 1e-9


def test_busemann_matches_radial_limit():
    rng = np.random.default_rng(14)
    for _ in range(200):
        x = random_space_point(rng)
        y = random_space_point(rng)
        xi = random_boundary_direction(rng)
        assert abs(busemann(x, y, xi) - oracles.busemann_limit(x, y, xi)) < 1e-7


def test_busemann_bounded_by_distance_and_cocycle():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        x = random_space_point(rng)
        y = random_space_point(rng)
        z = random_space_point(rng)
        xi = random_boundary_direction(rng)
        assert abs(busemann(x, y, xi)) <= dist(x, y) + 1e-10
        total = busemann(x, y, xi) + busemann(y, z, xi)
        assert abs(total - busemann(x, z, xi)) < 1e-9


def test_busemann_scale_invariant_in_xi():
    x = random_space_point(np.random.default_rng(16))
    raw = np.array([2.5, 2.5, 0.0])
    a = busemann(x, origin(2), BoundaryDirection(raw))
    b = busemann(x, origin(2), BoundaryDirection(raw * 13.0))
    assert a == b


# ---------------------------------------------------------------------------
# visual metric and Gromov product

def test_visual_metric_antipodal_pair_has_diameter_one():
    o = origin(2)
    assert abs(visual_metric(o, boundary_at_angle(0.0), boundary_at_angle(math.pi)) - 1.0) < 1e-15
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = random_space_point(rng)
        xi = random_boundary_direction(rng)
        assert abs(visual_metric(x, xi, antipode(x, xi)) - 1.0) < 1e-10


def test_visual_metric_right_angle_value():
    o = origin(2)
    r = visual_metric(o, boundary_at_angle(0.0), boundary_at_angle(math.pi / 2))
    assert abs(r - math.sin(math.pi / 4)) < 1e-15


def test_visual_metric_matches_radial_limit():
    rng = np.random.default_rng(18)
    for _ in range(200):
        x = random_space_point(rng)
        xi = random_boundary_direction(rng)
        eta = random_boundary_direction(rng)
        assert abs(visual_metric(x, xi, eta) - oracles.visual_limit(x, xi, eta)) < 1e-7
        assert abs(gromov_product(x, xi, eta) - oracles.gromov_limit(x, xi, eta)) < 1e-7


def test_visual_metric_coincident_rays():
    o = origin(2)
    xi = boundary_at_angle(1.0)
    assert visual_metric(o, xi, xi) == 0.0
    assert gromov_product(o, xi, xi) == math.inf


def test_visual_metric_triangle_inequality():
    rng = np.random.default_rng(19)
    for _ in range(300):
        x = random_space_point(rng)
        a, b, c = (random_boundary_direction(rng) for _ in range(3))
        assert visual_metric(x, a, c) <= visual_metric(x, a, b) + visual_metric(x, b, c) + 1e-9


def test_conformal_factor_identity_between_basepoints():
    # rho_y^2 = rho_x^2 * exp(B(x,y,xi)) * exp(B(x,y,eta))
    rng = np.random.default_rng(20)
    for _ in range(300):
        x = random_space_point(rng)
        y = random_space_point(rng)
        xi = random_boundary_direction(rng)
        eta = random_boundary_direction(rng)
        lhs = visual_metric(y, xi, eta) ** 2
        rhs = (
            visual_metric(x, xi, eta) ** 2
            * math.exp(busemann(x, y, xi))
            * math.exp(busemann(x, y, eta))
        )
        assert abs(lhs - rhs) < 1e-10


def test_visual_metric_derivative_is_exp_busemann():
    # d rho_y / d rho_x at xi, taken as a limit of ratios along eta -> xi
    rng = np.random.default_rng(21)
    x = random_space_point(rng)
    y = random_space_point(rng)
    theta = 0.8
    xi = boundary_at_angle(theta)
    target = math.exp(busemann(x, y, xi))
    for eps in [1e-5]:
        eta = boundary_at_angle(theta + eps)
        ratio = visual_metric(y, xi, eta) / visual_metric(x, xi, eta)
        assert abs(ratio - target) < 1e-4


# ---------------------------------------------------------------------------
# cross-ratio

def test_cross_ratio_square_configuration():
    quad = [boundary_at_angle(t) for t in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    assert abs(cross_ratio(*quad) - 2.0) < 1e-12


def test_cross_ratio_swap_reciprocal():
    rng = np.random.default_rng(22)
    for _ in range(100):
        a, b, c, d = (random_boundary_direction(rng) for _ in range(4))
        assert abs(cross_ratio(a, b, c, d) * cross_ratio(a, b, d, c) - 1.0) < 1e-12


def test_cross_ratio_basepoint_independent():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b, c, d = (random_boundary_direction(rng) for _ in range(4))
        cr = cross_ratio(a, b, c, d)
        for x in (origin(2), random_space_point(rng)):
            via_rho = (visual_metric(x, a, c) * visual_metric(x, b, d)) / (
                visual_metric(x, a, d) * visual_metric(x, b, c)
            )
            assert abs(cr - via_rho) < 1e-10


def test_cross_ratio_matches_distance_limit():
    rng = np.random.default_rng(24)
    for _ in range(50):
        a, b, c, d = (random_boundary_direction(rng) for _ in range(4))
        assert abs(cross_ratio(a, b, c, d) - oracles.cross_ratio_limit(a, b, c, d)) < 1e-6


def test_cross_ratio_degenerate_quadruple():
    xi = boundary_at_angle(0.0)
    eta = boundary_at_angle(1.0)
    with pytest.raises(ValueError):
        cross_ratio(xi, eta, xi, eta)


# ---------------------------------------------------------------------------
# comparison angles

def test_comparison_angle_extremes():
    o = origin(2)
    xi, eta = boundary_at_angle(0.0), boundary_at_angle(math.pi)
    for k in (1.0, 2.0, 0.5):
        assert abs(comparison_angle(k, o, xi, eta) - math.pi) < 1e-12
    assert comparison_angle(1.0, o, xi, xi) == 0.0


def test_comparison_angle_known_values():
    o = origin(2)
    xi, eta = boundary_at_angle(0.0), boundary_at_angle(math.pi / 2)
    assert abs(comparison_angle(1.0, o, xi, eta) - math.pi / 2) < 1e-12
    # rho = sin(pi/4), k = 2: 2*arcsin(1/2) = pi/3
    assert abs(comparison_angle(2.0, o, xi, eta) - math.pi / 3) < 1e-12


def test_comparison_angle_equals_riemannian_angle_at_k1():
    rng = np.random.default_rng(25)
    for _ in range(200):
        x = random_space_point(rng)
        xi = random_boundary_direction(rng)
        eta = random_boundary_direction(rng)
        cosang = minkowski(direction_to(x, xi).dir, direction_to(x, eta).dir)
        riem = math.acos(min(1.0, max(-1.0, cosang)))
        assert abs(comparison_angle(1.0, x, xi, eta) - riem) < 1e-9


def test_point_boundary_angle_identity():
    # exp(k B(y,x,xi)) = cosh(k d) - sinh(k d) cos(angle_k), where for k = 1
    # the angle is the Riemannian angle at x between y and xi.
    rng = np.random.default_rng(26)
    for _ in range(300):
        x = random_space_point(rng)
        y = random_space_point(rng)
        if dist(x, y) < 1e-6:
            continue
        xi = random_boundary_direction(rng)
        d = dist(x, y)
        toward_y = log_map(x, y) / d
        cosang = minkowski(toward_y, direction_to(x, xi).dir)
        lhs = math.exp(busemann(y, x, xi))
        rhs = math.cosh(d) - math.sinh(d) * cosang
        assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# Busemann derivatives

def test_busemann_gradient_is_unit_and_radial():
    rng = np.random.default_rng(27)
    for _ in range(100):
        z = random_space_point(rng)
        eta = random_boundary_direction(rng)
        g = busemann_gradient(z, eta)
        assert abs(minkowski(g, g) - 1.0) < 1e-10
        assert abs(minkowski(g, z.coords)) < 1e-10
        np.testing.assert_allclose(g, -direction_to(z, eta).dir)


def test_busemann_gradient_matches_finite_differences():
    rng = np.random.default_rng(28)
    y0 = origin(2)
    for _ in range(50):
        z = random_space_point(rng)
        eta = random_boundary_direction(rng)
        g = busemann_gradient(z, eta)
        for _ in range(3):
            w = random_tangent_vector(rng, z)
            fd = oracles.directional_derivative(lambda q: busemann(q, y0, eta), z, w)
            assert abs(minkowski(g, w) - fd) < 1e-6


def test_busemann_hessian_radial_and_orthogonal():
    rng = np.random.default_rng(29)
    for _ in range(50):
        z = random_space_point(rng)
        eta = random_boundary_direction(rng)
        radial = direction_to(z, eta).dir
        assert abs(busemann_hessian(z, eta, radial)) < 1e-12
        # any unit tangent orthogonal to the radial direction has curvature 1
        w = random_tangent_vector(rng, z)
        w = w - minkowski(w, radial) * radial
        w = w / math.sqrt(minkowski(w, w))
        assert abs(busemann_hessian(z, eta, w) - 1.0) < 1e-12


def test_busemann_hessian_matches_finite_differences():
    rng = np.random.default_rng(30)
    y0 = origin(2)
    for _ in range(30):
        z = random_space_point(rng)
        eta = random_boundary_direction(rng)
        w = random_tangent_vector(rng, z)
        fd = oracles.second_derivative(lambda q: busemann(q, y0, eta), z, w)
        assert abs(busemann_hessian(z, eta, w) - fd) < 1e-5


# ---------------------------------------------------------------------------
# tangent-space calculus

def test_exp_log_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = random_space_point(rng)
        y = random_space_point(rng)
        v = log_map(x, y)
        np.testing.assert_allclose(exp_map(x, v).coords, y.coords, atol=1e-9)
        assert abs(math.sqrt(max(minkowski(v, v), 0.0)) - dist(x, y)) < 1e-9


def test_tangent_basis_orthonormal():
    rng = np.random.default_rng(32)
    for dim in (2, 3, 5):
        x = random_space_point(rng, dim=dim)
        basis = tangent_basis(x)
        gram = np.array([[minkowski(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(dim), atol=1e-12)
        for e in basis:
            assert abs(minkowski(e, x.coords)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_array_cores_match_typed_wrappers_bit_for_bit(dim):
    # the solver loop calls the cores on raw coordinates; the typed
    # functions must give the very same bits
    rng = np.random.default_rng(35 + dim)
    for _ in range(50):
        x = random_space_point(rng, dim=dim, radius=3.0)
        v = 5.0 * random_tangent_vector(rng, x)
        assert _basis(x.coords).tobytes() == tangent_basis(x).tobytes()
        step = _on_sheet(_exp_coords(x.coords, v))
        assert step.tobytes() == exp_map(x, v).coords.tobytes()
    # the zero step returns the point itself in both
    assert _exp_coords(x.coords, np.zeros(dim + 1)) is x.coords
    assert exp_map(x, np.zeros(dim + 1)) is x


@pytest.mark.parametrize("dim", [2, 3])
def test_sheet_check_core_rejects_off_sheet_points(dim):
    x = origin(dim).coords
    with pytest.raises(ValueError, match="future sheet"):
        _on_sheet(-x)
    off = x.copy()
    off[1] = 0.5
    with pytest.raises(ValueError, match="off the hyperboloid"):
        _on_sheet(off)
    # a step of length 20 straight back from distance 12 cancels so badly
    # that -<c, c> loses its sign: the step core raises, as the line search
    # of the solver expects
    far = np.zeros(dim + 1)
    far[0], far[1] = math.cosh(12.0), math.sinh(12.0)
    with pytest.raises(ValueError):
        _on_sheet(_exp_coords(far, -20.0 * _basis(far)[0]))


def test_tangent_projection_idempotent():
    rng = np.random.default_rng(33)
    x = random_space_point(rng)
    v = rng.normal(size=3)
    p = tangent_projection(x, v)
    assert abs(minkowski(p, x.coords)) < 1e-12
    np.testing.assert_allclose(tangent_projection(x, p), p, atol=1e-12)


def test_boundary_geodesic_endpoints_and_parametrization():
    rng = np.random.default_rng(34)
    for _ in range(100):
        xi = random_boundary_direction(rng)
        eta = random_boundary_direction(rng)
        s = rng.uniform(-2, 2)
        u = boundary_geodesic(xi, eta, s)
        np.testing.assert_allclose(boundary_endpoint(u).coords, eta.coords, atol=1e-9)
        np.testing.assert_allclose(
            boundary_endpoint(flip(u)).coords, xi.coords, atol=1e-9
        )
        # parametrized so that B(gamma(s), gamma(0), eta) = -s
        base0 = boundary_geodesic(xi, eta, 0.0).base
        assert abs(busemann(u.base, base0, eta) + s) < 1e-9
    with pytest.raises(ValueError):
        boundary_geodesic(xi, xi, 0.0)


# ---------------------------------------------------------------------------
# seeded isometries

@pytest.mark.parametrize("dim", [2, 3, 4])
def test_lorentz_exponential_matches_scipy(dim):
    from scipy.linalg import expm

    J = np.diag([-1.0] + [1.0] * dim)
    for seed in range(200):
        rng = np.random.default_rng([seed, dim])
        b = rng.normal(size=dim)
        b *= rng.uniform(0.0, 1.5) / np.linalg.norm(b)
        a = rng.uniform(-math.pi, math.pi, size=(dim, dim))
        gen = np.zeros((dim + 1, dim + 1))
        gen[0, 1:] = gen[1:, 0] = b
        gen[1:, 1:] = a - a.T
        got, want = _expm(gen), expm(gen)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(got.T @ J @ got - J)) <= 1e-12
    g = random_lorentz(np.random.default_rng(dim), dim=dim)
    assert np.max(np.abs(g.T @ J @ g - J)) <= 1e-12 and g[0, 0] >= 1.0


def test_cli_import_loads_no_scipy():
    # scipy costs a third of a second and about 28 MiB on import; the
    # library reaches for it only inside the calls that need it
    src = os.path.dirname(os.path.dirname(os.path.abspath(horobary.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, horobary.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
