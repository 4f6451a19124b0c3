import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from horobary.hyperboloid import (
    BoundaryDirection,
    SpacePoint,
    boundary_endpoint,
    busemann,
    direction_to,
    dist,
    flip,
    geodesic_flow,
    geodesic_point,
    origin,
    visual_metric,
)
from horobary import moebius
from horobary.measures import uniform_boundary_grid
from horobary.moebius import (
    BoundaryMap,
    MoebiusMetric,
    conjugacy_footpoints,
    cross_ratio_deviation,
    dM_distance,
    geodesic_conjugacy,
    map_from_dict,
    map_to_dict,
    metric_derivative,
    metric_eval,
    nearest_visual_projection,
    probe_quadruples,
)
from horobary.barycenter import SolverConfig
from horobary.sampling import (
    random_boundary_direction,
    random_lorentz,
    random_space_point,
    random_unit_tangent,
)
from oracles import bracketed_conjugacy, oracle_visual_projection


def _loads_scipy_optimize(code):
    """Whether running code in a fresh interpreter imports scipy.optimize."""
    src = os.path.dirname(os.path.dirname(moebius.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = code + "import sys\nprint('scipy.optimize' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


def lorentz_map(seed):
    rng = np.random.default_rng(seed)
    return BoundaryMap("lorentz", random_lorentz(rng))


def warp_map(amplitude=0.1):
    return BoundaryMap("perturbed", np.eye(3), np.array([amplitude]))


# ---------------------------------------------------------------------------
# boundary maps

class TestBoundaryMap:
    def test_lorentz_validation(self):
        with pytest.raises(ValueError):
            BoundaryMap("lorentz", 1.1 * np.eye(3))
        with pytest.raises(ValueError):
            BoundaryMap("lorentz", np.diag([-1.0, -1.0, 1.0]))  # time reversal
        with pytest.raises(ValueError):
            BoundaryMap("lorentz", np.eye(4)[:3])
        with pytest.raises(ValueError):
            BoundaryMap("whatever", np.eye(3))
        with pytest.raises(ValueError):
            BoundaryMap("lorentz", np.eye(3), warp=np.array([0.1]))

    def test_perturbed_validation(self):
        warp_map(0.3)  # fine
        with pytest.raises(ValueError):
            BoundaryMap("perturbed", np.eye(3), np.array([1.2]))
        with pytest.raises(ValueError):
            BoundaryMap("perturbed", np.eye(3), np.array([]))
        with pytest.raises(ValueError):
            BoundaryMap("perturbed", np.eye(4), np.array([0.1]))

    def test_bijection_round_trip(self):
        rng = np.random.default_rng(3)
        for f in (lorentz_map(11), warp_map(0.2)):
            for _ in range(25):
                xi = random_boundary_direction(rng)
                back = f.inverse(f(xi))
                assert np.max(np.abs(back.coords - xi.coords)) < 1e-9
                forth = f(f.inverse(xi))
                assert np.max(np.abs(forth.coords - xi.coords)) < 1e-9

    def test_json_round_trip(self):
        for f in (lorentz_map(5), warp_map(0.15)):
            data = json.loads(json.dumps(map_to_dict(f)))
            g = map_from_dict(data)
            assert g.variant == f.variant
            np.testing.assert_array_equal(g.matrix, f.matrix)
            if f.warp is not None:
                np.testing.assert_array_equal(g.warp, f.warp)

    def test_malformed_map_dict(self):
        with pytest.raises(ValueError):
            map_from_dict({"variant": "lorentz"})
        with pytest.raises(ValueError):
            map_from_dict({"variant": "perturbed", "matrix": np.eye(3).tolist()})
        with pytest.raises(ValueError):
            map_from_dict(
                {
                    "variant": "perturbed",
                    "matrix": np.eye(3).tolist(),
                    "warp": {"type": "spline", "coeffs": [0.1]},
                }
            )


# ---------------------------------------------------------------------------
# cross-ratio deviation

class TestCrossRatio:
    def test_identity_is_exact(self):
        assert cross_ratio_deviation(BoundaryMap.identity(), probe_quadruples()) == 0.0

    def test_lorentz_preserves_cross_ratios(self):
        for seed in range(5):
            dev = cross_ratio_deviation(lorentz_map(seed), probe_quadruples())
            assert dev <= 1e-9

    def test_warp_is_detected(self):
        dev = cross_ratio_deviation(warp_map(0.1), probe_quadruples())
        assert dev > 1e-3


# ---------------------------------------------------------------------------
# metric evaluation

class TestMetricEval:
    def test_visual_antipodal_pair(self):
        rho = MoebiusMetric(origin(2))
        xi = BoundaryDirection([1.0, 1.0, 0.0])
        eta = BoundaryDirection([1.0, -1.0, 0.0])
        assert metric_eval(rho, xi, eta) == pytest.approx(1.0, abs=1e-12)

    def test_pushforward_by_identity_matches_visual(self):
        rng = np.random.default_rng(8)
        x = random_space_point(rng)
        rho_v = MoebiusMetric(x)
        rho_p = MoebiusMetric(x, BoundaryMap.identity())
        for _ in range(10):
            a, b = random_boundary_direction(rng), random_boundary_direction(rng)
            assert metric_eval(rho_p, a, b) == pytest.approx(
                metric_eval(rho_v, a, b), abs=1e-14
            )

    def test_pushforward_by_lorentz_is_visual_at_image(self):
        rng = np.random.default_rng(9)
        f = lorentz_map(21)
        x = random_space_point(rng)
        gx = SpacePoint(f.matrix @ x.coords)
        rho_p = MoebiusMetric(x, f)
        rho_v = MoebiusMetric(gx)
        for _ in range(20):
            a, b = random_boundary_direction(rng), random_boundary_direction(rng)
            assert abs(metric_eval(rho_p, a, b) - metric_eval(rho_v, a, b)) < 1e-10

    def test_metric_axioms_on_samples(self):
        rng = np.random.default_rng(10)
        for rho in (
            MoebiusMetric(random_space_point(rng)),
            MoebiusMetric(random_space_point(rng), lorentz_map(31)),
            MoebiusMetric(origin(2), warp_map(0.2)),
        ):
            pts = [random_boundary_direction(rng) for _ in range(6)]
            for a in pts:
                assert metric_eval(rho, a, a) == 0.0
                for b in pts:
                    rab = metric_eval(rho, a, b)
                    assert 0.0 <= rab <= 1.0 + 1e-12
                    assert rab == pytest.approx(metric_eval(rho, b, a), abs=1e-12)
                    for c in pts:
                        assert rab <= metric_eval(rho, a, c) + metric_eval(rho, c, b) + 1e-9


# ---------------------------------------------------------------------------
# conformal derivatives

class TestMetricDerivative:
    def test_same_metric_gives_one(self):
        rng = np.random.default_rng(12)
        x = random_space_point(rng)
        xi = random_boundary_direction(rng)
        assert metric_derivative(MoebiusMetric(x), MoebiusMetric(x), xi) == pytest.approx(1.0)
        f = lorentz_map(1)
        rho = MoebiusMetric(x, f)
        assert metric_derivative(rho, rho, xi) == pytest.approx(1.0, abs=1e-10)

    def test_visual_pair_matches_busemann(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x, y = random_space_point(rng), random_space_point(rng)
            xi = random_boundary_direction(rng)
            want = math.exp(busemann(x, y, xi))
            assert metric_derivative(MoebiusMetric(y), MoebiusMetric(x), xi) == pytest.approx(want, rel=1e-12)

    def test_bootstrap_path_matches_busemann(self):
        # wrapping y's metric as a pushforward by the identity forces the
        # two-point bootstrap, which must agree with the closed form
        rng = np.random.default_rng(14)
        ident = BoundaryMap.identity()
        for _ in range(10):
            x, y = random_space_point(rng), random_space_point(rng)
            xi = random_boundary_direction(rng)
            got = metric_derivative(MoebiusMetric(y, ident), MoebiusMetric(x), xi)
            assert got == pytest.approx(math.exp(busemann(x, y, xi)), rel=1e-9)

    def test_gmvt_identity_on_samples(self):
        rng = np.random.default_rng(15)
        f = lorentz_map(41)
        rho1 = MoebiusMetric(random_space_point(rng))
        rho2 = MoebiusMetric(random_space_point(rng), f)
        for _ in range(15):
            xi, eta = random_boundary_direction(rng), random_boundary_direction(rng)
            lhs = metric_eval(rho2, xi, eta) ** 2
            rhs = (
                metric_derivative(rho2, rho1, xi)
                * metric_derivative(rho2, rho1, eta)
                * metric_eval(rho1, xi, eta) ** 2
            )
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_chain_and_reciprocal_rules(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            r1 = MoebiusMetric(random_space_point(rng))
            r2 = MoebiusMetric(random_space_point(rng))
            r3 = MoebiusMetric(random_space_point(rng))
            xi = random_boundary_direction(rng)
            d31 = metric_derivative(r3, r1, xi)
            d32 = metric_derivative(r3, r2, xi)
            d21 = metric_derivative(r2, r1, xi)
            assert d31 == pytest.approx(d32 * d21, rel=1e-8)
            assert metric_derivative(r1, r2, xi) == pytest.approx(1.0 / d21, rel=1e-9)

    def test_max_times_min_aligned_grid(self):
        # extremal directions of the derivative lie in the grid when y
        # sits in a grid direction, so the product identity bites at 1e-6
        o = origin(2)
        grid = uniform_boundary_grid(360, o)
        y = geodesic_point(direction_to(o, grid.atom(0)), 1.3)
        derivs = [
            metric_derivative(MoebiusMetric(y), MoebiusMetric(o), grid.atom(i))
            for i in range(len(grid))
        ]
        assert max(derivs) * min(derivs) == pytest.approx(1.0, abs=1e-6)

    def test_max_times_min_generic_grid(self):
        # off-grid extremal directions cost a quadratic-in-resolution term
        rng = np.random.default_rng(17)
        x, y = random_space_point(rng), random_space_point(rng)
        grid = uniform_boundary_grid(360, origin(2))
        derivs = [
            metric_derivative(MoebiusMetric(y), MoebiusMetric(x), grid.atom(i))
            for i in range(len(grid))
        ]
        slack = 1.1 * math.sinh(dist(x, y)) ** 2 * (math.pi / 360) ** 2
        assert abs(max(derivs) * min(derivs) - 1.0) <= slack
        imax = int(np.argmax(derivs))
        imin = int(np.argmin(derivs))
        sep = visual_metric(x, grid.atom(imax), grid.atom(imin))
        assert sep >= 1.0 - 1e-3

    def test_non_moebius_pair_faults(self):
        rng = np.random.default_rng(18)
        rho1 = MoebiusMetric(random_space_point(rng))
        rho2 = MoebiusMetric(origin(2), warp_map(0.1))
        with pytest.raises(ValueError, match="cross-ratio deviation"):
            metric_derivative(rho2, rho1, random_boundary_direction(rng))


# ---------------------------------------------------------------------------
# the metric on the Moebius class

class TestDMDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(20)
        rho = MoebiusMetric(random_space_point(rng))
        grid = uniform_boundary_grid(64, origin(2))
        assert dM_distance(rho, rho, grid) == 0.0

    def test_embedding_is_isometric(self):
        rng = np.random.default_rng(21)
        grid = uniform_boundary_grid(10_000, origin(2))
        for _ in range(5):
            x, y = random_space_point(rng), random_space_point(rng)
            got = dM_distance(MoebiusMetric(x), MoebiusMetric(y), grid)
            assert abs(got - dist(x, y)) < 1e-4

    def test_symmetry_on_pushforward_pairs(self):
        rng = np.random.default_rng(22)
        grid = uniform_boundary_grid(256, origin(2))
        for seed in range(3):
            rho1 = MoebiusMetric(random_space_point(rng), lorentz_map(seed))
            rho2 = MoebiusMetric(random_space_point(rng), lorentz_map(seed + 50))
            a = dM_distance(rho1, rho2, grid)
            b = dM_distance(rho2, rho1, grid)
            assert abs(a - b) < 1e-6

    def test_triangle_inequality_on_samples(self):
        rng = np.random.default_rng(23)
        grid = uniform_boundary_grid(128, origin(2))
        for _ in range(5):
            r1 = MoebiusMetric(random_space_point(rng))
            r2 = MoebiusMetric(random_space_point(rng))
            r3 = MoebiusMetric(random_space_point(rng), lorentz_map(7))
            d13 = dM_distance(r1, r3, grid)
            assert d13 <= dM_distance(r1, r2, grid) + dM_distance(r2, r3, grid) + 1e-9

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(24)
        x, y = random_space_point(rng), random_space_point(rng)
        rho1, rho2 = MoebiusMetric(x), MoebiusMetric(y)
        vals = [
            dM_distance(rho1, rho2, uniform_boundary_grid(n, origin(2)))
            for n in (90, 180, 360, 720)
        ]
        assert vals == sorted(vals)

    def test_empty_grid_rejected(self):
        rho = MoebiusMetric(origin(2))
        with pytest.raises(ValueError):
            dM_distance(rho, rho, np.empty((0, 3)))


# ---------------------------------------------------------------------------
# geodesic conjugacy

class TestConjugacy:
    def test_identity_map_fixes_tangents(self):
        rng = np.random.default_rng(30)
        f = BoundaryMap.identity()
        for _ in range(10):
            u = random_unit_tangent(rng)
            v = geodesic_conjugacy(f, u)
            assert np.max(np.abs(v.base.coords - u.base.coords)) < 1e-9
            assert np.max(np.abs(v.dir - u.dir)) < 1e-9

    def test_lorentz_map_acts_by_differential(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            f = lorentz_map(seed)
            u = random_unit_tangent(rng)
            v = geodesic_conjugacy(f, u)
            assert np.max(np.abs(v.base.coords - f.matrix @ u.base.coords)) < 1e-9
            assert np.max(np.abs(v.dir - f.matrix @ u.dir)) < 1e-9

    def test_derivative_condition_holds(self):
        rng = np.random.default_rng(32)
        f = lorentz_map(61)
        for _ in range(10):
            u = random_unit_tangent(rng)
            v = geodesic_conjugacy(f, u)
            eta = f(boundary_endpoint(u))
            got = metric_derivative(MoebiusMetric(u.base, f), MoebiusMetric(v.base), eta)
            assert abs(got - 1.0) < 1e-8

    def test_flip_equivariance(self):
        rng = np.random.default_rng(33)
        f = lorentz_map(62)
        for _ in range(100):
            u = random_unit_tangent(rng)
            a = geodesic_conjugacy(f, flip(u))
            b = flip(geodesic_conjugacy(f, u))
            assert np.max(np.abs(a.base.coords - b.base.coords)) < 1e-8
            assert np.max(np.abs(a.dir - b.dir)) < 1e-8

    def test_flow_equivariance(self):
        rng = np.random.default_rng(34)
        f = lorentz_map(63)
        for t in (-1.3, 0.7, 2.0):
            u = random_unit_tangent(rng)
            a = geodesic_conjugacy(f, geodesic_flow(u, t))
            b = geodesic_flow(geodesic_conjugacy(f, u), t)
            assert np.max(np.abs(a.base.coords - b.base.coords)) < 1e-8
            assert np.max(np.abs(a.dir - b.dir)) < 1e-8

    def test_single_conjugacy_matches_bracketed_oracle(self):
        rng = np.random.default_rng(39)
        for dim in (2, 3, 4):
            f = BoundaryMap("lorentz", random_lorentz(rng, dim=dim))
            for _ in range(5):
                u = random_unit_tangent(rng, dim=dim)
                v = geodesic_conjugacy(f, u)
                w = bracketed_conjugacy(f, u)
                assert np.max(np.abs(v.base.coords - w.base.coords)) < 1e-9
                assert np.max(np.abs(v.dir - w.dir)) < 1e-9

    def test_footpoints_match_single_conjugacy(self):
        rng = np.random.default_rng(35)
        maps = (lorentz_map(64), BoundaryMap("lorentz", random_lorentz(rng, dim=3)))
        for f in maps:
            x = random_space_point(rng, dim=f.dim)
            grid = uniform_boundary_grid(64, x)
            foots = conjugacy_footpoints(f, x, grid)
            assert foots.kind == "tangent" and len(foots) == len(grid)
            assert np.array_equal(foots.weights, grid.weights)
            for i in range(len(grid)):
                w = foots.atom(i)
                u = direction_to(x, grid.atom(i))
                for v in (geodesic_conjugacy(f, u), bracketed_conjugacy(f, u)):
                    assert np.max(np.abs(w.base.coords - v.base.coords)) < 1e-9
                    assert np.max(np.abs(w.dir - v.dir)) < 1e-9

    def test_footpoints_correction_step(self, monkeypatch):
        # at a tolerance below the rounding floor some rows of this seeded
        # case miss it after the exact step; the one correction step s + h(s)
        # must bring every one of them within it, onto the oracle's answer
        rng = np.random.default_rng(13)
        f = BoundaryMap("lorentz", random_lorentz(rng))
        x = random_space_point(rng)
        grid = uniform_boundary_grid(16, x)
        plain = conjugacy_footpoints(f, x, grid)
        monkeypatch.setattr(moebius, "DERIV_CONDITION_TOL", 1e-13)
        foots = conjugacy_footpoints(f, x, grid)
        # the correction moved some rows, so it was taken
        assert np.any(foots.coords != plain.coords)
        for i, w in enumerate(foots.atoms):
            v = bracketed_conjugacy(f, direction_to(x, grid.atom(i)))
            assert np.max(np.abs(w.base.coords - v.base.coords)) < 1e-9
            assert np.max(np.abs(w.dir - v.dir)) < 1e-9

    def test_footpoints_raise_when_the_correction_fails(self, monkeypatch):
        # a negative tolerance fails the derivative check on every row, even
        # after the correction step
        rng = np.random.default_rng(37)
        f = lorentz_map(65)
        x = random_space_point(rng)
        grid = uniform_boundary_grid(16, x)
        monkeypatch.setattr(moebius, "DERIV_CONDITION_TOL", -1.0)
        with pytest.raises(ValueError, match="row 0 misses the derivative condition"):
            conjugacy_footpoints(f, x, grid)
        with pytest.raises(ValueError, match="misses the derivative condition"):
            geodesic_conjugacy(f, direction_to(x, grid.atom(0)))

    def test_conjugacy_path_leaves_scipy_optimize_unimported(self):
        # the conjugacy and the finite-p extension need no scipy.optimize;
        # a fresh interpreter shows whether anything on the path imports it
        code = (
            "import math\n"
            "import numpy as np\n"
            "from horobary.extension import ExtensionContext, extension_result\n"
            "from horobary.hyperboloid import direction_to\n"
            "from horobary.measures import uniform_boundary_grid\n"
            "from horobary.moebius import BoundaryMap, conjugacy_footpoints, geodesic_conjugacy\n"
            "from horobary.sampling import random_lorentz, random_space_point\n"
            "rng = np.random.default_rng(3)\n"
            "f = BoundaryMap('lorentz', random_lorentz(rng))\n"
            "x = random_space_point(rng)\n"
            "grid = uniform_boundary_grid(64, x)\n"
            "geodesic_conjugacy(f, direction_to(x, grid.atom(0)))\n"
            "conjugacy_footpoints(f, x, grid)\n"
            "ctx = ExtensionContext(f, grid)\n"
            "assert extension_result(ctx, x, 2.0).converged\n"
            "assert extension_result(ctx, x, math.inf).converged\n"
        )
        assert not _loads_scipy_optimize(code)

    def test_non_moebius_map_rejected(self):
        rng = np.random.default_rng(36)
        with pytest.raises(ValueError, match="cross-ratio deviation"):
            geodesic_conjugacy(warp_map(0.1), random_unit_tangent(rng))

    def test_gate_deviation_computed_once_per_map(self, monkeypatch):
        calls = []

        def counted(f, quadruples):
            calls.append(f)
            return cross_ratio_deviation(f, quadruples)

        monkeypatch.setattr(moebius, "cross_ratio_deviation", counted)
        rng = np.random.default_rng(38)
        f = lorentz_map(66)
        x = random_space_point(rng)
        grid = uniform_boundary_grid(16, x)
        for _ in range(3):
            conjugacy_footpoints(f, x, grid)
        assert calls == [f]
        # the gate itself still runs on every call
        warped = warp_map(0.1)
        for _ in range(2):
            with pytest.raises(ValueError, match="cross-ratio deviation"):
                conjugacy_footpoints(warped, x, grid)
        assert calls == [f, warped]


# ---------------------------------------------------------------------------
# nearest visual metric

class TestNearestVisual:
    def test_visual_metric_projects_to_its_point(self):
        rng = np.random.default_rng(40)
        x = random_space_point(rng)
        rho, cfg = MoebiusMetric(x), SolverConfig(initial=origin(2))
        z = nearest_visual_projection(rho, cfg=cfg)
        assert dist(z, x) < 1e-6
        assert dist(z, oracle_visual_projection(rho, cfg=cfg)) < 1e-6

    def test_lorentz_pushforward_projects_to_image(self):
        rng = np.random.default_rng(41)
        f = lorentz_map(71)
        x = random_space_point(rng)
        gx = SpacePoint(f.matrix @ x.coords)
        rho, cfg = MoebiusMetric(x, f), SolverConfig(initial=origin(2))
        z = nearest_visual_projection(rho, cfg=cfg)
        assert dist(z, gx) < 1e-6
        assert dist(z, oracle_visual_projection(rho, cfg=cfg)) < 1e-6

    def test_lorentz_pushforward_projects_to_image_dim3(self):
        rng = np.random.default_rng(42)
        f = BoundaryMap("lorentz", random_lorentz(rng, dim=3))
        x = random_space_point(rng, dim=3)
        gx = SpacePoint(f.matrix @ x.coords)
        rho, cfg = MoebiusMetric(x, f), SolverConfig(initial=origin(3))
        z = nearest_visual_projection(rho, cfg=cfg)
        assert dist(z, gx) < 1e-6
        assert dist(z, oracle_visual_projection(rho, cfg=cfg)) < 1e-6

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_projection_from_the_origin_recentres_its_grid(self, dim):
        # a grid centred at the origin leaves gaps as seen from points at
        # radius 3: a single solve on it misses g x by up to 0.83 in these
        # draws (point 0 in dim 2, 18 in dim 3, 6, 8 and 16 in dim 4), and
        # the re-centred grid recovers every point
        rng = np.random.default_rng([7, dim])
        for _ in range(20):
            g = random_lorentz(rng, dim=dim)
            x = random_space_point(rng, dim=dim, radius=3.0)
            gx = SpacePoint(g @ x.coords)
            rho = MoebiusMetric(x, BoundaryMap("lorentz", g))
            z = nearest_visual_projection(rho, cfg=SolverConfig(initial=origin(dim)))
            assert dist(z, gx) <= 1e-9

    def test_projection_leaves_scipy_optimize_unimported(self):
        # the projection is the library's own interior point; dims 2 and 3
        # are checked, since the dim >= 4 sphere grid imports scipy.stats,
        # which loads scipy.optimize itself
        code = (
            "import numpy as np\n"
            "from horobary.barycenter import SolverConfig\n"
            "from horobary.hyperboloid import origin\n"
            "from horobary.moebius import BoundaryMap, MoebiusMetric, nearest_visual_projection\n"
            "from horobary.sampling import random_lorentz, random_space_point\n"
            "rng = np.random.default_rng(5)\n"
            "for dim in (2, 3):\n"
            "    x = random_space_point(rng, dim=dim)\n"
            "    f = BoundaryMap('lorentz', random_lorentz(rng, dim=dim))\n"
            "    nearest_visual_projection(MoebiusMetric(x))\n"
            "    nearest_visual_projection(MoebiusMetric(x, f), SolverConfig(initial=origin(dim)))\n"
        )
        assert not _loads_scipy_optimize(code)

    def test_non_moebius_metric_rejected(self):
        with pytest.raises(ValueError, match="cross-ratio deviation"):
            nearest_visual_projection(MoebiusMetric(origin(2), warp_map(0.1)))
