import math

import numpy as np
import pytest

from horobary import extension
from horobary.hyperboloid import (
    BoundaryDirection,
    ModelConfig,
    SpacePoint,
    UnitTangent,
    busemann,
    direction_to,
    dist,
    exp_map,
    geodesic_point,
    minkowski,
    origin,
    tangent_basis,
)
from horobary.measures import DiscreteMeasure, uniform_boundary_grid
from horobary.moebius import BoundaryMap, MoebiusMetric, metric_derivative
from horobary.extension import (
    ExtensionContext,
    argmax_set,
    balance_residual,
    circumcenter_extension,
    conformal_weight,
    conjugated_measure,
    derivative_identity_residual,
    extension_differential,
    extension_result,
    hull_certificate,
    inverse_consistency,
    lipschitz_audit,
    main_inequality_audit,
    mu_x_p,
    p_extension,
)
from horobary.sampling import random_lorentz, random_space_point

import oracles

O = origin(2)


def lorentz_ctx(seed, n=64, at=None):
    rng = np.random.default_rng(seed)
    f = BoundaryMap("lorentz", random_lorentz(rng))
    return ExtensionContext(f, uniform_boundary_grid(n, at if at is not None else O))


def identity_ctx(n=64, at=None):
    f = BoundaryMap.identity(2)
    return ExtensionContext(f, uniform_boundary_grid(n, at if at is not None else O))


def apply_matrix(mat, x):
    return SpacePoint(mat @ x.coords)


def point_at(direction, s):
    d = np.array([0.0, *direction], float)
    return geodesic_point(UnitTangent(O, d / np.linalg.norm(d)), s)


# ---------------------------------------------------------------------------
# context validation

class TestContext:
    def test_rejects_interior_measure(self):
        pts = [point_at([1.0, 0.0], 0.5), point_at([0.0, 1.0], 0.5)]
        interior = DiscreteMeasure.from_atoms(pts, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="boundary"):
            ExtensionContext(BoundaryMap.identity(2), interior)

    def test_rejects_single_atom(self):
        grid = uniform_boundary_grid(4, O)
        single = DiscreteMeasure("boundary", grid.coords[:1], np.array([1.0]))
        with pytest.raises(ValueError, match="two atoms"):
            ExtensionContext(BoundaryMap.identity(2), single)

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        f = BoundaryMap("lorentz", random_lorentz(rng, dim=3))
        with pytest.raises(ValueError, match="dimension"):
            ExtensionContext(f, uniform_boundary_grid(8, O))

    def test_gate_rejects_warped_map(self):
        warped = BoundaryMap("perturbed", np.eye(3), np.array([0.1]))
        with pytest.raises(ValueError, match="cross-ratio deviation"):
            ExtensionContext(warped, uniform_boundary_grid(8, O))


# ---------------------------------------------------------------------------
# conformal weights

class TestConformalWeight:
    def test_identity_map_at_own_point(self):
        ctx = identity_ctx(16)
        x = point_at([0.3, -0.8], 0.7)
        for i in range(len(ctx.base_measure)):
            assert abs(conformal_weight(ctx, x, x, ctx.base_measure.atom(i))) < 1e-12

    def test_identity_map_reduces_to_busemann(self):
        ctx = identity_ctx(8)
        x = point_at([1.0, 0.4], 0.9)
        z = point_at([-0.5, 1.0], 1.3)
        for i in range(len(ctx.base_measure)):
            xi = ctx.base_measure.atom(i)
            w = conformal_weight(ctx, x, z, xi)
            assert abs(w - busemann(z, x, xi)) < 1e-9

    def test_lorentz_moves_the_observer(self):
        # the weight of the pushed metric at z equals the identity weight
        # seen by the pulled-back observer
        ctx = lorentz_ctx(5, n=8)
        ctx_id = identity_ctx(8)
        ginv = np.linalg.inv(ctx.f.matrix)
        x = point_at([0.2, 1.0], 0.8)
        z = point_at([1.0, -0.3], 1.1)
        for i in range(len(ctx.base_measure)):
            xi = ctx.base_measure.atom(i)
            w = conformal_weight(ctx, x, z, xi)
            w_id = conformal_weight(ctx_id, x, apply_matrix(ginv, z), xi)
            assert abs(w - w_id) < 1e-9

    def test_all_atoms_at_once_match_per_atom_busemann(self):
        # the per-atom loop over typed objects is the reference; the
        # arithmetic is the same, so the values must agree bit for bit
        ctx = lorentz_ctx(11, n=32)
        x = point_at([0.3, 0.9], 1.4)
        z = point_at([-0.8, 0.2], 0.5)
        foots = conjugated_measure(ctx, x)
        images = ctx.f.apply_rays(ctx.base_measure.coords)
        expected = [
            busemann(z, SpacePoint(foots.coords[i]), BoundaryDirection(images[i]))
            for i in range(len(foots))
        ]
        assert extension._conformal_weights(ctx, foots, z).tolist() == expected

    def test_cross_check_against_metric_derivative(self):
        ctx = lorentz_ctx(9, n=8)
        x = point_at([0.9, 0.2], 0.6)
        z = point_at([-0.4, 0.7], 1.0)
        pushed = MoebiusMetric(x, ctx.f)
        for i in range(0, len(ctx.base_measure), 2):
            xi = ctx.base_measure.atom(i)
            w = conformal_weight(ctx, x, z, xi)
            d = metric_derivative(pushed, MoebiusMetric(z), ctx.f(xi))
            assert abs(w - math.log(d)) < 1e-8


# ---------------------------------------------------------------------------
# finite-exponent extensions

class TestPExtension:
    def test_uniform_grid_at_x_is_fixed(self):
        x = point_at([0.7, -0.7], 1.1)
        ctx = identity_ctx(64, at=x)
        for p in (1.0, 2.0, 8.0, 512.0):
            assert dist(p_extension(ctx, x, p), x) < 1e-9

    def test_displacement_decays_with_p(self):
        ctx = identity_ctx(64)
        x = point_at([0.0, 1.0], 1.7)
        for p in (2.0, 32.0, 512.0, 2.0**14):
            d = dist(p_extension(ctx, x, p), x)
            assert d <= 2.0 * dist(x, O) / p + 1e-6

    def test_equivariance_at_grid_center(self):
        ctx = lorentz_ctx(21)
        go = apply_matrix(ctx.f.matrix, O)
        for p in (1.0, 2.0, 8.0, 512.0):
            assert dist(p_extension(ctx, O, p), go) < 1e-9
        assert dist(circumcenter_extension(ctx, O), go) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3])
    def test_large_exponents_match_the_doubling_walk(self, dim):
        # minimize's own ladder from p = 64 lands where the warm-started
        # doubling from p = 2 does
        rng = np.random.default_rng([61, dim])
        ctx = ExtensionContext(
            BoundaryMap("lorentz", random_lorentz(rng, dim=dim)),
            uniform_boundary_grid(64, origin(dim)),
            ModelConfig(dim),
        )
        for _ in range(3):
            x = random_space_point(rng, dim=dim, radius=1.5)
            for p in (128.0, 1024.0, 2.0**14):
                res = extension_result(ctx, x, p)
                ref, ref_converged = oracles.doubling_extension(ctx, x, p)
                assert res.converged and ref_converged
                assert dist(res.minimizer, ref) <= 1e-9

    def test_reported_convergence(self):
        ctx = lorentz_ctx(3)
        res = extension_result(ctx, point_at([1.0, 1.0], 0.9), 32.0)
        assert res.converged
        assert res.grad_norm < 1e-10

    def test_far_dim3_point_rejects_steps_off_the_sheet(self):
        # the first Newton step from this point has length ~17 and reaches
        # height ~1e8, where -<c, c> loses its sign to rounding; the line
        # search must shorten it instead of raising a math domain error
        g = random_lorentz(np.random.default_rng([4, 0]), dim=3)
        ctx = ExtensionContext(
            BoundaryMap("lorentz", g), uniform_boundary_grid(256, origin(3)), ModelConfig(3)
        )
        rng = np.random.default_rng([4, 1])
        for _ in range(10):
            x = random_space_point(rng, dim=3, radius=3.0)
        res = extension_result(ctx, x, 1.0)
        assert res.converged
        # at p = 1 the minimizer is the normalized weighted sum of ray_i / c_i
        nu = conjugated_measure(ctx, x)
        rays = nu.coords + nu.dirs
        c = -np.array([minkowski(a, b) for a, b in zip(nu.coords, rays)])
        s = nu.weights @ (rays / c[:, None])
        assert dist(res.minimizer, SpacePoint(s / math.sqrt(-minkowski(s, s)))) < 1e-9


# ---------------------------------------------------------------------------
# the minimax limit

class TestCircumcenter:
    def test_identity_map_fixes_points(self):
        ctx = identity_ctx(64)
        for x in (O, point_at([1.0, 0.0], 0.8), point_at([-0.6, 1.0], 1.9)):
            assert dist(circumcenter_extension(ctx, x), x) < 1e-6

    def test_lorentz_map_extends_to_its_isometry(self):
        for seed in (2, 5, 8):
            ctx = lorentz_ctx(seed)
            rng = np.random.default_rng(seed + 100)
            for _ in range(3):
                x = random_space_point(rng)
                gx = apply_matrix(ctx.f.matrix, x)
                assert dist(circumcenter_extension(ctx, x), gx) < 1e-6

    def test_finite_p_converges_to_limit(self):
        ctx = lorentz_ctx(13)
        x = point_at([0.4, 1.0], 1.2)
        limit = circumcenter_extension(ctx, x)
        gaps = [dist(p_extension(ctx, x, 2.0**k), limit) for k in (4, 8, 11, 14)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_sparse_support_recovers_with_density(self):
        # a coarse grid can leave an angular gap wider than a half turn as
        # seen from a far point, and the minimax answer then drifts into
        # the gap; doubling the grid restores the isometry value
        rng = np.random.default_rng(100)
        g = random_lorentz(rng)
        far = point_at([-0.9, 0.43], 2.99)
        gx = apply_matrix(g, far)
        coarse = ExtensionContext(BoundaryMap("lorentz", g), uniform_boundary_grid(16, O))
        dense = ExtensionContext(BoundaryMap("lorentz", g), uniform_boundary_grid(32, O))
        assert dist(circumcenter_extension(coarse, far), gx) > 1e-2
        assert dist(circumcenter_extension(dense, far), gx) < 1e-9



class TestMinimaxRegressions:
    # the dim-3 inputs the p = inf benchmark workload keeps as its named
    # fault: one map per grid from default_rng([7, grid]) and the points
    # random_space_point(default_rng([7, grid, k]), 3); the active-set
    # polish that preceded the interior-point solve ended them with
    # converged=False, though its answers were g x
    FAULT_POINTS = {
        128: (4, 10, 16, 20, 21, 22, 24, 27, 30, 35, 48, 51, 52, 53, 58, 65, 67, 71, 76,
              80, 81, 85, 88, 91, 95, 98, 101, 103, 106, 114, 120, 121, 124, 133, 134,
              136, 138, 141, 142, 143),
        256: (0, 1, 4, 7, 8, 13, 15, 16, 17, 18, 19, 20, 24, 27, 28, 32, 34, 35, 36, 37,
              40, 41, 43, 46, 47, 48, 50, 53, 55, 56, 58, 59, 60, 64, 65, 66, 68, 69, 70,
              72),
    }
    # from this one 0 lies outside the hull of the grid's source directions,
    # so the discrete minimax is not g x and the point must be flagged
    GAPPED = (128, 30)

    @pytest.mark.parametrize("grid", [128, 256])
    def test_fault_inputs_converge_to_the_isometry(self, grid):
        g = random_lorentz(np.random.default_rng([7, grid]), dim=3)
        ctx = ExtensionContext(
            BoundaryMap("lorentz", g), uniform_boundary_grid(grid, origin(3)), ModelConfig(3)
        )
        for k in self.FAULT_POINTS[grid]:
            x = random_space_point(np.random.default_rng([7, grid, k]), dim=3)
            res = extension_result(ctx, x, math.inf)
            if (grid, k) == self.GAPPED:
                assert not res.converged
                assert dist(res.minimizer, apply_matrix(g, x)) > 1e-3
            else:
                assert res.converged, k
                assert dist(res.minimizer, apply_matrix(g, x)) <= 1e-8, k

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dense_grid_solves_stay_small(self, dim):
        # at grid 1024 the active-set polish solved a KKT system as large as
        # the grid: 43 s for one dim-2 point and 35 s, unconverged, in dim 3
        rng = np.random.default_rng([1024, dim])
        g = random_lorentz(rng, dim=dim)
        ctx = ExtensionContext(
            BoundaryMap("lorentz", g), uniform_boundary_grid(1024, origin(dim)), ModelConfig(dim)
        )
        for _ in range(4):
            x = random_space_point(rng, dim=dim)
            res = extension_result(ctx, x, math.inf)
            assert res.converged
            assert res.iterations <= 40
            assert dist(res.minimizer, apply_matrix(g, x)) <= 1e-9

    def test_gapped_points_are_flagged(self):
        # the points of `horobary extend --seed 9 --grid 16` under the
        # identity map: five of the ten see a gap wider than a half turn and
        # were reported converged 0.026-0.38 away from x; grid 64 has none
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        coarse, dense = identity_ctx(16), identity_ctx(64)
        flagged = 0
        for _ in range(10):
            x = random_space_point(rng)
            res = extension_result(coarse, x, math.inf)
            flagged += not res.converged
            assert (dist(res.minimizer, x) <= 1e-9) == res.converged
            res = extension_result(dense, x, math.inf)
            assert res.converged and dist(res.minimizer, x) <= 1e-9
        assert flagged == 5

    @pytest.mark.parametrize("dim, index", [(3, 26), (4, 4), (4, 5), (4, 53)])
    def test_far_gapped_points_are_flagged_not_raised(self, dim, index):
        # the index-th of the points drawn at radius 6 from
        # default_rng([11, dim, 6]), one map per point: the interior point
        # runs out of iterations there, and its last iterate, mapped back
        # from the start's frame, was off the sheet by up to 2.8e-8 and
        # raised from SpacePoint
        rng = np.random.default_rng([11, dim, 6])
        for _ in range(index + 1):
            g = random_lorentz(rng, dim=dim)
            x = random_space_point(rng, dim=dim, radius=6.0)
        ctx = ExtensionContext(
            BoundaryMap("lorentz", g), uniform_boundary_grid(64, origin(dim)), ModelConfig(dim)
        )
        res = extension_result(ctx, x, math.inf)
        assert not res.converged


# ---------------------------------------------------------------------------
# reweighted measures and balance

class TestReweightedMeasure:
    def test_identity_at_center_keeps_uniform_weights(self):
        ctx = identity_ctx(32)
        meas, rep = mu_x_p(ctx, O, 8.0)
        assert np.allclose(meas.weights, 1.0 / 32.0, atol=1e-12)
        assert rep.residual < 1e-10

    def test_weights_are_a_probability(self):
        ctx = lorentz_ctx(17)
        meas, _ = mu_x_p(ctx, point_at([1.0, 0.2], 1.0), 64.0)
        assert meas.weights.min() > 0.0
        assert abs(meas.weights.sum() - 1.0) < 1e-12

    def test_pushforward_balances_at_extension_point(self):
        ctx = lorentz_ctx(29)
        for p in (2.0, 64.0, 2.0**10):
            _, rep = mu_x_p(ctx, point_at([-0.8, 0.5], 1.4), p)
            assert rep.residual <= 1e-8

    def test_balance_at_a_far_point_reaches_the_rounding_floor(self):
        # a dim-2 case at radius 2.63 where the damped Newton solve at p = 64
        # once stalled for 500 iterations at a gradient of 2.3e-7
        rng = np.random.default_rng(np.random.SeedSequence(10033).spawn(3)[2])
        ctx = ExtensionContext(BoundaryMap("lorentz", random_lorentz(rng)), uniform_boundary_grid(64, O))
        x = random_space_point(rng)
        res = extension_result(ctx, x, 64.0)
        assert res.converged and res.iterations <= 20
        assert mu_x_p(ctx, x, 64.0)[1].residual <= 1e-8

    def test_mass_concentrates_on_argmax_set(self):
        ctx = lorentz_ctx(31)
        x = point_at([0.3, 1.0], 1.1)
        y = circumcenter_extension(ctx, x)
        aset = argmax_set(ctx, x, y, epsilon=1e-2)
        meas, _ = mu_x_p(ctx, x, 2.0**14)
        member_rays = {tuple(np.round(m.coords, 12)) for m in aset.members}
        outside = sum(
            w
            for ray, w in zip(meas.coords, meas.weights)
            if tuple(np.round(ray, 12)) not in member_rays
        )
        assert outside <= 1e-3

    def test_infinite_exponent_rejected(self):
        ctx = identity_ctx(8)
        with pytest.raises(ValueError, match="finite"):
            mu_x_p(ctx, O, math.inf)


class TestOneConjugationPerPoint:
    # the two-pass reference conjugates x once for the solve and again for
    # the weights; the arithmetic is the same, so every bit must agree
    def test_mu_x_p_matches_the_two_pass_reference(self):
        ctx = lorentz_ctx(21, n=32)
        for x in (point_at([0.4, -1.0], 0.9), point_at([-0.7, 0.3], 1.6)):
            for p in (4.0, 64.0):
                measure, report = mu_x_p(ctx, x, p)
                ref_measure, ref_report = oracles.two_pass_mu_x_p(ctx, x, p)
                assert measure.weights.tobytes() == ref_measure.weights.tobytes()
                assert report.point.coords.tobytes() == ref_report.point.coords.tobytes()
                assert (report.residual, report.normalizer) == (
                    ref_report.residual,
                    ref_report.normalizer,
                )

    def test_argmax_set_matches_the_two_pass_reference(self):
        ctx = lorentz_ctx(22, n=32)
        x = point_at([0.9, 0.5], 1.2)
        for y in (circumcenter_extension(ctx, x), point_at([-0.2, 0.8], 0.7)):
            aset = argmax_set(ctx, x, y, epsilon=0.5)
            ref = oracles.two_pass_argmax_set(ctx, x, y, epsilon=0.5)
            assert [m.coords.tobytes() for m in aset.members] == [
                m.coords.tobytes() for m in ref.members
            ]
            assert aset.image_dirs.tobytes() == ref.image_dirs.tobytes()

    def test_main_inequality_matches_the_two_pass_reference(self):
        rng = np.random.default_rng(23)
        ctx = lorentz_ctx(24, n=32)
        pairs = [
            (random_space_point(rng, radius=1.5), random_space_point(rng, radius=1.5))
            for _ in range(3)
        ]
        audit = main_inequality_audit(ctx, pairs, 16.0)
        assert audit == oracles.two_pass_main_inequality(ctx, pairs, 16.0)
        assert audit["pairs"] == 3


class TestBalanceResidual:
    def test_uniform_even_grid_balances_at_center(self):
        nu = uniform_boundary_grid(16, O)
        assert balance_residual(nu, O) < 1e-12

    def test_single_atom_has_unit_residual(self):
        grid = uniform_boundary_grid(4, O)
        nu = DiscreteMeasure("boundary", grid.coords[:1], np.array([1.0]))
        assert abs(balance_residual(nu, O) - 1.0) < 1e-12

    def test_interior_measure_rejected(self):
        pts = [O, point_at([1.0, 0.0], 0.5)]
        nu = DiscreteMeasure.from_atoms(pts, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="boundary"):
            balance_residual(nu, O)


# ---------------------------------------------------------------------------
# argmax sets and hull certificates

class TestHullCertificate:
    def test_identity_at_own_point_is_feasible(self):
        ctx = identity_ctx(32)
        x = point_at([0.6, 0.3], 0.9)
        aset = argmax_set(ctx, x, x)
        assert len(aset.members) == 32
        cert = hull_certificate(aset)
        assert cert.feasible
        assert cert.min_norm <= 1e-9
        assert abs(cert.weights.sum() - 1.0) < 1e-9

    def test_lorentz_feasible_at_image(self):
        ctx = lorentz_ctx(41)
        x = point_at([-0.2, 1.0], 1.3)
        cert = hull_certificate(argmax_set(ctx, x, apply_matrix(ctx.f.matrix, x)))
        assert cert.feasible

    def test_feasible_at_computed_center(self):
        ctx = lorentz_ctx(43)
        x = point_at([0.8, -0.5], 1.0)
        y = circumcenter_extension(ctx, x)
        cert = hull_certificate(argmax_set(ctx, x, y))
        assert cert.feasible

    def test_offset_candidate_is_separated(self):
        ctx = lorentz_ctx(43)
        x = point_at([0.8, -0.5], 1.0)
        y = circumcenter_extension(ctx, x)
        off = exp_map(y, 0.5 * tangent_basis(y)[0])
        aset = argmax_set(ctx, x, off)
        cert = hull_certificate(aset)
        assert not cert.feasible
        assert cert.min_norm > 0.1
        assert cert.separator is not None
        for row in aset.image_dirs:
            assert minkowski(row, cert.separator) > 0.0


# ---------------------------------------------------------------------------
# the derivative identity

class TestDerivativeIdentity:
    def test_symmetric_case_scales_the_vector(self):
        # an even grid centered at x forces the differential to a scalar
        # multiple p/(p+1) of the input, and both sides of the identity to
        # p^2/(2(p+1)) for a unit vector
        x = point_at([0.7, -0.7], 1.1)
        ctx = identity_ctx(64, at=x)
        v = tangent_basis(x)[0]
        for p in (2.0, 8.0):
            base, du = extension_differential(ctx, x, v, p)
            scale = p / (p + 1.0)
            assert np.linalg.norm(du - scale * v) < 1e-6
            meas, _ = mu_x_p(ctx, x, p)
            dots = np.array(
                [
                    minkowski(du, direction_to(base, ctx.base_measure.atom(i)).dir)
                    for i in range(len(ctx.base_measure))
                ]
            )
            common = float(p * meas.weights @ (dots * dots) / scale)
            assert abs(common - p * p / (2.0 * (p + 1.0))) < 1e-6 * p * p
        assert derivative_identity_residual(ctx, x, v, 8.0) <= 1e-8

    def test_lorentz_at_center(self):
        ctx = lorentz_ctx(7)
        v = tangent_basis(O)[1]
        assert derivative_identity_residual(ctx, O, v, 8.0) <= 1e-6

    def test_residual_shrinks_quadratically_in_h(self):
        # central differences leave a quadratic truncation error, so each
        # halving of h cuts the residual by roughly four
        ctx = lorentz_ctx(7)
        x = point_at([1.0, 0.6], 0.8)
        v = tangent_basis(x)[0]
        res = [derivative_identity_residual(ctx, x, v, 8.0, h) for h in (8e-3, 4e-3, 2e-3)]
        assert res[1] < res[0]
        assert res[2] < res[1]
        ratios = [b / a for a, b in zip(res, res[1:])]
        for r in ratios:
            assert 0.1 < r < 0.45

    def test_step_bounds_enforced(self):
        ctx = identity_ctx(8)
        v = tangent_basis(O)[0]
        with pytest.raises(ValueError, match="step"):
            derivative_identity_residual(ctx, O, v, 8.0, h=1e-5)
        with pytest.raises(ValueError, match="step"):
            derivative_identity_residual(ctx, O, v, 8.0, h=0.1)


# ---------------------------------------------------------------------------
# comparison audits

class TestMainInequality:
    def test_coincident_pair_is_trivial(self):
        ctx = lorentz_ctx(11)
        x = point_at([0.5, 0.5], 0.9)
        table = main_inequality_audit(ctx, [(x, x)], 8.0)
        assert table["pass"]
        row = table["rows"][0]
        assert abs(row["cosh_distance"] - 1.0) < 1e-12
        assert abs(row["exp_busemann_mean"] - 1.0) < 1e-9

    def test_unit_pinching_squeezes_to_equality(self):
        ctx = identity_ctx(64)
        pairs = [
            (point_at([1.0, 0.0], 0.6), point_at([0.0, 1.0], 1.0)),
            (point_at([-0.7, 0.4], 1.2), point_at([0.2, -1.0], 0.5)),
        ]
        table = main_inequality_audit(ctx, pairs, 64.0)
        assert table["pass"]
        for row in table["rows"]:
            assert abs(row["cosh_distance"] - row["exp_busemann_mean"]) <= 1e-9
            assert abs(row["cosh_distance"] - row["curvature_side"]) <= 1e-9

    def test_hundred_random_pairs(self):
        ctx = lorentz_ctx(53)
        rng = np.random.default_rng(54)
        pairs = [
            (random_space_point(rng, radius=1.5), random_space_point(rng, radius=1.5))
            for _ in range(100)
        ]
        table = main_inequality_audit(ctx, pairs, 64.0)
        assert table["pairs"] == 100
        assert table["pass"]


class TestLipschitzAndInverse:
    def test_identity_map_is_trivial(self):
        ctx = identity_ctx(64)
        x, y = point_at([1.0, 0.1], 0.7), point_at([-0.3, 1.0], 1.1)
        table = lipschitz_audit(ctx, [(x, y)])
        assert table["pass"]
        assert abs(table["rows"][0]["ratio"] - 1.0) < 1e-9

    def test_lorentz_map_preserves_distances(self):
        ctx = lorentz_ctx(59)
        rng = np.random.default_rng(60)
        pairs = [
            (random_space_point(rng, radius=1.5), random_space_point(rng, radius=1.5))
            for _ in range(5)
        ]
        table = lipschitz_audit(ctx, pairs)
        assert table["pass"]
        for row in table["rows"]:
            assert abs(row["image_distance"] - row["source_distance"]) < 1e-6

    def test_lorentz_round_trip(self):
        ctx = lorentz_ctx(61)
        go = apply_matrix(ctx.f.matrix, O)
        back = ExtensionContext(
            BoundaryMap("lorentz", np.linalg.inv(ctx.f.matrix)),
            uniform_boundary_grid(64, go),
        )
        rng = np.random.default_rng(62)
        samples = [random_space_point(rng, radius=1.5) for _ in range(5)]
        table = inverse_consistency(ctx, back, samples)
        assert table["pass"]
        assert table["max_violation"] <= 1e-6


# ---------------------------------------------------------------------------
# structural invariants

class TestInvariants:
    def test_naturality_under_isometry_sandwich(self):
        rng = np.random.default_rng(71)
        g = random_lorentz(rng)
        h = random_lorentz(rng)
        k = random_lorentz(rng)
        x = point_at([0.5, -1.0], 0.8)
        gx = SpacePoint(g @ x.coords)
        sandwich = ExtensionContext(
            BoundaryMap("lorentz", h @ k @ g), uniform_boundary_grid(64, O)
        )
        inner = ExtensionContext(BoundaryMap("lorentz", k), uniform_boundary_grid(64, gx))
        lhs = circumcenter_extension(sandwich, x)
        rhs = SpacePoint(h @ circumcenter_extension(inner, gx).coords)
        assert dist(lhs, rhs) < 1e-6

    def test_balanced_point_found_independently_coincides(self):
        ctx = lorentz_ctx(73)
        x = point_at([0.9, 0.3], 1.0)
        p = 32.0
        target = p_extension(ctx, x, p)
        nu = conjugated_measure(ctx, x)
        images = ctx.f.apply_rays(ctx.base_measure.coords)
        logw = np.log(ctx.base_measure.weights)

        def residual(chart, anchor, frame):
            z = exp_map(anchor, chart @ frame)
            phis = np.array(
                [
                    busemann(z, SpacePoint(nu.coords[i]), BoundaryDirection(images[i]))
                    for i in range(len(nu))
                ]
            )
            logits = logw + p * phis
            w = np.exp(logits - logits.max())
            w = w / w.sum()
            pz = images[:, 0] * z.coords[0] - images[:, 1:] @ z.coords[1:]
            dirs = images / pz[:, None] - z.coords[None, :]
            r = w @ dirs
            return math.sqrt(max(minkowski(r, r), 0.0))

        from scipy.optimize import minimize as nm

        anchor = apply_matrix(ctx.f.matrix, x)
        frame = tangent_basis(anchor)
        out = nm(
            lambda c: residual(c, anchor, frame),
            np.array([0.05, -0.02]),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 4000},
        )
        found = exp_map(anchor, out.x @ frame)
        assert residual(out.x, anchor, frame) <= 1e-10
        assert dist(found, target) < 1e-6

    def test_probe_integrals_vanish_at_large_p(self):
        p = 2.0**14
        bound = math.sqrt(2.0 / p) + 1e-3
        for ctx, x in (
            (identity_ctx(64), point_at([0.0, 1.0], 1.2)),
            (lorentz_ctx(79), point_at([1.0, -0.4], 1.0)),
        ):
            meas, _ = mu_x_p(ctx, x, p)
            rays = ctx.base_measure.coords
            px = rays[:, 0] * x.coords[0] - rays[:, 1:] @ x.coords[1:]
            dirs = rays / px[:, None] - x.coords[None, :]
            for v in tangent_basis(x):
                integral = float(meas.weights @ (-dirs[:, 0] * v[0] + dirs[:, 1:] @ v[1:]))
                assert abs(integral) <= bound

    def test_transverse_energy_bound(self):
        # the differential loses transverse energy at rate 1/p against the
        # source-side angular spread
        ctx = lorentz_ctx(83)
        x = point_at([0.4, 0.9], 0.9)
        v = tangent_basis(x)[1]
        p = 8.0
        base, du = extension_differential(ctx, x, v, p)
        meas, _ = mu_x_p(ctx, x, p)
        rays = ctx.base_measure.coords
        lhs_terms = []
        rhs_terms = []
        for i in range(len(ctx.base_measure)):
            img_dir = direction_to(base, BoundaryDirection(ctx.f.apply_rays(rays)[i])).dir
            src_dir = direction_to(x, ctx.base_measure.atom(i)).dir
            perp2 = minkowski(du, du) - minkowski(du, img_dir) ** 2
            lhs_terms.append(perp2)
            rhs_terms.append(minkowski(v, src_dir) ** 2)
        lhs = float(meas.weights @ np.array(lhs_terms)) / p
        rhs = float(meas.weights @ np.array(rhs_terms))
        assert lhs <= rhs + 1e-4

    def test_grid_refinement_is_cauchy(self):
        x = point_at([0.6, 0.8], 0.9)
        values = []
        for n in (16, 32, 64, 128):
            ctx = identity_ctx(n)
            values.append(p_extension(ctx, x, 8.0))
        moves = [dist(a, b) for a, b in zip(values, values[1:])]
        assert moves[1] < moves[0]
        assert moves[2] <= moves[1]
