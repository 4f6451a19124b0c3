import math

import numpy as np
import pytest

from horobary.barycenter import (
    BUSEMANN_MODE,
    COSH_MODE,
    ExperimentTable,
    ObjectiveSpec,
    SolverConfig,
    asymptotic_circumcenter,
    asymptotic_p_barycenter,
    circumcenter,
    evaluate_objective,
    flow_limit_experiment,
    minimize,
    p_limit_experiment,
)
from horobary.hyperboloid import (
    SpacePoint,
    UnitTangent,
    boundary_endpoint,
    direction_to,
    dist,
    exp_map,
    geodesic_point,
    log_map,
    origin,
)
from horobary.measures import (
    DiscreteMeasure,
    flow_project,
    pushforward_qx,
    uniform_boundary_grid,
)
from horobary.sampling import (
    random_lorentz,
    random_space_point,
    random_tangent_vector,
    random_unit_tangent,
)

import oracles
from horobary import barycenter, hyperboloid


def space_measure(points, weights=None):
    return DiscreteMeasure.from_atoms(points, weights)


def uniform_tangent_sphere(n, x):
    return pushforward_qx(uniform_boundary_grid(n, x), x)


def midpoint(a, b):
    return geodesic_point(UnitTangent(a, log_map(a, b) / dist(a, b)), dist(a, b) / 2)


# ---------------------------------------------------------------------------
# objective evaluation

def test_single_atom_value_is_log_cosh_distance():
    rng = np.random.default_rng(40)
    y = random_space_point(rng)
    z = random_space_point(rng)
    for p in (1.0, 2.0, 7.5):
        spec = ObjectiveSpec(p, COSH_MODE, space_measure([y]))
        assert abs(evaluate_objective(spec, z) - math.log(math.cosh(dist(z, y)))) < 1e-12


def test_sup_displacement_realizes_distance():
    # grid contains the direction behind z, so the sup over atoms hits d(z,o)
    o = origin(2)
    nu = uniform_tangent_sphere(4, o)
    z = geodesic_point(nu.atom(0), 1.7)
    spec = ObjectiveSpec(math.inf, BUSEMANN_MODE, nu)
    assert abs(evaluate_objective(spec, z) - dist(z, o)) < 1e-12


def test_large_p_approaches_max():
    rng = np.random.default_rng(41)
    pts = [random_space_point(rng) for _ in range(6)]
    z = random_space_point(rng)
    # soft max sits below the true max by at most log(atom count)/p
    soft = evaluate_objective(ObjectiveSpec(1000.0, COSH_MODE, space_measure(pts)), z)
    hard = evaluate_objective(ObjectiveSpec(math.inf, COSH_MODE, space_measure(pts)), z)
    assert hard - math.log(6) / 1000.0 - 1e-12 <= soft <= hard + 1e-12
    pair = space_measure(pts[:2])
    soft = evaluate_objective(ObjectiveSpec(1000.0, COSH_MODE, pair), z)
    hard = evaluate_objective(ObjectiveSpec(math.inf, COSH_MODE, pair), z)
    assert hard - 1e-3 < soft <= hard + 1e-12


def test_spec_validation():
    rng = np.random.default_rng(42)
    mu = space_measure([random_space_point(rng)])
    nu = uniform_tangent_sphere(4, origin(2))
    with pytest.raises(ValueError):
        ObjectiveSpec(0.5, COSH_MODE, mu)
    with pytest.raises(ValueError):
        ObjectiveSpec(2.0, BUSEMANN_MODE, mu)
    with pytest.raises(ValueError):
        ObjectiveSpec(2.0, COSH_MODE, nu)
    # all atoms sharing one endpoint direction leaves the sup without a minimum
    u = random_unit_tangent(rng)
    shared = DiscreteMeasure.from_atoms([u, u])
    with pytest.raises(ValueError):
        ObjectiveSpec(math.inf, BUSEMANN_MODE, shared)
    with pytest.warns(UserWarning):
        minimize(ObjectiveSpec(2.0, BUSEMANN_MODE, shared), SolverConfig(max_iters=3))


# ---------------------------------------------------------------------------
# minimization, finite p

def test_single_atom_minimizer_is_the_atom():
    rng = np.random.default_rng(43)
    y = random_space_point(rng)
    res = minimize(ObjectiveSpec(2.0, COSH_MODE, space_measure([y])))
    assert res.converged
    assert res.grad_norm <= 1e-10
    assert dist(res.minimizer, y) < 1e-8


def test_two_equal_atoms_give_midpoint():
    rng = np.random.default_rng(44)
    a = random_space_point(rng)
    b = random_space_point(rng)
    mid = midpoint(a, b)
    for p in (1.0, 2.0, 8.0, math.inf):
        res = minimize(ObjectiveSpec(p, COSH_MODE, space_measure([a, b])))
        assert res.converged
        assert dist(res.minimizer, mid) < 1e-7


def test_three_atom_barycenter_matches_disk_oracle():
    rng = np.random.default_rng(45)
    pts = [random_space_point(rng, radius=1.5) for _ in range(3)]
    res = minimize(ObjectiveSpec(2.0, COSH_MODE, space_measure(pts)))
    assert res.converged
    ref = oracles.oracle_p_barycenter(pts, [1 / 3] * 3, 2.0)
    assert dist(res.minimizer, ref) < 2e-3


def test_nonconvergence_is_flagged():
    rng = np.random.default_rng(46)
    pts = [random_space_point(rng) for _ in range(4)]
    res = minimize(ObjectiveSpec(2.0, COSH_MODE, space_measure(pts)), SolverConfig(max_iters=1))
    assert not res.converged
    assert res.iterations == 1


@pytest.mark.parametrize("p", [8.0, math.inf])
def test_iteration_cap_must_be_a_non_negative_integer(p):
    # the Newton (p = 8) and interior-point (p = inf) solvers both stop at
    # it == max_iters: a negative or fractional cap would never stop them
    rng = np.random.default_rng(61)
    spec = ObjectiveSpec(p, COSH_MODE, space_measure([random_space_point(rng) for _ in range(5)]))
    for bad in (-1, 2.5, 3.0, None):
        with pytest.raises(ValueError, match="max_iters"):
            minimize(spec, SolverConfig(max_iters=bad))
    capped = minimize(spec, SolverConfig(max_iters=np.int64(2)))
    assert not capped.converged and capped.iterations == 2
    assert minimize(spec, SolverConfig(max_iters=0)).iterations == 0


def test_newton_does_not_stall_at_the_rounding_floor():
    # on the symmetric dim-3 tangent measure, p >= 2048 leaves a gradient of
    # about 1e-8 whose predicted decrease the energy value cannot resolve;
    # the full Newton step must still be taken, not a step too short to move
    nu = uniform_tangent_sphere(64, origin(3))
    for p in (2048.0, 4096.0, 16384.0):
        res = minimize(ObjectiveSpec(p, BUSEMANN_MODE, nu))
        assert res.converged
        assert res.iterations <= 20


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [2.0, 64.0, math.inf])
def test_minimize_builds_one_space_point(monkeypatch, dim, p):
    # the solver loop runs on raw coordinates; only the result is typed
    rng = np.random.default_rng(52 + dim)
    tangents = [random_unit_tangent(rng, dim=dim, radius=1.0) for _ in range(6)]
    points = [random_space_point(rng, dim=dim) for _ in range(4)]
    specs = [
        ObjectiveSpec(p, BUSEMANN_MODE, space_measure(tangents)),
        ObjectiveSpec(p, COSH_MODE, space_measure(points)),
    ]
    builds = []
    check = hyperboloid.SpacePoint.__post_init__

    def counted(self):
        builds.append(self)
        check(self)

    monkeypatch.setattr(hyperboloid.SpacePoint, "__post_init__", counted)
    for spec in specs:
        builds.clear()
        res = minimize(spec)
        assert res.iterations > 0
        assert builds == [res.minimizer]


@pytest.mark.parametrize("dim", [2, 3])
def test_line_search_halves_a_step_that_leaves_the_sheet(monkeypatch, dim):
    # the first trial point is pulled inside the hyperboloid, where every
    # pairing halves and the energy drops by log 2; the on-sheet check must
    # still reject it, and the line search retries at half the step
    rng = np.random.default_rng(50 + dim)
    spec = ObjectiveSpec(
        2.0, COSH_MODE, space_measure([random_space_point(rng, dim=dim) for _ in range(4)])
    )
    steps = []
    step = barycenter._exp_coords

    def first_step_off_sheet(x, v):
        steps.append(float(np.linalg.norm(v)))
        c = step(x, v)
        return 0.5 * c if len(steps) == 1 else c

    monkeypatch.setattr(barycenter, "_exp_coords", first_step_off_sheet)
    res = minimize(spec)
    assert steps[1] == 0.5 * steps[0]
    assert res.converged
    monkeypatch.undo()
    assert dist(res.minimizer, minimize(spec).minimizer) < 1e-9


# ---------------------------------------------------------------------------
# circumcenters

def test_circumcenter_small_cases():
    rng = np.random.default_rng(47)
    y = random_space_point(rng)
    assert dist(circumcenter([y]), y) < 1e-7
    a, b = random_space_point(rng), random_space_point(rng)
    assert dist(circumcenter([a, b]), midpoint(a, b)) < 1e-7


def test_circumcenter_equilateral_triple():
    base = SpacePoint([math.cosh(1.2), math.sinh(1.2), 0.0])
    triple = []
    for k in range(3):
        ang = 2 * math.pi * k / 3
        c, s = math.cos(ang), math.sin(ang)
        x = base.coords
        triple.append(SpacePoint([x[0], c * x[1] - s * x[2], s * x[1] + c * x[2]]))
    assert dist(circumcenter(triple), origin(2)) < 1e-7


def test_circumcenter_matches_disk_oracle():
    rng = np.random.default_rng(48)
    pts = [random_space_point(rng, radius=1.5) for _ in range(4)]
    center = circumcenter(pts)
    ref = oracles.oracle_circumcenter(pts)
    assert dist(center, ref) < 2e-3


def test_infinite_p_equals_circumcenter_of_support():
    rng = np.random.default_rng(49)
    pts = [random_space_point(rng) for _ in range(5)]
    weights = rng.dirichlet(np.ones(5))
    res = minimize(ObjectiveSpec(math.inf, COSH_MODE, space_measure(pts, weights)))
    assert res.converged
    assert dist(res.minimizer, circumcenter(pts)) < 1e-6


# ---------------------------------------------------------------------------
# asymptotic versions

def test_symmetric_tangent_data_centers_at_base():
    o = origin(2)
    nu = uniform_tangent_sphere(8, o)
    for p in (1.0, 2.0, 16.0, math.inf):
        c = asymptotic_p_barycenter(nu, p)
        assert dist(c, o) < 1e-7


def test_two_opposite_tangents():
    rng = np.random.default_rng(50)
    x = random_space_point(rng)
    u = random_unit_tangent(rng)
    u = UnitTangent(x, direction_to(x, boundary_endpoint(u)).dir)
    v = UnitTangent(x, -u.dir)
    nu = DiscreteMeasure.from_atoms([u, v])
    for p in (2.0, math.inf):
        assert dist(asymptotic_p_barycenter(nu, p), x) < 1e-7


def test_asymptotic_barycenter_matches_disk_oracle():
    rng = np.random.default_rng(51)
    atoms = [random_unit_tangent(rng, radius=1.0) for _ in range(3)]
    nu = DiscreteMeasure.from_atoms(atoms)
    c = asymptotic_p_barycenter(nu, 2.0)
    ref = oracles.oracle_asymptotic_p_barycenter(
        [u.base for u in atoms],
        [boundary_endpoint(u).unit for u in atoms],
        [1 / 3] * 3,
        2.0,
    )
    assert dist(c, ref) < 2e-3


def test_asymptotic_circumcenter_subgradient_certificate():
    rng = np.random.default_rng(52)
    atoms = [random_unit_tangent(rng, radius=1.0) for _ in range(5)]
    nu = DiscreteMeasure.from_atoms(atoms)
    res = minimize(ObjectiveSpec(math.inf, BUSEMANN_MODE, nu))
    assert res.converged
    assert res.grad_norm <= 1e-6


@pytest.mark.parametrize("seed", [76, 115])
def test_asymptotic_circumcenter_reaches_the_disk_oracle(seed):
    # the active-set polish that preceded the interior-point solve reported
    # convergence 2.1e-4 and 5.4e-4 from these minimax points
    rng = np.random.default_rng(seed)
    atoms = [random_unit_tangent(rng, dim=2, radius=1.0) for _ in range(8)]
    spec = ObjectiveSpec(math.inf, BUSEMANN_MODE, DiscreteMeasure.from_atoms(atoms))
    res = minimize(spec)
    ref = oracles.oracle_asymptotic_circumcenter(
        [u.base for u in atoms], [boundary_endpoint(u).unit for u in atoms]
    )
    assert res.converged
    assert res.value <= evaluate_objective(spec, ref) + 1e-12
    assert dist(res.minimizer, ref) < 1e-6


@pytest.mark.parametrize("mode", [COSH_MODE, BUSEMANN_MODE])
def test_minimax_gap_certifies_the_energy(mode):
    # converged means the duality gap is at most grad_tol, which bounds the
    # energy above its minimum; a capped solve reports its gap honestly
    rng = np.random.default_rng(59)
    if mode == COSH_MODE:
        mu = space_measure([random_space_point(rng, dim=3) for _ in range(6)])
    else:
        mu = DiscreteMeasure.from_atoms([random_unit_tangent(rng, dim=3, radius=1.0) for _ in range(6)])
    spec = ObjectiveSpec(math.inf, mode, mu)
    best = minimize(spec, SolverConfig(grad_tol=1e-12))
    res = minimize(spec, SolverConfig(grad_tol=1e-6))
    assert res.converged and best.converged
    assert 0.0 <= res.value - best.value <= 1e-6 + 1e-12
    capped = minimize(spec, SolverConfig(max_iters=3))
    assert not capped.converged and capped.iterations == 3


def test_certified_start_is_returned_as_is():
    # the data weights already balance the even measure at its center
    nu = uniform_tangent_sphere(16, origin(2))
    res = minimize(ObjectiveSpec(math.inf, BUSEMANN_MODE, nu))
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.minimizer.coords, origin(2).coords)


# ---------------------------------------------------------------------------
# solver invariants

def test_uniqueness_from_two_starts():
    rng = np.random.default_rng(53)
    pts = [random_space_point(rng) for _ in range(4)]
    spec = ObjectiveSpec(3.0, COSH_MODE, space_measure(pts))
    a = minimize(spec, SolverConfig(initial=random_space_point(rng)))
    b = minimize(spec, SolverConfig(initial=random_space_point(rng)))
    assert a.converged and b.converged
    assert dist(a.minimizer, b.minimizer) < 1e-6


def test_stability_under_atom_perturbation():
    rng = np.random.default_rng(54)
    pts = [random_space_point(rng) for _ in range(5)]
    spec = ObjectiveSpec(2.0, COSH_MODE, space_measure(pts))
    base = minimize(spec).minimizer
    delta = 1e-4
    moved = [exp_map(y, delta * random_tangent_vector(rng, y)) for y in pts]
    res = minimize(ObjectiveSpec(2.0, COSH_MODE, space_measure(moved)))
    assert dist(res.minimizer, base) <= 10 * delta


def test_isometry_equivariance():
    rng = np.random.default_rng(55)
    pts = [random_space_point(rng) for _ in range(4)]
    g = random_lorentz(rng)
    for p in (2.0, math.inf):
        here = minimize(ObjectiveSpec(p, COSH_MODE, space_measure(pts))).minimizer
        moved = [SpacePoint(g @ y.coords) for y in pts]
        there = minimize(ObjectiveSpec(p, COSH_MODE, space_measure(moved))).minimizer
        assert dist(SpacePoint(g @ here.coords), there) < 1e-8


# ---------------------------------------------------------------------------
# limit experiments

def test_flow_limit_symmetric_data_is_exact():
    nu = uniform_tangent_sphere(6, origin(2))
    table = flow_limit_experiment(nu, 2.0, [0.0, 1.0, 2.0])
    for row in table.rows:
        assert row[2] < 1e-7


def test_flow_limit_t0_is_plain_barycenter():
    rng = np.random.default_rng(56)
    atoms = [random_unit_tangent(rng, radius=1.0) for _ in range(4)]
    nu = DiscreteMeasure.from_atoms(atoms)
    table = flow_limit_experiment(nu, 2.0, [0.0])
    direct = minimize(ObjectiveSpec(2.0, COSH_MODE, flow_project(nu, 0.0)))
    assert dist(SpacePoint(np.array(table.rows[0][1])), direct.minimizer) < 1e-9


def test_flow_limit_exponential_decay():
    rng = np.random.default_rng(57)
    atoms = [random_unit_tangent(rng, radius=1.0) for _ in range(5)]
    nu = DiscreteMeasure.from_atoms(atoms)
    ts = list(range(1, 11))
    table = flow_limit_experiment(nu, 2.0, ts)
    for t, row in zip(ts, table.rows):
        assert row[2] <= 10.0 * math.exp(-t)


def test_p_limit_experiment_converges():
    rng = np.random.default_rng(58)
    atoms = [random_unit_tangent(rng, radius=1.0) for _ in range(4)]
    nu = DiscreteMeasure.from_atoms(atoms)
    table = p_limit_experiment(nu)
    assert table.rows[-1][0] == math.inf
    assert table.rows[-1][2] < 1e-9          # final row is the limit itself
    assert table.rows[-2][2] < 1e-3          # p = 2^14 row is already close
    center = asymptotic_circumcenter(nu)
    assert dist(SpacePoint(np.array(table.rows[-1][1])), center) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 8, 76, 205])
def test_p_limit_rows_obey_the_sandwich_bound(seed):
    # E_p lies between E_inf + log(w_min) / p and E_inf, so each row's
    # minimax energy is within log(1 / w_min) / p of the limit's; a cold
    # Newton solve at p = 2^14 stalls 0.01-0.02 above it for seeds 8, 76, 205
    rng = np.random.default_rng(seed)
    nu = DiscreteMeasure.from_atoms([random_unit_tangent(rng, radius=1.0) for _ in range(5)])
    table = p_limit_experiment(nu)
    sup = ObjectiveSpec(math.inf, BUSEMANN_MODE, nu)
    limit = evaluate_objective(sup, SpacePoint(np.array(table.rows[-1][1])))
    slack = math.log(1.0 / nu.weights.min())
    for p, coords, *_ in table.rows[:-1]:
        gap = evaluate_objective(sup, SpacePoint(np.array(coords))) - limit
        assert gap <= slack / p + 1e-12, f"p={p}"


def test_experiment_table_csv(tmp_path):
    t = ExperimentTable(parameter="t")
    t.rows.append((0.0, (1.0, 0.0, 0.0), 0.0, 1e-12, 3))
    assert t.header() == [
        "t", "coord_0", "coord_1", "coord_2", "distance", "grad_norm", "iterations",
    ]
    path = tmp_path / "table.csv"
    t.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,coord_0,coord_1,coord_2,distance,grad_norm,iterations"
    assert lines[1].split(",")[-1] == "3"
