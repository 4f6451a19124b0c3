import numpy as np
import pytest

from horobary.hyperboloid import (
    BoundaryDirection,
    SpacePoint,
    UnitTangent,
    boundary_endpoint,
    dist,
    geodesic_flow,
    minkowski,
    origin,
    tangent_basis,
)
from horobary.measures import (
    DiscreteMeasure,
    _sphere_grid,
    flow_project,
    load_measure,
    measure_from_dict,
    pushforward_conjugacy,
    pushforward_map,
    pushforward_qx,
    save_measure,
    uniform_boundary_grid,
    write_csv,
)
from horobary.moebius import BoundaryMap
from horobary.sampling import random_boundary_direction, random_space_point


def test_measure_validation():
    o = origin(2)
    with pytest.raises(ValueError):
        DiscreteMeasure("space", np.empty((0, 3)), np.empty(0))
    with pytest.raises(ValueError):
        DiscreteMeasure("space", [o.coords], [0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure("space", [o.coords, o.coords], [1.5, -0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure("nonsense", [o.coords], [1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure("tangent", [o.coords], [1.0])  # missing dirs
    with pytest.raises(ValueError):
        DiscreteMeasure("space", [o.coords, o.coords], [np.nan, 1.0])


def _raises(build):
    try:
        build()
    except ValueError:
        return True
    return False


def _hyperbola(s):
    # the point at spatial offset s along the first axis, and the unit
    # tangent there along the same axis
    c = np.sqrt(1.0 + s * s)
    return np.array([c, s, 0.0]), np.array([s, c, 0.0])


_NEAR, _NEAR_DIR = _hyperbola(1.2)
_FAR, _FAR_DIR = _hyperbola(1e6)

# (row, rejected): each case is checked against the typed constructor too
SPACE_ROWS = [
    (_NEAR, False),
    (_NEAR * (1.0 + 1e-13), False),
    (_NEAR * (1.0 + 1e-6), True),  # off the hyperboloid
    (-_NEAR, True),  # lower sheet: x0 < 0
    (np.array([0.0, 1.0, 0.0]), True),  # x0 = 0
    # near x0 = 1e6 the tolerance is relative to x @ x ~ 2e12
    (_FAR, False),
    (_FAR + [0.0, 1e-6, 0.0], False),
    (_FAR + [0.0, 1e-3, 0.0], True),
]
BOUNDARY_ROWS = [
    (np.array([1.0, 0.6, 0.8]), False),
    (np.array([3.0, 1.8, 2.4]), False),  # any positive multiple of a ray
    (np.array([1.0, 1.0 + 1e-11, 0.0]), False),
    (np.array([1.0, 1.001, 0.0]), True),  # off the null cone
    (np.array([-1.0, 0.6, 0.8]), True),  # past-pointing
    (np.array([0.0, 0.6, 0.8]), True),
    (np.array([1e6, 1e6 + 1e-6, 0.0]), False),
    (np.array([1e6, 1e6 + 1e-3, 0.0]), True),
]
TANGENT_ROWS = [
    ((_NEAR, _NEAR_DIR), False),
    ((_NEAR, np.array([0.0, 0.0, 1.0])), False),
    ((_NEAR, _NEAR_DIR * (1.0 + 1e-6)), True),  # not unit
    ((_NEAR, _NEAR_DIR + 1e-6 * _NEAR), True),  # not orthogonal to the base
    ((_NEAR * (1.0 + 1e-6), _NEAR_DIR), True),  # base off the hyperboloid
    ((-_NEAR, -_NEAR_DIR), True),  # base on the lower sheet
    ((_FAR, _FAR_DIR), False),
    # near x0 = 1e6 both tolerances are relative to d @ d ~ 2e12
    ((_FAR, _FAR_DIR + [0.0, 0.0, 1.0]), False),
    ((_FAR, _FAR_DIR + [0.0, 0.0, 100.0]), True),  # <d,d> - 1 = 1e4
    ((_FAR, _FAR_DIR + [1e-5, 0.0, 0.0]), False),
    ((_FAR, _FAR_DIR + [1e-3, 0.0, 0.0]), True),  # <x,d> = -1e3
]


def _tangent_measure(rows):
    coords = np.stack([r[0] for r in rows])
    dirs = np.stack([r[1] for r in rows])
    return DiscreteMeasure("tangent", coords, np.full(len(rows), 1.0 / len(rows)), dirs)


@pytest.mark.parametrize(
    "kind, typed, row, rejected",
    [("space", SpacePoint, r, b) for r, b in SPACE_ROWS]
    + [("boundary", BoundaryDirection, r, b) for r, b in BOUNDARY_ROWS],
)
def test_rowwise_validation_matches_typed_constructor(kind, typed, row, rejected):
    good = SPACE_ROWS[0][0] if kind == "space" else BOUNDARY_ROWS[0][0]
    assert _raises(lambda: typed(row)) == rejected
    # the offending row sits behind a valid one
    assert _raises(lambda: DiscreteMeasure(kind, [good, row], [0.5, 0.5])) == rejected


@pytest.mark.parametrize("row, rejected", TANGENT_ROWS)
def test_rowwise_tangent_validation_matches_typed_constructor(row, rejected):
    assert _raises(lambda: UnitTangent(SpacePoint(row[0]), row[1])) == rejected
    assert _raises(lambda: _tangent_measure([TANGENT_ROWS[0][0], row])) == rejected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("col", [0, 1])
def test_rowwise_validation_rejects_non_finite(bad, col):
    # stricter than the typed constructors, which accept NaN rows
    def spoil(row):
        row = row.copy()
        row[col] = bad
        return row

    good_ray = BOUNDARY_ROWS[0][0]
    with pytest.raises(ValueError, match="atom 1"):
        DiscreteMeasure("space", [_NEAR, spoil(_NEAR)], [0.5, 0.5])
    with pytest.raises(ValueError, match="atom 1"):
        DiscreteMeasure("boundary", [good_ray, spoil(good_ray)], [0.5, 0.5])
    with pytest.raises(ValueError, match="atom 1"):
        _tangent_measure([(_NEAR, _NEAR_DIR), (spoil(_NEAR), _NEAR_DIR)])
    with pytest.raises(ValueError, match="atom 1"):
        _tangent_measure([(_NEAR, _NEAR_DIR), (_NEAR, spoil(_NEAR_DIR))])


def test_from_atoms_uniform_weights():
    rng = np.random.default_rng(0)
    pts = [random_space_point(rng) for _ in range(5)]
    mu = DiscreteMeasure.from_atoms(pts)
    assert mu.kind == "space"
    assert len(mu) == 5
    np.testing.assert_allclose(mu.weights, 0.2)
    with pytest.raises(ValueError):
        DiscreteMeasure.from_atoms([pts[0], random_boundary_direction(rng)])


def test_uniform_grid_square():
    mu = uniform_boundary_grid(4, origin(2))
    assert mu.kind == "boundary"
    expected = np.array(
        [[1, 1, 0], [1, 0, 1], [1, -1, 0], [1, 0, -1]], float
    )
    np.testing.assert_allclose(mu.coords, expected, atol=1e-15)
    np.testing.assert_allclose(mu.weights, 0.25)
    assert abs(mu.weights.sum() - 1.0) < 1e-15


def test_uniform_grid_balance_even_n():
    x = random_space_point(np.random.default_rng(1))
    for n in (2, 4, 8, 30):
        nu = pushforward_qx(uniform_boundary_grid(n, x), x)
        resultant = (nu.weights[:, None] * nu.dirs).sum(axis=0)
        np.testing.assert_allclose(resultant, 0.0, atol=1e-13)


def test_uniform_grid_rejects_small_n():
    with pytest.raises(ValueError):
        uniform_boundary_grid(1, origin(2))


def test_uniform_grid_higher_dim():
    rng = np.random.default_rng(2)
    for dim in (3, 4):
        x = random_space_point(rng, dim=dim)
        mu = uniform_boundary_grid(64, x)
        assert len(mu) == 64
        # deterministic
        again = uniform_boundary_grid(64, x)
        np.testing.assert_array_equal(mu.coords, again.coords)
        # evenly spread: the tangent directions nearly average out
        nu = pushforward_qx(mu, x)
        resultant = (nu.weights[:, None] * nu.dirs).sum(axis=0)
        assert np.linalg.norm(resultant) < 0.1


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_uniform_grid_far_from_the_origin(dim):
    # x + dir cancels for directions pointing back past the origin; the rays
    # must still land on the null cone, at the endpoints of the grid's
    # unit tangents at x
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(64) / 64
        sphere = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        sphere = _sphere_grid(64, dim)
    rng = np.random.default_rng([8, dim])
    for _ in range(40):
        x = random_space_point(rng, dim=dim, radius=8.0)
        rays = uniform_boundary_grid(64, x).coords
        assert np.all(np.abs(minkowski(rays, rays)) <= 1e-12)
        ends = [boundary_endpoint(UnitTangent(x, d)).coords for d in sphere @ tangent_basis(x)]
        np.testing.assert_allclose(rays, ends, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_pushforward_qx_far_from_the_origin(dim):
    # ray / -<x, ray> - x cancels far out; the directions must still pass the
    # unit-tangent check and point at the grid's rays
    rng = np.random.default_rng([8, dim])
    for _ in range(40):
        x = random_space_point(rng, dim=dim, radius=8.0)
        mu = uniform_boundary_grid(64, x)
        nu = pushforward_qx(mu, x)
        ends = [boundary_endpoint(u).coords for u in nu.atoms]
        np.testing.assert_allclose(ends, mu.coords, rtol=0, atol=1e-9)


def test_pushforward_qx_round_trip():
    rng = np.random.default_rng(3)
    x = random_space_point(rng)
    mu = uniform_boundary_grid(7, x)
    nu = pushforward_qx(mu, x)
    assert nu.kind == "tangent"
    np.testing.assert_array_equal(nu.weights, mu.weights)
    for i in range(len(nu)):
        u = nu.atom(i)
        np.testing.assert_allclose(u.base.coords, x.coords)
        np.testing.assert_allclose(
            boundary_endpoint(u).coords, mu.atom(i).coords, atol=1e-10
        )


def test_flow_project_cases():
    rng = np.random.default_rng(4)
    x = random_space_point(rng)
    nu = pushforward_qx(uniform_boundary_grid(5, x), x)
    at0 = flow_project(nu, 0.0)
    np.testing.assert_allclose(at0.coords, nu.coords, atol=1e-15)
    for t in (0.7, -1.3, 2.0):
        mt = flow_project(nu, t)
        assert mt.kind == "space"
        np.testing.assert_array_equal(mt.weights, nu.weights)
        for i in range(len(mt)):
            assert abs(dist(mt.atom(i), at0.atom(i)) - abs(t)) < 1e-12


def test_flow_project_semigroup():
    rng = np.random.default_rng(5)
    x = random_space_point(rng)
    nu = pushforward_qx(uniform_boundary_grid(6, x), x)
    s, t = 0.9, -0.4
    flowed = pushforward_conjugacy(nu, lambda u: geodesic_flow(u, t))
    a = flow_project(flowed, s)
    b = flow_project(nu, s + t)
    np.testing.assert_allclose(a.coords, b.coords, atol=1e-9)


def test_pushforward_map_identity_and_rotation():
    mu = uniform_boundary_grid(4, origin(2))
    same = pushforward_map(mu, BoundaryMap.identity(2))
    np.testing.assert_array_equal(same.coords, mu.coords)
    np.testing.assert_array_equal(same.weights, mu.weights)

    quarter_turn = BoundaryMap("lorentz", [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    rotated = pushforward_map(mu, quarter_turn)
    orig = {tuple(np.round(c, 12)) for c in mu.coords}
    img = {tuple(np.round(c, 12)) for c in rotated.coords}
    assert orig == img


def test_json_round_trip_exact(tmp_path):
    rng = np.random.default_rng(6)
    x = random_space_point(rng)
    nu = pushforward_qx(uniform_boundary_grid(9, x), x)
    path = tmp_path / "nu.json"
    save_measure(nu, path)
    back = load_measure(path)
    assert back.kind == nu.kind
    np.testing.assert_array_equal(back.coords, nu.coords)
    np.testing.assert_array_equal(back.dirs, nu.dirs)
    np.testing.assert_array_equal(back.weights, nu.weights)


def test_write_csv_cells_and_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(1, 0.1, True), (np.int64(2), np.float64(1.0) / 3.0, np.bool_(False))]
    write_csv(path, ["k", "x", "ok"], rows)
    assert path.read_bytes() == b"k,x,ok\n1,0.10000000000000001,true\n2,0.33333333333333331,false\n"
    write_csv(path, ["k"], [(float("inf"),)], newline="\r\n")
    assert path.read_bytes() == b"k\r\ninf\r\n"


def test_measure_dict_rejects_garbage():
    with pytest.raises(ValueError):
        measure_from_dict({"kind": "boundary"})
    with pytest.raises(ValueError):
        measure_from_dict({"kind": "tangent", "atoms": [{"coords": [1, 1, 0], "weight": 1.0}]})


def test_measure_immutable():
    mu = uniform_boundary_grid(3, origin(2))
    with pytest.raises(ValueError):
        mu.coords[0, 0] = 2.0
    with pytest.raises(ValueError):
        mu.weights[0] = 0.9
