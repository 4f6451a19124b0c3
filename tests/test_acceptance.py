"""Release gate: eleven numbered end-to-end checks with pinned tolerances.

Each test prints one summary line (visible under pytest -s) of the form

    criterion 07 balance-and-certificates: PASS (...)

and then asserts.  Instance counts, tolerances, and time budgets are fixed
here; sampling stays inside the well-conditioned ball so a failure means
broken mathematics rather than an unlucky draw.
"""

from __future__ import annotations

import filecmp
import math
import time

import numpy as np
import pytest

from horobary.barycenter import (
    BUSEMANN_MODE,
    COSH_MODE,
    ObjectiveSpec,
    SolverConfig,
    asymptotic_circumcenter,
    circumcenter,
    evaluate_objective,
    flow_limit_experiment,
    minimize,
)
from horobary.extension import (
    ExtensionContext,
    argmax_set,
    circumcenter_extension,
    derivative_identity_residual,
    hull_certificate,
    inverse_consistency,
    lipschitz_audit,
    main_inequality_audit,
    mu_x_p,
)
from horobary.hyperboloid import (
    SpacePoint,
    UnitTangent,
    busemann,
    dist,
    exp_map,
    geodesic_point,
    gromov_product,
    minkowski,
    origin,
    tangent_basis,
    visual_metric,
)
from horobary.measures import DiscreteMeasure, uniform_boundary_grid
from horobary.moebius import (
    BoundaryMap,
    MoebiusMetric,
    cross_ratio_deviation,
    nearest_visual_projection,
    probe_quadruples,
)
from horobary.sampling import (
    random_boundary_direction,
    random_lorentz,
    random_space_point,
    random_tangent_vector,
    random_unit_tangent,
)

import oracles


def _conclude(num, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"criterion {num:02d} {name}: {verdict} ({detail}, {elapsed:.1f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _lorentz_context(rng, grid_n=64, **kwargs):
    g = random_lorentz(rng, **kwargs)
    f = BoundaryMap("lorentz", g)
    ctx = ExtensionContext(f, uniform_boundary_grid(grid_n, origin(2)))
    return g, ctx


def _random_tangent_measure(rng, n_atoms, radius=1.0):
    atoms = [random_unit_tangent(rng, radius=radius) for _ in range(n_atoms)]
    w = rng.uniform(0.2, 1.0, n_atoms)
    return DiscreteMeasure.from_atoms(atoms, w / w.sum())


def test_01_closed_forms_match_radial_limits():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_b = worst_g = worst_v = worst_id = 0.0
    for _ in range(1000):
        x = random_space_point(rng, radius=2.0)
        y = random_space_point(rng, radius=2.0)
        xi = random_boundary_direction(rng)
        eta = random_boundary_direction(rng)

        worst_b = max(worst_b, abs(busemann(x, y, xi) - oracles.busemann_limit(x, y, xi)))
        gp = gromov_product(x, xi, eta)
        worst_g = max(worst_g, abs(gp - oracles.gromov_limit(x, xi, eta)))
        rho = visual_metric(x, xi, eta)
        worst_v = max(worst_v, abs(rho - oracles.visual_limit(x, xi, eta)))

        # squared metric seen from y = squared metric seen from x, scaled by
        # the horospherical displacement toward each argument
        lhs = visual_metric(y, xi, eta) ** 2
        rhs = rho**2 * math.exp(busemann(x, y, xi)) * math.exp(busemann(x, y, eta))
        worst_id = max(worst_id, abs(lhs - rhs))

    ok = worst_b <= 1e-7 and worst_g <= 1e-7 and worst_v <= 1e-7 and worst_id <= 1e-10
    detail = (
        f"radial gaps busemann {worst_b:.1e} gromov {worst_g:.1e} "
        f"visual {worst_v:.1e}, displacement identity {worst_id:.1e}"
    )
    _conclude(1, "closed-forms", ok, detail, time.monotonic() - start, 5.0)


def _chord_gap(spec, u0, length, s):
    """max over p-transformed energies of u(gamma(s)) minus the sinh chord."""
    a = evaluate_objective(spec, geodesic_point(u0, 0.0))
    b = evaluate_objective(spec, geodesic_point(u0, length))
    m = evaluate_objective(spec, geodesic_point(u0, s))
    p = spec.exponent if math.isfinite(spec.exponent) else 1.0
    ua, ub, um = math.exp(p * a), math.exp(p * b), math.exp(p * m)
    chord = (ua * math.sinh(length - s) + ub * math.sinh(s)) / math.sinh(length)
    return um - chord


def test_02_chord_convexity():
    rng = np.random.default_rng(102)
    start = time.monotonic()
    worst = -math.inf
    for i in range(1000):
        n_atoms = int(rng.integers(3, 6))
        if i % 2 == 0:
            atoms = [random_space_point(rng, radius=1.2) for _ in range(n_atoms)]
            w = rng.uniform(0.2, 1.0, n_atoms)
            mu = DiscreteMeasure.from_atoms(atoms, w / w.sum())
            mode = COSH_MODE
        else:
            mu = _random_tangent_measure(rng, n_atoms)
            mode = BUSEMANN_MODE

        base = random_space_point(rng, radius=1.0)
        direction = random_tangent_vector(rng, base)
        u0 = UnitTangent(base, direction)
        length = rng.uniform(0.5, 2.5)
        s = rng.uniform(0.15, 0.85) * length
        for p in (1.0, 2.0, 5.0, 10.0, math.inf):
            worst = max(worst, _chord_gap(ObjectiveSpec(p, mode, mu), u0, length, s))

    ok = worst <= 1e-9
    _conclude(2, "chord-convexity", ok, f"max chord excess {worst:.1e}", time.monotonic() - start, 10.0)


def test_03_barycenter_matches_grid_oracle():
    rng = np.random.default_rng(103)
    start = time.monotonic()
    schedule = (1.0, 2.0, 5.0, 10.0)
    worst_p = worst_c = 0.0
    for i in range(50):
        n_atoms = int(rng.integers(2, 6))
        atoms = [random_space_point(rng, radius=1.2) for _ in range(n_atoms)]
        w = rng.uniform(0.2, 1.0, n_atoms)
        w = w / w.sum()
        mu = DiscreteMeasure.from_atoms(atoms, w)
        p = schedule[i % len(schedule)]

        sol = minimize(ObjectiveSpec(p, COSH_MODE, mu)).minimizer
        ref = oracles.oracle_p_barycenter(atoms, w, p, step=2e-3)
        worst_p = max(worst_p, dist(sol, ref))

        center = circumcenter(atoms)
        ref_c = oracles.oracle_circumcenter(atoms, step=2e-3)
        worst_c = max(worst_c, dist(center, ref_c))

    # rotational orbits: the unique minimizer inherits the symmetry, so the
    # exact answer is the orbit center for every exponent
    worst_sym = 0.0
    for k in range(3, 8):
        g = random_lorentz(rng)
        c = SpacePoint(g @ origin(2).coords)
        E = tangent_basis(c)
        r = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0.0, 2 * math.pi)
        orbit = [
            exp_map(c, r * (math.cos(phase + 2 * math.pi * j / k) * E[0]
                            + math.sin(phase + 2 * math.pi * j / k) * E[1]))
            for j in range(k)
        ]
        mu = DiscreteMeasure.from_atoms(orbit)
        mean = minimize(ObjectiveSpec(2.0, COSH_MODE, mu)).minimizer
        worst_sym = max(worst_sym, dist(mean, c), dist(circumcenter(orbit), c))

    ok = worst_p <= 2e-3 and worst_c <= 2e-3 and worst_sym <= 1e-8
    detail = (
        f"oracle gaps p-mean {worst_p:.1e} minimax {worst_c:.1e}, "
        f"symmetric {worst_sym:.1e}"
    )
    _conclude(3, "barycenter-oracle", ok, detail, time.monotonic() - start, 60.0)


def test_04_flow_limit():
    rng = np.random.default_rng(104)
    start = time.monotonic()
    worst_final = 0.0
    worst_t0 = 0
    for _ in range(20):
        nu = _random_tangent_measure(rng, int(rng.integers(3, 7)))
        table = flow_limit_experiment(nu, 2.0, range(1, 11))
        gaps = [row[2] for row in table.rows]
        worst_final = max(worst_final, gaps[-1])
        t0 = next(
            i for i in range(len(gaps))
            if all(gaps[j + 1] <= gaps[j] for j in range(i, len(gaps) - 1))
        )
        worst_t0 = max(worst_t0, int(table.rows[t0][0]))

    ok = worst_final <= 1e-3 and worst_t0 <= 7
    detail = f"gap at t=10 max {worst_final:.1e}, monotone from t0 <= {worst_t0}"
    _conclude(4, "flow-limit", ok, detail, time.monotonic() - start, 30.0)


def test_05_p_limit():
    rng = np.random.default_rng(105)
    start = time.monotonic()
    worst = 0.0
    for _ in range(20):
        nu = _random_tangent_measure(rng, int(rng.integers(3, 7)))
        limit = asymptotic_circumcenter(nu)
        # each exponent is solved cold: minimize climbs its own ladder
        for p in (64.0, 512.0, 4096.0, 2.0**14):
            res = minimize(ObjectiveSpec(p, BUSEMANN_MODE, nu))
            assert res.converged, f"solve stalled at p={p}"
        worst = max(worst, dist(res.minimizer, limit))

    ok = worst <= 1e-3
    _conclude(5, "p-limit", ok, f"gap at p=2^14 max {worst:.1e}", time.monotonic() - start, 60.0)


def test_06_lorentz_naturality():
    rng = np.random.default_rng(106)
    start = time.monotonic()
    worst_ext = worst_proj = worst_oracle = 0.0
    for i in range(20):
        g, ctx = _lorentz_context(rng)
        for j in range(10):
            x = random_space_point(rng, radius=2.2)
            gx = SpacePoint(g @ x.coords)
            worst_ext = max(worst_ext, dist(circumcenter_extension(ctx, x), gx))
            # start the metric search away from the answer so agreement
            # means recovery, not inertia
            guess = exp_map(gx, 0.3 * random_tangent_vector(rng, gx))
            rho, cfg = MoebiusMetric(x, ctx.f), SolverConfig(initial=guess)
            proj = nearest_visual_projection(rho, cfg=cfg)
            worst_proj = max(worst_proj, dist(proj, gx))
            if j == 0 and i < 4:
                # the Nelder-Mead search shares no solver with the projection
                ref = oracles.oracle_visual_projection(rho, cfg=cfg)
                worst_oracle = max(worst_oracle, dist(proj, ref))

    ok = worst_ext <= 1e-6 and worst_proj <= 1e-3 and worst_oracle <= 1e-3
    detail = (
        f"extension gap {worst_ext:.1e}, metric projection gap {worst_proj:.1e}, "
        f"oracle gap {worst_oracle:.1e}"
    )
    _conclude(6, "lorentz-naturality", ok, detail, time.monotonic() - start, 120.0)


def test_07_balance_and_certificates():
    rng = np.random.default_rng(107)
    start = time.monotonic()
    schedule = (2.0, 64.0, 1024.0)
    worst_res = worst_norm = 0.0
    worst_sep = math.inf
    for i in range(20):
        _, ctx = _lorentz_context(rng)
        x = random_space_point(rng, radius=2.0)
        _, report = mu_x_p(ctx, x, schedule[i % len(schedule)])
        worst_res = max(worst_res, report.residual)

        center = circumcenter_extension(ctx, x)
        cert = hull_certificate(argmax_set(ctx, x, center))
        assert cert.feasible, "hull certificate rejected the computed center"
        worst_norm = max(worst_norm, cert.min_norm)

        v = random_tangent_vector(rng, center)
        off = exp_map(center, 0.5 * v)
        aset_off = argmax_set(ctx, x, off)
        cert_off = hull_certificate(aset_off)
        assert not cert_off.feasible, "certificate accepted an offset point"
        assert cert_off.separator is not None
        dots = [minkowski(d, cert_off.separator) for d in aset_off.image_dirs]
        assert min(dots) > 0.0, "separating witness is not strictly acute"
        worst_sep = min(worst_sep, cert_off.min_norm)

    ok = worst_res <= 1e-8 and worst_norm <= 1e-4 and worst_sep > 1e-3
    detail = (
        f"balance residual {worst_res:.1e}, feasible min-norm {worst_norm:.1e}, "
        f"offset separation {worst_sep:.1e}"
    )
    _conclude(7, "balance-and-certificates", ok, detail, time.monotonic() - start, 60.0)


def test_08_derivative_identity():
    rng = np.random.default_rng(108)
    start = time.monotonic()
    schedule = (4.0, 16.0, 64.0)
    worst_res = 0.0
    worst_ratio = 0.0
    # central differences sit on a ~5e-9 rounding floor below h = 2e-3, so
    # the halving ladder is read with an additive allowance at that scale
    floor = 1e-8
    for i in range(20):
        _, ctx = _lorentz_context(rng)
        x = random_space_point(rng, radius=1.5)
        v = random_tangent_vector(rng, x)
        p = schedule[i % len(schedule)]
        r8, r4, r2, r1 = (
            derivative_identity_residual(ctx, x, v, p, h=h)
            for h in (8e-3, 4e-3, 2e-3, 1e-3)
        )
        worst_res = max(worst_res, r1)
        assert r4 <= 0.7 * r8 + floor, (r8, r4)
        assert r2 <= 0.7 * r4 + floor, (r4, r2)
        assert r1 <= r8 + floor, (r8, r1)
        if r8 > 10 * floor:
            worst_ratio = max(worst_ratio, r4 / r8)

    ok = worst_res <= 1e-4
    detail = f"residual at h=1e-3 max {worst_res:.1e}, halving ratio max {worst_ratio:.2f}"
    _conclude(8, "derivative-identity", ok, detail, time.monotonic() - start, 120.0)


def test_09_bilipschitz_audits():
    rng = np.random.default_rng(109)
    start = time.monotonic()
    g, ctx = _lorentz_context(rng)
    ctx_back = ExtensionContext(
        BoundaryMap("lorentz", np.linalg.inv(g)),
        uniform_boundary_grid(64, SpacePoint(g @ origin(2).coords)),
    )
    pairs = [
        (random_space_point(rng, radius=1.5), random_space_point(rng, radius=1.5))
        for _ in range(100)
    ]

    main = main_inequality_audit(ctx, pairs, p=8.0)
    lip = lipschitz_audit(ctx, pairs)
    iso = max(abs(r["image_distance"] - r["source_distance"]) for r in lip["rows"])
    inv = inverse_consistency(ctx, ctx_back, [x for x, _ in pairs])

    ok = (
        main["pass"]
        and lip["pass"]
        and inv["pass"]
        and main["max_violation"] <= 1e-9
        and iso <= 1e-6
    )
    detail = (
        f"inequality slack {main['max_violation']:.1e}, "
        f"ratio excess {lip['max_violation']:.1e}, isometry defect {iso:.1e}, "
        f"round trip {inv['max_violation']:.1e}"
    )
    _conclude(9, "bilipschitz-audits", ok, detail, time.monotonic() - start, 120.0)


def test_10_moebius_gate():
    rng = np.random.default_rng(110)
    start = time.monotonic()
    grid = uniform_boundary_grid(64, origin(2))
    worst_dev = math.inf
    amplitudes = (0.1, 0.15, 0.3)
    for amp in amplitudes:
        warped = BoundaryMap("perturbed", random_lorentz(rng), np.array([amp]))
        dev = cross_ratio_deviation(warped, probe_quadruples())
        worst_dev = min(worst_dev, dev)
        with pytest.raises(ValueError, match="cross-ratio"):
            ExtensionContext(warped, grid)

    ok = worst_dev > 1e-3
    detail = f"min deviation over amplitudes >= 0.1 is {worst_dev:.1e}"
    _conclude(10, "moebius-gate", ok, detail, time.monotonic() - start, 5.0)


def test_11_verify_determinism(tmp_path):
    from horobary import cli

    start = time.monotonic()
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    code_a = cli.main(["verify", "--seed", "11", "--out", out_a])
    code_b = cli.main(["verify", "--seed", "11", "--out", out_b])
    assert code_a == 0 and code_b == 0

    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names_a, shallow=False)

    ok = names_a == names_b and not mismatch and not errors
    detail = f"reports byte-identical ({', '.join(match)})"
    _conclude(11, "verify-determinism", ok, detail, time.monotonic() - start, 60.0)
