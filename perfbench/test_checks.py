"""Each benchmark check accepts the library's answer and rejects a wrong one.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
from horobary import barycenter, cli, extension, hyperboloid, measures, moebius  # noqa: E402
from horobary.hyperboloid import ModelConfig, SpacePoint, exp_map, origin  # noqa: E402
from horobary.sampling import random_lorentz, random_space_point, random_tangent_vector  # noqa: E402

LIBRARY = {
    "hyperboloid": hyperboloid,
    "measures": measures,
    "barycenter": barycenter,
    "moebius": moebius,
    "extension": extension,
    "cli": cli,
}


def moved(z, t, seed=0):
    """z moved a distance t along a random unit tangent."""
    v = np.random.default_rng(seed).normal(size=z.size)
    v = v + checks.mink(v, z) * z
    v /= math.sqrt(checks.mink(v, v))
    return math.cosh(t) * z + math.sinh(t) * v


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(5)
    g = random_lorentz(rng, dim=2)
    ctx = extension.ExtensionContext(
        moebius.BoundaryMap("lorentz", g),
        measures.uniform_boundary_grid(64, origin(2)),
        ModelConfig(2),
    )
    return g, ctx, random_space_point(rng, dim=2)


def test_moved_point_is_at_the_distance():
    z = SpacePoint(np.array([math.cosh(1.0), math.sinh(1.0), 0.0])).coords
    assert checks.hdist(z, moved(z, 1e-3)) == pytest.approx(1e-3, rel=1e-9)


def test_naturality_check(case):
    g, ctx, x = case
    z = extension.extension_result(ctx, x, math.inf).minimizer.coords
    assert checks.image_defect(g, x.coords, z) <= checks.NATURALITY_TOL
    assert checks.image_defect(g, x.coords, moved(z, 1e-3)) > checks.NATURALITY_TOL


def test_closed_form_check(case):
    g, ctx, x = case
    mu = ctx.base_measure
    z = extension.extension_result(ctx, x, 1.0).minimizer.coords
    assert checks.closed_form_defect(g, x.coords, mu.coords, mu.weights, z) <= checks.CLOSED_FORM_TOL
    bad = moved(z, 1e-3)
    assert checks.closed_form_defect(g, x.coords, mu.coords, mu.weights, bad) > checks.CLOSED_FORM_TOL


@pytest.mark.parametrize("p", [2.0, 8.0, 64.0])
def test_gradient_check(case, p):
    g, ctx, x = case
    mu = ctx.base_measure
    z = extension.extension_result(ctx, x, p).minimizer.coords
    assert checks.gradient_defect(g, x.coords, mu.coords, mu.weights, p, z) <= checks.GRADIENT_TOL
    bad = moved(z, 1e-3)
    assert checks.gradient_defect(g, x.coords, mu.coords, mu.weights, p, bad) > checks.GRADIENT_TOL


def test_projection_check():
    rng = np.random.default_rng(6)
    g = random_lorentz(rng, dim=2)
    x = random_space_point(rng, dim=2)
    gx = SpacePoint(g @ x.coords)
    start = exp_map(gx, 0.3 * random_tangent_vector(rng, gx))
    z = moebius.nearest_visual_projection(
        moebius.MoebiusMetric(x, moebius.BoundaryMap("lorentz", g)),
        cfg=barycenter.SolverConfig(initial=start),
    ).coords
    assert checks.image_defect(g, x.coords, z) <= checks.PROJECTION_TOL
    # the tolerance is 1e-3 itself, so the wrong answer is moved 1e-2
    assert checks.image_defect(g, x.coords, moved(z, 1e-2)) > checks.PROJECTION_TOL


def test_verify_report_check(tmp_path):
    assert cli.main(["verify", "--seed", "3", "--out", str(tmp_path)]) == 0
    path = tmp_path / "verify.json"
    assert checks.verify_report_failures(path) == []
    report = json.loads(path.read_text())
    report["suites"][3]["pass"] = False
    path.write_text(json.dumps(report))
    assert checks.verify_report_failures(path) == [report["suites"][3]["audit"]]
    path.write_text(json.dumps({"pass": True, "suites": []}))
    assert checks.verify_report_failures(path) == ["no-suites"]


def test_tracer_self_time_and_restore(case):
    g, ctx, x = case
    original = extension.minimize
    tracer = tracing.Tracer()
    tracer.install(LIBRARY)
    try:
        assert extension.minimize is not original
        extension.extension_result(ctx, x, 2.0)  # outside an operation: not recorded
        assert tracer.spans == []
        tracer.run_op("p2", lambda: extension.extension_result(ctx, x, 2.0))
    finally:
        tracer.uninstall()
    assert extension.minimize is original and barycenter.minimize is original
    totals = tracer.span_totals()
    calls, total, own = totals["extension.extension_result"]
    children = sum(totals[n][1] for n in ("extension.conjugated_measure", "barycenter.minimize"))
    assert calls == 1 and own == pytest.approx(total - children, abs=1e-9)
    metrics = tracer.layer_metrics()
    assert metrics["barycenter.minimize.calls"]["value"] == 1
    assert metrics["moebius.conjugacy_footpoints.calls"]["value"] == 1
    assert metrics["measures.DiscreteMeasure.atoms"]["value"] >= 64
    assert metrics["hyperboloid.UnitTangent.builds"]["value"] >= 64
    assert metrics["moebius.nearest_visual_projection.ms"]["value"] == 0
