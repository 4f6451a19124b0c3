"""Checks of benchmark outputs, computed apart from the library.

Each check recomputes what the answer must be from the raw inputs (the
Lorentz matrix g, the point x, the grid rays and weights) with plain numpy,
or tests a property the method must have.  None compares with stored
output.  Every check returns the measured defect; the caller compares it
with the tolerance named next to it.
"""

import json
import math

import numpy as np

# cli.NATURALITY_TOL: Lorentz naturality of the p = inf extension, which is
# exact by the rigidity of H^n
NATURALITY_TOL = 1e-6
# the p = 1 minimizer against its closed form; the solver stops at a
# gradient of 1e-10, and the distance to the minimizer is of that order
CLOSED_FORM_TOL = 1e-8
# the energy gradient recomputed here, against the solver's 1e-10 stopping
# gradient, with room for a different order of summation
GRADIENT_TOL = 1e-8
# criterion 06's bound on the nearest-visual-projection distance
PROJECTION_TOL = 1e-3


def mink(u, v):
    """Minkowski product along the last axis."""
    return np.sum(u[..., 1:] * v[..., 1:], axis=-1) - u[..., 0] * v[..., 0]


def hdist(a, b):
    """Hyperbolic distance through the chord, accurate for close points."""
    d = a - b
    return 2.0 * math.asinh(math.sqrt(max(float(mink(d, d)), 0.0)) / 2.0)


def image_defect(g, x, z):
    """Distance from z to g x: where the p = inf extension of a Lorentz map
    g at x must land, by the rigidity of H^n, and where the nearest visual
    projection of the pushed metric of x under g must land, since that
    metric is the visual metric of g x."""
    return hdist(z, g @ x)


def closed_form_p1(g, x, rays, weights):
    """The p = 1 extension of a Lorentz map: g v / sqrt(-<v, v>) with
    v = sum_i w_i xi_i / (-<x, xi_i>)."""
    v = weights @ (rays / -mink(rays, x)[:, None])
    return g @ v / math.sqrt(-float(mink(v, v)))


def closed_form_defect(g, x, rays, weights, z):
    return hdist(z, closed_form_p1(g, x, rays, weights))


def energy_gradient(g, x, rays, weights, p, z):
    """Riemannian gradient at z of (1/p) log sum_i w_i exp(p B(z, g x, g xi_i)),
    the energy of the conjugated tangents g (x -> xi_i).

    With a_i = g xi_i and c_i(z) = -<z, a_i>, the Busemann function is
    log c_i(z) - log c_i(g x), and its gradient is z - a_i / c_i(z).
    """
    a = rays @ g.T
    c = -mink(a, z)
    logits = np.log(weights) + p * (np.log(c) - np.log(-mink(a, g @ x)))
    w = np.exp(logits - logits.max())
    w /= w.sum()
    return w @ (z[None, :] - a / c[:, None])


def gradient_defect(g, x, rays, weights, p, z):
    grad = energy_gradient(g, x, rays, weights, p, z)
    return math.sqrt(max(float(mink(grad, grad)), 0.0))


def verify_report_failures(path):
    """Names of the suites that did not pass in a verify.json, plus
    'overall' when its top-level verdict is not a pass."""
    with open(path) as fh:
        report = json.load(fh)
    bad = [s.get("audit", "?") for s in report.get("suites", []) if s.get("pass") is not True]
    if not report.get("suites"):
        bad.append("no-suites")
    if report.get("pass") is not True:
        bad.append("overall")
    return bad
