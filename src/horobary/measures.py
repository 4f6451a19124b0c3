"""Finite discrete probability measures on the boundary, unit tangent bundle,
and the space itself.

Measures are stored struct-of-arrays (stacked coordinates plus a weight
vector) so that the solver and audit layers can run vectorized reductions
over atoms.  All pushforwards copy the weight array untouched.
"""

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .hyperboloid import (
    CONSTRAINT_TOL,
    RENORM_TOL,
    BoundaryDirection,
    SpacePoint,
    UnitTangent,
    _direction_rows,
    _sq_rows,
    _tangent_rows,
    minkowski,
    tangent_basis,
)

WEIGHT_TOL = 1e-12

KINDS = ("space", "boundary", "tangent")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms of a single kind, normalized to total mass one.

    coords holds the stacked point (space), ray (boundary), or base-point
    (tangent) coordinates; dirs is present only for tangent measures.
    """

    kind: str
    coords: np.ndarray
    weights: np.ndarray
    dirs: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        coords = np.array(self.coords, float, ndmin=2)
        weights = np.array(self.weights, float).ravel()
        if coords.shape[0] == 0:
            raise ValueError("measure needs at least one atom")
        if coords.ndim != 2 or coords.shape[1] < 3:
            raise ValueError("coords must be one (n+1)-vector per atom with n >= 2")
        if weights.shape[0] != coords.shape[0]:
            raise ValueError("weight count does not match atom count")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")
        if not abs(weights.sum() - 1.0) <= WEIGHT_TOL:
            raise ValueError("weights must sum to 1")
        dirs = self.dirs
        if self.kind == "tangent":
            if dirs is None:
                raise ValueError("tangent measure needs direction vectors")
            dirs = np.array(dirs, float, ndmin=2)
            if dirs.shape != coords.shape:
                raise ValueError("direction array shape mismatch")
        elif dirs is not None:
            raise ValueError("dirs only make sense for tangent measures")
        coords.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)
        if dirs is not None:
            dirs.flags.writeable = False
            object.__setattr__(self, "dirs", dirs)
        _check_rows(self.kind, coords, dirs)

    def __len__(self):
        return self.coords.shape[0]

    @property
    def dim(self):
        return self.coords.shape[1] - 1

    def atom(self, i):
        """The i-th support element as its typed object."""
        if self.kind == "space":
            return SpacePoint(self.coords[i])
        if self.kind == "boundary":
            return BoundaryDirection(self.coords[i])
        return UnitTangent(SpacePoint(self.coords[i]), self.dirs[i])

    @property
    def atoms(self):
        return [self.atom(i) for i in range(len(self))]

    @classmethod
    def from_atoms(cls, elements, weights=None):
        """Build from typed elements; uniform weights when none are given."""
        elements = list(elements)
        if not elements:
            raise ValueError("measure needs at least one atom")
        if weights is None:
            weights = np.full(len(elements), 1.0 / len(elements))
        first = elements[0]
        if isinstance(first, SpacePoint):
            kind = "space"
        elif isinstance(first, BoundaryDirection):
            kind = "boundary"
        elif isinstance(first, UnitTangent):
            kind = "tangent"
        else:
            raise TypeError(f"unsupported atom type {type(first).__name__}")
        if any(not isinstance(e, type(first)) for e in elements):
            raise ValueError("atoms must all have the same kind")
        if kind == "tangent":
            coords = np.stack([e.base.coords for e in elements])
            dirs = np.stack([e.dir for e in elements])
            return cls(kind, coords, weights, dirs)
        coords = np.stack([e.coords for e in elements])
        return cls(kind, coords, weights)


def _check_rows(kind, coords, dirs):
    """The checks of the element type's constructor (SpacePoint,
    BoundaryDirection, or UnitTangent on a SpacePoint), on all rows at once
    and with the same relative tolerances.  Rows with a NaN or inf entry are
    rejected too, which the typed constructors do not do: NaN fails none of
    their comparisons, and an inf point meets its relative tolerance.
    """

    def require(ok, what):
        # a row passes only where ok is True, so a NaN comparison fails
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise ValueError(f"atom {bad[0]}: {what}")

    finite = np.isfinite(coords).all(axis=1)
    if dirs is not None:
        finite &= np.isfinite(dirs).all(axis=1)
    require(finite, "coordinates are not finite")
    lead = coords[:, 0]
    if kind == "boundary":
        require(lead > 0.0, "null vector is not future-pointing (xi0 <= 0)")
        c = coords / lead[:, None]
        require(np.abs(minkowski(c, c)) <= CONSTRAINT_TOL, "coords are not on the null cone")
        return
    require(lead > 0.0, "point is not on the future sheet (x0 <= 0)")
    xx = _sq_rows(coords)
    res = minkowski(coords, coords) + 1.0
    require(np.abs(res) <= CONSTRAINT_TOL * np.maximum(1.0, xx), "coords are off the hyperboloid")
    if kind == "tangent":
        dd = _sq_rows(dirs)
        ntol = CONSTRAINT_TOL * np.maximum(1.0, dd)
        otol = CONSTRAINT_TOL * np.maximum(1.0, np.sqrt(xx * dd))
        unit = np.abs(minkowski(dirs, dirs) - 1.0) <= ntol
        require(unit & (np.abs(minkowski(coords, dirs)) <= otol), "dir is not unit tangent at base")


def uniform_boundary_grid(n, x):
    """n equally spread boundary directions seen from x, weights 1/n.

    In dimension 2 the directions sit at angles 2 pi k / n in the tangent
    circle at x.  In higher dimensions a Fibonacci-style deterministic
    spiral stands in for the equal-angle grid.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 directions")
    dim = x.dim
    if dim == 2:
        angles = 2.0 * math.pi * np.arange(n) / n
        sphere = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        sphere = _sphere_grid(n, dim)
    basis = tangent_basis(x)
    dirs = sphere @ basis
    rays = dirs + x.coords
    rays = rays / rays[:, :1]
    # x + dir cancels when dir points back past the origin from a far x; as
    # in boundary_endpoint, renormalizing the spatial part restores the cone.
    # Unlike hyperboloid._endpoint_rows, only rows off the cone are touched,
    # which keeps every bit of the grids centred at the origin
    fix = np.abs(minkowski(rays, rays)) > RENORM_TOL
    rays[fix, 1:] /= np.linalg.norm(rays[fix, 1:], axis=1, keepdims=True)
    return DiscreteMeasure("boundary", rays, np.full(n, 1.0 / n))


def _sphere_grid(n, dim):
    """Deterministic low-discrepancy points on S^{dim-1}.

    Golden-spiral construction for S^2; for higher spheres, a Kronecker
    lattice pushed through the inverse Gaussian map (deterministic and
    well spread, which is all the quadrature layer needs).
    """
    if dim == 3:
        k = np.arange(n)
        z = 1.0 - (2.0 * k + 1.0) / n
        phi = k * math.pi * (3.0 - math.sqrt(5.0))
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    from scipy.stats import qmc, norm

    eng = qmc.Halton(d=dim, scramble=False)
    u = eng.random(n + 1)[1:]  # drop the degenerate all-zeros first point
    g = norm.ppf(u)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def pushforward_qx(mu, x):
    """Transport a boundary measure to unit tangents at x via direction_to,
    all atoms at once."""
    if mu.kind != "boundary":
        raise ValueError("pushforward_qx expects a boundary measure")
    coords = np.broadcast_to(x.coords, mu.coords.shape).copy()
    # far from the origin ray / -<x, ray> - x cancels; re-project as moebius does
    dirs = _tangent_rows(coords, _direction_rows(x.coords, mu.coords))
    return DiscreteMeasure("tangent", coords, mu.weights.copy(), dirs)


def flow_project(nu, t):
    """Base points of the time-t geodesic flow of a tangent measure."""
    if nu.kind != "tangent":
        raise ValueError("flow_project expects a tangent measure")
    coords = math.cosh(t) * nu.coords + math.sinh(t) * nu.dirs
    return DiscreteMeasure("space", coords, nu.weights.copy())


def pushforward_map(mu, f):
    """Image of a boundary measure under a boundary map, all atoms at once
    through f.apply_rays."""
    if mu.kind != "boundary":
        raise ValueError("pushforward_map expects a boundary measure")
    return DiscreteMeasure("boundary", f.apply_rays(mu.coords), mu.weights.copy())


def pushforward_conjugacy(nu, phi):
    """Atomwise image of a tangent measure under a flow conjugacy.  The
    library does not call it; test_flow_project_semigroup builds its flowed
    measure with it."""
    if nu.kind != "tangent":
        raise ValueError("pushforward_conjugacy expects a tangent measure")
    images = [phi(nu.atom(i)) for i in range(len(nu))]
    coords = np.stack([im.base.coords for im in images])
    dirs = np.stack([im.dir for im in images])
    return DiscreteMeasure("tangent", coords, nu.weights.copy(), dirs)


# ---------------------------------------------------------------------------
# Interchange and reports.  CSV cells carry 17 significant digits; JSON
# numbers are Python's shortest repr.  Both read back as the same doubles.

def fmt17(v):
    """A real as text with 17 significant digits, which reads back as the
    same double; integers are written as integers."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def measure_to_dict(mu):
    out = []
    for i in range(len(mu)):
        atom = {"coords": mu.coords[i].tolist(), "weight": float(mu.weights[i])}
        if mu.dirs is not None:
            atom["dir"] = mu.dirs[i].tolist()
        out.append(atom)
    return {"kind": mu.kind, "atoms": out}


def measure_from_dict(data):
    try:
        kind = data["kind"]
        atoms = data["atoms"]
        coords = np.array([a["coords"] for a in atoms], float)
        weights = np.array([a["weight"] for a in atoms], float)
        dirs = None
        if kind == "tangent":
            dirs = np.array([a["dir"] for a in atoms], float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed measure object: {exc}") from exc
    return DiscreteMeasure(kind, coords, weights, dirs)


def write_atomic(path, text):
    """Write text to path through a temporary file in the same directory, so
    that readers see the old file or the whole new one, never a part."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, rows, newline="\n"):
    """Write a header line and one line per row atomically, each ending in
    newline.  Bools are written as true/false, every other cell with fmt17."""

    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        return fmt17(v)

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    write_atomic(path, newline.join(lines) + newline)


def save_measure(mu, path):
    with open(path, "w") as fh:
        json.dump(measure_to_dict(mu), fh, indent=2)
        fh.write("\n")


def load_measure(path):
    with open(path) as fh:
        return measure_from_dict(json.load(fh))
