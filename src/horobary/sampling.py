"""Seeded random constructions: points, ideal points, tangents, isometries.

Every function takes a numpy Generator so callers control determinism;
nothing here touches global random state.
"""

from __future__ import annotations

import math

import numpy as np

from .hyperboloid import (
    BoundaryDirection,
    SpacePoint,
    UnitTangent,
    exp_map,
    origin,
    tangent_basis,
)

# Radius of the sampling ball about the origin.  Objective terms behave like
# cosh(d)^p, so keeping d <= 3 keeps exponents manageable at p = 2**14.
DEFAULT_RADIUS = 3.0


def _unit_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_space_point(
    rng: np.random.Generator, dim: int = 2, radius: float = DEFAULT_RADIUS
) -> SpacePoint:
    """Point at a uniform random distance in [0, radius] from the origin."""
    o = origin(dim)
    direction = _unit_sphere(rng, dim) @ tangent_basis(o)
    return exp_map(o, rng.uniform(0.0, radius) * direction)


def random_boundary_direction(rng: np.random.Generator, dim: int = 2) -> BoundaryDirection:
    """Ideal point with uniformly distributed spatial direction."""
    return BoundaryDirection(np.concatenate(([1.0], _unit_sphere(rng, dim))))


def random_unit_tangent(
    rng: np.random.Generator, dim: int = 2, radius: float = DEFAULT_RADIUS
) -> UnitTangent:
    """Unit tangent with random base point and uniform random direction."""
    x = random_space_point(rng, dim, radius)
    return UnitTangent(x, _unit_sphere(rng, dim) @ tangent_basis(x))


def random_tangent_vector(rng: np.random.Generator, x: SpacePoint) -> np.ndarray:
    """Unit-norm tangent vector at a given point."""
    return _unit_sphere(rng, x.dim) @ tangent_basis(x)


def random_lorentz(
    rng: np.random.Generator,
    dim: int = 2,
    boost: float = 1.5,
    rotation: float = math.pi,
) -> np.ndarray:
    """Orthochronous Lorentz matrix from a random Lie-algebra element.

    The generator is [[0, b^T], [b, A]] with A skew; |b| <= boost bounds how
    far the isometry moves the origin, keeping test instances in the
    well-conditioned sampling ball.
    """
    n = dim
    g = np.zeros((n + 1, n + 1))
    b = _unit_sphere(rng, n) * rng.uniform(0.0, boost)
    g[0, 1:] = b
    g[1:, 0] = b
    a = rng.uniform(-rotation, rotation, size=(n, n))
    g[1:, 1:] = a - a.T
    return _expm(g)


def _expm(g: np.ndarray) -> np.ndarray:
    # exp(g) by scaling and squaring: 18 Taylor terms on g / 2^s, whose
    # row-sum norm is at most 1/2, then s squarings
    s = int(np.log2(max(np.abs(g).sum(axis=1).max(), 1.0))) + 2
    term = out = np.eye(len(g))
    for k in range(1, 19):
        term = term @ g / (k * 2.0**s)
        out = out + term
    for _ in range(s):
        out = out @ out
    return out
