"""Seeded synthetic data and the convex-hull test, on the membership
solver's nearest point, used by the qualitative solver comparison."""

from __future__ import annotations

import numpy as np

from .core import _finite_matrix, check_k
from .errors import InvalidInput
from .simplex import solve_membership

__all__ = ["two_gaussians", "in_convex_hull"]

CENTERS = ((-0.07, -0.05), (0.07, 0.05))  # of the two blobs of two_gaussians
SPREAD = 0.105  # their common standard deviation


def two_gaussians(n: int = 140, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two overlapping isotropic Gaussian blobs in the plane.

    Returns (X, labels) with X of shape 2 x n (samples as columns) and
    integer labels 0/1, split as evenly as n allows. Fully determined by
    the seed. The scale (CENTERS, SPREAD) is small on purpose: a unit volume
    penalty is then strong enough to pull prototypes inside the data hull,
    which the solver comparison relies on.
    """
    check_k(n, 2, name="n")
    check_k(seed, 0, name="seed")
    rng = np.random.default_rng(seed)
    sizes = (n // 2, n - n // 2)
    X = np.concatenate([np.asarray(c)[:, None] + SPREAD * rng.standard_normal((2, m))
                        for c, m in zip(CENTERS, sizes)], axis=1)
    return X, np.repeat([0, 1], sizes)


def in_convex_hull(points, query) -> bool:
    """Whether `query` is a convex combination of the columns of `points`:
    max|P g - q| <= 1e-9 (max|P - t| + max|q - t|) for P g the hull's nearest
    point (`solve_membership`, exact) and t the midrange of P's rows, at any
    common scale or shift. The solve factors the edges of the supports it
    visits, each of at most d + 1 points, and forms nothing n x n."""
    P = _finite_matrix(points, "points")
    q = _finite_matrix(query, "query").ravel()
    if q.shape[0] != P.shape[0]:
        raise InvalidInput("query dimension must match the points")
    if P.shape[1] == 0:
        raise InvalidInput("points must hold at least one column")
    g = solve_membership(P, q[:, None])[0]
    t = P.min(axis=1) / 2 + P.max(axis=1) / 2  # shifted, a large common offset adds no rounding
    Pt, qt = P - t[:, None], q - t
    return bool(abs(Pt @ g - qt).max(initial=0.0) <= 1e-9 * (abs(Pt).max(initial=0.0) + abs(qt).max(initial=0.0)))
