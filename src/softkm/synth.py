"""Seeded synthetic data and the convex-hull oracle used by the
qualitative solver comparison."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .core import as_matrix
from .errors import InvalidInput

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
    if n < 2:
        raise InvalidInput("need at least two samples")
    rng = np.random.default_rng(seed)
    sizes = (n // 2, n - n // 2)
    X = np.concatenate([np.asarray(c)[:, None] + SPREAD * rng.standard_normal((2, m))
                        for c, m in zip(CENTERS, sizes)], axis=1)
    return X, np.repeat([0, 1], sizes)


def in_convex_hull(points, query) -> bool:
    """Whether `query` is a convex combination of the columns of `points`,
    decided by linear-programming feasibility."""
    P = as_matrix(points, "points")
    q = np.asarray(query, dtype=float).ravel()
    if q.shape[0] != P.shape[0]:
        raise InvalidInput("query dimension must match the points")
    d, n = P.shape
    A_eq = np.vstack([P, np.ones((1, n))])
    b_eq = np.append(q, 1.0)
    res = linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    return res.status == 0
