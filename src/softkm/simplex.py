"""Euclidean projection onto the probability simplex and the projected
gradient solver for per-sample simplex-constrained least squares.

The solver minimizes 0.5 * ||x - F g||^2 over the probability simplex with
a fixed step 1 / sigma_max(F)^2 (the exact Lipschitz step for that
gradient), Nesterov acceleration, and a restart that falls back to the
plain projected step whenever the accelerated candidate would increase the
objective. The fallback keeps every iterate non-increasing, which the
alternating solvers rely on for their descent guarantees.
"""

from __future__ import annotations

import numpy as np

from .core import DataMatrix, _finite_matrix
from .errors import InvalidInput, NumericalFailure

__all__ = ["project_simplex", "solve_membership"]

# Iteration cap of one membership solve, and the threshold on every row's
# projected-gradient residual ||g - P(g - grad/L)|| that ends it earlier.
MAX_ITERS = 500
KKT_TOL = 1e-9


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-then-threshold: with the entries sorted in decreasing order, the
    active set size is the largest j such that v_(j) - (sum_{i<=j} v_(i)
    - 1)/j > 0, and the projection clips v - theta at zero with theta the
    matching shifted average. Runs in O(k log k).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInput("projection expects a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("projection input has non-finite entries")
    return _project_rows(v[None, :])[0]


def _project_rows(V: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection. V is m x k, finite."""
    m, k = V.shape
    U = -np.sort(-V, axis=1)  # descending
    css = np.cumsum(U, axis=1)
    j = np.arange(1, k + 1, dtype=float)
    positive = U * j > css - 1.0
    rho = k - np.argmax(positive[:, ::-1], axis=1)
    theta = (np.take_along_axis(css, rho[:, None] - 1, axis=1).ravel() - 1.0) / rho
    G = np.maximum(V - theta[:, None], 0.0)
    # pin the row sums to one; the support is untouched
    G /= G.sum(axis=1, keepdims=True)
    return G


def _pgd_rows(F, P, warm=None) -> np.ndarray:
    """Run the accelerated projected gradient on every row of P at once.

    F is d x k, P is m x d with one sample per row, warm an optional m x k
    feasible start (defaults to the uniform membership). Returns the m x k
    solution block; all rows share the step 1/sigma_max(F)^2 and iterate
    until every row passes the KKT check or MAX_ITERS is hit.
    """
    d, k = F.shape
    m = P.shape[0]
    smax = float(np.linalg.svd(F, compute_uv=False)[0])
    if not smax > 0.0:
        raise InvalidInput("prototype matrix must be nonzero")
    L = smax * smax
    if warm is None:
        G = np.full((m, k), 1.0 / k)
    else:
        G = np.array(warm, dtype=float)
        if G.shape != (m, k):
            raise InvalidInput(f"warm start must be {m}x{k}")
    Ft = F.T
    tol2 = KKT_TOL * KKT_TOL
    Y = G.copy()
    t = np.ones(m)
    for _ in range(MAX_ITERS):
        RG = G @ Ft - P  # per-row residuals at G
        plain = _project_rows(G - (RG @ F) / L)
        diff = G - plain
        if float(np.einsum("ij,ij->i", diff, diff).max()) <= tol2:
            break
        RY = Y @ Ft - P
        C = _project_rows(Y - (RY @ F) / L)
        RC = C @ Ft - P
        worse = np.einsum("ij,ij->i", RC, RC) > np.einsum("ij,ij->i", RG, RG)
        if np.any(worse):
            # restart those rows with the guaranteed-descent plain step
            C[worse] = plain[worse]
            t[worse] = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        Y = C + ((t - 1.0) / t_next)[:, None] * (C - G)
        t = t_next
        G = C
    finite = np.isfinite(G).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NumericalFailure(f"non-finite membership in row {bad}")
    return G


def solve_membership(F, X, warm=None) -> np.ndarray:
    """Solve the simplex least-squares problem for every sample of X.

    Row i of the returned n x k matrix solves min ||x_i - F g||_2^2 on the
    simplex; the rows are independent, so the result does not depend on
    batching. `warm` optionally supplies a feasible n x k starting block
    (uniform rows otherwise); no row ends worse than its start, and every
    row is exactly feasible, since the last operation is a projection.
    """
    F = _finite_matrix(F, "prototypes")
    A = _finite_matrix(X.values if isinstance(X, DataMatrix) else X, "data matrix")
    if A.shape[0] != F.shape[0]:
        raise InvalidInput("X and F must agree on the feature dimension")
    return _pgd_rows(F, A.T, warm)
