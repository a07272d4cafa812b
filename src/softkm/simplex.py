"""Euclidean projection onto the probability simplex and the per-sample
simplex-constrained least-squares solve min ||x - F g||^2, g >= 0,
1^T g = 1, behind the membership step of both alternating solvers.

For small k the solve is exact, by face enumeration. The optimal set holds
a point whose support has affinely independent prototypes, so at most
d + 1 of them (Wolfe, "Finding the nearest point in a polytope", Math.
Programming 1976). On that face the affine least-squares minimizer is
unique and has nonnegative coefficients, so the cheapest feasible face
minimizer over every face of at most min(k, d + 1) vertices is optimal.
The enumeration runs while that face count is at most MAX_FACES.

Above the bound an accelerated projected gradient runs with a fixed step
1 / sigma_max(F)^2 (the exact Lipschitz step of 0.5 * ||x - F g||^2),
Nesterov acceleration, and a restart that falls back to the plain
projected step whenever the accelerated candidate would increase the
objective. On both paths no row ends worse than its warm start, which the
alternating solvers rely on for their descent guarantees.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .core import DataMatrix, _finite_matrix
from .errors import InvalidInput, NumericalFailure

__all__ = ["project_simplex", "solve_membership"]

# Iteration cap of one projected-gradient solve, and the threshold on every
# row's projected-gradient residual ||g - P(g - grad/L)|| that ends it earlier.
MAX_ITERS = 500
KKT_TOL = 1e-9

# Largest face count solved exactly: every face of the simplex at k = 7.
# Past it the per-face work outgrows the projected gradient: at k = 8 and
# d >= 7 (255 faces) the enumeration is the slower of the two.
MAX_FACES = 127


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-then-threshold: with the entries sorted in decreasing order, the
    active set size is the largest j such that v_(j) - (sum_{i<=j} v_(i)
    - 1)/j > 0, and the projection clips v - theta at zero with theta the
    matching shifted average. Runs in O(k log k).
    """
    V = _finite_matrix(v, "projection input")
    if V.shape[0] != 1 or V.size == 0:
        raise InvalidInput("projection expects a nonempty vector")
    return _project_rows(V)[0]


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


def _face_count(d: int, k: int) -> int:
    """Faces of the k-vertex simplex with at most min(k, d + 1) vertices."""
    return sum(comb(k, s) for s in range(1, min(k, d + 1) + 1))


def _exact_rows(F, P) -> np.ndarray:
    """Solve every row of P exactly by enumerating the faces of the simplex.

    F is d x k, P is m x d with one sample per row. Face S = (j0, rest)
    gives the affine least-squares coefficients c = pinv(E_S) (x - f_j0)
    with edge matrix E_S = [f_j - f_j0, j in rest], shared by all rows, and
    the membership (1 - sum c, c) on S. Each row keeps the feasible
    candidate (every coefficient >= 0) with the smallest residual; the
    vertices are always feasible, and on a tie the smaller face, then the
    lexicographically first, wins.
    """
    d, k = F.shape
    if d >= k:
        # F g - f_0 lies in the span of the k - 1 edges f_j - f_0, so only
        # the samples' components in that span tell the faces apart
        Q = np.linalg.qr(F[:, 1:] - F[:, :1])[0]
        P, F = (P - F[:, 0]) @ Q, Q.T @ (F - F[:, :1])
        d = k - 1
    m = P.shape[0]
    G = np.zeros((m, k))
    best = np.full(m, np.inf)
    for s in range(1, min(k, d + 1) + 1):
        faces = np.array(list(combinations(range(k), s)))
        E = (F[:, faces[:, 1:]] - F[:, faces[:, :1]]).transpose(1, 0, 2)
        for S, E_S, pinv_S in zip(faces, E, np.linalg.pinv(E)):
            Y = P - F[:, S[0]]
            C = Y @ pinv_S.T
            c0 = 1.0 - C.sum(axis=1)
            rows = np.flatnonzero((c0 >= 0.0) & np.all(C >= 0.0, axis=1))
            R = Y[rows] - C[rows] @ E_S.T
            res = np.einsum("ij,ij->i", R, R)
            win = res < best[rows]
            rows = rows[win]
            best[rows] = res[win]
            G[rows] = 0.0
            G[rows, S[0]] = c0[rows]
            G[np.ix_(rows, S[1:])] = C[rows]
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
    L = float(np.linalg.svd(F, compute_uv=False)[0]) ** 2
    G = np.full((m, k), 1.0 / k) if warm is None else warm.copy()
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
    return G


def solve_membership(F, X, warm=None) -> np.ndarray:
    """Solve the simplex least-squares problem for every sample of X.

    Row i of the returned n x k matrix solves min ||x_i - F g||_2^2 on the
    simplex; the rows are independent, so the result does not depend on
    batching. While the k-vertex simplex has at most MAX_FACES faces of at
    most min(k, d + 1) vertices (every k <= 7, and larger k when d is
    small) each row is solved exactly by face enumeration; otherwise the
    accelerated projected gradient runs to the KKT_TOL residual or
    MAX_ITERS steps. `warm` optionally supplies a feasible n x k starting
    block (uniform rows otherwise); no row ends worse than its start, and
    every row is exactly feasible, its sum pinned to one.
    """
    F = _finite_matrix(F, "prototypes")
    A = _finite_matrix(X.values if isinstance(X, DataMatrix) else X, "data matrix")
    d, k = F.shape
    m = A.shape[1]
    if A.shape[0] != d:
        raise InvalidInput("X and F must agree on the feature dimension")
    if not F.any():
        raise InvalidInput("prototype matrix must be nonzero")
    if warm is not None:
        warm = _finite_matrix(warm, "warm start")
        if warm.shape != (m, k):
            raise InvalidInput(f"warm start must be {m}x{k}")
    P = A.T
    if _face_count(d, k) > MAX_FACES:
        G = _pgd_rows(F, P, warm)
    else:
        G = _exact_rows(F, P)
        G /= G.sum(axis=1, keepdims=True)
        if warm is not None:
            # a warm row stays where it is feasible and at least as good
            R, Rw = P - G @ F.T, P - warm @ F.T
            keep = ((np.einsum("ij,ij->i", Rw, Rw) <= np.einsum("ij,ij->i", R, R))
                    & np.all(warm >= 0.0, axis=1)
                    & (np.abs(warm.sum(axis=1) - 1.0) <= 1e-12))
            G[keep] = warm[keep]
    finite = np.isfinite(G).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NumericalFailure(f"non-finite membership in row {bad}")
    return G
