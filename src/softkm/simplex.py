"""Euclidean projection onto the probability simplex and the per-sample
simplex-constrained least-squares solve min ||x - F g||^2, g >= 0,
1^T g = 1, behind the membership step of both alternating solvers.

Every row is solved exactly. For small k, by face enumeration: the
optimal set holds a point whose support has affinely independent
prototypes, so at most d + 1 of them (Wolfe, "Finding the nearest point in
a polytope", Math. Programming 1976). On that face the affine
least-squares minimizer is unique and has nonnegative coefficients, so the
cheapest feasible face minimizer over every face of at most min(k, d + 1)
vertices is optimal. The enumeration runs while that face count is at
most MAX_FACES.

Above the bound each row is one nonnegative least-squares problem whose
normalized solution is the simplex minimizer (_nnls_rows), solved by the
finite active-set method of Lawson and Hanson ("Solving Least Squares
Problems", 1974). On both paths no row ends worse than its warm start,
which the alternating solvers rely on for their descent guarantees.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
from scipy.optimize import nnls

from .core import DataMatrix, _finite_matrix
from .errors import InvalidInput, NumericalFailure

__all__ = ["project_simplex", "solve_membership"]

# Largest face count solved by enumeration: every face at k = 7. Warm-call
# ms, enumeration vs NNLS (one BLAS thread): at n = 2000, 127 faces (d = 10,
# k = 7) take 44 vs 48 and 255 (k = 8) 82 vs 50; at n = 140, 14 faces take
# 1.5 vs 2.9 and 63 faces 6.2 vs 3.4, as NNLS costs about 20 us a row.
MAX_FACES = 127

# Rows whose NNLS systems are built at once: 256 systems of (d + 1) x k, so
# the buffer stays under 1 MB at d = k = 20 whatever the row count.
_NNLS_BLOCK = 256


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


def _nnls_rows(F, P) -> np.ndarray:
    """Solve every row of P exactly as one nonnegative least-squares problem.

    F is d x k, P is m x d with one sample per row. For a sample x let
    A = (F - x 1^T) / s with s = max|F - x 1^T|, so ||x - F g|| = s ||A g||
    on the simplex. The h >= 0 minimizing ||A h||^2 + (1^T h - 1)^2 is
    h = g* / (1 + ||A g*||^2) with g* the simplex minimizer (write h = t g
    with g on the simplex and minimize over t), so g* = h / 1^T h, and
    1^T h >= 1 / (1 + d) > 0. Each row is thus the (d + 1) x k NNLS system
    [A; 1^T] h = e_{d+1}, with no penalty weight to tune; s keeps it finite
    from subnormal to near-overflow data. Rows are independent, so the
    block size changes no bit of the result.
    """
    d, k = F.shape
    G = np.empty((len(P), k))
    e = np.eye(d + 1)[d]
    M = np.empty((min(len(P), _NNLS_BLOCK), d + 1, k))
    M[:, d] = 1.0
    for start in range(0, len(P), _NNLS_BLOCK):
        B = P[start:start + _NNLS_BLOCK]
        A = M[:len(B), :d]
        np.subtract(F, B[:, :, None], out=A)
        s = np.abs(A).max(axis=(1, 2))
        if not np.isfinite(s).all():
            bad = start + int(np.argmin(np.isfinite(s)))
            raise NumericalFailure(f"prototypes minus sample {bad} overflow")
        # every prototype equal to the sample: any membership is optimal
        A /= np.where(s > 0.0, s, 1.0)[:, None, None]
        for i, system in enumerate(M[:len(B)]):
            try:
                h = nnls(system, e)[0]
            except RuntimeError as exc:
                raise NumericalFailure(f"NNLS failed on row {start + i}: {exc}") from exc
            G[start + i] = h / h.sum()
    return G


def solve_membership(F, X, warm=None) -> np.ndarray:
    """Solve the simplex least-squares problem for every sample of X.

    Row i of the returned n x k matrix solves min ||x_i - F g||_2^2 on the
    simplex exactly; the rows are independent, so the result does not
    depend on batching. While the k-vertex simplex has at most MAX_FACES
    faces of at most min(k, d + 1) vertices (every k <= 7, and larger k
    when d is small) each row is solved by face enumeration, otherwise by
    NNLS. `warm` optionally supplies a feasible n x k block of current
    memberships; it is not a starting point, but a warm row that is
    feasible and at least as good as the solved one is returned unchanged.
    Every row is exactly feasible, its sum pinned to one.
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
    Fr, Pr = F, P
    if d >= k:
        # F g - f_0 lies in the span of the k - 1 edges f_j - f_0, so only
        # the samples' components in that span matter
        Q = np.linalg.qr(F[:, 1:] - F[:, :1])[0]
        Pr, Fr = (P - F[:, 0]) @ Q, Q.T @ (F - F[:, :1])
    solve = _nnls_rows if _face_count(d, k) > MAX_FACES else _exact_rows
    G = solve(Fr, Pr)
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
