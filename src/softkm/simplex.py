"""Euclidean projection onto the probability simplex and the per-sample
simplex-constrained least-squares solve min ||x - F g||^2, g >= 0,
1^T g = 1, behind the membership step of both alternating solvers.

Every sample is solved exactly by Wolfe's nearest-point algorithm (Math.
Programming 1976), run for all samples at once on their shared Gram matrix
M = F^T F, as in the fast NNLS of Bro and De Jong (J. Chemometrics 1997).
"""

from __future__ import annotations

import numpy as np

from .core import DataMatrix, _finite_matrix
from .errors import InvalidInput, NumericalFailure

__all__ = ["project_simplex", "solve_membership"]

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


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
    positive = U * np.arange(1, k + 1) > css - 1.0
    rho = k - np.argmax(positive[:, ::-1], axis=1)
    theta = (np.take_along_axis(css, rho[:, None] - 1, axis=1).ravel() - 1.0) / rho
    G = np.maximum(V - theta[:, None], 0.0)
    # pin the row sums to one; the support is untouched
    G /= G.sum(axis=1, keepdims=True)
    return G


def _distinct_supports(S) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of the boolean k x m S, one per row, and for
    each column of S the row that holds it."""
    order = np.lexsort(S)  # columns with equal supports side by side
    new = np.concatenate(([True], (S.take(order[1:], axis=1) != S.take(order[:-1], axis=1)).any(axis=0)))
    inv = np.empty(S.shape[1], dtype=int)
    inv[order] = np.cumsum(new) - 1
    return S.take(order.compress(new), axis=1).T, inv


def _affine_minimizers(Mb, C, S) -> tuple[np.ndarray, np.ndarray]:
    """Column i of the k x m result minimizes g^T M g - 2 C_i^T g subject
    to 1^T g = 1 and g = 0 off the support S_i, from the bordered system
    [M_SS 1; 1^T 0][g_S; nu] = [C_Si; 1]. The mask flags the columns whose
    system may be worse conditioned than 1/sqrt(eps). Mb is [M 1; 1^T 0]
    with identity rows and columns for extra indices k, k + 1, ... before
    the border; each distinct support, padded with them, is factored once."""
    k, m = S.shape
    supports, inv = _distinct_supports(S)
    w = supports.sum(axis=1).max()
    padded = np.concatenate((supports, np.ones((len(supports), w), dtype=bool)), axis=1)
    idx = np.argsort(~padded, axis=1, kind="stable")[:, :w]  # the support, then k, k + 1, ...
    ix = np.concatenate((idx, np.full((len(idx), 1), len(Mb) - 1)), axis=1)
    B = Mb[ix[:, :, None], ix[:, None, :]]
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:  # a system is exactly singular: its inverse is infinite
        Binv = np.stack([np.linalg.inv(b) if np.linalg.matrix_rank(b) > w else b + np.inf for b in B])
    # about cond(B): M is rounded at eps |f|^2, so past 1/sqrt(eps) a singular B need not show it
    singular = ~(abs(Binv).reshape(len(B), -1).max(axis=1) * (abs(Mb).max() * np.sqrt(_EPS)) < 1.0)
    Binv[singular] = 0.0
    # column i's prototype idx_j sits at flat index at[j, i] of Cx and V
    at = (idx.T * m).take(inv, axis=1) + np.arange(m)
    Cx, V = np.concatenate((C, np.zeros((w, m)))), np.zeros((k + w, m))
    Binv = Binv[:, :w].transpose(1, 2, 0).take(inv, axis=2)
    V.put(at, (Binv[:, :w] * Cx.take(at)).sum(axis=1) + Binv[:, w])
    return V[:k], singular.take(inv)


def _wolfe(F, X, M, C, tol, W, major) -> np.ndarray:
    """Wolfe's cycles on every column of the feasible k x m weights W.

    A major cycle adds the prototype of most negative gradient to a
    column's support S (C holds c_i = F^T x_i for the dim x m samples X); a
    minor cycle moves to the affine minimizer on S, or steps back to the
    first zero weight on the way. A column flagged `major` sits at its
    affine minimizer. It is done when no gap exceeds its tol, when S spans
    all dim dimensions, or when the prototype just added leaves at once
    (its gap was round-off). A warm support flagged ill-conditioned
    restarts at its nearest vertex; a later one is solved from its edges.
    """
    (dim, k), m = F.shape, C.shape[1]
    G, cols, S, done = np.empty((k, m)), np.arange(m), W > 0.0, np.zeros(m, dtype=bool)
    Mb = np.eye(k + dim + 2)  # a support holds at most dim + 1 prototypes
    Mb[:k, :k], Mb[:k, -1], Mb[-1, :k], Mb[-1, -1] = M, 1.0, 1.0, 0.0
    for step in range(2 * k * k):  # Wolfe's method is finite: this only stops a cycle of round-off
        if major.any():
            # major cycle
            grad = M @ W - C
            gap = (W * grad).sum(axis=0) - grad
            np.putmask(gap, S, -np.inf)
            more = np.flatnonzero(major & (gap.max(axis=0) > tol))
            S[gap.take(more, axis=1).argmax(axis=0), more] = True
            done |= major
            done[more] = False
        if done.any():
            G[:, cols[done]] = W.compress(done, axis=1)
            left = np.flatnonzero(~done)
            cols, W, S, C, tol = (a.take(left, axis=-1) for a in (cols, W, S, C, tol))
        if not cols.size:
            return G
        # minor cycle
        V, bad = _affine_minimizers(Mb, C, S)
        if step == 0 and bad.any():
            W[:, bad] = np.eye(k)[:, np.argmin(np.diag(M)[:, None] - 2.0 * C[:, bad], axis=0)]
            V[:, bad], S[:, bad], bad[:] = W[:, bad], W[:, bad] > 0.0, False
        if bad.any():
            # the prototype just added nearly depends on the rest of S: solve
            # from S's edges f_j - f_j0, whose condition is the root of M_SS's;
            # each distinct support's edge matrix is factored once
            supports, inv = _distinct_supports(S[:, bad])
            i = np.argsort(~supports.T, axis=0, kind="stable")  # the support first
            on = np.take_along_axis(supports.T, i[1:], axis=0)
            E = ((F[:, i[1:]] - F[:, i[:1]]) * on).transpose(2, 0, 1)
            i, on, P = i.take(inv, axis=1), on.take(inv, axis=1), np.linalg.pinv(E).take(inv, axis=0)
            lam = on * (P @ (X[:, cols[bad]] - F[:, i[0]]).T[:, :, None])[:, :, 0].T
            lam = np.concatenate(([1.0 - lam.sum(axis=0)], lam))
            V[:, bad] = np.take_along_axis(lam, np.argsort(i, axis=0), axis=0)
        D = V - W
        block = S & (V <= 0.0)
        ratio = np.where(block, W / np.maximum(-D, _TINY), np.inf)
        theta = ratio.min(axis=0)
        stuck = theta == 0.0
        if stuck.any():
            D[:, stuck], theta[stuck] = 0.0, np.inf
        major = np.isinf(theta)
        W += np.minimum(theta, 1.0) * D
        np.putmask(W, block & (ratio == theta), 0.0)
        np.maximum(W, 0.0, out=W)
        S = W > 0.0
        done = stuck | (S.sum(axis=0) > dim)
        major &= ~done
    raise NumericalFailure(f"membership solve did not finish in {step + 1} steps")


def solve_membership(F, X, warm=None) -> np.ndarray:
    """Solve the simplex least-squares problem for every sample of X.

    Row i of the returned n x k matrix solves min ||x_i - F g||_2^2 on the
    simplex exactly, by Wolfe's method batched over the samples; the batch
    changes only the rounding of shared matrix products. A row of the
    optional feasible n x k `warm` starts from its support (a cold row at
    its nearest prototype) and is kept when at least as good as the solved
    row. When k > d + 1, F g is unique but g need not be: the returned g has
    an affinely independent support, chosen by the start. Row sums are
    pinned to one.
    """
    F = _finite_matrix(F, "prototypes")
    A = _finite_matrix(X.values if isinstance(X, DataMatrix) else X, "data matrix")
    (d, k), m = F.shape, A.shape[1]
    if A.shape[0] != d or k == 0:
        raise InvalidInput("F needs at least one column and the feature dimension of X")
    if warm is not None:
        warm = _finite_matrix(warm, "warm start")
        if warm.shape != (m, k):
            raise InvalidInput(f"warm start must be {m}x{k}")
    # x - F g is unchanged by a common shift and scales with a common scale:
    # the prototypes' spread, or more if squared sample norms could overflow
    t = F.min(axis=1, keepdims=True) / 2 + F.max(axis=1, keepdims=True) / 2
    Fs = F - t
    with np.errstate(over="ignore"):  # an infinite difference is rejected below
        As = A - t
    far = np.abs(As).max(initial=0.0)
    if not np.isfinite(far):
        raise NumericalFailure("prototypes minus samples overflow")
    s = max(np.abs(Fs).max(initial=0.0), far / np.sqrt(np.finfo(float).max / (d + k)))
    if s > 0.0:  # else all points coincide and any membership is optimal
        Fs, As = Fs / s, As / s
    if d >= k:
        # F g - f_0 lies in the span of the k - 1 edges f_j - f_0, so only
        # the samples' components in that span matter
        Q = np.linalg.qr(Fs[:, 1:] - Fs[:, :1])[0]
        Fs, As = Q.T @ Fs, Q.T @ As
    # sample i is column i of the k x m arrays below
    dim, M, C = Fs.shape[0], Fs.T @ Fs, Fs.T @ As
    W, start = np.zeros((k, m)), np.zeros(m, dtype=bool)
    if warm is not None:
        Wt = np.ascontiguousarray(warm.T)
        feasible = (Wt.min(axis=0) >= 0.0) & (abs(Wt.sum(axis=0) - 1.0) <= 1e-12)
        start = feasible & (np.count_nonzero(Wt, axis=0) <= dim + 1)
        W = np.where(start, Wt, W)
    cold = np.flatnonzero(~start)
    if cold.size:
        W[np.argmin(np.diag(M)[:, None] - 2.0 * C[:, cold], axis=0), cold] = 1.0
    # the gap of a prototype sums about k + dim terms of size |f| (|f| + |x|)
    r = np.sqrt(np.diag(M).max())
    tol = (k + dim) * _EPS * r * (r + np.sqrt((As * As).sum(axis=0)))
    G = _wolfe(Fs, As, M, C, tol, W, ~start)
    G /= G.sum(axis=0)
    if warm is not None:
        # the objective is g^T M g - 2 c^T g up to a per-sample constant
        keep = feasible & (((M @ Wt - 2.0 * C) * Wt).sum(axis=0) <= ((M @ G - 2.0 * C) * G).sum(axis=0))
        G = np.where(keep, Wt, G)
    if not np.isfinite(G).all():
        raise NumericalFailure(f"non-finite membership in row {np.argmin(np.isfinite(G).all(axis=0))}")
    return np.ascontiguousarray(G.T)
