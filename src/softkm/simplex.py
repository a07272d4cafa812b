"""Euclidean projection onto the probability simplex and the per-sample
simplex-constrained least-squares solve min ||x - F g||^2, g >= 0,
1^T g = 1, behind the membership step of both alternating solvers.

Every sample is solved exactly by Wolfe's nearest-point algorithm (Math.
Programming 1976), run for all samples at once. Its affine subproblems are
least-squares solves on the edges f_j - f_0 of a support, factored by
Householder QR once per distinct support; no Gram matrix is formed, so the
error follows the edges' condition number, not its square (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 20).
"""

from __future__ import annotations

import numpy as np

from .core import DataMatrix, _finite_matrix
from .errors import InvalidInput, NumericalFailure

__all__ = ["project_simplex", "solve_membership"]

_EPS, _TINY, _MAX = np.finfo(float).eps, np.finfo(float).tiny, np.finfo(float).max


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
    inv[order] = new.cumsum() - 1
    return S.take(order.compress(new), axis=1).T, inv


def _affine_minimizers(F, X, S) -> np.ndarray:
    """Column i of the k x m result minimizes ||x_i - F g|| subject to
    1^T g = 1 and g = 0 off the support S_i, for the dim x m samples X and
    the dim x k prototypes F of spread about one. With f_0 the first
    prototype of S_i and E the dim x p matrix of its edges f_j - f_0 to the
    rest, g is lambda on the rest and 1 - sum(lambda) at f_0, for lambda
    the least-squares solution of E lambda = x_i - f_0, damped by
    delta = (k + dim) eps, round-off at that spread, so that a support that
    loses rank still has one. Each distinct support is factored once, by
    Householder QR of [delta I; E], whose condition is that of E, not its
    square; a smaller support is padded with zero edges, whose lambda is
    zero."""
    (dim, k), m = F.shape, S.shape[1]
    supports, inv = _distinct_supports(S)
    n = supports.sum(axis=1)
    p = n.max() - 1
    i = (~supports).argsort(axis=1, kind="stable")[:, :p + 1]  # the support first
    on = (np.arange(1, p + 1) < n[:, None])[:, None]
    A = np.zeros((len(i), p + dim, p))
    A.reshape(len(i), -1)[:, :p * p:p + 1] = (k + dim) * _EPS  # the diagonal of delta I
    A[:, p:] = (F[:, i[:, 1:]] - F[:, i[:, :1]]).transpose(1, 0, 2) * on
    Q, R = np.linalg.qr(A)
    # lambda = R^-1 Q^T [0; x - f_0], by back substitution on every column
    i, Q, R = i.T.take(inv, axis=1), (Q[:, p:] * on).take(inv, axis=0), R.take(inv, axis=0).T
    g = np.empty((p + 1, m))
    lam = g[1:]
    np.einsum("mdj,dm->jm", Q, X - F.take(i[0], axis=1), out=lam)
    for j in np.arange(p)[::-1]:
        lam[j] /= R[j, j]
        if j:
            lam[:j] -= R[j, :j] * lam[j]
    np.subtract(1.0, lam.sum(axis=0), out=g[0])
    V = np.zeros((k, m))
    V[i, np.arange(m)] = g
    return V


def _wolfe(F, X, tol, W, major) -> np.ndarray:
    """Wolfe's cycles on every column of the feasible k x m weights W.

    A major cycle adds the prototype of most negative gradient
    F^T (F w - x) to a column's support S, for the dim x m samples X; a
    minor cycle moves to the affine minimizer on S (`_affine_minimizers`),
    or steps back to the first zero weight on the way. A column flagged
    `major` sits at its affine minimizer. It is done when no gap exceeds
    its tol, when S spans all dim dimensions, or when the prototype just
    added leaves at once (its gap was round-off).
    """
    (dim, k), m = F.shape, X.shape[1]
    G, cols, S, done = np.empty((k, m)), np.arange(m), W > 0.0, np.zeros(m, dtype=bool)
    for step in range(2 * k * k):  # Wolfe's method is finite: this only stops a cycle of round-off
        if major.any():
            # major cycle
            grad = F.T @ (F @ W - X)
            gap = (W * grad).sum(axis=0) - grad
            np.putmask(gap, S, -np.inf)
            more = (major & (gap.max(axis=0) > tol)).nonzero()[0]
            S[gap.take(more, axis=1).argmax(axis=0), more] = True
            done |= major
            done[more] = False
        if done.any():
            G[:, cols[done]] = W.compress(done, axis=1)
            left = (~done).nonzero()[0]
            cols, W, S, X, tol = (a.take(left, axis=-1) for a in (cols, W, S, X, tol))
        if not cols.size:
            return G
        # minor cycle
        V = _affine_minimizers(F, X, S)
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
        n = S.sum(axis=0)
        done = stuck | (n > dim)
        major = (major | (n == 1)) & ~done  # a lone prototype is its own affine minimizer
    raise NumericalFailure(f"membership solve did not finish in {step + 1} steps")


def solve_membership(F, X, warm=None) -> np.ndarray:
    """Solve the simplex least-squares problem for every sample of X.

    Row i of the returned n x k matrix solves min ||x_i - F g||_2^2 on the
    simplex exactly, by Wolfe's method batched over the samples, from
    least-squares solves on the edges of each support; no k x k Gram
    matrix F^T F is formed. The batch changes only the rounding of shared
    matrix products. A row of the optional feasible
    n x k `warm` starts from its support (a cold row at its nearest
    prototype) and is kept when its residual is no larger than the solved
    row's. When k > d + 1, F g is unique but g need not be: the returned g
    has an affinely independent support, chosen by the start. Row sums are
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
    s = max(np.abs(Fs).max(initial=0.0), far / np.sqrt(_MAX / (d + k)))
    if s > 0.0:  # else all points coincide and any membership is optimal
        Fs, As = Fs / s, As / s
    if d >= k:
        # F g - f_0 lies in the span of the k - 1 edges f_j - f_0, so only
        # the samples' components in that span matter
        Q = np.linalg.qr(Fs[:, 1:] - Fs[:, :1])[0]
        Fs, As = Q.T @ Fs, Q.T @ As
    # sample i is column i of the k x m weights below
    dim, W, start = Fs.shape[0], np.zeros((k, m)), np.zeros(m, dtype=bool)
    if warm is not None:
        Wt = np.ascontiguousarray(warm.T)
        feasible = (Wt.min(axis=0) >= 0.0) & (abs(Wt.sum(axis=0) - 1.0) <= 1e-12)
        start = feasible & ((Wt > 0.0).sum(axis=0) <= dim + 1)
        W = np.where(start, Wt, 0.0)
    cold = (~start).nonzero()[0]
    if cold.size:
        W[((Fs * Fs).sum(axis=0)[:, None] - 2.0 * (Fs.T @ As[:, cold])).argmin(axis=0), cold] = 1.0
    # the gap of a prototype sums about k + dim terms of size |f| (|f| + |x|)
    r = np.sqrt((Fs * Fs).sum(axis=0).max())
    tol = (k + dim) * _EPS * r * (r + np.sqrt((As * As).sum(axis=0)))
    G = _wolfe(Fs, As, tol, W, ~start)
    G /= G.sum(axis=0)
    if warm is not None:
        keep = feasible & (((Fs @ Wt - As) ** 2).sum(axis=0) <= ((Fs @ G - As) ** 2).sum(axis=0))
        G = np.where(keep, Wt, G)
    if not np.isfinite(G).all():
        raise NumericalFailure(f"non-finite membership in row {np.argmin(np.isfinite(G).all(axis=0))}")
    return np.ascontiguousarray(G.T)
