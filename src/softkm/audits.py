"""Executable decomposability, stability, and non-uniqueness checks.

These wrap the solver machinery into yes/no audits: whether data admits an
exact rank-limited factorization (directly or through a kernel), how the
optimum degrades under perturbations, and how far apart two equally optimal
memberships can be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _BLOCK_FLOATS,
    RANK_TAU,
    DataMatrix,
    _center_view,
    _exactly_symmetric,
    _finite_matrix,
    _is_int,
    _row_means,
    as_matrix,
    center,  # noqa: F401  (an attribute bench/harness.py wraps)
    check_k,
    double_center,
    numerical_rank,
)
from .errors import InvalidInput, NotPositiveSemidefinite, NumericalFailure
from .global_solver import _closed_form, objective, rotate_solution, solve_global

__all__ = [
    "KernelMatrix",
    "StabilityReport",
    "is_skmable",
    "is_ti_lsdable",
    "kernel_embed",
    "stability_audit",
    "nonuniqueness_gap",
]


@dataclass(frozen=True)
class KernelMatrix:
    """An n x n symmetric kernel, validated on construction."""

    K: np.ndarray

    def __post_init__(self):
        K = as_matrix(self.K, "kernel").view()  # freezing it leaves the caller's array writeable
        if K.shape[0] != K.shape[1] or K.size == 0:
            raise InvalidInput("kernel must be a nonempty square matrix")
        if not np.all(np.isfinite(K)):
            raise InvalidInput("kernel contains non-finite entries")
        if not _exactly_symmetric(K):
            scale = float(np.linalg.norm(K))
            if float(np.linalg.norm(K - K.T)) > 1e-10 * max(scale, np.finfo(float).tiny):
                raise InvalidInput("kernel is not symmetric")
        object.__setattr__(self, "K", K)
        K.setflags(write=False)

    @property
    def n(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class StabilityReport:
    """Perturbation audit outcome: lhs <= rhs up to floating slack.

    lhs is the clean-data objective evaluated at the perturbed optimum, rhs
    is twice the perturbation energy plus the clean optimum, and
    slack = rhs - lhs. holds is slack >= -1e-8 * rhs.
    """

    lhs: float
    rhs: float
    holds: bool
    slack: float


def _rank_at_most(A, r: int, tau: float) -> bool:
    """Exactly `numerical_rank(A, tau) <= r`, mostly without computing it.

    A bound r >= min(p, q) needs no decomposition, only a finite A; a lower
    r finds a non-finite A from max|A|. Otherwise a range finder (Halko,
    Martinsson & Tropp 2011) sketches A 2^-e, for max|A| = f 2^e with
    1/2 <= f < 1, in its tall orientation T with a fixed-seed Gaussian test
    matrix of r + 11 columns: Q = orth(T Omega), B = Q^T T. Two certificates
    then decide, each with a slack of (p + q) eps ||T||_F for the round-off
    of this sketch and of `numerical_rank` itself:

    - rank > r when sigma_{r+1}(B) > tau ||T||_F, since interlacing gives
      sigma_i(B) <= sigma_i(T) and sigma_1(T) <= ||T||_F;
    - rank <= r when ||T - Q_r Q_r^T T||_F <= tau sigma_1(B), for Q_r the
      leading r left singular vectors of B lifted by Q, since Weyl's
      inequality bounds sigma_{r+1}(T) by that residual and
      sigma_1(B) <= sigma_1(T).

    T itself is never formed. Each of three passes (T Omega; Q^T T with
    ||T||_F^2; the residual) streams it in row blocks of at most
    _BLOCK_FLOATS floats through one reused buffer kept in A's orientation,
    so a wide A is read by column blocks. A block holds exactly those rows
    of A 2^-e: a power-of-two scale is exact for normal results, leaves
    every entry below 1 in magnitude, so no sum overflows, and stays finite
    for a subnormal max|A|.

    Q is orthonormalized in place in Y = T Omega, held as Y^T, by a
    one-level TSQR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput.
    2012) over the same row blocks: each block Y_b = Q_b R_b, the stacked
    R_b = Q' R, and block b of Q is Q_b times block b of Q'. Only the small
    factors are allocated; `np.linalg.qr(Y)` would copy the m x (r + 11)
    sketch twice, past the audits' one-working-copy memory bound.

    When neither holds, or A is too small for the sketch to pay, the
    answer is the exact `numerical_rank`.
    """
    if not tau > 0:
        raise InvalidInput("tau must be positive")
    A = as_matrix(A)
    n, s = min(A.shape), r + 1 + 10  # ten columns of oversampling
    if r >= n:  # no rank exceeds min(p, q): only finiteness is left to check
        _finite_matrix(A)
        return True
    amax = max(float(A.max()), -float(A.min()))
    if not np.isfinite(amax):  # a NaN or an infinity anywhere in A
        _finite_matrix(A)
    if amax == 0.0:
        return True
    if 2 * s < n:
        tall, m = A.shape[0] >= A.shape[1], max(A.shape)
        step = max(1, _BLOCK_FLOATS // n)
        buf, e = np.empty(min(step, m) * n), -math.frexp(amax)[1]

        def blocks():
            """(rows, T[rows], its entries) for each row block of T, held in buf."""
            for i in range(0, m, step):
                w = min(step, m - i)
                Z = buf[:w * n].reshape((w, n) if tall else (n, w))
                np.ldexp(A[i:i + w] if tall else A[:, i:i + w], e, out=Z)
                yield slice(i, i + w), (Z if tall else Z.T), buf[:w * n]

        # Y = T Omega, held as Y^T, whose block b is overwritten by Q_b^T
        # (in its first rows when it is shorter than s) and then by Q's block
        Omega_t, Yt = np.random.default_rng(0).standard_normal((n, s)).T, np.empty((s, m))
        for rows, T, _ in blocks():
            np.matmul(Omega_t, T.T, out=Yt[:, rows])
        Rs = []
        for i in range(0, m, step):
            Qb, Rb = np.linalg.qr(Yt[:, i:i + step].T)
            Yt[:len(Rb), i:i + step] = Qb.T
            Rs.append(Rb)
        Q2t, j = np.linalg.qr(np.concatenate(Rs))[0].T, 0
        for i, Rb in zip(range(0, m, step), Rs):
            Yt[:, i:i + step] = Q2t[:, j:j + len(Rb)] @ Yt[:len(Rb), i:i + step]
            j += len(Rb)
        Qt, QtT, sq = Yt, np.zeros((s, n)), 0.0
        for rows, T, t in blocks():
            QtT += Qt[:, rows] @ T
            sq += float(t @ t)
        Ub, sb, Vbt = np.linalg.svd(QtT, full_matrices=False)
        norm = float(np.sqrt(sq))
        slack = sum(A.shape) * np.finfo(float).eps * norm
        if sb[r] > tau * norm + slack:
            return False
        Qr_t, M = Ub[:, :r].T @ Qt, sb[:r, None] * Vbt[:r]
        sq = 0.0
        for rows, T, t in blocks():
            T -= Qr_t[:, rows].T @ M
            sq += float(t @ t)
        if float(np.sqrt(sq)) + slack <= tau * sb[0]:
            return True
    return numerical_rank(A, tau) <= r


def is_skmable(X, k: int, tau: float = RANK_TAU) -> bool:
    """Whether X admits an exact k-prototype factorization: the centered
    data must have numerical rank at most k - 1.

    The answer is exactly `numerical_rank(Xc, tau) <= k - 1`. A randomized
    sketch of Xc certifies it in most cases (and k - 1 >= min(d, n) needs
    neither the centering nor a decomposition, only a finite X); only a
    singular value near the threshold, or a matrix too small to sketch,
    computes the exact rank."""
    A = X.centered if isinstance(X, DataMatrix) else as_matrix(X, "data matrix")
    if not (A.size and _is_int(k) and k - 1 >= min(A.shape)):
        A = _center_view(X).centered
        check_k(k, 1)
    return _rank_at_most(A, k - 1, tau)


def is_ti_lsdable(K, k: int, tau: float = RANK_TAU) -> bool:
    """Kernel-side decomposability: the doubly centered kernel H K H must
    have numerical rank at most k - 1.

    The answer is exactly `numerical_rank(H K H, tau) <= k - 1`, certified
    from a randomized sketch as in `is_skmable`, with the exact rank as the
    fallback."""
    Km = (K if isinstance(K, KernelMatrix) else KernelMatrix(K)).K
    check_k(k, 1)
    return _rank_at_most(double_center(Km), k - 1, tau)


def kernel_embed(K, tau: float = RANK_TAU) -> np.ndarray:
    """Factor a positive semidefinite kernel as K = X^T X.

    Eigenvalues below -tau times the largest raise NotPositiveSemidefinite;
    those above tau times the largest are kept, and the embedding is
    X = diag(sqrt(lam)) Q^T with one row per retained eigenvalue. A zero
    kernel embeds as a single zero row.
    """
    Km = (K if isinstance(K, KernelMatrix) else KernelMatrix(K)).K
    if not tau > 0:
        raise InvalidInput("tau must be positive")
    w, Q = np.linalg.eigh(Km)
    wmax = max(float(w[-1]), 0.0)
    if float(w[0]) < -tau * max(wmax, np.finfo(float).tiny):
        raise NotPositiveSemidefinite(
            f"kernel eigenvalue {w[0]:.3e} below -tau * max eigenvalue"
        )
    keep = w > tau * wmax
    if not np.any(keep):
        return np.zeros((1, Km.shape[0]))
    return np.sqrt(w[keep])[:, None] * Q[:, keep].T


def stability_audit(X, E, k: int) -> StabilityReport:
    """Evaluate the perturbed optimum on clean data against the bound
    2 ||E||_F^2 plus the clean optimum.

    The clean problem is solved first and its centered copy freed; the
    perturbed data X + E is then formed once and centered in place, with
    the row means `center` would give, so the audit holds one d x n
    working array beyond its inputs. An energy ||E||_F^2, a clean optimum
    or a report value that overflows raises NumericalFailure."""
    X = _center_view(X)
    E = as_matrix(E, "perturbation")
    if E.shape != X.values.shape:
        raise InvalidInput("perturbation must match the data shape")
    with np.errstate(over="ignore"):  # an infinite energy is rejected below
        e2 = float(np.vdot(E, E))
    if not np.isfinite(e2):  # a finite sum has only finite terms
        _finite_matrix(E, "perturbation")
        raise NumericalFailure("perturbation energy ||E||_F^2 overflows")
    optimum = solve_global(X, k)[0].objective
    A = X.values
    del X  # frees the clean centered copy of raw input
    P = np.add(A, E, order="C")
    mean = _row_means(P)
    P -= mean[:, None]
    F, G = _closed_form(P, mean, k)[:2]
    with np.errstate(over="ignore"):  # an infinite report is rejected below
        lhs = objective(A, F, G)
    rhs = 2.0 * e2 + optimum
    if not (np.isfinite(lhs) and np.isfinite(rhs)):  # then slack = rhs - lhs is finite too
        raise NumericalFailure("stability report of finite data overflows")
    slack = rhs - lhs
    return StabilityReport(lhs=lhs, rhs=rhs, holds=slack >= -1e-8 * rhs, slack=slack)


def nonuniqueness_gap(X, k: int):
    """Two equally optimal memberships and their Frobenius distance.

    Flips the simplex basis with R = -I, which preserves F G^T. The gap
    satisfies gap^2 = (4 / a^2) * sum_i sigma_i^2 over the leading k - 1
    singular values of the centered data, so it is scale-free.

    Returns (G1, G2, gap, (objective1, objective2)).
    """
    check_k(k, 2)
    sol1, gf = solve_global(X, k)
    sol2 = rotate_solution(sol1, gf, -np.eye(k - 1))
    G1, G2 = sol1.membership, sol2.membership
    gap = float(np.linalg.norm(G1 - G2))
    return G1, G2, gap, (sol1.objective, sol2.objective)
