"""Closed-form global solver for the soft k-means factorization.

The factorization min_{F, G} ||X - F G^T||_F^2 with row-stochastic G is
solved exactly: center the data, take the leading (k-1) singular directions,
and place the k prototypes on a regular simplex spanned by those directions,
scaled so that every projected sample stays inside it. The optimum is unique
only up to a rotation of the simplex basis, which `rotate_solution` exposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _BLOCK_FLOATS,
    DataMatrix,
    GlobalFactors,
    Solution,
    _center_view,
    as_matrix,
    center,  # noqa: F401  (an attribute bench/harness.py wraps)
    check_k,
    simplex_complement_basis,
    truncated_svd,
)
from .errors import InvalidInput, NumericalFailure

__all__ = [
    "RotationMatrix",
    "solve_global",
    "rotate_solution",
    "objective",
    "infinity_bound",
]

@dataclass(frozen=True)
class RotationMatrix:
    """A square orthogonal matrix, validated on construction."""

    R: np.ndarray

    def __post_init__(self):
        R = as_matrix(self.R, "rotation")
        if R.shape[0] != R.shape[1] or R.shape[0] < 1:
            raise InvalidInput("rotation must be a square matrix")
        if np.linalg.norm(R.T @ R - np.eye(R.shape[0])) > 1e-10:
            raise InvalidInput("rotation matrix is not orthogonal")
        object.__setattr__(self, "R", R)
        R.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.R.shape[0]


def objective(X, F, G) -> float:
    """Squared Frobenius reconstruction error ||X - F G^T||_F^2.

    The residual is formed in column blocks of at most _BLOCK_FLOATS
    floats, or one column: each block's F G^T is overwritten by X - F G^T,
    squared in place and summed, and the block sums are added in column
    order. Data of one block gives the bits of the one-buffer formula.
    """
    A = X.values if isinstance(X, DataMatrix) else as_matrix(X, "data matrix")
    F = as_matrix(F, "prototypes")
    G = as_matrix(G, "membership")
    d, n = A.shape
    if F.shape[0] != d or G.shape[0] != n or F.shape[1] != G.shape[1]:
        raise InvalidInput(
            f"shape mismatch: X is {d}x{n}, F is {F.shape[0]}x{F.shape[1]}, "
            f"G is {G.shape[0]}x{G.shape[1]}"
        )
    step, total = max(1, _BLOCK_FLOATS // max(d, 1)), 0.0
    for j in range(0, n, step):
        R = F @ G[j:j + step].T
        np.subtract(A[:, j:j + step], R, out=R)
        np.multiply(R, R, out=R)
        total += float(R.sum())
    return total


def infinity_bound(k: int) -> float:
    """Max-norm bound sqrt(k(k-1))/k for unit vectors orthogonal to ones."""
    check_k(k, 2)
    return float(np.sqrt(k * (k - 1.0)) / k)


def solve_global(X, k: int) -> tuple[Solution, GlobalFactors]:
    """Solve the soft k-means factorization exactly.

    Parameters
    ----------
    X : DataMatrix or array_like
        Feature-by-sample data; raw arrays are centered internally, through
        a read-only view when they are C-contiguous, and no result keeps a
        reference to X. The centered copy is the one d x n working array:
        the truncated SVD adds the Gram matrix of the short side, every
        other array has at most k rows or columns, and the objective's
        residual is formed in 1 MB blocks.
    k : int
        Number of prototypes. Requires k >= 1 and k - 1 <= min(d, n).

    Returns
    -------
    (Solution, GlobalFactors)
        The optimal factors plus the SVD/basis bundle needed to enumerate
        the rotation family of alternative optima. The objective equals the
        energy of the singular values of the centered data beyond the
        leading k - 1.

    Notes
    -----
    k = 1 has no simplex direction: the single prototype is the data mean.
    Data with all samples identical yields the mean prototype replicated
    and a uniform membership. Finite data whose residual energy overflows
    raises NumericalFailure.
    """
    X = _center_view(X)
    F, G, gf = _closed_form(X.centered, X.mean, k)
    with np.errstate(over="ignore"):  # an infinite objective is rejected below
        obj = objective(X, F, G)
    if not np.isfinite(obj):  # finite data and factors: the residual energy overflows
        raise NumericalFailure("objective ||X - F G^T||_F^2 of finite data overflows")
    return Solution(F, G, obj), gf


def _closed_form(Xc, xbar, k: int) -> tuple[np.ndarray, np.ndarray, GlobalFactors]:
    """Prototypes F, memberships G and the factors of the optimum for the
    centered data Xc with row means xbar; Xc is read, never written."""
    d, n = Xc.shape
    check_k(k, 1, min(d, n) + 1)
    if k == 1:
        U, sigma, V, B = np.zeros((d, 0)), np.zeros(0), np.zeros((n, 0)), np.zeros((1, 0))
    else:
        U, sigma, V = truncated_svd(Xc, k - 1)
        B = simplex_complement_basis(k)
    W = sigma[:, None] * V.T  # equals U^T Xc, (k-1) x n
    r = float(np.sqrt((W * W).sum(axis=0)).max())
    a = float(r * np.sqrt(k * (k - 1.0)))
    F, G = _regular_simplex(U, W, B, a, xbar)
    return F, G, GlobalFactors(U=U, sigma=sigma, V=V, B=B, r=r, a=a, S=a * B.T)


def _regular_simplex(U, W, B, a: float, xbar) -> tuple[np.ndarray, np.ndarray]:
    """The regular simplex with basis B and scale a around the mean xbar:
    prototypes F = a U B^T + xbar and memberships G = W^T B^T / a + 1/k for
    the projected data W = U^T Xc. With a <= 0 (k = 1, or every sample
    equal to the mean) it collapses to k copies of xbar and uniform rows."""
    k, n = B.shape[0], W.shape[1]
    if a <= 0.0:
        return np.repeat(xbar[:, None], k, axis=1), np.full((n, k), 1.0 / k)
    return a * (U @ B.T) + xbar[:, None], (W.T @ B.T) / a + 1.0 / k


def rotate_solution(sol: Solution, gf: GlobalFactors, R) -> Solution:
    """Produce an equally optimal solution from the rotation freedom.

    Replacing the simplex basis B by B @ R for orthogonal R leaves F G^T,
    and hence the objective, unchanged while moving both factors. The input
    solution must come from `solve_global` with its matching factors: its
    F G^T - xbar 1^T must equal U W, the product every member of one
    solve's rotation family shares, within 1e-8 (||U W|| + ||xbar 1^T||).
    """
    Rm = (R if isinstance(R, RotationMatrix) else RotationMatrix(R)).R
    k = gf.k
    if k < 2 or Rm.shape != (k - 1, k - 1):
        raise InvalidInput(f"rotation must be {k - 1}x{k - 1} for k = {k}")
    d, n = gf.U.shape[0], gf.V.shape[0]
    if sol.prototypes.shape != (d, k) or sol.membership.shape != (n, k):
        raise InvalidInput(
            f"solution from another solve: the factors are for d={d}, n={n}, k={k}")
    xbar = sol.prototypes.mean(axis=1)  # B^T ones = 0 makes this the data mean
    W = gf.projected_data()
    UW = gf.U @ W
    gap = np.linalg.norm(sol.prototypes @ sol.membership.T - xbar[:, None] - UW)
    if not gap <= 1e-8 * (np.linalg.norm(UW) + np.sqrt(n) * np.linalg.norm(xbar)):
        raise InvalidInput("solution from another solve: F G^T does not match the factors")
    F, G = _regular_simplex(gf.U, W, gf.B @ Rm, gf.a, xbar)
    # F G^T is rotation-invariant, so the objective carries over exactly
    return Solution(F, G, sol.objective)
