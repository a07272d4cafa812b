"""Core numerical substrate shared by every solver.

Data matrices follow the d x n convention: columns are samples, rows are
features. Membership matrices are n x k with nonnegative entries and unit
row sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = [
    "DataMatrix",
    "GlobalFactors",
    "Solution",
    "as_matrix",
    "center",
    "double_center",
    "simplex_complement_basis",
    "truncated_svd",
    "numerical_rank",
]


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-d float array; 1-d input becomes a single row."""
    A = np.asarray(values, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise InvalidInput(f"{name} must be 1- or 2-dimensional, got ndim={A.ndim}")
    return A


@dataclass(frozen=True)
class DataMatrix:
    """A d x n sample matrix together with its mean and centered view.

    Satisfies values = centered + mean * ones^T up to round-off, and every
    row of `centered` sums to zero.
    """

    values: np.ndarray
    mean: np.ndarray
    centered: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.size == 0:
            raise InvalidInput("data matrix must be a nonempty 2-d array")
        if self.mean.shape != (self.values.shape[0],):
            raise InvalidInput("mean length must equal the number of feature rows")
        if self.centered.shape != self.values.shape:
            raise InvalidInput("centered view must match the data shape")
        for a in (self.values, self.mean, self.centered):
            a.setflags(write=False)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GlobalFactors:
    """Factors behind the closed-form solver.

    U (d x (k-1)) holds the leading left singular vectors of the centered
    data, sigma the matching singular values (descending), V (n x (k-1)) the
    right singular vectors. B (k x (k-1)) is the simplex-complement basis,
    r the largest column 2-norm of U^T Xc, a = r * sqrt(k (k-1)) the simplex
    scale, and S = a * B^T.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    B: np.ndarray
    r: float
    a: float
    S: np.ndarray

    def __post_init__(self):
        for a in (self.U, self.sigma, self.V, self.B, self.S):
            a.setflags(write=False)

    @property
    def k(self) -> int:
        return self.B.shape[0]

    def projected_data(self) -> np.ndarray:
        """diag(sigma) @ V.T, the (k-1) x n projection of the centered data."""
        return self.sigma[:, None] * self.V.T


@dataclass(frozen=True)
class Solution:
    """Prototypes F (d x k), row-stochastic membership G (n x k), and the
    squared-Frobenius reconstruction error ||X - F G^T||_F^2."""

    prototypes: np.ndarray
    membership: np.ndarray
    objective: float

    def __post_init__(self):
        F, G = self.prototypes, self.membership
        if F.ndim != 2 or G.ndim != 2 or F.shape[1] != G.shape[1]:
            raise InvalidInput("prototypes and membership must share the cluster axis")
        if G.size and float(G.min()) < -1e-12:
            raise InvalidInput("membership has negative entries beyond tolerance")
        if G.size and float(np.abs(G.sum(axis=1) - 1.0).max()) > 1e-10:
            raise InvalidInput("membership rows must sum to one")
        if not (np.isfinite(self.objective) and self.objective >= 0.0):
            raise InvalidInput("objective must be a nonnegative finite number")
        F.setflags(write=False)
        G.setflags(write=False)

    @property
    def k(self) -> int:
        return self.prototypes.shape[1]


def center(X) -> DataMatrix:
    """Split a raw d x n array into its row means and the centered remainder.

    Parameters
    ----------
    X : array_like
        Feature-by-sample matrix; a 1-d array is treated as one feature row.

    Returns
    -------
    DataMatrix
        Immutable bundle of (values, mean, centered).
    """
    A = as_matrix(X, "data matrix").copy()
    if A.size == 0:
        raise InvalidInput("data matrix is empty")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("data matrix contains non-finite entries")
    mean = A.mean(axis=1)
    return DataMatrix(values=A, mean=mean, centered=A - mean[:, None])


def double_center(K) -> np.ndarray:
    """H K H for the centering matrix H = I - ones ones^T / n, without
    materializing H: every row and column of the result sums to zero."""
    K = np.asarray(K, dtype=float)
    return K - K.mean(axis=1, keepdims=True) - K.mean(axis=0, keepdims=True) + K.mean()


def simplex_complement_basis(k: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the all-ones vector.

    Column j (1-based) carries 1/sqrt(j(j+1)) in its first j rows and
    -j/sqrt(j(j+1)) in row j+1, zeros below, so B^T B = I_{k-1} and
    ones^T B = 0 by construction.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise InvalidInput(f"basis needs k >= 2, got {k}")
    B = np.zeros((k, k - 1))
    for j in range(1, k):
        s = 1.0 / np.sqrt(j * (j + 1.0))
        B[:j, j - 1] = s
        B[j, j - 1] = -j * s
    return B


def truncated_svd(A, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading-m singular triplets of A with a deterministic sign convention.

    Each column of U is flipped, together with its partner in V, so that its
    largest-magnitude entry is positive. Ties resolve to the first index.

    Returns
    -------
    (U, sigma, V) : U is p x m, sigma descending of length m, V is q x m,
        with A ~= U @ diag(sigma) @ V.T in the rank-m sense.
    """
    A = as_matrix(A, "matrix")
    p, q = A.shape
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= min(p, q):
        raise InvalidInput(f"truncation m={m} out of range [1, {min(p, q)}]")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    U = U[:, :m].copy()
    s = s[:m].copy()
    V = Vt[:m].T.copy()
    for j in range(m):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]
    return U, s, V


def numerical_rank(A, tau: float = 1e-10) -> int:
    """Number of singular values above tau times the largest one.

    The zero matrix has rank 0; the threshold is relative, so the result is
    invariant under scaling and under orthogonal transformations.
    """
    if not tau > 0:
        raise InvalidInput("tau must be positive")
    A = as_matrix(A, "matrix")
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tau * s[0]))
