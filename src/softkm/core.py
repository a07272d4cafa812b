"""Core numerical substrate shared by every solver.

Data matrices follow the d x n convention: columns are samples, rows are
features. Membership matrices are n x k with nonnegative entries and unit
row sums.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure

__all__ = [
    "DataMatrix",
    "GlobalFactors",
    "Solution",
    "center",
    "simplex_complement_basis",
    "truncated_svd",
    "numerical_rank",
]

RANK_TAU = 1e-10  # relative threshold of every rank decision and of kernel_embed
_BLOCK_FLOATS = 1 << 17  # floats per streamed block: 1 MB of float64, about an L2 cache


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-d float array; 1-d input becomes a single row."""
    try:
        A = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric entries
        raise InvalidInput(f"{name} is not a numeric array: {exc}") from None
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise InvalidInput(f"{name} must be 1- or 2-dimensional, got ndim={A.ndim}")
    return A


@dataclass(frozen=True)
class DataMatrix:
    """A d x n sample matrix together with its mean and centered view.

    Satisfies values = centered + mean * ones^T up to round-off, and every
    row of `centered` sums to zero. All three arrays are read-only. The
    bundles from `center` and `load_csv` own a copy of the data; the
    solvers and audits that take raw data instead center a read-only view
    of C-contiguous input, and that bundle never outlives the call.
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
    scale, and S = a * B^T. k = 1 is the a = 0 case with empty U, sigma,
    V and B: there is no simplex direction to span.
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
        F = as_matrix(self.prototypes, "prototypes")
        G = as_matrix(self.membership, "membership")
        if F.shape[1] != G.shape[1]:
            raise InvalidInput("prototypes and membership must share the cluster axis")
        if not (np.isfinite(F).all() and np.isfinite(G).all()):
            raise InvalidInput("prototypes and membership must be finite")
        if G.size and float(G.min()) < -1e-12:
            raise InvalidInput("membership has negative entries beyond tolerance")
        if G.size and float(np.abs(G.sum(axis=1) - 1.0).max()) > 1e-10:
            raise InvalidInput("membership rows must sum to one")
        if not (np.isfinite(self.objective) and self.objective >= 0.0):
            raise InvalidInput("objective must be a nonnegative finite number")
        for name, a in (("prototypes", F), ("membership", G)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def k(self) -> int:
        return self.prototypes.shape[1]


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def check_k(k, lo: int, hi: int | None = None, name: str = "k") -> None:
    """Raise InvalidInput unless k is an integer, not a bool, with
    lo <= k (and k <= hi when hi is given)."""
    if not (_is_int(k) and lo <= k and (hi is None or k <= hi)):
        bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise InvalidInput(f"{name} must be an integer {bound}, got {k!r}")


def center(X) -> DataMatrix:
    """Split a raw d x n array into its row means and the centered remainder.

    Parameters
    ----------
    X : DataMatrix or array_like
        Feature-by-sample matrix; a 1-d array is treated as one feature row.
        A DataMatrix is already centered and comes back unchanged.

    Returns
    -------
    DataMatrix
        Immutable bundle of (values, mean, centered). `values` is a copy of
        X, so the bundle is independent of the caller's array. The solvers
        and audits skip that copy: they center a read-only view of
        C-contiguous input, which never outlives the call.
    """
    if isinstance(X, DataMatrix):
        return X
    return _center_view(as_matrix(X, "data matrix").copy())


def _center_view(X) -> DataMatrix:
    """`center` without the copy: the bundle keeps a read-only view of X
    when X is a C-contiguous float array, and a C-ordered copy otherwise.

    The row means come from the C layout either way, so they match
    `center(X)` bit for bit.
    """
    if isinstance(X, DataMatrix):
        return X
    A = np.ascontiguousarray(as_matrix(X, "data matrix")).view()
    if A.size == 0:
        raise InvalidInput("data matrix is empty")
    mean = _row_means(A)
    return DataMatrix(values=A, mean=mean, centered=A - mean[:, None])


def _row_means(A: np.ndarray) -> np.ndarray:
    """Row means of a nonempty C-ordered data matrix A. A finite mean has
    only finite terms, so the full finiteness pass runs only when some mean
    is not finite; finite rows whose sum overflows still pass."""
    with np.errstate(invalid="ignore"):  # only inf - inf, which is rejected below
        mean = A.mean(axis=1)
    if not np.isfinite(mean).all():
        _finite_matrix(A, "data matrix")
    return mean


def double_center(K) -> np.ndarray:
    """H K H for the centering matrix H = I - ones ones^T / n, without
    materializing H: every row and column of the result sums to zero.

    An exactly symmetric K has equal row and column means, so its result
    is built from the one row-mean vector r as (K - (r_i + r_j)) + mean(r);
    floating-point addition is commutative, so M is exactly symmetric and
    `numerical_rank` takes its symmetric route. Any other K subtracts its
    row and column means separately.
    """
    K = np.asarray(K, dtype=float)
    if not _exactly_symmetric(K):
        return K - K.mean(axis=1, keepdims=True) - K.mean(axis=0, keepdims=True) + K.mean()
    r = K.mean(axis=1)
    M = r[:, None] + r[None, :]
    np.subtract(K, M, out=M)
    M += r.mean()
    return M


_SYMMETRY_TILE = 256  # a tile and its mirror, 2 x 512 KB of float64, fit in a typical L2 cache


def _exactly_symmetric(A: np.ndarray) -> bool:
    """Exactly `np.array_equal(A, A.T)`, compared tile by tile so that the
    transposed reads stay in cache, and stopping at the first mismatch."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    t, n = _SYMMETRY_TILE, A.shape[0]
    for i in range(0, n, t):
        for j in range(i, n, t):
            if not np.array_equal(A[i:i + t, j:j + t], A[j:j + t, i:i + t].T):
                return False
    return True


def _finite_matrix(A, name: str = "matrix") -> np.ndarray:
    A = as_matrix(A, name)
    if not np.all(np.isfinite(A)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return A


def simplex_complement_basis(k: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the all-ones vector.

    Column j (1-based) carries 1/sqrt(j(j+1)) in its first j rows and
    -j/sqrt(j(j+1)) in row j+1, zeros below, so B^T B = I_{k-1} and
    ones^T B = 0 by construction.
    """
    check_k(k, 2)
    B = np.zeros((k, k - 1))
    for j in range(1, k):
        s = 1.0 / np.sqrt(j * (j + 1.0))
        B[:j, j - 1] = s
        B[j, j - 1] = -j * s
    return B


def truncated_svd(A, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading-m singular triplets of A with a deterministic sign convention.

    Computed on the short side: Q holds the top-m eigenvectors (`eigh`) of
    the Gram matrix A A^T when p <= q, else of A^T A, and one Rayleigh-Ritz
    step takes the thin SVD of the m x long-side matrix Q^T A (or A Q).
    That SVD runs on the tall transpose, which LAPACK reduces by QR first
    (Chan's R-SVD, ACM TOMS 8(1), 1982), and returns V without a copy.
    The Ritz step reads sigma from A itself rather than from its square, and
    gives U diag(sigma) V^T = Q Q^T A, so U^T A = diag(sigma) V^T holds to
    round-off and ||A - U diag(sigma) V^T||_F^2 misses the tail energy
    sum_{i>m} sigma_i^2 by at most about m eps ||A||_F^2 whatever the
    spectral gaps. Singular values below about sqrt(eps) sigma_1 are not
    resolved (use `numerical_rank`); a Gram overflow raises NumericalFailure.

    Each column of U is flipped, together with its partner in V, so that its
    largest-magnitude entry is positive. Ties resolve to the first index.

    Returns
    -------
    (U, sigma, V) : U is p x m, sigma descending of length m, V is q x m,
        with A ~= U @ diag(sigma) @ V.T in the rank-m sense.
    """
    A = as_matrix(A)
    p, q = A.shape
    check_k(m, 1, min(p, q), "truncation m")
    short = A if p <= q else A.T
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite values, rejected below
        gram = short @ short.T
    if not np.isfinite(gram).all():  # a non-finite a_ij makes g_ii non-finite
        _finite_matrix(A)
        raise NumericalFailure("Gram matrix of finite data overflows")
    Q = np.linalg.eigh(gram)[1][:, -m:]
    V, s, Ubt = np.linalg.svd((Q.T @ short).T, full_matrices=False)
    U = Q @ Ubt.T
    if p > q:
        U, V = V, U
    sign = np.where(U[np.argmax(np.abs(U), axis=0), np.arange(m)] < 0, -1.0, 1.0)
    U *= sign
    V *= sign
    return U, s, V


def numerical_rank(A, tau: float = RANK_TAU) -> int:
    """Number of singular values above tau times the largest one.

    The zero matrix has rank 0; the threshold is relative, so the result is
    invariant under scaling and under orthogonal transformations.

    An exactly symmetric A takes sigma = |eigvalsh(A)|; any other A takes
    the values-only SVD of its tall orientation (A, or A^T when p < q),
    which LAPACK reduces by QR first. The rank never goes through a Gram
    matrix: squaring maps the default tau = RANK_TAU to RANK_TAU^2 on its
    eigenvalues, below the round-off of an eigensolver.
    """
    if not tau > 0:
        raise InvalidInput("tau must be positive")
    A = _finite_matrix(A)
    if _exactly_symmetric(A):
        s = np.abs(np.linalg.eigvalsh(A))
    else:
        s = np.linalg.svd(A if A.shape[0] >= A.shape[1] else A.T, compute_uv=False)
    smax = float(s.max()) if s.size else 0.0
    if smax <= 0.0:
        return 0
    return int(np.count_nonzero(s > tau * smax))
