"""Executable decomposability, stability, and non-uniqueness checks.

These wrap the solver machinery into yes/no audits: whether data admits an
exact rank-limited factorization (directly or through a kernel), how the
optimum degrades under perturbations, and how far apart two equally optimal
memberships can be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, as_matrix, center, double_center, numerical_rank
from .errors import InvalidInput, NotPositiveSemidefinite
from .global_solver import objective, rotate_solution, solve_global

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
        K = np.asarray(self.K, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1] or K.size == 0:
            raise InvalidInput("kernel must be a nonempty square matrix")
        if not np.all(np.isfinite(K)):
            raise InvalidInput("kernel contains non-finite entries")
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


def _as_kernel(K) -> np.ndarray:
    if isinstance(K, KernelMatrix):
        return K.K
    return KernelMatrix(np.asarray(K, dtype=float)).K


def is_skmable(X, k: int, tau: float = 1e-10) -> bool:
    """Whether X admits an exact k-prototype factorization: the centered
    data must have numerical rank at most k - 1."""
    if not isinstance(X, DataMatrix):
        X = center(X)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidInput(f"k must be a positive integer, got {k}")
    return numerical_rank(X.centered, tau) <= k - 1


def is_ti_lsdable(K, k: int, tau: float = 1e-10) -> bool:
    """Kernel-side decomposability: the doubly centered kernel H K H must
    have numerical rank at most k - 1."""
    Km = _as_kernel(K)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidInput(f"k must be a positive integer, got {k}")
    return numerical_rank(double_center(Km), tau) <= k - 1


def kernel_embed(K, tau: float = 1e-10) -> np.ndarray:
    """Factor a positive semidefinite kernel as K = X^T X.

    Eigenvalues below -tau times the largest raise NotPositiveSemidefinite;
    those above tau times the largest are kept, and the embedding is
    X = diag(sqrt(lam)) Q^T with one row per retained eigenvalue. A zero
    kernel embeds as a single zero row.
    """
    Km = _as_kernel(K)
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
    2 ||E||_F^2 plus the clean optimum."""
    if not isinstance(X, DataMatrix):
        X = center(X)
    E = as_matrix(E, "perturbation")
    if E.shape != X.values.shape:
        raise InvalidInput("perturbation must match the data shape")
    if not np.all(np.isfinite(E)):
        raise InvalidInput("perturbation contains non-finite entries")
    sol_clean, _ = solve_global(X, k)
    sol_pert, _ = solve_global(center(X.values + E), k)
    lhs = objective(X, sol_pert.prototypes, sol_pert.membership)
    rhs = 2.0 * float(np.sum(E * E)) + sol_clean.objective
    slack = rhs - lhs
    return StabilityReport(lhs=lhs, rhs=rhs, holds=slack >= -1e-8 * rhs, slack=slack)


def nonuniqueness_gap(X, k: int):
    """Two equally optimal memberships and their Frobenius distance.

    Flips the simplex basis with R = -I, which preserves F G^T. The gap
    satisfies gap^2 = (4 / a^2) * sum_i sigma_i^2 over the leading k - 1
    singular values of the centered data, so it is scale-free.

    Returns (G1, G2, gap, (objective1, objective2)).
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise InvalidInput(f"gap needs k >= 2, got {k}")
    sol1, gf = solve_global(X, k)
    sol2 = rotate_solution(sol1, gf, -np.eye(k - 1))
    G1, G2 = sol1.membership, sol2.membership
    gap = float(np.linalg.norm(G1 - G2))
    return G1, G2, gap, (sol1.objective, sol2.objective)
