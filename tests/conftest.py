"""Shared helpers for the test suite: seeded instance generators."""

import numpy as np


def random_instance(seed, d, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((d, n))


def random_row_stochastic(seed, n, k):
    rng = np.random.default_rng(seed)
    M = rng.random((n, k)) + 1e-3
    return M / M.sum(axis=1, keepdims=True)


def random_orthogonal(seed, m):
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    return Q * np.sign(np.diag(R))


def three_clusters():
    """2 x 60: twenty unit-variance samples around each of (0, 0), (3, 0)
    and (0, 3)."""
    rng = np.random.default_rng(1)
    C = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 3.0]])
    return np.repeat(C, 20, axis=1) + rng.standard_normal((2, 60))


def decomposable_instance(seed, d, n, k):
    """X = F0 G0^T with row-stochastic G0, so centered rank is at most k-1."""
    rng = np.random.default_rng(seed)
    F0 = rng.standard_normal((d, k)) * 2.0
    G0 = rng.random((n, k)) + 1e-3
    G0 /= G0.sum(axis=1, keepdims=True)
    return F0 @ G0.T, F0, G0


def overflowing_perturbation():
    """(X, E): 5 x 100 standard-normal data and a 1.3e153-scaled
    standard-normal perturbation. X + E has a finite Gram matrix, but its
    residual energy at k = 3 and ||E||_F^2 overflow."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 100))
    return X, 1.3e153 * rng.standard_normal((5, 100))
