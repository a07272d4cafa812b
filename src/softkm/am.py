"""Alternating minimization for the soft k-means objective: the engine
shared with the minimal-volume solver, and the AM baseline built on it.

The engine alternates the exact prototype update F (G^T G + T) = A G, for a
k x k term T, with warm-started membership solves, and stops on one
scale-free rule: |L_prev - L| <= rel_obj_tol * max(|L_prev|, ||Xc||_F^2).
AM takes T = ridge * trace(G^T G)/k * I and converges to a stationary point
only; the closed-form solver gives the global reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, Solution, as_matrix, center
from .errors import InvalidInput, NumericalFailure
from .global_solver import objective
from .simplex import solve_membership

__all__ = ["AmOptions", "solve_am"]


@dataclass(frozen=True)
class AmOptions:
    """Loop controls for the alternating solver.

    init is either the string "random_points" (k distinct data columns,
    drawn with the given seed) or an explicit d x k prototype array. The
    ridge is scaled by trace(G^T G)/k before being added to the normal
    equations.
    """

    max_outer_iters: int = 200
    rel_obj_tol: float = 1e-8
    ridge: float = 1e-10
    init: object = "random_points"
    seed: int = 0

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise InvalidInput("max_outer_iters must be at least 1")
        if not self.rel_obj_tol >= 0:
            raise InvalidInput("rel_obj_tol must be nonnegative")
        if not self.ridge >= 0:
            raise InvalidInput("ridge must be nonnegative")


def _initial_prototypes(X: DataMatrix, k: int, init, seed: int) -> np.ndarray:
    if isinstance(init, str):
        if init != "random_points":
            raise InvalidInput(f"unknown init {init!r}")
        rng = np.random.default_rng(seed)
        idx = rng.choice(X.n, size=k, replace=False)
        return X.values[:, np.sort(idx)].copy()
    F = as_matrix(init, "initial prototypes")
    if F.shape != (X.d, k):
        raise InvalidInput(f"initial prototypes must be {X.d}x{k}")
    if not np.all(np.isfinite(F)):
        raise InvalidInput("initial prototypes contain non-finite entries")
    return F.copy()


def _alternate(A, F, gram_term, loss, opts, energy):
    """Alternate F-updates and membership solves on the d x n data A from
    the d x k start F. gram_term(F, GtG) is the k x k term added to G^T G,
    loss(F, G) the objective; opts gives max_outer_iters and rel_obj_tol,
    and energy = ||Xc||_F^2 floors the stop rule so that it is scale-free.
    Returns (F, G, trace), trace[0] taken after the initial membership solve.
    """
    G = solve_membership(F, A)
    trace = [loss(F, G)]
    for _ in range(opts.max_outer_iters):
        GtG = G.T @ G
        try:
            F = np.linalg.solve(GtG + gram_term(F, GtG), (A @ G).T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"singular system in F-update: {exc}") from exc
        if not np.all(np.isfinite(F)):
            raise NumericalFailure("non-finite prototypes in F-update")
        G = solve_membership(F, A, warm=G)
        L = loss(F, G)
        if not np.isfinite(L):
            raise NumericalFailure("non-finite objective value")
        trace.append(L)
        if abs(trace[-2] - L) <= opts.rel_obj_tol * max(abs(trace[-2]), energy):
            break
    return F, G, trace


def solve_am(X, k: int, opts: AmOptions | None = None) -> tuple[Solution, list[float]]:
    """Run alternating minimization from a seeded start.

    Parameters
    ----------
    X : DataMatrix or array_like
    k : int, 1 <= k <= n
    opts : AmOptions, optional

    Returns
    -------
    (Solution, trace)
        trace[0] is the objective after the initial membership solve and
        one entry follows per outer iteration; it is non-increasing up to
        round-off. Stops when the objective changes by at most
        rel_obj_tol * max(|L_prev|, ||Xc||_F^2), the rule shared with
        solve_mvskm, or when max_outer_iters is reached.
    """
    opts = opts or AmOptions()
    if not isinstance(X, DataMatrix):
        X = center(X)
    if not isinstance(k, (int, np.integer)) or k < 1 or k > X.n:
        raise InvalidInput(f"k must be in [1, {X.n}], got {k}")
    F, G, trace = _alternate(
        X.values,
        _initial_prototypes(X, k, opts.init, opts.seed),
        lambda F, GtG: opts.ridge * np.trace(GtG) / k * np.eye(k),
        lambda F, G: objective(X, F, G),
        opts,
        float(np.sum(X.centered * X.centered)),
    )
    return Solution(F, G, trace[-1]), trace
