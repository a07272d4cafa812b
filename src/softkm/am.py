"""Alternating minimization for the soft k-means objective: the engine
shared with the minimal-volume solver, and the AM baseline built on it.

The engine alternates the exact prototype update F (G^T G + T) = A G, for a
k x k term T, with exact membership solves, and stops on one
scale-free rule: |L_prev - L| <= rel_obj_tol * max(|L_prev|, ||Xc||_F^2).
AM takes T = RIDGE * trace(G^T G)/k * I and converges to a stationary point
only; the closed-form solver gives the global reference.
"""

from __future__ import annotations

import numbers
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .core import DataMatrix, Solution, _finite_matrix, _is_int, center, check_k
from .errors import InvalidInput, NumericalFailure
from .global_solver import objective
from .simplex import solve_membership

__all__ = ["AmOptions", "solve_am"]

# Ridge of the AM F-update, scaled by trace(G^T G)/k; read at call time.
RIDGE = 1e-10

_SOLVERS = ("global", "am", "mvskm")


def _is_finite(v) -> bool:
    # an int beyond the float range is not finite here either
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_PATH = (lambda v: isinstance(v, (str, os.PathLike)) and bool(v), "a nonempty path")

# field -> (test its value must pass, what the error says it must be), for
# every field of AmOptions, MvskmOptions and io.RunConfig
_FIELD_CHECKS = {
    "solver": (lambda v: v in _SOLVERS, f"one of {_SOLVERS}"),
    "input_path": _PATH,
    "output_dir": _PATH,
    "k": _POSITIVE_INT,
    "max_outer_iters": _POSITIVE_INT,
    "seed": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "lam": (lambda v: v is None or _is_finite(v) and v >= 0, "a finite nonnegative number"),
    "epsilon": (lambda v: _is_finite(v) and v > 0, "a finite strictly positive number"),
    "rel_obj_tol": (lambda v: _is_finite(v) and v >= 0, "a finite nonnegative number"),
    "init": (lambda v: not isinstance(v, str) or v == "random_points",
             "'random_points' or a d x k array"),
}


def _check_fields(record) -> None:
    """Raise InvalidInput naming the first field of the dataclass record
    whose value fails its _FIELD_CHECKS entry."""
    for f in fields(record):
        value = getattr(record, f.name)
        ok, what = _FIELD_CHECKS[f.name]
        if not ok(value):
            raise InvalidInput(f"{f.name} must be {what}, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class AmOptions:
    """Controls of the alternating loop that solve_am and solve_mvskm share.

    The loop stops after max_outer_iters F-updates or once the objective
    changes by at most rel_obj_tol * max(|L_prev|, ||Xc||_F^2). init is
    either the string "random_points" (k distinct data columns, drawn with
    the given seed) or an explicit d x k prototype array in original
    coordinates. Construction checks every field.
    """

    max_outer_iters: int = 300
    rel_obj_tol: float = 1e-8
    init: object = "random_points"
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)


def _initial_prototypes(X: DataMatrix, k: int, init, seed: int) -> np.ndarray:
    if isinstance(init, str):  # "random_points", the one name the options accept
        rng = np.random.default_rng(seed)
        idx = rng.choice(X.n, size=k, replace=False)
        return X.values[:, np.sort(idx)].copy()
    F = _finite_matrix(init, "initial prototypes")
    if F.shape != (X.d, k):
        raise InvalidInput(f"initial prototypes must be {X.d}x{k}")
    return F.copy()


def _alternate(A, F, gram_term, loss, opts, Xc):
    """Alternate F-updates and membership solves on the d x n data A from
    the d x k start F. gram_term(F, GtG) is the k x k term added to G^T G,
    loss(F, G) the objective; opts, an AmOptions, gives max_outer_iters and
    rel_obj_tol, and the energy ||Xc||_F^2 of the centered data floors the
    stop rule so that it is scale-free; an infinite one would pass it.
    Returns (F, G, trace), trace[0] taken after the initial membership solve.
    """
    with np.errstate(over="ignore"):  # an infinite energy is rejected below
        energy = float(np.sum(Xc * Xc))
    if not np.isfinite(energy):
        raise NumericalFailure("data energy ||Xc||_F^2 overflows")
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
        Exactly an AmOptions; the loop controls of solve_mvskm's
        MvskmOptions are not accepted here.

    Returns
    -------
    (Solution, trace)
        trace[0] is the objective after the initial membership solve and
        one entry follows per outer iteration; it is non-increasing up to
        round-off. Stops when the objective changes by at most
        rel_obj_tol * max(|L_prev|, ||Xc||_F^2), the rule shared with
        solve_mvskm, or when max_outer_iters is reached.
    """
    opts = AmOptions() if opts is None else opts
    if type(opts) is not AmOptions:
        raise InvalidInput(f"solve_am requires AmOptions, got {type(opts).__name__}")
    X = center(X)
    check_k(k, 1, X.n)
    F, G, trace = _alternate(
        X.values,
        _initial_prototypes(X, k, opts.init, opts.seed),
        lambda F, GtG: RIDGE * np.trace(GtG) / k * np.eye(k),
        lambda F, G: objective(X, F, G),
        opts,
        X.centered,
    )
    return Solution(F, G, trace[-1]), trace
