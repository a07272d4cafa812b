"""Minimal-volume soft k-means.

Adds a log-volume penalty on the prototype simplex to the reconstruction
objective,

    L(F, G) = ||Xc - F G^T||_F^2 + (lambda/2) * sum_i log(sigma_i(F)^2 + eps),

with the sum over all k singular values (zeros included when rank(F) < k)
and eps > 0 keeping the penalty finite. The closed-form optimum of the
unregularized problem is unique only up to a rotation that rescales the
simplex; the penalty selects the smallest simplex compatible with the data,
pulling prototypes toward the samples. Minimization runs the alternating
engine of the AM baseline, with an exact F-update against a tangent
majorizer of the log term (built from the reweight matrix D) and its one
scale-free stop rule, and the objective trace never increases.

The solver centers the data internally and reports prototypes with the mean
added back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .am import AmOptions, _alternate
from .core import RANK_TAU, Solution, as_matrix, center, check_k
from .errors import DegenerateSimplex, InvalidInput, PreconditionViolated
from .global_solver import objective
from .simplex import solve_membership  # noqa: F401  (an attribute bench/harness.py wraps)

__all__ = [
    "MvskmOptions",
    "MvskmState",
    "volume_regularizer",
    "log_simplex_volume",
    "reweight_matrix",
    "mvskm_objective",
    "solve_mvskm",
]


@dataclass(frozen=True)
class MvskmOptions(AmOptions):
    """Loop controls plus the volume penalty: lam weighs it (the objective
    carries lam/2) and is required, epsilon smooths the log and must be
    strictly positive. Both are finite, and so are 1/epsilon and
    lam/(2 epsilon), the largest entries of D and of the F-update's
    (lam/2) D."""

    lam: float
    epsilon: float = 1e-8

    def __post_init__(self):
        super().__post_init__()
        if self.lam is None:
            raise InvalidInput("mvskm requires a nonnegative lambda")
        _check_penalty(self.lam, self.epsilon)


def _check_penalty(lam: float, epsilon: float) -> None:
    """Raise InvalidInput unless epsilon > 0 and both 1/epsilon and
    lam/(2 epsilon), the largest entries of D and of the F-update's
    (lam/2) D, are finite; one quotient of Python floats tests both, and
    it overflows to inf without a warning. Callers without a lam pass 0."""
    if not epsilon > 0:
        raise InvalidInput("epsilon must be strictly positive")
    if not math.isfinite(max(1.0, float(lam) / 2.0) / float(epsilon)):
        raise InvalidInput("1/epsilon and lam/(2 epsilon) must be finite, got "
                           f"lam={lam!r}, epsilon={epsilon!r}")


@dataclass(frozen=True)
class MvskmState:
    """Final iterate of the solver: centered prototypes F, membership G,
    the reweight matrix D and singular values sigma of F (k entries, zero
    padded), plus the full objective trace."""

    F: np.ndarray
    G: np.ndarray
    D: np.ndarray
    sigma: np.ndarray
    objective_trace: list[float] = field(default_factory=list)


def _padded_singular_values(F: np.ndarray) -> np.ndarray:
    k = F.shape[1]
    s = np.linalg.svd(F, compute_uv=False)
    out = np.zeros(k)
    out[: s.size] = s
    return out


def volume_regularizer(F, epsilon: float) -> float:
    """sum_{i=1}^{k} log(sigma_i(F)^2 + epsilon), zeros included.

    F is d x k; when d < k the missing singular values count as zero, so
    the rank-deficient directions contribute log(epsilon) each. epsilon
    must be positive with 1/epsilon finite, as for `reweight_matrix`.
    """
    _check_penalty(0.0, epsilon)
    F = as_matrix(F, "prototypes")
    s = _padded_singular_values(F)
    return float(np.log(s * s + epsilon).sum())


def log_simplex_volume(F) -> float:
    """Log volume (up to the fixed 1/(k-1)! factor) of the simplex spanned
    by the columns of a centered prototype matrix.

    Requires F ones = 0 within 1e-8 relative and numerical rank k - 1 (at
    RANK_TAU); equals log(sqrt(k)) + sum_{i<k} log(sigma_i(F)).
    """
    F = as_matrix(F, "prototypes")
    k = F.shape[1]
    if k < 2:
        raise InvalidInput("simplex volume needs k >= 2")
    fro = float(np.linalg.norm(F))
    colsum = float(np.linalg.norm(F @ np.ones(k)))
    if colsum > 1e-8 * max(fro, np.finfo(float).tiny):
        raise PreconditionViolated("prototype columns must sum to zero")
    s = _padded_singular_values(F)[: k - 1]
    if s[0] <= 0.0 or s[-1] <= RANK_TAU * s[0]:
        raise DegenerateSimplex("prototypes do not span a (k-1)-dimensional simplex")
    return float(np.log(np.sqrt(k)) + np.log(s).sum())


def reweight_matrix(F, epsilon: float) -> np.ndarray:
    """D = V diag(1/(sigma_i^2 + epsilon)) V^T over all k right singular
    directions of F, computed from the eigendecomposition of F^T F.

    D is symmetric positive definite with eigenvalues in (0, 1/epsilon] and
    satisfies trace(D F^T F) = sum_i sigma_i^2 / (sigma_i^2 + epsilon).
    An epsilon whose 1/epsilon overflows raises InvalidInput.
    """
    _check_penalty(0.0, epsilon)
    F = as_matrix(F, "prototypes")
    M = F.T @ F
    w, V = np.linalg.eigh(M)
    w = np.clip(w, 0.0, None)
    D = (V / (w + epsilon)) @ V.T
    return 0.5 * D + 0.5 * D.T  # halved first: 2/epsilon may overflow where 1/epsilon does not


def mvskm_objective(Xc, F, G, lam: float, epsilon: float) -> float:
    """Regularized objective on centered data Xc (a plain d x n array)."""
    Xc = as_matrix(Xc, "centered data")
    return objective(Xc, F, G) + 0.5 * lam * volume_regularizer(F, epsilon)


def solve_mvskm(X, k: int, opts: MvskmOptions) -> tuple[Solution, MvskmState]:
    """Minimize the volume-regularized objective by alternating updates.

    Each outer iteration reweights D from the current F and solves the
    linear F-update F (G^T G + (lam/2) D) = Xc G exactly. That system is
    the minimizer of the tangent majorizer of L at the current F: the log
    term carries lam/2 in L, so its linearization tr(D F^T F) must carry
    lam/2 as well or the step can overshoot and the trace loses
    monotonicity. G is then refreshed by exact membership solves, so the
    trace of L(F, G) values never increases (within round-off).
    The loop is the engine shared with solve_am, run on the centered data;
    it stops when |L_prev - L| <= rel_obj_tol * max(|L_prev|, ||Xc||_F^2),
    a rule that keeps its meaning for negative L and at any data scale.

    Returns the Solution in original coordinates (mean added back to F,
    objective is the plain reconstruction error) plus the final MvskmState
    in centered coordinates with the full trace.
    """
    if opts is None or not isinstance(opts, MvskmOptions):
        raise InvalidInput("solve_mvskm requires MvskmOptions")
    X = center(X)
    check_k(k, 2, X.n)
    lam, eps = float(opts.lam), float(opts.epsilon)
    F, G, trace = _alternate(
        X,
        k,
        lambda F, GtG: 0.5 * lam * reweight_matrix(F, eps),
        lambda F, G: mvskm_objective(X.centered, F, G, lam, eps),
        opts,
    )
    F_out = F + X.mean[:, None]
    sol = Solution(F_out, G, objective(X, F_out, G))
    state = MvskmState(
        F=F,
        G=G,
        D=reweight_matrix(F, eps),
        sigma=_padded_singular_values(F),
        objective_trace=trace,
    )
    return sol, state
