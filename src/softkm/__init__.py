"""Soft k-means via a closed-form spectral construction.

The factorization min ||X - F G^T||_F^2 over prototypes F and row-stochastic
memberships G is solved globally in closed form; the package adds the
rotation family of alternative optima, a minimal-volume regularized variant
that resolves that ambiguity, an alternating-minimization baseline,
decomposability and stability audits, and clustering metrics.
"""

from .am import AmOptions, solve_am
from .audits import (
    KernelMatrix,
    StabilityReport,
    is_skmable,
    is_ti_lsdable,
    kernel_embed,
    nonuniqueness_gap,
    stability_audit,
)
from .core import (
    DataMatrix,
    GlobalFactors,
    Solution,
    center,
    numerical_rank,
    simplex_complement_basis,
    truncated_svd,
)
from .errors import (
    DegenerateSimplex,
    InvalidInput,
    NotPositiveSemidefinite,
    NumericalFailure,
    ParseError,
    PreconditionViolated,
    SoftKMError,
)
from .global_solver import (
    RotationMatrix,
    infinity_bound,
    objective,
    rotate_solution,
    solve_global,
)
from .io import RunConfig, RunResult, bench, load_csv, load_labels, run, save_matrix_csv
from .metrics import accuracy, hard_assign, nmi, purity
from .mvskm import (
    MvskmOptions,
    MvskmState,
    log_simplex_volume,
    mvskm_objective,
    reweight_matrix,
    solve_mvskm,
    volume_regularizer,
)
from .simplex import project_simplex, solve_membership
from .synth import in_convex_hull, two_gaussians

__version__ = "0.1.0"

__all__ = [
    "AmOptions",
    "DataMatrix",
    "DegenerateSimplex",
    "GlobalFactors",
    "InvalidInput",
    "KernelMatrix",
    "MvskmOptions",
    "MvskmState",
    "NotPositiveSemidefinite",
    "NumericalFailure",
    "ParseError",
    "PreconditionViolated",
    "RotationMatrix",
    "RunConfig",
    "RunResult",
    "SoftKMError",
    "Solution",
    "StabilityReport",
    "accuracy",
    "bench",
    "center",
    "hard_assign",
    "in_convex_hull",
    "infinity_bound",
    "is_skmable",
    "is_ti_lsdable",
    "kernel_embed",
    "load_csv",
    "load_labels",
    "log_simplex_volume",
    "mvskm_objective",
    "nmi",
    "nonuniqueness_gap",
    "numerical_rank",
    "objective",
    "project_simplex",
    "purity",
    "reweight_matrix",
    "rotate_solution",
    "run",
    "save_matrix_csv",
    "simplex_complement_basis",
    "solve_am",
    "solve_global",
    "solve_membership",
    "solve_mvskm",
    "stability_audit",
    "truncated_svd",
    "two_gaussians",
    "volume_regularizer",
]
