"""Soft k-means via a closed-form spectral construction.

The factorization min ||X - F G^T||_F^2 over prototypes F and row-stochastic
memberships G is solved globally in closed form; the package adds the
rotation family of alternative optima, a minimal-volume regularized variant
that resolves that ambiguity, an alternating-minimization baseline,
decomposability and stability audits, and clustering metrics.
"""

from . import am, audits, core, errors, global_solver, io, metrics, mvskm, simplex, synth
from .am import *  # noqa: F403
from .audits import *  # noqa: F403
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .global_solver import *  # noqa: F403
from .io import *  # noqa: F403
from .metrics import *  # noqa: F403
from .mvskm import *  # noqa: F403
from .simplex import *  # noqa: F403
from .synth import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (am, audits, core, errors, global_solver, io, metrics,
                                     mvskm, simplex, synth) for name in module.__all__)
