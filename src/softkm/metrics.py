"""Clustering quality measures on integer label vectors."""

from __future__ import annotations

import numpy as np

from .core import _finite_matrix, as_matrix
from .errors import InvalidInput

__all__ = ["hard_assign", "accuracy", "nmi", "purity"]


def hard_assign(G) -> np.ndarray:
    """Row-wise argmax of a row-stochastic membership; ties go to the
    lowest index."""
    G = _finite_matrix(G, "membership")
    if G.size == 0:
        raise InvalidInput("membership must be nonempty")
    if float(np.abs(G.sum(axis=1) - 1.0).max()) > 1e-6:
        raise InvalidInput("membership rows must sum to one")
    if float(G.min()) < -1e-6:
        raise InvalidInput("membership entries must be nonnegative")
    return np.argmax(G, axis=1)


def _as_labels(v, name: str) -> np.ndarray:
    af = as_matrix(v, name)  # numeric and not ragged
    a = np.asarray(v)
    if a.ndim != 1 or a.size == 0:
        raise InvalidInput(f"{name} must be a nonempty 1-d array")
    if not np.issubdtype(a.dtype, np.integer):
        if not np.all((af == np.round(af)) & (np.abs(af) < 2.0**63)):
            raise InvalidInput(f"{name} must hold integers in the int64 range")
        a = af[0].astype(np.int64)
    if a.min() < 0:
        raise InvalidInput(f"{name} must be nonnegative")
    return a.astype(np.int64)


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Counts of each (pred, truth) pair, one row and one column per label
    value present, in increasing order of value. Both vectors are first
    relabelled 0..m-1, so the table's size follows the number of distinct
    labels, not their largest value."""
    pred = np.unique(pred, return_inverse=True)[1]
    truth = np.unique(truth, return_inverse=True)[1]
    nt = int(truth.max()) + 1
    return np.bincount(pred * nt + truth, minlength=(int(pred.max()) + 1) * nt).reshape(-1, nt)


def _paired(pred, truth):
    p = _as_labels(pred, "pred")
    t = _as_labels(truth, "truth")
    if p.size != t.size:
        raise InvalidInput("label vectors must have equal length")
    return p, t


def accuracy(pred, truth) -> float:
    """Fraction of samples matched under the best one-to-one relabeling,
    found by solving the assignment problem on the contingency table.
    scipy.optimize is loaded on the first call, not with the package."""
    from scipy.optimize import linear_sum_assignment

    p, t = _paired(pred, truth)
    C = _contingency(p, t)
    rows, cols = linear_sum_assignment(C, maximize=True)
    return float(C[rows, cols].sum()) / p.size


def nmi(pred, truth) -> float:
    """Normalized mutual information I / sqrt(H_pred * H_truth), natural
    logs. Both partitions single-cluster gives 1.0; one degenerate side
    against a non-degenerate one gives 0.0."""
    p, t = _paired(pred, truth)
    C = _contingency(p, t).astype(float)
    n = p.size
    pi = C.sum(axis=1) / n
    pj = C.sum(axis=0) / n
    hp = float(-np.sum(pi[pi > 0] * np.log(pi[pi > 0])))
    ht = float(-np.sum(pj[pj > 0] * np.log(pj[pj > 0])))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    P = C / n
    mask = P > 0
    mi = float(np.sum(P[mask] * np.log(P[mask] / np.outer(pi, pj)[mask])))
    return min(1.0, max(0.0, mi / np.sqrt(hp * ht)))


def purity(pred, truth) -> float:
    """Mean, over samples, of belonging to the majority truth class of
    one's predicted cluster."""
    p, t = _paired(pred, truth)
    C = _contingency(p, t)
    return float(C.max(axis=1).sum()) / p.size
