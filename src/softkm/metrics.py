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


def _max_assignment(C: np.ndarray) -> int:
    """The largest total of a one-to-one matching of the rows of the
    integer table C to its columns, by shortest augmenting paths (Jonker &
    Volgenant, Computing 1987; the rectangular form of Crouse, IEEE TAES
    2016). Each row of the table's short side is added by one Dijkstra
    search on costs -C reduced by the potentials u, v, which then keep
    every reduced cost of a matched row nonnegative; all of it is integer
    arithmetic, so the total is exact."""
    if C.shape[0] > C.shape[1]:
        C = C.T
    r, c = C.shape
    u, v = np.zeros(r, dtype=np.int64), np.zeros(c, dtype=np.int64)
    row4col, col4row, taken = np.full(c, -1), np.full(r, -1), np.zeros(c, dtype=np.int64)
    big = np.iinfo(np.int64).max
    for cur in range(r):
        # dist: the shortest path found to each column; path: the row it
        # comes from; key: 2 dist + taken on the columns not yet reached, so
        # that of two equally near columns a free one ends the search
        dist, key, path = np.full(c, big), np.full(c, big), np.zeros(c, dtype=int)
        cols, lows, i, low = [], [], cur, 0
        while True:
            reduced = (low - u[i]) - C[i] - v
            closer = reduced < dist  # never a reached column: its dist is at most low
            np.putmask(dist, closer, reduced)
            np.putmask(path, closer, i)
            np.putmask(key, closer, 2 * reduced + taken)
            j = key.argmin()
            low, key[j] = dist[j], big
            cols.append(j)
            lows.append(low)
            if not taken[j]:
                break
            i = row4col[j]
        taken[j] = 1
        cols, lows = np.array(cols), np.array(lows)
        u[cur] += low
        u[row4col[cols[:-1]]] += low - lows[:-1]
        v[cols] -= low - lows
        while True:  # flip the path's matches back to the new row
            i = row4col[j] = path[j]
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return int(C[np.arange(r), col4row].sum())


def accuracy(pred, truth) -> float:
    """Fraction of samples matched under the best one-to-one relabeling.

    The relabeling solves the assignment problem on the integer
    contingency table by shortest augmenting paths with integer potentials
    (Jonker & Volgenant 1987), so the matched count is exact. An r x c
    table with r <= c costs O(r^2 c): one search per row of its short
    side, each visiting at most r columns in O(c) steps.
    """
    p, t = _paired(pred, truth)
    return float(_max_assignment(_contingency(p, t))) / p.size


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
