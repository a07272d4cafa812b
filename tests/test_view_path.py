"""The closed-form solve and the audits center a read-only view of the
caller's data rather than a copy, form the objective's residual in one
buffer, and test finiteness on passes that already run. These tests pin
what that must not change: the caller's array, every output bit, and
which inputs are rejected with which message."""

import numpy as np
import pytest

from conftest import random_instance, random_row_stochastic
from softkm import (
    InvalidInput,
    center,
    is_skmable,
    nonuniqueness_gap,
    objective,
    solve_global,
    stability_audit,
)
from softkm.core import truncated_svd


def reference_objective(X, F, G):
    """The two-temporary formula `objective` used before it worked in place."""
    R = X - F @ G.T
    return float(np.sum(R * R))


def solution_arrays(sol, gf):
    return [sol.prototypes, sol.membership, gf.U, gf.sigma, gf.V, gf.B, gf.S]


def assert_same_solve(got, want):
    (sol, gf), (sol0, gf0) = got, want
    for a, b in zip(solution_arrays(sol, gf), solution_arrays(sol0, gf0)):
        assert a.tobytes() == b.tobytes()
    assert (sol.objective, gf.r, gf.a) == (sol0.objective, gf0.r, gf0.a)


@pytest.mark.parametrize("d,n", [(1, 9), (1, 300), (7, 1), (5, 40), (40, 5), (12, 1000)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_objective_matches_reference_bitwise(d, n, order):
    X = np.asarray(random_instance(d + n, d, n, scale=3.0), order=order)
    F = random_instance(1, d, 3)
    G = random_row_stochastic(2, n, 3)
    assert objective(X, F, G) == reference_objective(X, F, G)
    assert objective(center(X), F, G) == reference_objective(X, F, G)


def layouts(X):
    """X in layouts other than C order, each equal to X entry by entry."""
    wide = np.repeat(X, 2, axis=1)
    return {
        "F-ordered": np.asfortranarray(X),
        "transposed view": np.ascontiguousarray(X.T).T,
        "strided slice": wide[:, ::2],
    }


@pytest.mark.parametrize("layout", ["F-ordered", "transposed view", "strided slice"])
@pytest.mark.parametrize("d,n,k", [(6, 500, 3), (30, 200, 5)])
def test_any_layout_solves_bitwise_like_a_c_copy(layout, d, n, k):
    X = random_instance(d * n, d, n, scale=4.0) + 10.0
    E = 0.1 * random_instance(7, d, n)
    Xl = layouts(X)[layout]
    assert not Xl.flags.c_contiguous
    C = np.ascontiguousarray(Xl).copy()
    assert_same_solve(solve_global(Xl, k), solve_global(C, k))
    assert stability_audit(Xl, E, k) == stability_audit(C, E, k)


@pytest.mark.parametrize("d,n,k", [(6, 500, 3), (30, 200, 5)])
def test_f_ordered_perturbation_audits_bitwise_like_a_c_copy(d, n, k):
    X = random_instance(d * n, d, n, scale=4.0) + 10.0
    E = 0.1 * random_instance(7, d, n)
    assert stability_audit(X, np.asfortranarray(E), k) == stability_audit(X, E.copy(), k)


def test_view_path_leaves_no_alias():
    X = random_instance(3, 8, 120) + 2.0
    E = 0.1 * random_instance(4, 8, 120)
    assert X.flags.c_contiguous and X.flags.writeable
    before = X.copy()
    sol, gf = solve_global(X, 4)
    skmable = is_skmable(X, 4)
    report = stability_audit(X, E, 4)
    G1, G2, gap, objectives = nonuniqueness_gap(X, 4)
    assert X.flags.writeable and X.tobytes() == before.tobytes()
    returned = solution_arrays(sol, gf) + [G1, G2]
    for a in returned:
        assert not np.shares_memory(a, X)
    kept = [a.copy() for a in returned]
    X[...] = -7.0
    for a, b in zip(returned, kept):
        assert a.tobytes() == b.tobytes()
    assert (skmable, report.holds, gap > 0) == (False, True, True)
    assert not np.shares_memory(center(X).values, X)


def corrupted(kind):
    A = random_instance(5, 4, 6)
    if kind == "inf and -inf":
        A[1, 2], A[1, 4] = np.inf, -np.inf
    else:
        A[1, 2] = float(kind)
    return A


BAD = ["nan", "inf", "-inf", "inf and -inf"]


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("call", [
    center,
    lambda A: solve_global(A, 2),
    lambda A: is_skmable(A, 2),
    lambda A: stability_audit(A, np.zeros_like(A), 2),
], ids=["center", "solve_global", "is_skmable", "stability_audit"])
def test_non_finite_data_rejected(call, kind):
    with pytest.raises(InvalidInput, match="^data matrix contains non-finite entries$"):
        call(corrupted(kind))


@pytest.mark.parametrize("kind", BAD)
def test_non_finite_perturbation_rejected(kind):
    E = corrupted(kind)
    with pytest.raises(InvalidInput, match="^perturbation contains non-finite entries$"):
        stability_audit(np.ones_like(E), E, 2)


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("transpose", [False, True], ids=["wide", "tall"])
def test_non_finite_truncated_svd_rejected(kind, transpose):
    A = corrupted(kind)
    with pytest.raises(InvalidInput, match="^matrix contains non-finite entries$"):
        truncated_svd(A.T if transpose else A, 2)


def test_finite_rows_whose_sum_overflows_are_accepted():
    A = np.array([[1.7e308] * 4, [-1.7e308] * 4])
    with np.errstate(over="ignore"):
        X = center(A)
    assert X.values.tobytes() == A.tobytes()
    assert np.array_equal(X.mean, [np.inf, -np.inf])
