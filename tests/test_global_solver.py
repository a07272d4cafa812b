import tracemalloc

import numpy as np
import pytest

from conftest import (
    decomposable_instance,
    infinity_bound,
    overflowing_perturbation,
    random_instance,
    random_orthogonal,
    random_row_stochastic,
    three_clusters,
)
from softkm import (
    AmOptions,
    InvalidInput,
    MvskmOptions,
    NumericalFailure,
    RotationMatrix,
    center,
    objective,
    rotate_solution,
    solve_am,
    solve_global,
    solve_mvskm,
    truncated_svd,
    two_gaussians,
)
from softkm.core import _BLOCK_FLOATS


def tail_energy(X, k):
    """Independent oracle: energy beyond the leading k-1 singular values of
    the centered data, from a full SVD."""
    s = np.linalg.svd(center(X).centered, compute_uv=False)
    return float(np.sum(s[k - 1:] ** 2))


def check_feasible(G):
    assert float(G.min()) >= -1e-12
    assert float(np.abs(G.sum(axis=1) - 1.0).max()) <= 1e-10


def solve_k3(solver, X):
    """(Solution, iteration count) of one solver at k = 3 and seed 0."""
    if solver == "global":
        return solve_global(X, 3)[0], 0
    if solver == "am":
        sol, trace = solve_am(X, 3, AmOptions(seed=0))
        return sol, len(trace)
    sol, state = solve_mvskm(X, 3, MvskmOptions(lam=0.1, seed=0))
    return sol, len(state.objective_trace)


class TestSolveGlobal:
    def test_two_point_line(self):
        sol, gf = solve_global(np.array([[-1.0, 1.0]]), 2)
        np.testing.assert_allclose(sol.prototypes, [[1.0, -1.0]], atol=1e-12)
        np.testing.assert_allclose(sol.membership, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        assert sol.objective <= 1e-12
        assert gf.r == pytest.approx(1.0)
        assert gf.a == pytest.approx(np.sqrt(2.0))

    def test_factors_consistent(self):
        X = random_instance(5, 6, 80)
        sol, gf = solve_global(X, 4)
        np.testing.assert_allclose(gf.S, gf.a * gf.B.T, atol=1e-12)
        W = gf.projected_data()
        assert float(np.sqrt((W * W).sum(axis=0)).max()) <= gf.r * (1 + 1e-12)
        # reconstruction built from the factors matches the solution
        xbar = center(X).mean
        F = gf.a * (gf.U @ gf.B.T) + xbar[:, None]
        np.testing.assert_allclose(F, sol.prototypes, atol=1e-10)

    def test_objective_is_tail_energy(self):
        for seed, d, n, k in [(0, 5, 200, 3), (1, 8, 60, 5), (2, 2, 50, 2), (3, 12, 40, 4)]:
            X = random_instance(seed, d, n)
            sol, _ = solve_global(X, k)
            tail = tail_energy(X, k)
            assert abs(sol.objective - tail) <= 1e-8 * max(float(np.sum(X ** 2)), 1.0)

    def test_decomposable_data_exact(self):
        X, _, _ = decomposable_instance(7, 4, 90, 3)
        sol, _ = solve_global(X, 3)
        assert sol.objective <= 1e-10 * float(np.sum(X ** 2))

    def test_membership_feasible(self):
        for seed in range(10):
            X = random_instance(seed, 4, 70, scale=5.0)
            sol, _ = solve_global(X, 3)
            check_feasible(sol.membership)

    # every solver works on the centered data, so shifting the samples by c
    # shifts the prototypes by c and leaves the rest as it was. MVSKM at
    # lambda = 0.1 stops at its iteration cap, not at a stationary point,
    # so its objective moves to first order with the c * eps round-off of
    # centering (2e-10 of ||Xc||^2 at c = 1e6): it gets the 1e-8 of the
    # factors, the converged solvers 1e-12.
    @pytest.mark.parametrize("c", [1e4, 1e6])
    @pytest.mark.parametrize("solver, obj_tol", [
        pytest.param("global", 1e-12, id="global"),
        pytest.param("am", 1e-12, id="am"),
        pytest.param("mvskm", 1e-8, id="mvskm"),
    ])
    def test_translation_invariance(self, solver, obj_tol, c):
        X, _ = two_gaussians()
        energy = float(np.sum(center(X).centered ** 2))
        sol0, iters0 = solve_k3(solver, X)
        sol1, iters1 = solve_k3(solver, X + c)
        assert iters1 == iters0
        assert abs(sol1.objective - sol0.objective) <= obj_tol * energy
        np.testing.assert_allclose(sol1.prototypes - c, sol0.prototypes, rtol=0, atol=1e-8)
        np.testing.assert_allclose(sol1.membership, sol0.membership, rtol=0, atol=1e-8)

    def test_not_above_alternating_baseline(self):
        for seed in range(8):
            X = random_instance(100 + seed, 4, 60)
            solg, _ = solve_global(X, 3)
            sola, _ = solve_am(X, 3, AmOptions(seed=seed, max_outer_iters=30))
            assert solg.objective <= sola.objective + 1e-7 * float(np.sum(X ** 2))

    def test_identical_points_degenerate(self):
        X = np.full((3, 8), 2.5)
        sol, gf = solve_global(X, 3)
        np.testing.assert_allclose(sol.prototypes, 2.5, atol=1e-12)
        np.testing.assert_allclose(sol.membership, 1.0 / 3.0, atol=1e-12)
        assert sol.objective <= 1e-20
        assert gf.r == 0.0 and gf.a == 0.0

    def test_k1_analytic(self):
        X = random_instance(13, 4, 30)
        sol, _ = solve_global(X, 1)
        np.testing.assert_allclose(sol.prototypes[:, 0], X.mean(axis=1), atol=1e-12)
        np.testing.assert_allclose(sol.membership, 1.0, atol=1e-15)
        assert sol.objective == pytest.approx(float(np.sum(center(X).centered ** 2)), rel=1e-12)

    def test_k_too_large_rejected(self):
        with pytest.raises(InvalidInput):
            solve_global(random_instance(0, 2, 50), 5)  # k-1=4 > d=2
        with pytest.raises(InvalidInput):
            solve_global(random_instance(0, 5, 3), 5)  # k-1=4 > n=3

    def test_bad_k_rejected(self):
        with pytest.raises(InvalidInput):
            solve_global(random_instance(0, 3, 10), 0)

    def test_ragged_data_rejected(self):
        with pytest.raises(InvalidInput, match="data matrix"):
            solve_global([[1.0, 2.0], [3.0]], 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gram_is_numerical_failure(self):
        with pytest.raises(NumericalFailure, match="Gram"):
            solve_global(1e154 * three_clusters(), 3)
        # a trace that overflows over a finite Gram matrix still solves
        with np.errstate(over="ignore"):
            assert truncated_svd(np.diag([1e154, 1e154]), 1)[1][0] == 1e154

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_objective_is_numerical_failure(self):
        X, E = overflowing_perturbation()
        with pytest.raises(NumericalFailure, match="objective"):
            solve_global(X + E, 3)


class TestRotateSolution:
    def test_identity_rotation(self):
        X = random_instance(21, 5, 40)
        sol, gf = solve_global(X, 4)
        rot = rotate_solution(sol, gf, np.eye(3))
        np.testing.assert_allclose(rot.prototypes, sol.prototypes, atol=1e-12)
        np.testing.assert_allclose(rot.membership, sol.membership, atol=1e-12)

    def test_flip_gap_identity(self):
        X = random_instance(22, 6, 55)
        sol, gf = solve_global(X, 4)
        rot = rotate_solution(sol, gf, -np.eye(3))
        gap_sq = float(np.sum((rot.membership - sol.membership) ** 2))
        # oracle from an independent full SVD of the centered data
        s = np.linalg.svd(center(X).centered, compute_uv=False)
        expected = 4.0 / gf.a ** 2 * float(np.sum(s[:3] ** 2))
        assert gap_sq == pytest.approx(expected, rel=1e-7)

    def test_random_rotation_preserves_objective_and_feasibility(self):
        X = random_instance(23, 5, 60)
        sol, gf = solve_global(X, 4)
        for seed in range(5):
            R = random_orthogonal(seed, 3)
            rot = rotate_solution(sol, gf, R)
            check_feasible(rot.membership)
            recomputed = objective(X, rot.prototypes, rot.membership)
            assert recomputed == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)

    def test_rotation_changes_factors_not_product(self):
        X = random_instance(24, 4, 30)
        sol, gf = solve_global(X, 3)
        rot = rotate_solution(sol, gf, random_orthogonal(9, 2))
        assert not np.allclose(rot.prototypes, sol.prototypes)
        np.testing.assert_allclose(
            rot.prototypes @ rot.membership.T,
            sol.prototypes @ sol.membership.T, atol=1e-8)

    def test_non_orthogonal_rejected(self):
        X = random_instance(25, 3, 20)
        sol, gf = solve_global(X, 3)
        with pytest.raises(InvalidInput):
            rotate_solution(sol, gf, np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_wrong_size_rejected(self):
        X = random_instance(26, 3, 20)
        sol, gf = solve_global(X, 3)
        with pytest.raises(InvalidInput):
            rotate_solution(sol, gf, np.eye(3))
        with pytest.raises(InvalidInput, match="rotation"):
            rotate_solution(sol, gf, [[1.0, 0], [0]])

    def test_solution_from_another_solve_rejected(self):
        X = random_instance(27, 3, 20)
        sol, gf = solve_global(X, 3)
        other_d, _ = solve_global(random_instance(28, 4, 20), 3)
        other_n, _ = solve_global(random_instance(29, 3, 21), 3)
        # same shape: other data, and the same data scaled (same U, other W)
        other_data, _ = solve_global(random_instance(30, 3, 20) * 5.0, 3)
        scaled, _ = solve_global(X * 5.0, 3)
        for other in (other_d, other_n, other_data, scaled):
            with pytest.raises(InvalidInput):
                rotate_solution(other, gf, np.eye(2))

    def test_rotation_matrix_type(self):
        R = RotationMatrix(np.eye(2))
        assert R.dim == 2
        with pytest.raises(InvalidInput):
            RotationMatrix(np.array([[2.0]]))


def one_buffer_objective(X, F, G):
    """The reference objective: the whole residual in one d x n buffer."""
    R = F @ G.T
    np.subtract(X, R, out=R)
    np.multiply(R, R, out=R)
    return float(R.sum())


class TestObjective:
    @pytest.mark.parametrize("d,n", [(3, 12), (2, 140), (10, 2000), (2, _BLOCK_FLOATS // 2)])
    def test_one_block_is_the_one_buffer_formula(self, d, n):
        X, F = random_instance(1, d, n, scale=3.0), random_instance(2, d, 3)
        G = random_row_stochastic(3, n, 3)
        assert objective(X, F, G) == one_buffer_objective(X, F, G)

    @pytest.mark.parametrize("d,n", [(2, _BLOCK_FLOATS // 2 + 1), (3, 100_000),
                                     (100, 5000), (_BLOCK_FLOATS + 5, 3)])
    def test_blocks_agree_with_one_buffer(self, d, n):
        X, F = random_instance(4, d, n, scale=3.0), random_instance(5, d, 4)
        G = random_row_stochastic(6, n, 4)
        ref = one_buffer_objective(X, F, G)
        assert objective(X, F, G) == pytest.approx(ref, rel=1e-13)
        X[d // 2, n - 1] = np.nan  # in the last block
        assert np.isnan(objective(X, F, G))

    def test_residual_peak_memory_is_one_block(self):
        X, F = random_instance(7, 100, 20_000), random_instance(8, 100, 10)
        G = random_row_stochastic(9, 20_000, 10)
        tracemalloc.start()
        try:
            objective(X, F, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # one d x n buffer would be 16 MB

    def test_worked_example(self):
        X = np.array([[-1.0, 1.0]])
        F = np.array([[1.0, -1.0]])
        G = np.full((2, 2), 0.5)
        assert objective(X, F, G) == pytest.approx(2.0, abs=1e-15)

    def test_zero_membership_gives_data_energy(self):
        X = random_instance(31, 3, 12)
        F = random_instance(32, 3, 2)
        G = np.zeros((12, 2))
        assert objective(X, F, G) == pytest.approx(float(np.sum(X ** 2)), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            objective(np.eye(3), np.eye(3), np.ones((2, 3)))
        with pytest.raises(InvalidInput, match="membership"):
            objective(np.ones((2, 3)), np.ones((2, 2)), [[1, 0], [1], [0, 1]])


class TestInfinityBound:
    def test_values(self):
        assert infinity_bound(2) == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
        assert infinity_bound(4) == pytest.approx(np.sqrt(12) / 4, abs=1e-15)

    def test_equality_case(self):
        x = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.abs(x).max() == pytest.approx(infinity_bound(2), abs=1e-15)

    def test_k1_rejected(self):
        with pytest.raises(InvalidInput):
            infinity_bound(1)
