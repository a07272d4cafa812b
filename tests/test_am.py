import numpy as np
import pytest

import softkm.am as am_module
from conftest import decomposable_instance, random_instance
from softkm import (
    AmOptions,
    InvalidInput,
    MvskmOptions,
    NumericalFailure,
    center,
    objective,
    solve_am,
    solve_global,
)
from softkm.synth import two_gaussians


class TestSolveAm:
    def test_k1_converges_to_mean(self):
        X = random_instance(1, 3, 40)
        sol, trace = solve_am(X, 1)
        np.testing.assert_allclose(sol.prototypes[:, 0], X.mean(axis=1), rtol=1e-8)
        np.testing.assert_allclose(sol.membership, 1.0, atol=1e-12)
        expected = float(np.sum(center(X).centered ** 2))
        assert sol.objective == pytest.approx(expected, rel=1e-8)
        assert len(trace) <= 4  # settles immediately

    def test_warm_init_on_decomposable_data(self):
        X, F0, _ = decomposable_instance(3, 4, 80, 3)
        sol, trace = solve_am(X, 3, AmOptions(init=F0))
        assert sol.objective <= 1e-8 * float(np.sum(X ** 2))
        assert len(trace) - 1 <= 5

    def test_never_beats_global(self):
        for seed in range(20):
            X = random_instance(200 + seed, 2, 100)
            solg, _ = solve_global(X, 2)
            sola, trace = solve_am(X, 2, AmOptions(seed=seed))
            floor = solg.objective - 1e-7 * float(np.sum(X ** 2))
            assert all(v >= floor for v in trace)

    def test_trace_monotone(self):
        for seed in range(6):
            X = random_instance(300 + seed, 5, 90)
            _, trace = solve_am(X, 4, AmOptions(seed=seed))
            diffs = np.diff(trace)
            assert float(diffs.max()) <= 1e-9

    def test_final_state_consistent(self):
        X = random_instance(17, 3, 60)
        sol, trace = solve_am(X, 3, AmOptions(seed=2))
        assert sol.objective == trace[-1]
        recomputed = objective(X, sol.prototypes, sol.membership)
        assert recomputed == pytest.approx(sol.objective, rel=1e-12)
        assert sol.membership.min() >= -1e-12
        np.testing.assert_allclose(sol.membership.sum(axis=1), 1.0, atol=1e-10)

    def test_seeded_init_deterministic(self):
        X = random_instance(19, 3, 50)
        sol1, t1 = solve_am(X, 3, AmOptions(seed=7))
        sol2, t2 = solve_am(X, 3, AmOptions(seed=7))
        np.testing.assert_array_equal(sol1.prototypes, sol2.prototypes)
        np.testing.assert_array_equal(sol1.membership, sol2.membership)
        assert t1 == t2

    def test_max_iters_respected(self):
        X = random_instance(23, 4, 70)
        _, trace = solve_am(X, 3, AmOptions(max_outer_iters=3, rel_obj_tol=0.0))
        assert len(trace) == 4

    def test_rising_objective_is_not_convergence(self, monkeypatch):
        values = iter(range(100))
        monkeypatch.setattr(am_module, "objective", lambda X, F, G: float(next(values)))
        _, trace = solve_am(random_instance(23, 4, 70), 3, AmOptions(max_outer_iters=5))
        assert len(trace) == 6

    def test_stop_is_scale_free(self):
        X, _ = two_gaussians()
        opts = AmOptions(max_outer_iters=300, seed=4)
        _, trace = solve_am(X, 3, opts)
        _, scaled = solve_am(1e-4 * X, 3, opts)
        assert len(trace) < 301
        assert len(scaled) == len(trace)

    def test_singular_normal_equations_without_ridge(self, monkeypatch):
        # identical prototype columns pin every membership row at the uniform
        # vector, so G^T G is an exact rank-one ones matrix
        X = np.array([[0.0, 0.0, 4.0, 4.0], [0.0, 0.0, 4.0, 4.0]])
        F0 = np.array([[1.0, 1.0], [1.0, 1.0]])
        monkeypatch.setattr(am_module, "RIDGE", 0.0)
        with pytest.raises(NumericalFailure):
            solve_am(X, 2, AmOptions(init=F0))

    def test_ridge_keeps_default_path_alive(self):
        X = np.array([[0.0, 0.0, 4.0, 4.0], [0.0, 0.0, 4.0, 4.0]])
        F0 = np.array([[1.0, 1.0], [1.0, 1.0]])
        sol, _ = solve_am(X, 2, AmOptions(init=F0))
        assert np.all(np.isfinite(sol.prototypes))

    def test_k_bounds(self):
        X = random_instance(29, 2, 10)
        with pytest.raises(InvalidInput):
            solve_am(X, 0)
        with pytest.raises(InvalidInput):
            solve_am(X, 11)

    def test_bad_init_shape(self):
        X = random_instance(31, 2, 10)
        for init in (np.ones((3, 2)), [[1, 2], [3]]):  # wrong shape, ragged
            with pytest.raises(InvalidInput, match="initial prototypes"):
                solve_am(X, 2, AmOptions(init=init))

    def test_requires_exactly_am_options(self):
        X = random_instance(31, 2, 10)
        for opts in (MvskmOptions(lam=1.0), "random_points"):
            with pytest.raises(InvalidInput):
                solve_am(X, 2, opts)

    def test_unknown_init_name(self):
        X = random_instance(31, 2, 10)
        with pytest.raises(InvalidInput):
            solve_am(X, 2, AmOptions(init="kmeans++"))
