import math
from functools import partial

import numpy as np
import pytest

import softkm.am as am_module
from conftest import random_instance, random_row_stochastic
from softkm import (
    AmOptions,
    DegenerateSimplex,
    InvalidInput,
    MvskmOptions,
    MvskmState,
    PreconditionViolated,
    RunConfig,
    center,
    log_simplex_volume,
    mvskm_objective,
    reweight_matrix,
    simplex_complement_basis,
    solve_am,
    solve_membership,
    solve_mvskm,
    volume_regularizer,
)

EPS = 1e-8


def centered_prototypes(seed, d, k, scale=1.0):
    """Random d x k matrix whose columns sum to zero and whose top k-1
    singular values are bounded away from zero."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, k - 1)) * scale
    B = simplex_complement_basis(k)
    return A @ B.T


class TestVolumeRegularizer:
    def test_zero_matrix(self):
        assert volume_regularizer(np.zeros((3, 4)), EPS) == pytest.approx(4 * math.log(EPS))

    def test_identity(self):
        assert volume_regularizer(np.eye(3), EPS) == pytest.approx(3 * math.log(1 + EPS))

    def test_pads_missing_singular_values(self):
        # 1 x 3 matrix has one singular value; the other two count as zero
        val = volume_regularizer(np.array([[1.0, 0.0, 0.0]]), EPS)
        assert val == pytest.approx(math.log(1 + EPS) + 2 * math.log(EPS))

    def test_matches_slogdet(self):
        for seed, (d, k) in enumerate([(4, 3), (2, 5), (6, 2)]):
            F = np.random.default_rng(seed).standard_normal((d, k))
            expected = np.linalg.slogdet(F.T @ F + EPS * np.eye(k))[1]
            assert volume_regularizer(F, EPS) == pytest.approx(expected, rel=1e-10)

    def test_scaling(self):
        F = np.random.default_rng(5).standard_normal((3, 3))
        s = np.linalg.svd(F, compute_uv=False)
        expected = float(np.log(4.0 * s * s + EPS).sum())
        assert volume_regularizer(2.0 * F, EPS) == pytest.approx(expected, rel=1e-12)

    def test_requires_positive_epsilon(self):
        with pytest.raises(InvalidInput):
            volume_regularizer(np.eye(2), 0.0)


class TestLogSimplexVolume:
    def test_two_point_segment(self):
        # prototypes at +-1 span a segment of length 2
        assert log_simplex_volume(np.array([[1.0, -1.0]])) == pytest.approx(math.log(2.0))

    def test_matches_edge_determinant(self):
        # sqrt(k) * prod sigma_i equals |det[f_2-f_1, ..., f_k-f_1]|, the
        # simplex volume up to the fixed (k-1)! factor
        for seed, k in [(0, 2), (1, 3), (2, 4), (3, 6)]:
            F = centered_prototypes(seed, k - 1, k)
            edges = F[:, 1:] - F[:, :1]
            expected = math.log(abs(np.linalg.det(edges)))
            assert log_simplex_volume(F) == pytest.approx(expected, rel=1e-9)

    def test_scaling_adds_k_minus_one_logs(self):
        F = centered_prototypes(4, 5, 4)
        base = log_simplex_volume(F)
        assert log_simplex_volume(3.0 * F) == pytest.approx(base + 3 * math.log(3.0), rel=1e-10)

    def test_rejects_uncentered(self):
        with pytest.raises(PreconditionViolated):
            log_simplex_volume(np.array([[1.0, 1.0]]))

    def test_rejects_flat_simplex(self):
        v = np.array([1.0, 2.0])
        F = np.column_stack([v, v, -2 * v])  # columns sum to zero, rank 1
        with pytest.raises(DegenerateSimplex):
            log_simplex_volume(F)

    def test_rejects_k1(self):
        with pytest.raises(InvalidInput):
            log_simplex_volume(np.array([[0.0]]))


class TestReweightMatrix:
    def test_identity_prototypes(self):
        D = reweight_matrix(np.eye(3), EPS)
        np.testing.assert_allclose(D, np.eye(3) / (1 + EPS), rtol=1e-12)

    def test_zero_prototypes(self):
        D = reweight_matrix(np.zeros((2, 3)), EPS)
        np.testing.assert_allclose(D, np.eye(3) / EPS, rtol=1e-12)

    def test_matches_inverse(self):
        for seed in range(5):
            F = np.random.default_rng(seed).standard_normal((4, 3))
            D = reweight_matrix(F, 1e-3)
            expected = np.linalg.inv(F.T @ F + 1e-3 * np.eye(3))
            np.testing.assert_allclose(D, expected, rtol=1e-8, atol=1e-10)

    def test_symmetric_with_bounded_spectrum(self):
        F = np.random.default_rng(9).standard_normal((2, 5))  # rank deficient
        D = reweight_matrix(F, EPS)
        np.testing.assert_allclose(D, D.T, atol=1e-12)
        w = np.linalg.eigvalsh(D)
        assert w.min() > 0
        assert w.max() <= 1.0 / EPS * (1 + 1e-12)

    def test_trace_identity(self):
        F = np.random.default_rng(11).standard_normal((5, 4))
        s = np.linalg.svd(F, compute_uv=False)
        expected = float((s * s / (s * s + EPS)).sum())
        got = float(np.trace(reweight_matrix(F, EPS) @ (F.T @ F)))
        assert got == pytest.approx(expected, rel=1e-8)

    def test_requires_positive_epsilon(self):
        with pytest.raises(InvalidInput):
            reweight_matrix(np.eye(2), -1.0)

    @pytest.mark.filterwarnings("error")
    def test_epsilon_with_infinite_inverse_rejected(self):
        # the MvskmOptions rule: 1/epsilon must be finite, so D is
        for f in (reweight_matrix, volume_regularizer):
            with pytest.raises(InvalidInput, match="1/epsilon"):
                f(np.zeros((2, 3)), 1e-320)
        D = reweight_matrix(np.zeros((2, 3)), 1e-308)  # 2/epsilon overflows
        np.testing.assert_array_equal(D, np.eye(3) / 1e-308)
        assert np.isfinite(volume_regularizer(np.zeros((2, 3)), 1e-308))


class TestMvskmObjective:
    def test_hand_example(self):
        Xc = np.array([[1.0, -1.0]])
        F = np.array([[1.0, -1.0]])
        G = np.eye(2)
        lam = 0.7
        expected = 0.5 * lam * (math.log(2 + EPS) + math.log(EPS))
        assert mvskm_objective(Xc, F, G, lam, EPS) == pytest.approx(expected, rel=1e-12)

    def test_lambda_zero_is_reconstruction(self):
        rng = np.random.default_rng(3)
        Xc, F = rng.standard_normal((3, 20)), rng.standard_normal((3, 2))
        G = random_row_stochastic(3, 20, 2)
        expected = float(np.sum((Xc - F @ G.T) ** 2))
        assert mvskm_objective(Xc, F, G, 0.0, EPS) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        Xc, F = rng.standard_normal((2, 140)), rng.standard_normal((2, 3))
        with pytest.raises(InvalidInput, match="shape mismatch"):
            mvskm_objective(Xc, F, np.full((1, 3), 1 / 3), 1.0, EPS)

    def test_gradient_in_prototypes(self):
        # d/dF [ ||Xc - F G^T||^2 + (lam/2) sum log(sigma_i^2 + eps) ]
        #   = 2 (F G^T - Xc) G + lam * F * reweight_matrix(F)
        rng = np.random.default_rng(21)
        Xc = rng.standard_normal((3, 15))
        F = rng.standard_normal((3, 3))
        G = random_row_stochastic(4, 15, 3)
        lam, eps = 0.9, 1e-4
        grad = 2.0 * (F @ G.T - Xc) @ G + lam * F @ reweight_matrix(F, eps)
        h = 1e-6
        for i in range(3):
            for j in range(3):
                Fp, Fm = F.copy(), F.copy()
                Fp[i, j] += h
                Fm[i, j] -= h
                fd = (mvskm_objective(Xc, Fp, G, lam, eps) - mvskm_objective(Xc, Fm, G, lam, eps)) / (2 * h)
                assert fd == pytest.approx(grad[i, j], rel=1e-5, abs=1e-7)


class TestSolveMvskm:
    def test_descent_across_lambdas(self):
        X = random_instance(40, 3, 60)
        for lam in (0.01, 0.1, 1.0, 10.0):
            _, state = solve_mvskm(X, 3, MvskmOptions(lam=lam, seed=1, max_outer_iters=50))
            t = np.asarray(state.objective_trace)
            slack = 1e-9 * max(1.0, float(np.abs(t).max()))
            assert float(np.diff(t).max()) <= slack

    def test_trace_respects_log_floor(self):
        # reconstruction >= 0 and each log term >= log(eps)
        X = random_instance(41, 2, 30)
        opts = MvskmOptions(lam=2.0, epsilon=1e-6, seed=3, max_outer_iters=40)
        _, state = solve_mvskm(X, 3, opts)
        floor = 0.5 * opts.lam * 3 * math.log(opts.epsilon)
        assert min(state.objective_trace) >= floor

    def test_lambda_zero_tracks_plain_alternation(self, monkeypatch):
        X = random_instance(42, 3, 50)
        F0 = X[:, [3, 17, 31]]
        n_steps = 12
        monkeypatch.setattr(am_module, "RIDGE", 0.0)
        _, am_trace = solve_am(X, 3, AmOptions(init=F0, rel_obj_tol=0.0, max_outer_iters=n_steps))
        _, state = solve_mvskm(
            X, 3, MvskmOptions(lam=0.0, init=F0, rel_obj_tol=0.0, max_outer_iters=n_steps)
        )
        # the same alternation in centered coordinates with exact membership
        # solves on both sides, so the traces differ by round-off only
        np.testing.assert_allclose(state.objective_trace, am_trace, rtol=1e-12)

    def test_solution_objective_is_plain_reconstruction(self):
        X = random_instance(43, 2, 40)
        sol, state = solve_mvskm(X, 2, MvskmOptions(lam=0.5, seed=5))
        R = X - sol.prototypes @ sol.membership.T
        assert sol.objective == pytest.approx(float(np.sum(R * R)), rel=1e-12)
        # state lives in centered coordinates
        np.testing.assert_allclose(
            sol.prototypes, state.F + X.mean(axis=1, keepdims=True), atol=1e-12
        )

    def test_state_fields_consistent(self):
        X = random_instance(44, 3, 35)
        opts = MvskmOptions(lam=0.3, seed=7)
        _, state = solve_mvskm(X, 3, opts)
        assert isinstance(state, MvskmState)
        np.testing.assert_allclose(state.D, reweight_matrix(state.F, opts.epsilon), atol=1e-12)
        s = np.zeros(3)
        sv = np.linalg.svd(state.F, compute_uv=False)
        s[: sv.size] = sv
        np.testing.assert_allclose(state.sigma, s, atol=1e-12)
        assert len(state.objective_trace) <= opts.max_outer_iters + 1

    def test_membership_stays_feasible(self):
        X = random_instance(45, 2, 80)
        sol, _ = solve_mvskm(X, 4, MvskmOptions(lam=1.0, seed=2))
        assert sol.membership.min() >= -1e-12
        np.testing.assert_allclose(sol.membership.sum(axis=1), 1.0, atol=1e-10)

    def test_stronger_penalty_shrinks_simplex(self):
        X = random_instance(46, 2, 120, scale=2.0)
        _, loose = solve_mvskm(X, 3, MvskmOptions(lam=0.01, seed=0, max_outer_iters=60))
        _, tight = solve_mvskm(X, 3, MvskmOptions(lam=10.0, seed=0, max_outer_iters=60))
        vol_loose = float(np.prod(loose.sigma[:2]))
        vol_tight = float(np.prod(tight.sigma[:2]))
        assert vol_tight < vol_loose

    def test_membership_refresh_never_increases(self):
        rng = np.random.default_rng(47)
        Xc = center(rng.standard_normal((3, 25))).centered
        F = rng.standard_normal((3, 3))
        G = random_row_stochastic(5, 25, 3)
        before = float(np.sum((Xc - F @ G.T) ** 2))
        G2 = solve_membership(F, Xc, warm=G)
        after = float(np.sum((Xc - F @ G2.T) ** 2))
        assert after <= before + 1e-9

    def test_deterministic_for_seed(self):
        X = random_instance(48, 2, 40)
        sol1, st1 = solve_mvskm(X, 2, MvskmOptions(lam=0.2, seed=11))
        sol2, st2 = solve_mvskm(X, 2, MvskmOptions(lam=0.2, seed=11))
        np.testing.assert_array_equal(sol1.prototypes, sol2.prototypes)
        assert st1.objective_trace == st2.objective_trace

    def test_option_validation(self):
        # the records share their loop defaults, and every record that carries
        # a field rejects its bad values when built
        def run_config(**fields):
            return RunConfig(**{"solver": "mvskm", "k": 2, "input_path": "a",
                                "output_dir": "b", "lam": 1.0, **fields})

        mvskm = partial(MvskmOptions, lam=1.0)
        loop = (AmOptions, mvskm, run_config)
        for name in ("max_outer_iters", "rel_obj_tol", "init", "seed"):
            assert getattr(AmOptions(), name) == getattr(mvskm(), name)
        assert AmOptions().max_outer_iters == run_config().max_outer_iters == 300
        cases = [("max_outer_iters", 0, loop), ("max_outer_iters", 2.5, loop),
                 ("max_outer_iters", True, loop), ("rel_obj_tol", -1e-3, loop),
                 ("rel_obj_tol", None, loop), ("seed", -1, loop), ("seed", 1.5, loop),
                 ("init", "kmeans++", (AmOptions, mvskm)),
                 ("lam", -0.1, (mvskm, run_config)), ("lam", "1", (mvskm, run_config)),
                 ("lam", True, (mvskm, run_config)), ("lam", None, (mvskm, run_config)),
                 ("epsilon", 0.0, (mvskm, run_config))]
        for name, value, records in cases:
            for make in records:
                with pytest.raises(InvalidInput):
                    make(**{name: value})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fields, each_value", [
        ({"lam": math.inf}, True), ({"lam": math.nan}, True), ({"lam": 10**400}, True),
        ({"epsilon": math.inf}, True), ({"rel_obj_tol": math.inf}, True),
        ({"lam": 1e308}, False), ({"epsilon": 1e-320}, False),
        ({"lam": np.float64(1e300), "epsilon": np.float64(1e-10)}, False),
    ])
    def test_options_finite_and_representable(self, fields, each_value):
        # every value is finite, and for mvskm so are 1/epsilon and
        # lam/(2 epsilon), the largest entries of D and of (lam/2) D; a value
        # is checked whatever the solver, the pair by MvskmOptions alone, and
        # no check warns
        config = partial(RunConfig, k=2, input_path="a", output_dir="b", lam=1.0)
        for make in (partial(MvskmOptions, lam=1.0), partial(config, solver="mvskm")):
            with pytest.raises(InvalidInput):
                make(**fields)
        if each_value:
            with pytest.raises(InvalidInput):
                config(solver="am", **fields)
        else:
            config(solver="am", **fields)

    @pytest.mark.filterwarnings("error")
    def test_large_finite_penalty_accepted(self):
        # lam/(2 epsilon) = 5e307 at the default epsilon: accepted, and solved finitely
        opts = MvskmOptions(lam=1e300, max_outer_iters=3)
        _, state = solve_mvskm(random_instance(51, 2, 12), 3, opts)
        assert np.isfinite(state.objective_trace).all()

    def test_requires_options_instance(self):
        X = random_instance(49, 2, 10)
        with pytest.raises(InvalidInput):
            solve_mvskm(X, 2, None)
        with pytest.raises(InvalidInput):
            solve_mvskm(X, 2, AmOptions())

    def test_k_and_init_validation(self):
        X = random_instance(50, 2, 10)
        opts = MvskmOptions(lam=1.0)
        with pytest.raises(InvalidInput):
            solve_mvskm(X, 1, opts)
        with pytest.raises(InvalidInput):
            solve_mvskm(X, 11, opts)
        with pytest.raises(InvalidInput):
            solve_mvskm(X, 2, MvskmOptions(lam=1.0, init=np.ones((3, 2))))
        with pytest.raises(InvalidInput):
            solve_mvskm(X, 2, MvskmOptions(lam=1.0, init="farthest"))
