import tracemalloc

import numpy as np
import pytest

import softkm.audits
from conftest import decomposable_instance, overflowing_perturbation, random_instance
from softkm import (
    InvalidInput,
    KernelMatrix,
    NotPositiveSemidefinite,
    NumericalFailure,
    StabilityReport,
    center,
    infinity_bound,
    is_skmable,
    is_ti_lsdable,
    kernel_embed,
    nonuniqueness_gap,
    numerical_rank,
    objective,
    simplex_complement_basis,
    solve_global,
    stability_audit,
)
from softkm.core import double_center


class TestIsSkmable:
    def test_collinear_points(self):
        t = np.linspace(-2.0, 3.0, 9)
        X = np.vstack([1.0 + 2.0 * t, -0.5 * t])  # a line in the plane
        assert is_skmable(X, 2)
        assert not is_skmable(X, 1)

    def test_generic_data_is_not(self):
        X = random_instance(0, 4, 50)
        assert not is_skmable(X, 3)
        assert is_skmable(X, 5)  # centered rank is at most d

    def test_single_sample(self):
        assert is_skmable(np.array([[3.0], [1.0]]), 1)

    def test_constructed_factorization(self):
        X, _, _ = decomposable_instance(7, 5, 40, 3)
        assert is_skmable(X, 3)
        assert not is_skmable(X, 2)

    def test_accepts_data_matrix(self):
        X = random_instance(1, 3, 20)
        assert is_skmable(center(X), 4) == is_skmable(X, 4)

    def test_k_validation(self):
        with pytest.raises(InvalidInput):
            is_skmable(np.eye(2), 0)

    def test_rank_bound_at_min_side_skips_centering(self, monkeypatch):
        # k - 1 >= min(d, n) is answered without centering; X and tau are
        # still checked, and k is checked as before
        X = random_instance(2, 3, 20)
        Xn = X.copy()
        Xn[1, 7] = np.nan
        monkeypatch.setattr(softkm.audits, "_center_view", lambda X: pytest.fail("centered"))
        assert is_skmable(X, 4) and is_skmable(X, 40) and is_skmable(X.T, 4)
        assert is_skmable(X.tolist(), 4) and is_skmable(center(X), 4)
        for bad in (Xn, np.where(np.isnan(Xn), -np.inf, Xn)):
            with pytest.raises(InvalidInput, match="non-finite"):
                is_skmable(bad, 4)
        with pytest.raises(InvalidInput, match="tau must be positive"):
            is_skmable(X, 4, tau=0.0)
        monkeypatch.undo()
        for k in (0, 4.0, True, None):
            with pytest.raises(InvalidInput, match="k must be an integer >= 1"):
                is_skmable(X, k)
        for empty in (np.zeros((0, 3)), np.zeros((3, 0)), []):
            with pytest.raises(InvalidInput, match="empty"):
                is_skmable(empty, 5)


class TestIsTiLsdable:
    def test_constant_kernel(self):
        # ones ones^T double-centers to zero, rank 0
        assert is_ti_lsdable(np.ones((6, 6)), 1)

    def test_gram_of_collinear_points(self):
        t = np.linspace(0.0, 4.0, 8)
        X = np.vstack([t, 2.0 * t])
        assert is_ti_lsdable(X.T @ X, 2)
        assert not is_ti_lsdable(X.T @ X, 1)

    def test_identity_kernel(self):
        assert not is_ti_lsdable(np.eye(10), 3)
        assert is_ti_lsdable(np.eye(10), 10)

    def test_agrees_with_gram_bridge(self):
        # H (X^T X) H = (centered X)^T (centered X), so the two audits agree
        for seed in range(5):
            X = random_instance(60 + seed, 3, 15)
            for k in (1, 2, 3, 4):
                assert is_ti_lsdable(X.T @ X, k) == is_skmable(X, k)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            is_ti_lsdable(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    def test_rejects_ragged(self):
        with pytest.raises(InvalidInput, match="kernel"):
            is_ti_lsdable([[1.0, 2.0], [3.0]], 1)

    def test_accepts_kernel_matrix(self):
        K = KernelMatrix(np.ones((4, 4)))
        assert is_ti_lsdable(K, 1)


class TestRankPath:
    """Which audits reach the exact numerical_rank: a certified sketch
    decides clear cases, and only an answer at the threshold falls back."""

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        calls = []
        exact = softkm.audits.numerical_rank
        monkeypatch.setattr(softkm.audits, "numerical_rank",
                            lambda A, tau: calls.append(A.shape) or exact(A, tau))
        return calls

    def test_low_rank_kernel_needs_no_exact_rank(self, exact_calls):
        Y = np.random.default_rng(8).standard_normal((5, 600)) + 1.0
        K = Y.T @ Y  # H K H = (Y H)^T (Y H) has rank 5
        assert is_ti_lsdable(K, 6)
        assert not is_ti_lsdable(K, 5)
        assert exact_calls == []

    def test_rank_bound_at_feature_count_needs_no_decomposition(self, exact_calls):
        X = random_instance(9, 30, 200)
        assert is_skmable(X, 31)
        assert exact_calls == []

    def test_singular_value_at_threshold_falls_back_once(self, exact_calls):
        # centered data whose fourth singular value is tau times the first
        tau, n = 1e-10, 200
        rng = np.random.default_rng(10)
        U = np.linalg.qr(rng.standard_normal((40, 4)))[0]
        V = simplex_complement_basis(n)[:, :4]  # columns orthogonal to ones
        X = (U * np.array([1.0, 0.5, 0.25, tau])) @ V.T
        assert is_skmable(X, 4, tau) == (numerical_rank(center(X).centered, tau) <= 3)
        assert exact_calls == [(40, n)]


class TestKernelMatrix:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            KernelMatrix(np.ones((2, 3)))
        with pytest.raises(InvalidInput):
            KernelMatrix(np.array([[np.nan]]))
        with pytest.raises(InvalidInput):
            KernelMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("rel, ok", [(1e-12, True), (1e-8, False)])
    def test_symmetry_tolerance(self, rel, ok):
        K = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 1.0]])
        K[0, 1] += rel * np.linalg.norm(K)
        if ok:
            assert np.array_equal(KernelMatrix(K).K, K)
        else:
            with pytest.raises(InvalidInput, match="not symmetric"):
                KernelMatrix(K)

    def test_symmetrizes_nothing(self):
        K = KernelMatrix(np.eye(3))
        assert K.n == 3
        with pytest.raises(ValueError):
            K.K[0, 0] = 5.0  # read-only


class TestKernelEmbed:
    def test_identity(self):
        Y = kernel_embed(np.eye(4))
        np.testing.assert_allclose(Y.T @ Y, np.eye(4), atol=1e-12)

    def test_round_trip_low_rank(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 12))
        K = A.T @ A
        Y = kernel_embed(K)
        assert Y.shape[0] == 3
        np.testing.assert_allclose(Y.T @ Y, K, rtol=1e-7, atol=1e-9)

    def test_rejects_indefinite(self):
        K = np.diag([1.0, -0.5])
        with pytest.raises(NotPositiveSemidefinite):
            kernel_embed(K)

    def test_zero_kernel(self):
        Y = kernel_embed(np.zeros((5, 5)))
        assert Y.shape == (1, 5)
        assert not Y.any()

    def test_tau_validation(self):
        with pytest.raises(InvalidInput):
            kernel_embed(np.eye(2), tau=0.0)

    def test_embedding_solves_match_kernel_spectrum(self):
        # the reconstruction optimum on the embedding equals the tail of the
        # doubly centered kernel spectrum
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 10))
        K = A.T @ A
        Y = kernel_embed(K)
        sol, _ = solve_global(Y, 3)
        lam = np.linalg.eigvalsh(double_center(K))[::-1]
        expected = float(np.clip(lam[2:], 0.0, None).sum())
        assert sol.objective == pytest.approx(expected, rel=1e-8, abs=1e-10)


class TestStabilityAudit:
    def test_zero_perturbation(self):
        X = random_instance(4, 3, 30)
        rep = stability_audit(X, np.zeros_like(X), 2)
        assert isinstance(rep, StabilityReport)
        assert rep.holds
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-10)  # slack is ~0

    def test_random_perturbations(self):
        X = random_instance(5, 3, 40)
        for seed, scale in enumerate((0.01, 0.1, 1.0)):
            E = scale * np.linalg.norm(X) * _unit(seed, X.shape)
            rep = stability_audit(X, E, 3)
            assert rep.holds
            assert rep.slack >= -1e-8 * rep.rhs

    def test_energy_of_any_layout(self):
        # rhs = 2 ||E||_F^2 plus the clean optimum, whatever E's memory order
        X = random_instance(9, 3, 40)
        E = np.asfortranarray(random_instance(10, 3, 40))
        clean = solve_global(X, 2)[0].objective
        for Ei in (E, np.ascontiguousarray(E), np.hstack([E, E])[:, :40]):
            rep = stability_audit(X, Ei, 2)
            assert rep.rhs == pytest.approx(2.0 * float(np.sum(E * E)) + clean, rel=1e-13)

    def test_cancelling_perturbation(self):
        # E = -centered X collapses the perturbed data onto its mean
        X = random_instance(6, 2, 25)
        rep = stability_audit(X, -center(X).centered, 2)
        assert rep.holds

    def test_shape_mismatch(self):
        X = random_instance(7, 2, 10)
        with pytest.raises(InvalidInput):
            stability_audit(X, np.zeros((3, 10)), 2)

    def test_non_finite_perturbation(self):
        X = random_instance(8, 2, 10)
        E = np.zeros_like(X)
        E[0, 0] = np.inf
        with pytest.raises(InvalidInput):
            stability_audit(X, E, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_perturbation(self):
        X, E = overflowing_perturbation()
        with pytest.raises(NumericalFailure, match="overflows"):
            stability_audit(X, E, 3)
        with pytest.raises(InvalidInput, match="match the data shape"):
            stability_audit(X, E[:, :-1], 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_bound(self):
        # ||E||_F^2 ~ 1.4e308 is finite, but 2 ||E||_F^2 plus the optimum is not
        rng = np.random.default_rng(0)
        X = 1e152 * rng.standard_normal((5, 20))
        E = 1.2e153 * rng.standard_normal((5, 20))
        with pytest.raises(NumericalFailure, match="overflows"):
            stability_audit(X, E, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_perturbed_optimum_energy_may_overflow(self):
        # at k = 1 and E = Xc the perturbed objective 4 ||Xc||_F^2 ~ 2.3e308
        # overflows, but the audit never reads it and every value is finite
        X = random_instance(1, 5, 20, scale=9e152)
        rep = stability_audit(X, center(X).centered, 1)
        assert rep.holds and np.isfinite([rep.lhs, rep.rhs, rep.slack]).all()


class TestWorkingMemory:
    """Each audit holds one working copy of its input: its tracemalloc peak
    is at most 1.6 times the input array."""

    @pytest.fixture(scope="class")
    def inputs(self):
        X = random_instance(41, 100, 20_000)
        Y = np.random.default_rng(43).standard_normal((9, 1000)) + 1.0
        K = Y.T @ Y  # H K H has rank 9, so is_ti_lsdable(K, 10) runs the residual pass
        return X, 0.1 * random_instance(42, 100, 20_000), 0.5 * (K + K.T)

    @pytest.mark.parametrize("audit", ["stability_audit", "is_skmable", "is_ti_lsdable"])
    def test_peak_is_one_working_copy(self, inputs, audit):
        X, E, K = inputs
        call, size = {
            "stability_audit": (lambda: stability_audit(X, E, 10), X.nbytes),
            "is_skmable": (lambda: is_skmable(X, 10), X.nbytes),
            "is_ti_lsdable": (lambda: is_ti_lsdable(K, 10), K.nbytes),
        }[audit]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * size


def _unit(seed, shape):
    E = np.random.default_rng(100 + seed).standard_normal(shape)
    return E / np.linalg.norm(E)


class TestNonuniquenessGap:
    def test_two_point_line(self):
        X = np.array([[-1.0, 1.0]])
        G1, G2, gap, (o1, o2) = nonuniqueness_gap(X, 2)
        assert gap == pytest.approx(2.0, abs=1e-12)
        assert o1 == o2
        np.testing.assert_allclose(G1 + G2, np.ones((2, 2)), atol=1e-12)

    def test_scale_invariant(self):
        X = random_instance(9, 3, 30)
        _, _, gap, _ = nonuniqueness_gap(X, 3)
        _, _, gap10, _ = nonuniqueness_gap(10.0 * X, 3)
        assert gap10 == pytest.approx(gap, rel=1e-9)

    def test_matches_spectral_identity(self):
        for seed in range(5):
            X = random_instance(70 + seed, 4, 35)
            k = 3
            _, gf = solve_global(X, k)
            _, _, gap, (o1, o2) = nonuniqueness_gap(X, k)
            expected = 2.0 / gf.a * float(np.linalg.norm(gf.sigma))
            assert gap == pytest.approx(expected, rel=1e-7)
            assert o1 == o2

    def test_both_memberships_feasible(self):
        X = random_instance(10, 2, 20)
        G1, G2, _, _ = nonuniqueness_gap(X, 2)
        for G in (G1, G2):
            assert G.min() >= -1e-12
            np.testing.assert_allclose(G.sum(axis=1), 1.0, atol=1e-10)

    def test_k_validation(self):
        with pytest.raises(InvalidInput):
            nonuniqueness_gap(np.eye(3), 1)


class TestRoundTrips:
    def test_skmable_means_exact_factorization(self):
        X, _, _ = decomposable_instance(11, 4, 30, 3)
        assert is_skmable(X, 3)
        sol, _ = solve_global(X, 3)
        assert sol.objective <= 1e-10 * float(np.sum(X * X))

    def test_not_skmable_means_positive_objective(self):
        X = random_instance(12, 4, 30)
        assert not is_skmable(X, 3)
        s = np.linalg.svd(center(X).centered, compute_uv=False)
        sol, _ = solve_global(X, 3)
        assert sol.objective >= 0.5 * s[2] ** 2

    def test_prototype_norm_bound_by_sampling(self):
        # any simplex combination of prototypes stays inside the prototype
        # norm ball, the fact behind the sup-ratio bound sqrt(k(k-1))/k
        rng = np.random.default_rng(13)
        X = random_instance(14, 3, 25)
        sol, gf = solve_global(X, 3)
        Fc = sol.prototypes - sol.prototypes.mean(axis=1, keepdims=True)
        col_norms = np.linalg.norm(Fc, axis=0)
        g = rng.dirichlet(np.ones(3), size=10_000)
        combo_norms = np.linalg.norm(Fc @ g.T, axis=0)
        assert float(combo_norms.max()) <= col_norms.max() + 1e-12
        # the prototype radius is a * sqrt((k-1)/k) = a * infinity_bound(k)
        # which collapses to r * (k - 1)
        expected_radius = gf.a * infinity_bound(3)
        np.testing.assert_allclose(col_norms, expected_radius, rtol=1e-10)
        assert expected_radius == pytest.approx(2.0 * gf.r, rel=1e-12)
