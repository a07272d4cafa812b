import numpy as np
import pytest

import softkm.audits
from conftest import decomposable_instance, random_instance
from softkm import (
    InvalidInput,
    KernelMatrix,
    NotPositiveSemidefinite,
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
