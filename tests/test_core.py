import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance, random_orthogonal
from softkm import (
    InvalidInput,
    Solution,
    center,
    numerical_rank,
    simplex_complement_basis,
    truncated_svd,
)
from softkm.core import _SYMMETRY_TILE, _exactly_symmetric, _rank_at_most, double_center


def check_truncated_svd(A, m, sigma_rtol=1e-12):
    """truncated_svd(A, m) against np.linalg.svd: sigma, orthonormal factors,
    the tail-energy identity, U^T A = diag(sigma) V^T and the sign rule."""
    U, s, V = truncated_svd(A, m)
    p, q = A.shape
    full = np.linalg.svd(A, compute_uv=False)
    fro2 = float(np.sum(A * A))
    scale = max(float(full[0]), np.finfo(float).tiny)
    assert U.shape == (p, m) and s.shape == (m,) and V.shape == (q, m)
    if sigma_rtol is not None:
        np.testing.assert_allclose(s, full[:m], rtol=sigma_rtol, atol=1e-14 * scale)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    np.testing.assert_allclose(U.T @ U, np.eye(m), atol=1e-10)
    np.testing.assert_allclose(V.T @ V, np.eye(m), atol=1e-10)
    resid = float(np.sum((A - U @ (s[:, None] * V.T)) ** 2))
    assert abs(resid - float(np.sum(full[m:] ** 2))) <= 1e-8 * fro2
    np.testing.assert_allclose(U.T @ A, s[:, None] * V.T, rtol=0, atol=1e-12 * scale)
    for j in range(m):
        assert U[np.argmax(np.abs(U[:, j])), j] > 0
    return U, s, V


class TestCenter:
    def test_two_point_line(self):
        X = center(np.array([[-1.0, 1.0]]))
        assert X.mean == pytest.approx([0.0])
        np.testing.assert_allclose(X.centered, [[-1.0, 1.0]])

    def test_mean_and_reconstruction(self):
        X = center(np.array([[1.0, 3.0], [2.0, 4.0]]))
        np.testing.assert_allclose(X.mean, [2.0, 3.0])
        np.testing.assert_allclose(X.centered, [[-1.0, 1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(X.values, X.centered + X.mean[:, None])

    def test_identical_columns_center_to_zero(self):
        X = center(np.full((3, 5), 7.5))
        np.testing.assert_allclose(X.centered, 0.0, atol=1e-12)

    def test_rows_sum_to_zero(self):
        X = center(random_instance(3, 6, 40, scale=10.0))
        rowsums = X.centered.sum(axis=1)
        mags = np.abs(X.values).max(axis=1)
        assert np.all(np.abs(rowsums) <= 1e-10 * 40 * np.maximum(mags, 1.0))

    def test_idempotent(self):
        X = center(random_instance(4, 5, 30))
        Y = center(X.centered)
        np.testing.assert_allclose(Y.mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(Y.centered, X.centered, atol=1e-12)

    def test_data_matrix_comes_back_unchanged(self):
        X = center(random_instance(4, 5, 30))
        assert center(X) is X

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInput):
            center(np.zeros((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            center(np.array([[1.0, np.nan]]))

    def test_one_dim_input_is_single_row(self):
        X = center([1.0, 2.0, 3.0])
        assert X.values.shape == (1, 3)

    def test_immutable(self):
        X = center(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            X.values[0, 0] = 9.0


class TestSolution:
    @pytest.mark.parametrize("F, G", [
        (np.eye(2), np.array([[np.nan, 0.5], [0.5, 0.5]])),
        (np.array([[np.nan, 1.0], [0.0, 1.0]]), np.full((2, 2), 0.5)),
    ], ids=["membership", "prototypes"])
    def test_non_finite_rejected(self, F, G):
        with pytest.raises(InvalidInput, match="finite"):
            Solution(F, G, 1.0)

    def test_coerces_array_likes(self):
        sol = Solution(np.eye(2), [[0.5, 0.5], [0.5, 0.5]], 1.0)
        assert isinstance(sol.membership, np.ndarray) and sol.k == 2
        np.testing.assert_array_equal(sol.membership, np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            sol.membership[0, 0] = 1.0  # read-only like the prototypes

    @pytest.mark.parametrize("F, G", [
        (np.eye(2), [[0.5, 0.5], [1.0]]),
        ("not numbers", np.full((2, 2), 0.5)),
        (np.zeros((2, 2, 2)), np.full((2, 2), 0.5)),
    ], ids=["ragged", "text", "3-d"])
    def test_malformed_raises_invalid_input(self, F, G):
        with pytest.raises(InvalidInput):
            Solution(F, G, 1.0)


def explicit_double_center(K):
    n = K.shape[0]
    H = np.eye(n) - np.full((n, n), 1.0 / n)
    return H @ K @ H


def symmetric_kernel(seed, n, r):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((r, n)) + 1.0
    K = Y.T @ Y
    return 0.5 * (K + K.T)


class TestDoubleCenter:
    @pytest.mark.parametrize("seed,n", [(0, 1), (1, 5), (2, 40), (3, 301)])
    def test_symmetric_kernel_gives_exactly_symmetric_result(self, seed, n):
        M = double_center(symmetric_kernel(seed, n, 4))
        assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("seed,n", [(4, 6), (5, 50), (6, 200)])
    def test_matches_explicit_hkh(self, seed, n, symmetric):
        K = symmetric_kernel(seed, n, 3)
        if not symmetric:
            K = K + np.random.default_rng(seed).standard_normal((n, n))
        M = double_center(K)
        assert np.abs(M - explicit_double_center(K)).max() <= 1e-14 * np.abs(K).max()

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_rows_and_columns_sum_to_zero(self, symmetric):
        K = symmetric_kernel(7, 120, 5)
        if not symmetric:
            K = K + np.triu(K)
        M = double_center(K)
        tol = 1e-13 * np.abs(K).max() * K.shape[0]
        assert np.abs(M.sum(axis=0)).max() <= tol
        assert np.abs(M.sum(axis=1)).max() <= tol


class TestExactlySymmetric:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_agrees_with_array_equal_in_every_tile(self, n):
        K = symmetric_kernel(n, n, 3)
        assert _exactly_symmetric(K) and np.array_equal(K, K.T)
        t = _SYMMETRY_TILE
        starts = range(0, n, t)
        # one entry in each tile: the diagonal tiles, the ones above and
        # below it, and the last partial row and column of tiles
        for i0 in starts:
            for j0 in starts:
                i, j = min(i0 + 1, n - 1), min(j0 + t // 2, n - 1)
                if i == j:  # a 1 x 1 diagonal tile has no off-diagonal entry
                    continue
                A = K.copy()
                A[i, j] += 1.0
                assert not _exactly_symmetric(A) and not np.array_equal(A, A.T)
        A = K.copy()
        A[n - 1, 0] = np.nan
        assert not _exactly_symmetric(A) and not np.array_equal(A, A.T)

    def test_non_square_is_not_symmetric(self):
        assert not _exactly_symmetric(np.zeros((3, 4)))
        assert not _exactly_symmetric(np.zeros(3))


class TestSimplexComplementBasis:
    def test_k2(self):
        B = simplex_complement_basis(2)
        np.testing.assert_allclose(B, [[0.7071067811865475], [-0.7071067811865475]],
                                   atol=1e-15)

    def test_k3(self):
        B = simplex_complement_basis(3)
        s2, s6 = 1 / np.sqrt(2), 1 / np.sqrt(6)
        np.testing.assert_allclose(B[:, 0], [s2, -s2, 0.0], atol=1e-15)
        np.testing.assert_allclose(B[:, 1], [s6, s6, -2 * s6], atol=1e-15)

    @pytest.mark.parametrize("k", list(range(2, 33)))
    def test_orthonormal_and_ones_orthogonal(self, k):
        B = simplex_complement_basis(k)
        assert B.shape == (k, k - 1)
        assert np.abs(B.T @ B - np.eye(k - 1)).max() <= 1e-10
        assert np.abs(np.ones(k) @ B).max() <= 1e-12

    def test_rows_span_complement(self):
        # B B^T is the centering projector I - ones ones^T / k
        k = 7
        B = simplex_complement_basis(k)
        P = np.eye(k) - np.full((k, k), 1.0 / k)
        np.testing.assert_allclose(B @ B.T, P, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_small_k_rejected(self, k):
        with pytest.raises(InvalidInput):
            simplex_complement_basis(k)


class TestTruncatedSvd:
    def test_diagonal(self):
        A = np.diag([3.0, 2.0, 1.0])
        U, s, V = truncated_svd(A, 2)
        np.testing.assert_allclose(s, [3.0, 2.0])
        resid = A - U @ np.diag(s) @ V.T
        assert np.sum(resid ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_identity_full(self):
        U, s, V = truncated_svd(np.eye(4), 4)
        np.testing.assert_allclose(s, np.ones(4))
        np.testing.assert_allclose(U @ V.T, np.eye(4), atol=1e-12)

    def test_residual_is_tail_energy(self):
        A = random_instance(11, 6, 10)
        full = np.linalg.svd(A, compute_uv=False)
        for m in (1, 3, 5):
            U, s, V = truncated_svd(A, m)
            np.testing.assert_allclose(s, full[:m], rtol=1e-12)
            resid = float(np.sum((A - U @ np.diag(s) @ V.T) ** 2))
            tail = float(np.sum(full[m:] ** 2))
            assert abs(resid - tail) <= 1e-8 * max(tail, 1.0)

    def test_orthonormal_factors(self):
        A = random_instance(13, 8, 12)
        U, s, V = truncated_svd(A, 4)
        np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)

    def test_sign_pinning(self):
        A = random_instance(17, 7, 9)
        U, s, V = truncated_svd(A, 3)
        for j in range(3):
            assert U[np.argmax(np.abs(U[:, j])), j] > 0
        # flipping the data still reconstructs, signs stay pinned
        U2, s2, V2 = truncated_svd(-A, 3)
        for j in range(3):
            assert U2[np.argmax(np.abs(U2[:, j])), j] > 0

    @pytest.mark.parametrize("m", [0, 7, -1])
    def test_rank_out_of_range(self, m):
        with pytest.raises(InvalidInput):
            truncated_svd(np.eye(5), m)

    @pytest.mark.parametrize("shape,m", [((40, 7), 3), ((7, 40), 3), ((12, 12), 5),
                                         ((3, 200), 3), ((200, 3), 1)])
    def test_matches_full_svd(self, shape, m):
        check_truncated_svd(random_instance(23, *shape), m)

    @pytest.mark.parametrize("shape", [(8, 15), (15, 8)])
    def test_rank_deficient_beyond_rank(self, shape):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
        U, s, V = check_truncated_svd(A, 5, sigma_rtol=None)
        full = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(s[:2], full[:2], rtol=1e-12)
        # below sqrt(eps) sigma_1 the short-side Gram matrix resolves nothing
        assert np.all(s[2:] <= 1e-7 * s[0])

    def test_zero_matrix(self):
        U, s, V = check_truncated_svd(np.zeros((4, 6)), 3)
        np.testing.assert_array_equal(s, 0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_near_tied_singular_values(self, m):
        # sigma_2 and sigma_3 differ by 1e-12, so their singular vectors are
        # ill-determined; m = 2 splits the pair, and sigma must still match
        sigma = np.array([3.0, 2.0 + 1e-12, 2.0, 1.0, 0.5])
        A = random_orthogonal(37, 9)[:, :5] @ (sigma[:, None] * random_orthogonal(41, 5).T)
        check_truncated_svd(A, m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        A = random_instance(43, 4, 6)
        A[1, 2] = bad
        with pytest.raises(InvalidInput):
            truncated_svd(A, 2)


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 6))) == 0

    def test_outer_product(self):
        u = np.arange(1.0, 5.0)
        assert numerical_rank(np.outer(u, u)) == 1

    def test_centering_projector(self):
        H = np.eye(3) - np.full((3, 3), 1.0 / 3.0)
        assert numerical_rank(H) == 2

    def test_scale_invariant(self):
        A = random_instance(5, 4, 9)
        assert numerical_rank(A) == numerical_rank(1e6 * A) == numerical_rank(1e-6 * A)

    def test_orthogonal_invariance(self):
        A = random_instance(7, 5, 8)
        for seed in range(5):
            Q = random_orthogonal(seed, 5)
            assert numerical_rank(Q @ A) == numerical_rank(A)

    def test_near_rank_deficient(self):
        A = np.diag([1.0, 1e-3, 1e-14])
        assert numerical_rank(A) == 2
        assert numerical_rank(A, tau=1e-4) == 2
        assert numerical_rank(A, tau=1e-2) == 1

    def test_bad_tau(self):
        with pytest.raises(InvalidInput):
            numerical_rank(np.eye(2), tau=0.0)

    @pytest.mark.parametrize("shape,r", [((6, 40), 3), ((40, 6), 3), ((9, 9), 4), ((5, 7), 5)])
    def test_transpose_invariant(self, shape, r):
        rng = np.random.default_rng(47)
        A = rng.standard_normal((shape[0], r)) @ rng.standard_normal((r, shape[1]))
        assert numerical_rank(A) == numerical_rank(A.T) == r

    @pytest.mark.parametrize("seed,n,r", [(0, 30, 1), (1, 50, 3), (2, 80, 6), (3, 40, 12)])
    def test_symmetric_route_agrees_with_svd(self, seed, n, r, monkeypatch):
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((r, n)) + 1.0
        M = double_center(Y.T @ Y)  # (Y H)^T (Y H), rank r
        assert np.array_equal(M, M.T)
        plain = np.linalg.svd(M, compute_uv=False)
        expected = int(np.count_nonzero(plain > 1e-10 * plain[0]))
        assert expected == r
        eigvalsh, routes = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *a, **kw: routes.append(1) or eigvalsh(*a, **kw))
        assert numerical_rank(M) == expected
        assert routes == [1]
        # a row permutation keeps the singular values and breaks symmetry
        assert numerical_rank(M[::-1]) == expected
        assert routes == [1]

    def test_symmetric_indefinite(self):
        Q = random_orthogonal(53, 6)
        S = Q[:, :3] @ np.diag([3.0, -2.0, 1e-3]) @ Q[:, :3].T
        S = 0.5 * (S + S.T)
        assert numerical_rank(S) == numerical_rank(S[::-1]) == 3
        assert numerical_rank(S, tau=1e-2) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # eigvalsh on this matrix returns finite values, a silent wrong rank
        A = np.diag([bad, 0.0, 1.0])
        with pytest.raises(InvalidInput):
            numerical_rank(A)
        with pytest.raises(InvalidInput):
            numerical_rank(random_instance(59, 3, 5) * np.array([1.0, bad, 1.0, 1.0, 1.0]))


def spectrum_instance(kind, r, level, seed):
    """A matrix with singular values (1 ... 0.05 in r steps, level, level / 3)
    and zeros beyond; "symmetric" alternates the eigenvalue signs."""
    rng = np.random.default_rng(seed)
    p, q = {"wide": (40, 120), "tall": (120, 40), "square": (70, 70), "symmetric": (70, 70)}[kind]
    sigma = np.concatenate([np.geomspace(1.0, 0.05, r), [level, level / 3]])
    U = np.linalg.qr(rng.standard_normal((p, r + 2)))[0]
    if kind == "symmetric":
        S = (U * (sigma * (-1.0) ** np.arange(r + 2))) @ U.T
        return 0.5 * (S + S.T)
    return (U * sigma) @ np.linalg.qr(rng.standard_normal((q, r + 2)))[0].T


class TestRankAtMost:
    """_rank_at_most(A, r, tau) answers numerical_rank(A, tau) <= r exactly."""

    @pytest.mark.parametrize("r", [1, 3, 8])
    @pytest.mark.parametrize("kind", ["wide", "tall", "square", "symmetric"])
    def test_agrees_with_numerical_rank(self, kind, r):
        disagree = []
        for tau in (1e-14, 1e-10, 1e-6):
            for level in (0.0, tau / 4, tau, 4 * tau, 1e-6):
                base = spectrum_instance(kind, r, level, seed=r)
                for scale in (1e-200, 1.0, 1e150):
                    A = scale * base
                    got = _rank_at_most(A, r, tau)
                    if got != (numerical_rank(A, tau) <= r):
                        disagree.append((tau, level, scale, got))
        assert disagree == []

    def test_zero_matrix(self):
        for shape in ((40, 120), (70, 70), (3, 5)):
            for r in (0, 2):
                assert _rank_at_most(np.zeros(shape), r, 1e-10)

    def test_deterministic_and_leaves_global_rng_alone(self):
        A = spectrum_instance("wide", 3, 4e-10, seed=11)
        before = np.random.get_state()
        answers = {_rank_at_most(A, 3, 1e-10) for _ in range(2)}
        after = np.random.get_state()
        assert answers == {False}
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_bad_tau(self):
        with pytest.raises(InvalidInput):
            _rank_at_most(np.eye(40), 50, 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_center_rows_sum_to_zero_property(d, seed):
    X = center(random_instance(seed, d, 17, scale=3.0))
    assert np.abs(X.centered.sum(axis=1)).max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(0, 10_000))
def test_truncated_svd_property(p, q, m, seed):
    m = min(m, p, q)
    A = random_instance(seed, p, q, scale=10.0 ** (seed % 7 - 3))
    U, s, V = check_truncated_svd(A, m, sigma_rtol=None)
    full = np.linalg.svd(A, compute_uv=False)
    # whatever the gaps, each sigma_i^2 is off by round-off of ||A||_F^2 only
    assert np.all(np.abs(s ** 2 - full[:m] ** 2) <= 1e-12 * float(np.sum(A * A)))
