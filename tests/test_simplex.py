import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softkm import (
    InvalidInput,
    MvskmOptions,
    NumericalFailure,
    center,
    project_simplex,
    solve_am,
    solve_membership,
    solve_mvskm,
)
from softkm import simplex as simplex_module


def simplex_grid(step=1e-3):
    """All points of the 3-simplex on a regular grid, used as a brute-force
    projection oracle."""
    m = int(round(1.0 / step))
    i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    keep = i + j <= m
    a = i[keep] / m
    b = j[keep] / m
    return np.column_stack([a, b, 1.0 - a - b])


GRID3 = simplex_grid()


def grid_project(v):
    d = GRID3 - v[None, :]
    return GRID3[np.argmin(np.einsum("ij,ij->i", d, d))]


def grid_solve_ls(F, x, step=1e-3):
    R = GRID3 @ F.T - x[None, :]
    return GRID3[np.argmin(np.einsum("ij,ij->i", R, R))]


def solve_one(F, x, g0=None):
    """The membership of one sample x, through the one-column batch."""
    warm = None if g0 is None else np.reshape(g0, (1, -1))
    return solve_membership(F, np.reshape(x, (-1, 1)), warm=warm)[0]


def enumerated(d, k):
    """Whether solve_membership solves a d x k prototype matrix by face
    enumeration rather than NNLS."""
    return simplex_module._face_count(d, k) <= simplex_module.MAX_FACES


def kkt_residuals(F, X, G):
    """Per-sample ||g - P(g - grad / L)|| at the Lipschitz step
    L = sigma_max(F)^2; zero exactly at the minimizer."""
    L = float(np.linalg.svd(F, compute_uv=False)[0] ** 2)
    step = G - (G @ F.T - X.T) @ F / L
    return np.linalg.norm(G - simplex_module._project_rows(step), axis=1)


def kkt_residual(F, x, g):
    return float(kkt_residuals(F, np.reshape(x, (-1, 1)), np.reshape(g, (1, -1)))[0])


def closed_form_interior(F, x):
    """Equality-constrained least squares through the thin SVD of a
    rank-(k-1) prototype matrix; valid when the result is interior."""
    k = F.shape[1]
    U, s, Vt = np.linalg.svd(F, full_matrices=False)
    U, s, V = U[:, : k - 1], s[: k - 1], Vt[: k - 1].T
    phi = V @ ((U.T @ x) / s)
    # unit null-space direction of F
    vperp = np.linalg.svd(F, full_matrices=True)[2][k - 1]
    return phi + vperp * (1.0 - phi.sum()) / vperp.sum()


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex([0.5, 0.5]), [0.5, 0.5], atol=1e-15)

    def test_single_active(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_worked_three_vector(self):
        g = project_simplex([0.6, 0.8, 0.1])
        np.testing.assert_allclose(g, [0.4, 0.6, 0.0], atol=1e-12)
        np.testing.assert_allclose(g, grid_project(np.array([0.6, 0.8, 0.1])), atol=2e-3)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.normal(size=3) * 2.0
            g = project_simplex(v)
            assert np.linalg.norm(g - grid_project(v)) <= 2e-3

    def test_large_magnitude_sums_exactly(self):
        g = project_simplex(np.array([1e6, 1e6 - 0.3, -1e6]))
        assert abs(g.sum() - 1.0) <= 1e-12
        assert g.min() >= 0.0

    def test_all_negative(self):
        g = project_simplex([-5.0, -5.0, -5.0, -5.0])
        np.testing.assert_allclose(g, 0.25, atol=1e-12)

    def test_k1(self):
        np.testing.assert_allclose(project_simplex([-3.7]), [1.0], atol=0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            project_simplex([np.inf, 0.0])

    def test_ragged_rejected(self):
        with pytest.raises(InvalidInput, match="projection input"):
            project_simplex([[1.0], [2.0, 3.0]])

    def test_kkt_structure(self):
        # active coordinates share one multiplier, inactive ones sit below it
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.normal(size=6)
            g = project_simplex(v)
            active = g > 0
            theta = (v[active] - g[active]).mean()
            assert np.abs(v[active] - g[active] - theta).max() <= 1e-9
            assert np.all(v[~active] <= theta + 1e-9)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 12),
              elements=st.floats(-1e3, 1e3, allow_nan=False)))
def test_projection_feasible_property(v):
    g = project_simplex(v)
    assert g.min() >= 0.0
    assert abs(g.sum() - 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(2, 8),
              elements=st.floats(-50, 50, allow_nan=False)),
       st.floats(-100, 100, allow_nan=False))
def test_projection_shift_invariant_property(v, c):
    np.testing.assert_allclose(project_simplex(v + c), project_simplex(v), atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(1, 8),
              elements=st.floats(-100, 100, allow_nan=False)))
def test_projection_idempotent_property(v):
    g = project_simplex(v)
    np.testing.assert_allclose(project_simplex(g), g, atol=1e-12)


class TestSolveSimplexLs:
    def test_identity_prototypes_interior(self):
        x = np.array([0.2, 0.3, 0.5])
        g = solve_one(np.eye(3), x)
        np.testing.assert_allclose(g, x, atol=1e-8)

    def test_one_dim_vertex(self):
        g = solve_one(np.array([[1.0, -1.0]]), np.array([-1.0]))
        np.testing.assert_allclose(g, [0.0, 1.0], atol=1e-6)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            F = rng.normal(size=(2, 3))
            x = rng.normal(size=2)
            g = solve_one(F, x)
            g_grid = grid_solve_ls(F, x)
            assert (np.linalg.norm(x - F @ g)
                    <= np.linalg.norm(x - F @ g_grid) + 1e-6)

    def test_matches_interior_closed_form(self):
        # rank-(k-1) prototypes with centered columns (F ones = 0), the
        # shape produced by the closed-form solver; the null space is then
        # exactly span(ones) and the oracle is well conditioned
        from softkm import simplex_complement_basis

        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(30):
            k = int(rng.integers(3, 6))
            d = k + 2
            U = np.linalg.qr(rng.normal(size=(d, k - 1)))[0]
            Q = np.linalg.qr(rng.normal(size=(k - 1, k - 1)))[0]
            V = simplex_complement_basis(k) @ Q
            S = rng.uniform(0.5, 2.0, size=k - 1)
            F = U @ np.diag(S) @ V.T
            g_true = rng.dirichlet(np.full(k, 5.0))  # interior target
            x = F @ g_true
            g_star = closed_form_interior(F, x)
            if g_star.min() < 1e-3:
                continue  # oracle only valid strictly inside
            hits += 1
            g = solve_one(F, x)
            np.testing.assert_allclose(g, g_star, atol=1e-7)
        assert hits >= 10

    def test_kkt_residual_at_return(self):
        # shapes above MAX_FACES, so NNLS answers
        rng = np.random.default_rng(40)
        for _ in range(30):
            d, k = int(rng.integers(4, 7)), int(rng.integers(9, 12))
            assert not enumerated(d, k)
            F = rng.normal(size=(d, k))
            x = rng.normal(size=d) * 2.0
            g = solve_one(F, x)
            assert kkt_residual(F, x, g) <= 1e-12
        # a whole membership step from random data columns, the solvers' start
        X = rng.normal(size=(3, 2000))
        F = X[:, rng.choice(2000, size=10, replace=False)]
        assert not enumerated(3, 10)
        assert kkt_residuals(F, X, solve_membership(F, X)).max() <= 1e-12

    def test_vertex_domination(self):
        # the solution never loses to any vertex of the simplex
        rng = np.random.default_rng(44)
        for _ in range(20):
            F = rng.normal(size=(3, 4))
            x = rng.normal(size=3)
            g = solve_one(F, x)
            best_vertex = min(np.linalg.norm(x - F[:, j]) for j in range(4))
            assert np.linalg.norm(x - F @ g) <= best_vertex + 1e-9

    def test_warm_start_never_worse(self):
        # (3, 4) is solved by face enumeration, (4, 9) by NNLS
        rng = np.random.default_rng(60)
        for d, k in ((3, 4), (4, 9)):
            assert enumerated(d, k) == (k == 4)
            F = rng.normal(size=(d, k))
            X = rng.normal(size=(d, 20))
            G0 = rng.dirichlet(np.ones(k), size=20)
            G = solve_membership(F, X, warm=G0)
            before = np.sum((X - F @ G0.T) ** 2, axis=0)
            after = np.sum((X - F @ G.T) ** 2, axis=0)
            assert np.all(after <= before + 1e-12)

    @pytest.mark.parametrize("k", [3, 9])
    def test_zero_prototypes_solved(self, k):
        # F = 0 fits every membership equally, so each row is any feasible
        # one; k = 3 on two features is enumerated, k = 9 goes to NNLS
        assert enumerated(2, k) == (k == 3)
        X = np.column_stack([np.zeros(2), np.random.default_rng(k).normal(size=(2, 5))])
        G = solve_membership(np.zeros((2, k)), X)
        assert G.shape == (6, k)
        assert np.all(G >= 0.0) and np.allclose(G.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_solvers_fit_constant_data(self):
        # the data sit at their mean, so the alternating solvers start from,
        # and keep, prototypes at it: all zero for solve_am here
        sol, _ = solve_am(np.zeros((2, 5)), 2)
        assert sol.objective == 0.0 and not sol.prototypes.any()
        sol, _ = solve_mvskm(np.ones((2, 5)), 2, MvskmOptions(lam=1.0))
        assert sol.objective == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            solve_one(np.array([[np.nan, 1.0]]), np.array([1.0]))


class TestSolveMembership:
    def test_prototype_columns_recover_identity(self):
        rng = np.random.default_rng(71)
        F = np.linalg.qr(rng.normal(size=(5, 3)))[0] * 2.0
        G = solve_membership(F, F)
        np.testing.assert_allclose(G, np.eye(3), atol=1e-6)
        assert float(np.sum((F - F @ G.T) ** 2)) <= 1e-10

    def test_rows_feasible_and_independent(self):
        rng = np.random.default_rng(72)
        F = rng.normal(size=(2, 3))
        X = rng.normal(size=(2, 25))
        G = solve_membership(F, X)
        assert G.shape == (25, 3)
        assert G.min() >= 0.0
        np.testing.assert_allclose(G.sum(axis=1), 1.0, atol=1e-12)
        # per-row solves agree with the batch
        for i in (0, 7, 24):
            np.testing.assert_allclose(G[i], solve_one(F, X[:, i]), atol=1e-6)

    def test_accepts_data_matrix(self):
        rng = np.random.default_rng(73)
        F = rng.normal(size=(2, 3))
        X = center(rng.normal(size=(2, 10)))
        G1 = solve_membership(F, X)
        G2 = solve_membership(F, X.values)
        np.testing.assert_allclose(G1, G2, atol=0)

    def test_warm_start_shape_checked(self):
        rng = np.random.default_rng(74)
        with pytest.raises(InvalidInput):
            solve_membership(rng.normal(size=(2, 3)), rng.normal(size=(2, 5)),
                             warm=np.ones((4, 3)) / 3)

    @pytest.mark.parametrize("d, k, nnls", [(2, 3, False), (9, 9, True)], ids=["exact", "nnls"])
    def test_non_finite_warm_start_rejected(self, d, k, nnls):
        assert enumerated(d, k) != nnls
        rng = np.random.default_rng(75)
        warm = np.full((5, k), 1.0 / k)
        warm[2, 0] = np.nan
        with pytest.raises(InvalidInput, match="warm start"):
            solve_membership(rng.normal(size=(d, k)), rng.normal(size=(d, 5)), warm=warm)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            solve_membership(np.ones((3, 2)), np.ones((2, 5)))


def exact_path_case(rng, d, k, kind):
    """Prototypes F (d x k) and samples X (d x 6) of one named shape."""
    F = rng.normal(size=(d, k))
    X = rng.normal(size=(d, 6)) * 1.5
    if kind == "duplicate":
        F[:, 1] = F[:, 0]
    elif kind == "collapsed":
        F = F[:, :1] + 1e-7 * rng.uniform(-1.0, 1.0, size=(d, k))
        X = F[:, :1] + 1e-7 * rng.normal(size=(d, 6))
    elif kind == "scaled_down":
        F, X = F * 1e-6, X * 1e-6
    elif kind == "scaled_up":
        F, X = F * 1e6, X * 1e6
    return F, X


class TestExactPath:
    @pytest.mark.parametrize("kind", ["random", "duplicate", "collapsed",
                                      "scaled_down", "scaled_up"])
    @pytest.mark.parametrize("k", range(2, 11))
    def test_matches_tight_pgd_reference(self, k, kind):
        # each exact path is checked against the other: NNLS where
        # solve_membership enumerates faces, forced enumeration where it runs
        # NNLS (k >= 8 at d <= 3, where the face count stays small)
        rng = np.random.default_rng(100 * k + len(kind))
        for d in (1, 2, 3, k + 2) if k <= 7 else (1, 2, 3):
            F, X = exact_path_case(rng, d, k, kind)
            G = solve_membership(F, X)
            oracle = simplex_module._nnls_rows if enumerated(d, k) else simplex_module._exact_rows
            G_ref = oracle(F, X.T)
            G_ref /= G_ref.sum(axis=1, keepdims=True)  # as solve_membership does
            assert G.min() >= 0.0
            np.testing.assert_allclose(G.sum(axis=1), 1.0, rtol=0, atol=1e-15)
            obj = np.sum((X - F @ G.T) ** 2, axis=0)
            ref = np.sum((X - F @ G_ref.T) ** 2, axis=0)
            scale = ref + np.sum(X * X, axis=0)
            assert np.all(np.abs(obj - ref) <= 1e-12 * scale), (d, obj - ref)
            for i in range(X.shape[1]):
                assert kkt_residual(F, X[:, i], G[i]) <= 1e-12, (d, i)

    def test_dispatch(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("NNLS reached")

        monkeypatch.setattr(simplex_module, "_nnls_rows", refuse)
        rng = np.random.default_rng(90)
        for k in range(1, 8):
            for d in (1, 3, 10, 40):
                G = solve_membership(rng.normal(size=(d, k)), rng.normal(size=(d, 5)))
                assert G.shape == (5, k)
        with pytest.raises(RuntimeError, match="NNLS reached"):
            solve_membership(rng.normal(size=(10, 9)), rng.normal(size=(10, 5)))

    def test_optimal_warm_rows_kept(self):
        rng = np.random.default_rng(91)
        F = rng.normal(size=(3, 5))
        X = rng.normal(size=(3, 30))
        G = solve_membership(F, X)
        np.testing.assert_array_equal(solve_membership(F, X, warm=G), G)

    def test_infeasible_warm_rows_not_kept(self):
        # [-2, 3] fits x = 3 exactly but lies off the simplex
        F, x = np.array([[0.0, 1.0]]), np.array([[3.0]])
        for warm in ([[-2.0, 3.0]], [[0.0, 3.0]]):
            np.testing.assert_array_equal(solve_membership(F, x, warm=warm), [[0.0, 1.0]])


class TestNnlsPath:
    def test_block_size_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(93)
        F, X = rng.normal(size=(3, 10)), rng.normal(size=(3, 300))
        assert not enumerated(3, 10)
        G = solve_membership(F, X)
        for block in (1, 7):
            monkeypatch.setattr(simplex_module, "_NNLS_BLOCK", block)
            np.testing.assert_array_equal(solve_membership(F, X), G)

    @pytest.mark.parametrize("scale", [1e307, 1e-310])
    def test_extreme_scales_feasible(self, scale):
        rng = np.random.default_rng(94)
        F, X = rng.normal(size=(2, 9)) * scale, rng.normal(size=(2, 20)) * scale
        assert not enumerated(2, 9)
        G = solve_membership(F, X)
        assert np.isfinite(G).all() and G.min() >= 0.0
        np.testing.assert_allclose(G.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_system_is_numerical_failure(self):
        F = np.random.default_rng(95).normal(size=(2, 9))
        F[0, 0] = 1.7e308
        with pytest.raises(NumericalFailure, match="overflow"):
            solve_one(F, np.array([-1.7e308, 0.0]))

    def test_nnls_error_is_numerical_failure(self, monkeypatch):
        def exhausted(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(simplex_module, "nnls", exhausted)
        rng = np.random.default_rng(96)
        with pytest.raises(NumericalFailure, match="NNLS failed on row 0"):
            solve_membership(rng.normal(size=(2, 9)), rng.normal(size=(2, 4)))

    def test_sample_on_collapsed_prototypes(self):
        # every prototype equals the sample, so any membership is optimal
        G = solve_one(np.ones((2, 9)), np.ones(2))
        assert G.min() >= 0.0 and abs(G.sum() - 1.0) <= 1e-15
