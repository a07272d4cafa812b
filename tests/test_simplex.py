import builtins
import itertools

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


def enumerate_faces(F, X):
    """The simplex least-squares minimizer of every column of X, by face
    enumeration: some minimizer has an affinely independent support of at
    most d + 1 prototypes (Wolfe, Math. Programming 1976), and on that face
    the affine least-squares minimizer is feasible. So the cheapest feasible
    face minimizer over every face of at most min(k, d + 1) vertices is
    optimal; on a tie the smaller face, then the lexicographically first,
    wins. Face S = (j0, rest) gives the coefficients c = pinv(E_S) (x - f_j0)
    with edge matrix E_S = [f_j - f_j0, j in rest]."""
    d, k = F.shape
    P = X.T
    G = np.zeros((len(P), k))
    best = np.full(len(P), np.inf)
    for size in range(1, min(k, d + 1) + 1):
        for S in itertools.combinations(range(k), size):
            E = F[:, S[1:]] - F[:, S[:1]]
            Y = P - F[:, S[0]]
            C = Y @ np.linalg.pinv(E).T
            c0 = 1.0 - C.sum(axis=1)
            R = Y - C @ E.T
            res = np.einsum("ij,ij->i", R, R)
            rows = np.flatnonzero((c0 >= 0.0) & np.all(C >= 0.0, axis=1) & (res < best))
            best[rows] = res[rows]
            G[rows] = 0.0
            G[rows, S[0]] = c0[rows]
            G[np.ix_(rows, S[1:])] = C[rows]
    return G / G.sum(axis=1, keepdims=True)


def kkt_residuals(F, X, G):
    """Per-sample ||g - P(g - grad / L)|| at the Lipschitz step
    L = sigma_max(F)^2; zero exactly at the minimizer."""
    L = float(np.linalg.svd(F, compute_uv=False)[0] ** 2)
    step = G - (G @ F.T - X.T) @ F / L
    return np.linalg.norm(G - simplex_module._project_rows(step), axis=1)


def kkt_residual(F, x, g):
    return float(kkt_residuals(F, np.reshape(x, (-1, 1)), np.reshape(g, (1, -1)))[0])


def kkt_gaps_within(F, X, G, rtol=1e-9):
    """Whether each sample's duality gap max_j (grad^T g - grad_j), with
    grad = F^T (F g - x), is at most rtol times the sample's own scale
    diam (diam + ||F g - x||), diam the largest distance from F g to a
    prototype. A row that Wolfe's method left before its gap fell to
    round-off fails here even when its objective looks optimal; an exact
    row's gap is its solve's rounding, which grows with the condition of
    its support and reached 2e-11 of the scale on random near-vertex
    samples. The gap is the same about any origin; the first prototype's
    keeps the differences exact when the prototypes nearly coincide."""
    t = F[:, :1]
    Fs, P = F - t, (F - t) @ G.T
    R = P - (X - t)
    grad = Fs.T @ R
    gap = (G.T * grad).sum(axis=0) - grad.min(axis=0)
    diam = np.sqrt(((P[:, None, :] - Fs[:, :, None]) ** 2).sum(axis=0)).max(axis=0)
    return gap <= rtol * diam * (diam + np.sqrt((R * R).sum(axis=0)))


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
        # wide shapes, k > d + 1
        rng = np.random.default_rng(40)
        for _ in range(30):
            d, k = int(rng.integers(4, 7)), int(rng.integers(9, 12))
            F = rng.normal(size=(d, k))
            x = rng.normal(size=d) * 2.0
            g = solve_one(F, x)
            assert kkt_residual(F, x, g) <= 1e-12
        # a whole membership step from random data columns, the solvers' start
        X = rng.normal(size=(3, 2000))
        F = X[:, rng.choice(2000, size=10, replace=False)]
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
        # at (4, 9) the Dirichlet warm rows hold more prototypes than any
        # affinely independent support, so they start cold
        rng = np.random.default_rng(60)
        for d, k in ((3, 4), (4, 9)):
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
        # one; k = 9 on two features is a wide shape
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

    @pytest.mark.parametrize("d, k", [(2, 3), (9, 9)], ids=["small", "large"])
    def test_non_finite_warm_start_rejected(self, d, k):
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
        # every row against face enumeration, the brute-force oracle
        rng = np.random.default_rng(100 * k + len(kind))
        for d in (1, 2, 3, k + 2) if k <= 7 else (1, 2, 3):
            F, X = exact_path_case(rng, d, k, kind)
            G = solve_membership(F, X)
            G_ref = enumerate_faces(F, X)
            assert G.min() >= 0.0
            np.testing.assert_allclose(G.sum(axis=1), 1.0, rtol=0, atol=1e-15)
            obj = np.sum((X - F @ G.T) ** 2, axis=0)
            ref = np.sum((X - F @ G_ref.T) ** 2, axis=0)
            scale = ref + np.sum(X * X, axis=0)
            assert np.all(np.abs(obj - ref) <= 1e-12 * scale), (d, obj - ref)
            assert kkt_gaps_within(F, X, G).all(), d
            for i in range(X.shape[1]):
                assert kkt_residual(F, X[:, i], G[i]) <= 1e-12, (d, i)

    @pytest.mark.parametrize("d, k", [(1, 3), (2, 3), (2, 6), (3, 4), (3, 9), (5, 4)])
    def test_rows_next_to_a_vertex_leave_it(self, d, k):
        # each sample lies a relative 1e-12 to 1e-8 from its nearest
        # prototype, off towards another: the row starts at that vertex,
        # where the other prototype's gap is positive but tiny
        rng = np.random.default_rng(200 + 10 * d + k)
        F = rng.normal(size=(d, k))
        a, b = np.array([rng.permutation(k)[:2] for _ in range(60)]).T
        eta = 10.0 ** rng.uniform(-12.0, -8.0, size=60)
        X = F[:, a] + eta * (F[:, b] - F[:, a] + 0.5 * rng.normal(size=(d, 60)))
        G = solve_membership(F, X)
        assert kkt_gaps_within(F, X, G).all()

    def test_near_vertex_gaps_at_round_off(self):
        # 20 samples 1e-12 to 1e-8 from a vertex on each of 300 random
        # shapes: every row's gap is round-off of the row's own scale,
        # full-support rows included, which end without a gap test
        eps = np.finfo(float).eps
        for seed in range(300):
            rng = np.random.default_rng(seed)
            d, k = int(rng.integers(1, 6)), int(rng.integers(2, 10))
            F = rng.normal(size=(d, k))
            a = rng.integers(0, k, 20)
            eta = 10.0 ** rng.uniform(-12.0, -8.0, 20)
            X = F[:, a] + eta * rng.normal(size=(d, 20))
            G = solve_membership(F, X)
            assert kkt_gaps_within(F, X, G, rtol=1000 * (k + d) * eps).all(), (seed, d, k)

    def test_every_small_shape_solved(self):
        # one path from a single prototype to seven, in one to forty dimensions
        rng = np.random.default_rng(90)
        for k in range(1, 8):
            for d in (1, 3, 10, 40):
                F, X = rng.normal(size=(d, k)), rng.normal(size=(d, 5))
                G = solve_membership(F, X)
                assert G.shape == (5, k) and G.min() >= 0.0
                assert kkt_residuals(F, X, G).max() <= 1e-12

    def test_step_bound_raises(self, monkeypatch):
        # with the step bound cut to one step, a sample that needs more (from
        # a vertex to an edge) raises instead of returning an unfinished row
        monkeypatch.setattr(simplex_module, "range", lambda n: builtins.range(1), raising=False)
        with pytest.raises(NumericalFailure, match="did not finish in 1 steps"):
            solve_one(np.array([[0.0, 1.0]]), np.array([0.5]))

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

    def test_warm_start_reaches_the_optimum(self):
        # a warm row starts from its support, not only from a kept row: after
        # a change of F it must end at the new optimum
        rng = np.random.default_rng(92)
        for d, k in ((2, 3), (3, 8)):
            F, X = rng.normal(size=(d, k)), rng.normal(size=(d, 40))
            G = solve_membership(F, X)
            F2 = F + 0.05 * rng.normal(size=F.shape)
            G2 = solve_membership(F2, X, warm=G)
            obj = np.sum((X - F2 @ G2.T) ** 2, axis=0)
            ref = np.sum((X - F2 @ enumerate_faces(F2, X).T) ** 2, axis=0)
            assert np.all(obj - ref <= 1e-12 * (ref + np.sum(X * X, axis=0)))

    def test_singular_warm_support_solved(self):
        # a warm support on two equal prototypes has a zero edge: the damped
        # solve gives that edge no weight and the row still reaches the
        # optimum, never a NaN
        F = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        X = np.array([[0.2, 0.9], [0.1, 0.8]])
        warm = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        G = solve_membership(F, X, warm=warm)
        assert np.isfinite(G).all() and G.min() >= 0.0
        np.testing.assert_allclose(G.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(F @ G.T, F @ enumerate_faces(F, X).T, atol=1e-15)

    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-9, 1e-10])
    def test_warm_row_moves_to_a_near_duplicate(self, delta):
        # each warm row starts at its optimum for F0; in F one prototype
        # lies within delta of another, so a support holding both has an
        # edge of length delta next to edges of length one, yet the optimum
        # can move from one twin to the other (by about delta)
        X = np.array([[0.5, 0.3, 0.9, -0.2], [1.0, 2.0, 0.5, 0.4]])
        cases = [(np.array([[0.0, 1.0, 5.0], [0.0, 0.0, -5.0]]), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, delta]]), X)]
        for seed in range(40):
            rng = np.random.default_rng(seed)
            F, X = rng.normal(size=(3, 6)), rng.normal(size=(3, 40)) * 1.5
            F0 = F + 0.05 * rng.normal(size=F.shape)
            F[:, 4] = F[:, 3] + delta * rng.normal(size=3)
            cases.append((F0, F, X))
        for F0, F, X in cases:
            G = solve_membership(F, X, warm=solve_membership(F0, X))
            obj = np.sum((X - F @ G.T) ** 2, axis=0)
            ref = np.sum((X - F @ enumerate_faces(F, X).T) ** 2, axis=0)
            assert np.all(obj - ref <= 1e-12 * (ref + np.sum(X * X, axis=0))), np.max(obj - ref)

    def test_no_samples(self):
        assert solve_membership(np.eye(2), np.zeros((2, 0))).shape == (0, 2)

    def test_empty_prototypes_rejected(self):
        with pytest.raises(InvalidInput, match="at least one column"):
            solve_membership(np.zeros((2, 0)), np.ones((2, 3)))


class TestNnlsPath:
    """Wide shapes (k > d + 1): each row is a nonnegative least-squares
    problem with more unknowns than equations, whose minimizer need not be
    unique."""

    def test_row_alone_matches_batch(self):
        # rows are solved independently; only the rounding of the shared
        # matrix products depends on the batch
        rng = np.random.default_rng(93)
        F, X = rng.normal(size=(3, 10)), rng.normal(size=(3, 300))
        G = solve_membership(F, X)
        F2 = F + 0.01 * rng.normal(size=F.shape)
        G2 = solve_membership(F2, X, warm=G)
        for i in (0, 1, 150, 299):
            np.testing.assert_allclose(solve_one(F, X[:, i]), G[i], rtol=0, atol=1e-14)
            np.testing.assert_allclose(solve_one(F2, X[:, i], G[i]), G2[i], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scale", [1e307, 1e-310])
    def test_extreme_scales_feasible(self, scale):
        rng = np.random.default_rng(94)
        F, X = rng.normal(size=(2, 9)) * scale, rng.normal(size=(2, 20)) * scale
        G = solve_membership(F, X)
        assert np.isfinite(G).all() and G.min() >= 0.0
        np.testing.assert_allclose(G.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_system_is_numerical_failure(self):
        F = np.random.default_rng(95).normal(size=(2, 9))
        F[0, 0] = 1.7e308
        with pytest.raises(NumericalFailure, match="overflow"):
            solve_one(F, np.array([-1.7e308, 0.0]))

    @pytest.mark.parametrize("kind", ["duplicate", "coincident", "near_duplicate"])
    def test_duplicate_and_coincident_prototypes_feasible(self, kind):
        rng = np.random.default_rng(96)
        F, X = rng.normal(size=(2, 9)), rng.normal(size=(2, 50))
        if kind == "duplicate":
            F[:, 1::2] = F[:, 0::2][:, :4]
        elif kind == "coincident":
            F[:, 3:] = F[:, :1]
        else:
            F[:, 1] = F[:, 0] + 1e-15
        X[:, :9] = F  # samples on the prototypes themselves
        G = solve_membership(F, X)
        assert np.isfinite(G).all() and G.min() >= 0.0
        np.testing.assert_allclose(G.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        obj = np.sum((X - F @ G.T) ** 2, axis=0)
        ref = np.sum((X - F @ enumerate_faces(F, X).T) ** 2, axis=0)
        assert np.all(obj - ref <= 1e-12 * (ref + np.sum(X * X, axis=0)))
        G2 = solve_membership(F, X, warm=rng.dirichlet(np.ones(9), size=50))
        assert np.isfinite(G2).all() and G2.min() >= 0.0

    def test_many_prototypes(self):
        # k = 70 prototypes on two features: supports of at most three
        rng = np.random.default_rng(97)
        F, X = rng.normal(size=(2, 70)), rng.normal(size=(2, 40)) * 2.0
        G = solve_membership(F, X)
        assert G.min() >= 0.0 and np.count_nonzero(G, axis=1).max() <= 3
        assert kkt_residuals(F, X, G).max() <= 1e-12

    def test_sample_on_collapsed_prototypes(self):
        # every prototype equals the sample, so any membership is optimal
        G = solve_one(np.ones((2, 9)), np.ones(2))
        assert G.min() >= 0.0 and abs(G.sum() - 1.0) <= 1e-15
