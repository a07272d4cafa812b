import tracemalloc

import numpy as np

from softkm.simplex import solve_membership
from softkm.synth import in_convex_hull, two_gaussians


class TestTwoGaussians:
    def test_shapes_and_determinism(self):
        X, labels = two_gaussians()
        assert X.shape == (2, 140)
        assert labels.shape == (140,)
        assert set(np.unique(labels)) == {0, 1}
        X2, labels2 = two_gaussians()
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(labels, labels2)

    def test_blobs_sit_near_their_centers(self):
        X, labels = two_gaussians(seed=3)
        m0 = X[:, labels == 0].mean(axis=1)
        m1 = X[:, labels == 1].mean(axis=1)
        assert np.linalg.norm(m0 - np.array([-0.07, -0.05])) < 0.06
        assert np.linalg.norm(m1 - np.array([0.07, 0.05])) < 0.06


class TestInConvexHull:
    def test_unit_square(self):
        square = np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        assert in_convex_hull(square, np.array([0.5, 0.5]))
        assert in_convex_hull(square, np.array([0.0, 0.0]))  # a vertex
        assert not in_convex_hull(square, np.array([1.5, 0.5]))
        assert not in_convex_hull(square, np.array([-0.1, 0.0]))

    def test_degenerate_hull(self):
        segment = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert in_convex_hull(segment, np.array([0.5, 0.5]))
        assert not in_convex_hull(segment, np.array([0.5, 0.4]))

    def test_scale_and_offset(self):
        # the answer is the same at any common scale or shift of points and query
        big, tiny = 1e300 * np.eye(2), 1e-300 * np.eye(2)
        assert in_convex_hull(big, [0.5e300, 0.5e300])
        assert not in_convex_hull(big, [0.5e300, 0.6e300])
        assert in_convex_hull(tiny, [0.5e-300, 0.5e-300])
        assert not in_convex_hull(tiny, [0.5e-300, 0.6e-300])
        triangle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) + 1e8
        assert in_convex_hull(triangle, [1e8 + 0.3, 1e8 + 0.3])
        assert not in_convex_hull(triangle, [1e8 + 0.501, 1e8 + 0.5])  # 1e-3 past x + y = 1

    def test_agrees_with_linear_programming(self):
        # the LP feasibility test is the oracle; HiGHS accepts a constraint
        # residual up to its primal feasibility tolerance 1e-7, so the two
        # may differ only for a query that close to the hull
        from scipy.optimize import linprog

        rng = np.random.default_rng(33)
        answers = []
        for trial in range(300):
            d, n = int(rng.integers(1, 6)), int(rng.integers(1, 201))
            P = rng.standard_normal((d, n))
            if trial % 3 == 0:  # interior
                q = P @ rng.dirichlet(np.ones(n))
            elif trial % 3 == 1:  # mostly outside
                q = 3.0 * rng.standard_normal(d)
            else:  # near a vertex, on either side
                u = rng.standard_normal(d)
                q = P[:, rng.integers(n)] + 10.0 ** rng.uniform(-9, -5) * u / np.linalg.norm(u)
            lp = linprog(np.zeros(n), A_eq=np.vstack([P, np.ones((1, n))]), b_eq=np.append(q, 1.0),
                         bounds=(0, None), method="highs").status == 0
            inside = in_convex_hull(P, q)
            answers.append(inside)
            if inside != lp:
                g = solve_membership(P, q[:, None])[0]
                assert np.abs(P @ g - q).max() <= 1e-7 * np.abs(P).max(), (trial, inside)
        assert 100 < sum(answers) < 250

    def test_no_square_matrix_in_the_points(self):
        # n points are the solve's k prototypes: nothing n x n may be built,
        # which at n = 2000 would take 32 MB a copy
        rng = np.random.default_rng(34)
        P = rng.standard_normal((3, 2000))
        q = P.mean(axis=1)
        in_convex_hull(P, q)
        tracemalloc.start()
        try:
            assert in_convex_hull(P, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6, peak
