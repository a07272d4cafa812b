import itertools
import math

import numpy as np
import pytest

from softkm import InvalidInput, accuracy, hard_assign, nmi, purity


def brute_accuracy(pred, truth):
    """Best label matching by exhaustive permutation, k <= 5 or so."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    pv, tv = np.unique(pred), np.unique(truth)
    best = 0
    if len(pv) <= len(tv):
        for perm in itertools.permutations(tv, len(pv)):
            m = sum(int((truth[pred == p] == t).sum()) for p, t in zip(pv, perm))
            best = max(best, m)
    else:
        for perm in itertools.permutations(pv, len(tv)):
            m = sum(int((pred[truth == t] == p).sum()) for t, p in zip(tv, perm))
            best = max(best, m)
    return best / len(pred)


class TestHardAssign:
    def test_argmax_rows(self):
        G = np.array([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_array_equal(hard_assign(G), [1, 0, 0])  # ties go low

    def test_rejects_bad_row_sums(self):
        with pytest.raises(InvalidInput):
            hard_assign(np.array([[0.2, 0.2]]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            hard_assign(np.array([[1.2, -0.2]]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput, match="finite"):
            hard_assign([[np.nan, np.nan], [0.3, 0.7]])


class TestAccuracy:
    def test_half_right(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_perfect_after_relabel(self):
        assert accuracy([1, 1, 0, 0], [5, 5, 9, 9]) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k1, k2 = rng.integers(1, 6, size=2)
            n = int(rng.integers(5, 30))
            pred = rng.integers(0, k1, size=n)
            truth = rng.integers(0, k2, size=n)
            assert accuracy(pred, truth) == pytest.approx(brute_accuracy(pred, truth), abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 4, size=50)
        truth = rng.integers(0, 4, size=50)
        base = accuracy(pred, truth)
        remap = {0: 7, 1: 2, 2: 11, 3: 0}
        pred2 = np.array([remap[int(v)] for v in pred])
        assert accuracy(pred2, truth) == pytest.approx(base, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            accuracy([0, 1], [0, 1, 1])
        with pytest.raises(InvalidInput):
            accuracy([0.5, 1.0], [0, 1])
        with pytest.raises(InvalidInput):
            accuracy([-1, 0], [0, 1])
        with pytest.raises(InvalidInput):
            accuracy([], [])


class TestNmi:
    def test_independent_labels(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_identical_labels(self):
        assert nmi([0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 2]) == pytest.approx(1.0)

    def test_hand_computed_value(self):
        # contingency [[2, 1], [0, 1]]
        mi = (
            0.5 * math.log(0.5 / (0.75 * 0.5))
            + 0.25 * math.log(0.25 / (0.75 * 0.5))
            + 0.25 * math.log(0.25 / (0.25 * 0.5))
        )
        hp = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        ht = math.log(2.0)
        expected = mi / math.sqrt(hp * ht)
        assert nmi([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(expected, rel=1e-12)

    def test_single_cluster_conventions(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == pytest.approx(1.0)
        assert nmi([0, 0, 0], [0, 1, 2]) == pytest.approx(0.0)
        assert nmi([0, 1, 2], [4, 4, 4]) == pytest.approx(0.0)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = rng.integers(0, 4, size=40)
            b = rng.integers(0, 3, size=40)
            v = nmi(a, b)
            assert 0.0 <= v <= 1.0
            assert nmi(b, a) == pytest.approx(v, abs=1e-12)


class TestPurity:
    def test_worked_example(self):
        assert purity([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(0.75)

    def test_single_cluster(self):
        assert purity([0, 0, 0, 0], [0, 1, 2, 3]) == pytest.approx(0.25)

    def test_upper_bounds_accuracy(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pred = rng.integers(0, 4, size=30)
            truth = rng.integers(0, 4, size=30)
            assert purity(pred, truth) >= accuracy(pred, truth) - 1e-12


class TestLabelValues:
    def test_scores_depend_on_the_partition_only(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 3, size=2000)
        pred = np.where(rng.random(2000) < 0.8, truth, rng.integers(0, 3, size=2000))
        for values in ([0, 5, 9], [0, 7, 2_000_000]):  # gaps; a value far beyond n
            spread = np.array(values)[pred]
            for score in (accuracy, nmi, purity):
                assert score(spread, truth) == score(pred, truth)
                assert score(truth, spread) == score(truth, pred)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [1e300, 2.0**63, np.inf])
    def test_float_labels_beyond_int64(self, bad):
        with pytest.raises(InvalidInput, match="int64 range"):
            accuracy([0.0, bad], [0, 1])


class TestAgreementImpliesPerfectScores:
    def test_all_three(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 5, size=60)
        remap = {0: 3, 1: 0, 2: 4, 3: 1, 4: 2}
        pred = np.array([remap[int(v)] for v in truth])
        assert accuracy(pred, truth) == pytest.approx(1.0)
        assert purity(pred, truth) == pytest.approx(1.0)
        assert nmi(pred, truth) == pytest.approx(1.0)
