import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from mgctm.errors import DimensionError
from mgctm.evaluation import (
    ClusterLabels,
    _max_assignment,
    align_labels,
    clustering_accuracy,
    contingency,
    nmi,
)

labels_pair = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=5), min_size=n, max_size=n
        ),
        st.lists(
            st.integers(min_value=0, max_value=5), min_size=n, max_size=n
        ),
    )
)


class TestClusterLabels:
    def test_from_array_infers_count(self):
        labs = ClusterLabels.from_array([0, 3, 1])
        assert labs.num_clusters == 4
        assert len(labs) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ClusterLabels(np.array([0, 2]), num_clusters=2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ClusterLabels(np.array([-1, 0]), num_clusters=2)

    def test_two_dimensional_rejected(self):
        with pytest.raises(DimensionError):
            ClusterLabels(np.zeros((2, 2), dtype=int), num_clusters=2)


class TestContingency:
    def test_counts(self):
        table = contingency([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(table, [[1, 1], [0, 2]])

    def test_zero_padded_to_square(self):
        table = contingency([0, 1, 2], [0, 1, 1])
        assert table.shape == (3, 3)
        assert table[:, 2].sum() == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="differ in length"):
            contingency([0, 1], [0, 1, 1])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError, match="empty"):
            contingency([], [])


class TestClusteringAccuracy:
    def test_three_quarters_example(self):
        assert clustering_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_perfect_up_to_renaming(self):
        assert clustering_accuracy([2, 2, 0, 1], [0, 0, 1, 2]) == 1.0

    def test_single_cluster_gets_largest_class_share(self):
        assert clustering_accuracy([0] * 6, [0, 0, 0, 1, 1, 2]) == 0.5

    def test_more_clusters_than_classes(self):
        # Each predicted cluster may serve at most one class.
        acc = clustering_accuracy([0, 1, 2, 3], [0, 0, 1, 1])
        assert acc == 0.5

    @given(labels_pair)
    def test_matches_bruteforce_over_assignments(self, pair):
        pred, truth = pair
        k = max(max(pred), max(truth)) + 1
        table = oracles.contingency_table(pred, truth, k)
        assert math.isclose(
            clustering_accuracy(pred, truth),
            oracles.accuracy_from_table(table),
            abs_tol=1e-12,
        )


class TestNmi:
    def test_frozen_value(self):
        got = nmi([0, 0, 1, 1], [0, 1, 1, 1])
        assert math.isclose(got, 0.3455920299442113, rel_tol=0, abs_tol=1e-13)

    def test_identity_is_one(self):
        assert nmi([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_renamed_clusters_score_one(self):
        assert math.isclose(nmi([2, 0, 1, 2], [0, 1, 2, 0]), 1.0, abs_tol=1e-12)

    def test_constant_prediction_scores_zero(self):
        assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_constant_truth_scores_zero(self):
        assert nmi([0, 1, 0, 1], [1, 1, 1, 1]) == 0.0

    def test_both_constant_scores_one(self):
        assert nmi([3, 3, 3], [0, 0, 0]) == 1.0

    def test_independent_labelings_score_near_zero(self):
        pred = [0, 0, 1, 1]
        truth = [0, 1, 0, 1]
        assert abs(nmi(pred, truth)) < 1e-12

    @given(labels_pair)
    def test_matches_contingency_oracle(self, pair):
        pred, truth = pair
        k = max(max(pred), max(truth)) + 1
        table = oracles.contingency_table(pred, truth, k)
        assert math.isclose(
            nmi(pred, truth), oracles.nmi_from_table(table), abs_tol=1e-12
        )

    @given(labels_pair)
    def test_symmetry_and_range(self, pair):
        pred, truth = pair
        a = nmi(pred, truth)
        b = nmi(truth, pred)
        assert math.isclose(a, b, abs_tol=1e-12)
        assert -1e-12 <= a <= 1.0 + 1e-12


class TestInvariances:
    @given(labels_pair, st.randoms(use_true_random=False))
    def test_document_order_invariance(self, pair, rand):
        pred, truth = pair
        order = list(range(len(pred)))
        rand.shuffle(order)
        pred_s = [pred[i] for i in order]
        truth_s = [truth[i] for i in order]
        assert clustering_accuracy(pred_s, truth_s) == clustering_accuracy(
            pred, truth
        )
        assert nmi(pred_s, truth_s) == nmi(pred, truth)

    @given(labels_pair, st.permutations(list(range(6))))
    def test_cluster_renaming_invariance(self, pair, perm):
        pred, truth = pair
        renamed = [perm[p] for p in pred]
        assert math.isclose(
            clustering_accuracy(renamed, truth),
            clustering_accuracy(pred, truth),
            abs_tol=1e-12,
        )
        assert math.isclose(nmi(renamed, truth), nmi(pred, truth), abs_tol=1e-12)


class TestAlignLabels:
    def test_identity(self):
        np.testing.assert_array_equal(
            align_labels([0, 1, 2], [0, 1, 2]), [0, 1, 2]
        )

    def test_swap(self):
        np.testing.assert_array_equal(align_labels([0, 0, 1], [1, 1, 0]), [1, 0])

    def test_tie_prefers_lowest_class_for_lowest_cluster(self):
        # Uniform table: every assignment matches equally well.
        np.testing.assert_array_equal(
            align_labels([0, 0, 1, 1], [0, 1, 0, 1]), [0, 1]
        )
        np.testing.assert_array_equal(
            align_labels([0, 1, 2, 0, 1, 2], [0, 1, 2, 1, 2, 0]), [0, 1, 2]
        )

    def test_mapping_is_a_permutation_and_optimal(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, 5))
            pred = rng.integers(0, k, n)
            truth = rng.integers(0, k, n)
            mapping = align_labels(pred, truth)
            assert sorted(mapping.tolist()) == list(range(len(mapping)))
            table = contingency(pred, truth)
            matched = sum(
                int(table[p, mapping[p]]) for p in range(len(mapping))
            )
            best = max(
                sum(int(table[i, pi[i]]) for i in range(len(mapping)))
                for pi in permutations(range(len(mapping)))
            )
            assert matched == best


def matched_total(table):
    """The matched count of ``_max_assignment``'s assignment, checked to
    be a permutation that only uses cells where its dual is tight."""
    cols, tight = _max_assignment(table)
    rows = np.arange(table.shape[0])
    assert sorted(cols.tolist()) == rows.tolist()
    assert tight[rows, cols].all()
    return int(table[rows, cols].sum())


def tables_of_size(k, rng):
    """Random contingency tables of size k, with the degenerate shapes:
    all zero, one nonzero row, all equal (every assignment ties)."""
    one_row = np.zeros((k, k), dtype=np.int64)
    one_row[rng.integers(k)] = rng.integers(0, 9, k)
    yield np.zeros((k, k), dtype=np.int64)
    yield one_row
    yield np.full((k, k), 3, dtype=np.int64)
    for high in (2, 3, 50):
        for _ in range(3):
            yield rng.integers(0, high, (k, k))


def labels_from_table(table):
    """(pred, truth) label vectors whose contingency table is ``table``."""
    pairs = [(p, t) for (p, t), n in np.ndenumerate(table) for _ in range(n)]
    return np.array(pairs, dtype=np.int64).T


class TestMaxAssignment:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_total_matches_permutation_oracle(self, k):
        rng = np.random.default_rng(k)
        for table in tables_of_size(k, rng):
            n = int(table.sum())
            if n == 0:
                assert matched_total(table) == 0
            else:
                # both sides divide the same two integers
                assert matched_total(table) / n == oracles.accuracy_from_table(table)

    @pytest.mark.parametrize("k_pred, k_truth", [(1, 4), (4, 1), (2, 5), (6, 3)])
    def test_accuracy_with_different_cluster_counts(self, k_pred, k_truth):
        rng = np.random.default_rng(10 * k_pred + k_truth)
        for _ in range(10):
            pred = rng.integers(0, k_pred, 30)
            truth = rng.integers(0, k_truth, 30)
            assert clustering_accuracy(pred, truth) == oracles.accuracy_from_table(
                contingency(pred, truth)
            )

    @pytest.mark.parametrize("k", [8, 9, 13, 20, 31, 40])
    def test_total_matches_scipy(self, k):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(k)
        for table in tables_of_size(k, rng):
            rows, cols = linear_sum_assignment(table, maximize=True)
            assert matched_total(table) == int(table[rows, cols].sum())

    @pytest.mark.parametrize("k", range(1, 7))
    def test_align_labels_is_first_optimal_permutation(self, k):
        rng = np.random.default_rng(100 + k)
        for table in tables_of_size(k, rng):
            table = table.copy()
            table[k - 1, k - 1] += 1  # both labelings reach k clusters
            first = max(
                permutations(range(k)),
                key=lambda perm: sum(int(table[i, perm[i]]) for i in range(k)),
            )
            pred, truth = labels_from_table(table)
            np.testing.assert_array_equal(align_labels(pred, truth), first)
