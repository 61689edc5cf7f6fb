import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbal.core import (AUTO, HUMAN, KINDS, UNLABELED, Oracle, Pool,
                       StateTransitionError, ValidationSet, check_partition,
                       partition_counts, rng_from)


def make_pool(n=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, size=n)
    return Pool(X, y, num_classes=2)


class TestPool:
    def test_starts_fully_unlabeled(self):
        pool = make_pool()
        assert partition_counts(pool) == (0, 0, len(pool))

    def test_partition_always_sums_to_n(self):
        pool = make_pool(12)
        pool.mark_human(0, 1)
        pool.mark_auto(1, 0, rnd=3)
        pool.mark_auto(2, 1, rnd=3)
        a, h, u = partition_counts(pool)
        assert (a, h, u) == (2, 1, 9)
        check_partition(pool)

    def test_human_label_is_permanent(self):
        pool = make_pool()
        pool.mark_human(4, 1)
        with pytest.raises(StateTransitionError):
            pool.mark_human(4, 0)
        with pytest.raises(StateTransitionError):
            pool.mark_auto(4, 0, rnd=1)

    def test_auto_label_is_permanent(self):
        pool = make_pool()
        pool.mark_auto(4, 1, rnd=2)
        with pytest.raises(StateTransitionError):
            pool.mark_auto(4, 1, rnd=3)
        with pytest.raises(StateTransitionError):
            pool.mark_human(4, 1)

    def test_auto_records_round(self):
        pool = make_pool()
        pool.mark_auto(3, 1, rnd=7)
        assert KINDS[pool.kind[3]] == AUTO
        assert pool.round[3] == 7
        pool.mark_human(5, 0)
        assert KINDS[pool.kind[5]] == HUMAN
        assert pool.round[5] == -1  # rounds are set for auto-labels only

    def test_ids_with(self):
        pool = make_pool(6)
        pool.mark_human(1, 0)
        pool.mark_auto(4, 1, rnd=1)
        assert list(pool.ids_with(HUMAN)) == [1]
        assert list(pool.ids_with(AUTO)) == [4]
        assert list(pool.ids_with(UNLABELED)) == [0, 2, 3, 5]

    def test_copy_is_independent(self):
        pool = make_pool()
        clone = pool.copy()
        clone.mark_human(0, 1)
        assert KINDS[pool.kind[0]] == UNLABELED
        assert KINDS[clone.kind[0]] == HUMAN

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Pool(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), num_classes=2)
        with pytest.raises(ValueError):
            Pool(np.zeros(3), np.zeros(3, dtype=np.int64), num_classes=2)


def make_points(cls, rows, n_points=None):
    """A pool or validation set of ``n_points`` (default ``len(rows)``) on
    ``rows`` of a 6 x 3 matrix."""
    matrix = np.arange(18, dtype=np.float64).reshape(6, 3)
    labels = np.zeros(len(rows) if n_points is None else n_points, dtype=np.int64)
    if cls is Pool:
        return Pool(matrix, labels, num_classes=2, rows=rows)
    return ValidationSet(matrix, labels, rows=rows)


@pytest.mark.parametrize("cls", [Pool, ValidationSet])
class TestMatrixRows:
    def test_gather_reads_the_matrix_rows(self, cls):
        points = make_points(cls, np.array([4, 0, 5, 2]))
        assert points.dimension == 3
        assert np.array_equal(points.gather(np.array([2, 0])), points.matrix[[5, 4]])
        assert np.array_equal(points.gather(3), points.matrix[2])
        with pytest.raises(IndexError):
            points.gather(np.array([4]))

    @pytest.mark.parametrize("ids", [np.array([-1]), -1, np.array([0, -4])],
                             ids=["array", "scalar", "in_a_batch"])
    def test_gather_rejects_negative_ids(self, cls, ids):
        # NumPy indexing wraps a negative index around to the last points
        points = make_points(cls, np.array([4, 0, 5, 2]))
        with pytest.raises(IndexError):
            points.gather(ids)

    def test_the_matrix_is_held_in_c_order(self, cls):
        # the engine multiplies contiguous views of the matrix's rows
        labels = np.zeros(4, dtype=np.int64)

        def held(m):
            return (Pool(m, labels, 2) if cls is Pool else ValidationSet(m, labels)).matrix

        matrix = np.arange(12.0).reshape(4, 3)
        assert held(matrix) is matrix
        copied = held(np.asfortranarray(matrix))
        assert copied.flags.c_contiguous and np.array_equal(copied, matrix)

    def test_copy_shares_the_matrix_and_rows(self, cls):
        points = make_points(cls, np.array([4, 0, 5, 2]))
        clone = points.copy()
        assert clone.matrix is points.matrix
        assert np.array_equal(clone.rows, points.rows)

    def test_rows_default_to_the_matrix_order(self, cls):
        matrix = np.ones((4, 2))
        labels = np.zeros(4, dtype=np.int64)
        points = Pool(matrix, labels, 2) if cls is Pool else ValidationSet(matrix, labels)
        assert np.array_equal(points.rows, np.arange(4))

    @pytest.mark.parametrize("rows", [
        np.array([0, 6, 1]), np.array([-1, 0, 1]),  # outside the matrix
        np.array([0.0, 1.0, 2.0]),  # not integers
    ], ids=["past_the_end", "negative", "floats"])
    def test_rows_outside_the_matrix_rejected(self, cls, rows):
        with pytest.raises(ValueError, match="rows must be integers in"):
            make_points(cls, rows)

    @pytest.mark.parametrize("rows", [[0, 1], [[0, 1, 2]], [0, 1, 2, 3]],
                             ids=["short", "2-D", "long"])
    def test_rows_of_the_wrong_shape_rejected(self, cls, rows):
        with pytest.raises(ValueError, match="rows must be 1-D"):
            make_points(cls, np.array(rows), n_points=3)

    def test_features_attribute_is_gone(self, cls):
        # the name once held the split's own rows; reading it must fail
        points = make_points(cls, np.array([4, 0]))
        with pytest.raises(AttributeError):
            points.features


def state_arrays(pool):
    return pool.kind.copy(), pool.label.copy(), pool.round.copy()


def assert_state_unchanged(pool, before):
    for now, then in zip(state_arrays(pool), before):
        assert np.array_equal(now, then)


class TestBatchMarking:
    def test_batch_marks_every_id(self):
        pool = make_pool(8)
        pool.mark_auto(np.array([1, 4, 6]), np.array([0, 1, 1]), rnd=2)
        pool.mark_human(np.array([0, 7]), [1, 0])
        assert list(pool.ids_with(AUTO)) == [1, 4, 6]
        assert list(pool.ids_with(HUMAN)) == [0, 7]
        assert pool.label[[1, 4, 6]].tolist() == [0, 1, 1]
        assert set(pool.round[[1, 4, 6]].tolist()) == {2}
        assert pool.label[[0, 7]].tolist() == [1, 0]
        assert partition_counts(pool) == (3, 2, 3)

    def test_batch_with_labeled_id_rejected_whole(self):
        pool = make_pool()
        pool.mark_human(3, 1)
        pool.mark_auto(8, 0, rnd=1)
        before = state_arrays(pool)
        with pytest.raises(StateTransitionError, match="point 3 is already human"):
            pool.mark_auto(np.array([0, 3, 5]), np.array([1, 0, 1]), rnd=2)
        assert_state_unchanged(pool, before)
        with pytest.raises(StateTransitionError, match="point 8 is already auto"):
            pool.mark_human(np.array([2, 8]), [0, 1])
        assert_state_unchanged(pool, before)

    def test_batch_with_duplicate_id_rejected_whole(self):
        pool = make_pool()
        before = state_arrays(pool)
        with pytest.raises(StateTransitionError, match="twice"):
            pool.mark_auto(np.array([2, 5, 2]), np.array([1, 0, 1]), rnd=1)
        assert_state_unchanged(pool, before)
        with pytest.raises(StateTransitionError, match="twice"):
            pool.mark_human(np.array([4, 4]), [0, 0])
        assert_state_unchanged(pool, before)

    def test_label_length_mismatch_rejected_whole(self):
        pool = make_pool()
        before = state_arrays(pool)
        with pytest.raises(ValueError):
            pool.mark_auto(np.array([1, 2]), np.array([0, 1, 1]), rnd=1)
        assert_state_unchanged(pool, before)

    @pytest.mark.parametrize("ids", [-1, [0, -1], [2, -10], [3, 10]],
                             ids=["minus_one", "last_minus_one", "far_negative", "past_end"])
    def test_out_of_range_id_rejected_whole(self, ids):
        # NumPy indexing wraps a negative id around to the end of the pool
        pool = make_pool()
        before = state_arrays(pool)
        with pytest.raises(IndexError):
            pool.mark_human(ids, 1)
        assert_state_unchanged(pool, before)
        with pytest.raises(IndexError):
            pool.mark_auto(ids, 0, rnd=1)
        assert_state_unchanged(pool, before)

    def test_scalar_id(self):
        pool = make_pool()
        pool.mark_auto(np.int64(2), np.int64(1), rnd=5)
        pool.mark_human(6, 0)
        assert (KINDS[pool.kind[2]], pool.label[2], pool.round[2]) == (AUTO, 1, 5)
        assert (KINDS[pool.kind[6]], pool.label[6], pool.round[6]) == (HUMAN, 0, -1)
        assert partition_counts(pool) == (1, 1, len(pool) - 2)

    def test_empty_batch_is_a_no_op(self):
        pool = make_pool()
        before = state_arrays(pool)
        pool.mark_auto(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), rnd=1)
        pool.mark_human([], [])
        assert_state_unchanged(pool, before)


class TestOracle:
    def test_returns_truth(self):
        pool = make_pool(seed=3)
        oracle = Oracle(pool)
        labs = [oracle.label(i) for i in range(5)]
        assert labs == list(pool._truth[:5])
        assert all(type(lab) is int for lab in labs)

    def test_a_batch_equals_the_labels_of_its_ids(self):
        pool = make_pool(seed=3)
        oracle = Oracle(pool)
        ids = np.array([7, 0, 3, 3, 9])
        batch = oracle.label(ids)
        assert batch.dtype == np.int64
        assert batch.tolist() == [oracle.label(int(i)) for i in ids]
        assert oracle.label(np.empty(0, dtype=np.int64)).tolist() == []

    @pytest.mark.parametrize("ids", [10, -1, [0, 10], [2, -1], np.array([-10])])
    def test_an_id_outside_the_pool_raises(self, ids):
        # NumPy indexing would wrap a negative id around to the last points
        with pytest.raises(IndexError):
            Oracle(make_pool()).label(ids)


class TestValidationSet:
    def test_deactivation_is_monotone(self):
        v = ValidationSet(np.zeros((5, 2)), np.zeros(5, dtype=np.int64))
        assert v.n_active == 5
        v.deactivate(np.array([1, 3]))
        assert list(v.active_indices()) == [0, 2, 4]
        v.deactivate(np.array([1]))  # re-deactivation is a no-op
        assert v.n_active == 3

    @pytest.mark.parametrize("ids", [[-1], [0, -5], [1, 5]])
    def test_out_of_range_index_rejected_whole(self, ids):
        # NumPy indexing wraps a negative index around to the last entries
        v = ValidationSet(np.zeros((5, 2)), np.zeros(5, dtype=np.int64))
        with pytest.raises(IndexError):
            v.deactivate(np.array(ids))
        assert v.n_active == 5

    def test_copy_preserves_mask(self):
        v = ValidationSet(np.zeros((4, 2)), np.zeros(4, dtype=np.int64))
        v.deactivate(np.array([0]))
        c = v.copy()
        c.deactivate(np.array([1]))
        assert v.n_active == 3 and c.n_active == 2

    @given(st.lists(st.integers(min_value=0, max_value=19), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_active_count_never_increases(self, drops):
        v = ValidationSet(np.zeros((20, 2)), np.zeros(20, dtype=np.int64))
        prev = v.n_active
        for i in drops:
            v.deactivate(np.array([i]))
            assert v.n_active <= prev
            prev = v.n_active


class TestRngFrom:
    def test_same_stream_same_sequence(self):
        a = rng_from(11, "query", 3).integers(0, 1000, 5)
        b = rng_from(11, "query", 3).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_distinct_streams_diverge(self):
        a = rng_from(11, "query", 3).integers(0, 10**9, 8)
        b = rng_from(11, "train", 3).integers(0, 10**9, 8)
        c = rng_from(12, "query", 3).integers(0, 10**9, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_determinism_property(self, seed, name):
        x = rng_from(seed, name).random()
        y = rng_from(seed, name).random()
        assert x == y
