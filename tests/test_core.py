import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbal.core import (AUTO, HUMAN, UNLABELED, Oracle, PointState, Pool,
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
        assert pool.states[3].kind == AUTO
        assert pool.states[3].round == 7
        pool.mark_human(5, 0)
        assert pool.states[5].kind == HUMAN
        assert pool.states[5].round is None

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
        assert pool.states[0].kind == UNLABELED
        assert clone.states[0].kind == HUMAN

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Pool(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), num_classes=2)
        with pytest.raises(ValueError):
            Pool(np.zeros(3), np.zeros(3, dtype=np.int64), num_classes=2)


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
        assert [pool.states[i].label for i in (1, 4, 6)] == [0, 1, 1]
        assert {pool.states[i].round for i in (1, 4, 6)} == {2}
        assert (pool.states[0].label, pool.states[7].label) == (1, 0)
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

    def test_scalar_id(self):
        pool = make_pool()
        pool.mark_auto(np.int64(2), np.int64(1), rnd=5)
        pool.mark_human(6, 0)
        assert pool.states[2] == PointState(AUTO, label=1, round=5)
        assert pool.states[6] == PointState(HUMAN, label=0)
        assert partition_counts(pool) == (1, 1, len(pool) - 2)

    def test_empty_batch_is_a_no_op(self):
        pool = make_pool()
        before = state_arrays(pool)
        pool.mark_auto(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), rnd=1)
        pool.mark_human([], [])
        assert_state_unchanged(pool, before)

    def test_states_leave_unset_fields_none(self):
        pool = make_pool(4)
        pool.mark_human(1, 0)
        pool.mark_auto(2, 0, rnd=1)
        assert pool.states == (PointState(UNLABELED), PointState(HUMAN, label=0),
                               PointState(AUTO, label=0, round=1),
                               PointState(UNLABELED))
        assert pool.states[0].label is None and pool.states[0].round is None
        assert pool.states[1].round is None
        assert all(type(s.label) is int for s in pool.states[1:3])


class TestOracle:
    def test_returns_truth_and_counts(self):
        pool = make_pool(seed=3)
        oracle = Oracle(pool)
        labs = [oracle.label(i) for i in range(5)]
        assert labs == list(pool._truth[:5])
        assert oracle.queries == 5


class TestValidationSet:
    def test_deactivation_is_monotone(self):
        v = ValidationSet(np.zeros((5, 2)), np.zeros(5, dtype=np.int64))
        assert v.n_active == 5
        v.deactivate(np.array([1, 3]))
        assert list(v.active_indices()) == [0, 2, 4]
        v.deactivate(np.array([1]))  # re-deactivation is a no-op
        assert v.n_active == 3

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
