import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbal.confidence import AbsMargin, score
from tbal.core import rng_from
from tbal.model import LinearModel, raw_scores
from tbal.query import (MARGIN_RANDOM, QueryConfig, _lowest, query_margin_random,
                        query_random)


def line_model():
    return LinearModel(np.array([1.0, 0.0]), np.asarray(0.0), num_classes=2)


def scored_query(model, kind, ids, X, n, C, rng):
    """Score the rows of ``ids`` as the engine does, then query."""
    _, scores = score(kind, model, raw_scores(model, X[ids]))
    return query_margin_random(ids, scores, n, C, rng)


def full_sort_margin_random(ids, scores, n, C, rng):
    """Reference: the selection before the partition. Lexsort every
    (score, id), keep the first C*n, sample n from them."""
    ids = np.asarray(ids, dtype=np.int64)
    if n >= len(ids):
        return ids.copy(), n > len(ids)
    order = np.lexsort((ids, scores))
    pool_slice = ids[order[:min(int(C * n), len(ids))]]
    chosen = rng.choice(pool_slice, size=n, replace=False)
    return np.sort(chosen), False


def spaced_features(n):
    # confidence |x0| strictly increasing with id
    return np.column_stack([np.arange(1, n + 1, dtype=np.float64), np.zeros(n)])


class TestQueryRandom:
    def test_distinct_sorted_subset(self):
        ids = np.arange(100, 200)
        got, truncated = query_random(ids, 10, rng_from(0, "q"))
        assert not truncated
        assert len(got) == 10 == len(set(got))
        assert np.array_equal(got, np.sort(got))
        assert set(got) <= set(ids)

    def test_truncation(self):
        ids = np.arange(5)
        got, truncated = query_random(ids, 9, rng_from(0, "q"))
        assert truncated and np.array_equal(got, ids)
        got, truncated = query_random(ids, 5, rng_from(0, "q"))
        assert not truncated and np.array_equal(got, ids)

    def test_deterministic(self):
        ids = np.arange(50)
        a, _ = query_random(ids, 7, rng_from(3, "q"))
        b, _ = query_random(ids, 7, rng_from(3, "q"))
        assert np.array_equal(a, b)

    def test_roughly_uniform(self):
        # each of 20 ids should be picked ~ n*k/N = 1000*5/20 = 250 times
        ids = np.arange(20)
        counts = np.zeros(20)
        for t in range(1000):
            got, _ = query_random(ids, 5, rng_from(t, "freq"))
            counts[got] += 1
        assert np.all(counts > 150) and np.all(counts < 350)


class TestMarginRandom:
    def test_batch_comes_from_least_confident_slice(self):
        m = line_model()
        X = spaced_features(40)
        ids = np.arange(40)
        got, truncated = scored_query(m, AbsMargin(), ids, X, 5, 2.0,
                                      rng_from(0, "q"))
        assert not truncated
        # slice is the 10 smallest |x0| values, i.e. ids 0..9
        assert set(got) <= set(range(10))
        assert len(got) == 5

    def test_truncation_returns_everything(self):
        m = line_model()
        X = spaced_features(4)
        got, truncated = scored_query(m, AbsMargin(), np.arange(4), X, 6, 2.0,
                                      rng_from(0, "q"))
        assert truncated and np.array_equal(got, np.arange(4))

    def test_slice_capped_at_pool_size(self):
        m = line_model()
        X = spaced_features(6)
        got, _ = scored_query(m, AbsMargin(), np.arange(6), X, 5, 10.0,
                              rng_from(1, "q"))
        assert len(got) == 5

    def test_uniform_within_slice(self):
        # batch 5 from a slice of 10: each slice member expected 500/1000
        m = line_model()
        X = spaced_features(30)
        ids = np.arange(30)
        counts = np.zeros(30)
        for t in range(1000):
            got, _ = scored_query(m, AbsMargin(), ids, X, 5, 2.0,
                                  rng_from(t, "freq"))
            counts[got] += 1
        assert np.all(counts[:10] > 350) and np.all(counts[:10] < 650)
        assert np.all(counts[10:] == 0)

    def test_ties_break_by_id(self):
        m = line_model()
        X = np.ones((10, 2))  # all scores identical
        a, _ = scored_query(m, AbsMargin(), np.arange(10), X, 2, 2.0,
                            rng_from(5, "q"))
        b, _ = scored_query(m, AbsMargin(), np.arange(10), X, 2, 2.0,
                            rng_from(5, "q"))
        assert np.array_equal(a, b)
        assert set(a) <= set(range(4))  # tie-broken slice is the lowest ids

    @given(st.integers(1, 8), st.floats(1.1, 4.0), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_membership_property(self, batch, C, seed):
        m = line_model()
        n = 25
        X = spaced_features(n)
        got, _ = scored_query(m, AbsMargin(), np.arange(n), X, batch, C,
                              rng_from(seed, "prop"))
        slice_n = min(int(C * batch), n)
        k = min(batch, n)
        assert len(got) == k == len(set(got))
        assert set(got) <= set(range(slice_n))


class TestPartitionSelection:
    """The partition-based slice equals the full lexsort's, in order, so the
    batch drawn from it on the same rng is the same."""

    @staticmethod
    def instances(seed, n, values):
        rng = np.random.default_rng(seed)
        ids = rng.choice(10 * n, size=n, replace=False)  # distinct, unsorted
        return ids, rng.choice(np.asarray(values, dtype=np.float64), size=n)

    def check(self, ids, scores, batch, C, seed):
        n = min(int(C * batch), len(ids))
        want = ids[np.lexsort((ids, scores))[:n]]
        assert np.array_equal(_lowest(ids, scores, n), want)
        got = query_margin_random(ids, scores, batch, C, rng_from(seed, "sel"))
        ref = full_sort_margin_random(ids, scores, batch, C, rng_from(seed, "sel"))
        assert got[1] == ref[1]
        assert np.array_equal(got[0], ref[0])

    @pytest.mark.parametrize("values", [[0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 7.0],
                                        [-0.0, 0.0, 1.0], [-0.0, 0.0]])
    def test_heavy_ties(self, values):
        for seed in range(40):
            ids, scores = self.instances(seed, 60, values)
            for batch, C in ((1, 2.0), (4, 2.5), (7, 3.0), (20, 2.0)):
                self.check(ids, scores, batch, C, seed)

    def test_continuous_scores(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ids = rng.permutation(500)
            self.check(ids, rng.standard_normal(500), 25, 2.0, seed)

    def test_slice_covers_every_id(self):
        # C*n_b >= len(ids): the slice is every id, sorted by (score, id)
        for seed in range(10):
            ids, scores = self.instances(seed, 12, [0.0, 1.0])
            self.check(ids, scores, 5, 3.0, seed)
            self.check(ids, scores, 6, 2.0, seed)

    def test_truncation_flag(self):
        ids, scores = self.instances(0, 8, [1.0, 2.0])
        for batch in (8, 9, 20):
            self.check(ids, scores, batch, 2.0, 0)
            got, truncated = query_margin_random(ids, scores, batch, 2.0,
                                                 rng_from(0, "sel"))
            assert truncated == (batch > 8)
            assert np.array_equal(got, ids)

    def test_scores_must_match_ids(self):
        with pytest.raises(ValueError, match="scores"):
            query_margin_random(np.arange(10), np.zeros(9), 2, 2.0, rng_from(0, "sel"))

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=40),
           st.integers(1, 10), st.floats(1.1, 5.0), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort_property(self, values, batch, C, seed):
        ids = np.random.default_rng(seed).permutation(len(values)) * 3
        scores = np.asarray(values, dtype=np.float64) / 2
        self.check(ids, scores, batch, C, seed)


class TestQueryConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="C must be > 1"):
            QueryConfig(strategy=MARGIN_RANDOM, C=1.0)
        QueryConfig(strategy="random", C=0.5)  # C unused for random
