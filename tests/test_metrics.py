import math

import numpy as np
import pytest

from tbal.core import Pool, ValidationSet, partition_counts
from tbal.data import gen_unit_ball, split_pool_val
from tbal.engine import RoundRecord, RunConfig, RunResult, run
from tbal.metrics import (IntegrityError, MetricReport, clopper_pearson_upper, evaluate,
                          summarize_trials)
from tbal.model import LinearModel, TrainConfig


def build_result(truth, marks):
    """Hand-assembled run result. `marks` is a list of rounds, each a list of
    (id, label). The expected error/coverage get computed right here, by hand,
    as the oracle for evaluate()."""
    n = len(truth)
    pool = Pool(np.zeros((n, 2)), np.asarray(truth), num_classes=2)
    rounds = []
    for rnd, batch in enumerate(marks, start=1):
        ids = np.array([i for i, _ in batch], dtype=np.int64)
        labels = np.array([l for _, l in batch], dtype=np.int64)
        for i, l in batch:
            pool.mark_auto(i, l, rnd)
        rounds.append(RoundRecord(
            index=rnd, queried_ids=np.empty(0, dtype=np.int64), train_loss=0.0,
            decision=None, auto_ids=ids, auto_labels=labels,
            val_deactivated=np.empty(0, dtype=np.int64), n_v=0))
    val = ValidationSet(np.zeros((3, 2)), np.zeros(3, dtype=np.int64))
    model = LinearModel(weights=np.zeros(2), bias=np.float64(0.0), num_classes=2)
    return pool, RunResult(method="tbal", seed=0, pool=pool, validation=val,
                           rounds=rounds, model=model)


class TestEvaluate:
    def test_exact_counts(self):
        truth = [0, 1, 0, 1, 1, 0]
        # round 1: ids 0 (right), 1 (wrong); round 2: ids 3, 4 (right), 5 (wrong)
        pool, res = build_result(truth, [[(0, 0), (1, 0)],
                                         [(3, 1), (4, 1), (5, 1)]])
        rep = evaluate(res, pool)
        assert rep.err_hat == pytest.approx(2 / 5)
        assert rep.cov_hat == pytest.approx(5 / 6)
        assert [r.m_a for r in res.rounds] == [1, 1]
        # identity: total mistakes equal err_hat * N_a
        assert sum(r.m_a for r in res.rounds) == pytest.approx(rep.err_hat * res.N_a)
        assert partition_counts(res.pool) == (5, 0, 1)

    def test_no_auto_labels_error_undefined_not_zero(self):
        pool, res = build_result([0, 1, 0], [])
        rep = evaluate(res, pool)
        assert math.isnan(rep.err_hat)
        assert rep.cov_hat == 0.0

    def test_fills_round_mistakes(self):
        pool, res = build_result([1, 1], [[(0, 0), (1, 1)]])
        assert res.rounds[0].m_a == -1
        evaluate(res, pool)
        assert res.rounds[0].m_a == 1

    def test_pool_mismatch_rejected(self):
        pool, res = build_result([0, 1, 0], [[(0, 0)]])
        other = Pool(np.zeros((5, 2)), np.zeros(5, dtype=np.int64), num_classes=2)
        with pytest.raises(IntegrityError):
            evaluate(res, other)

    def test_tampered_totals_rejected(self):
        pool, res = build_result([0, 1], [[(0, 0)]])
        res.pool.mark_auto(1, 1, 1)  # an auto label no round records
        with pytest.raises(IntegrityError, match="pool auto count"):
            evaluate(res, pool)

    def test_on_real_run(self):
        x, y = gen_unit_ball(4, 700, seed=0)
        pool, val = split_pool_val(x, y, 500, 200, seed=0)
        cfg = RunConfig(method="tbal", n_s=30, n_b=10, N_q=80,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run(pool, val, cfg, seed=0)
        rep = evaluate(res, pool)
        assert isinstance(rep, MetricReport)
        n_auto, n_human, n_unlabeled = partition_counts(res.pool)
        assert n_auto + n_human + n_unlabeled == len(pool)
        assert (n_auto, n_human) == (res.N_a, res.human_labels_used)
        assert rep.cov_hat == n_auto / len(pool)
        if not math.isnan(rep.err_hat):
            # recount mistakes independently from the pool state arrays
            auto = res.pool.ids_with("auto")
            wrong = int(np.sum(res.pool.label[auto] != pool._truth[auto]))
            assert rep.err_hat == pytest.approx(wrong / n_auto)


class TestSummarize:
    def test_matches_numpy(self):
        vals = [0.1, 0.4, 0.25, 0.3]
        mean, std = summarize_trials(vals)
        assert mean == pytest.approx(np.mean(vals))
        assert std == pytest.approx(np.std(vals, ddof=1))

    def test_single_value(self):
        assert summarize_trials([0.7]) == (0.7, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_trials([])


class TestClopperPearsonUpper:
    def test_no_violation_in_ten_or_forty_trials(self):
        # 0 of n: the bound is 1 - 0.05^(1/n)
        assert round(clopper_pearson_upper(0, 10), 3) == 0.259
        assert round(clopper_pearson_upper(0, 40), 3) == 0.072
        for n in (1, 10, 40, 59, 1000):
            assert clopper_pearson_upper(0, n) == pytest.approx(1 - 0.05 ** (1 / n),
                                                                rel=1e-12)
        assert clopper_pearson_upper(0, 59) < 0.05 < clopper_pearson_upper(0, 58)

    def test_matches_the_beta_quantile(self):
        beta = pytest.importorskip("scipy.stats").beta
        for k, n in [(1, 10), (3, 40), (9, 10), (5, 2000), (26, 40), (1, 1500)]:
            assert clopper_pearson_upper(k, n) == pytest.approx(
                beta.ppf(0.95, k + 1, n - k), rel=1e-12)

    def test_every_trial_over_bounds_at_one(self):
        assert clopper_pearson_upper(10, 10) == 1.0

    def test_counts_checked(self):
        for k, n in [(-1, 10), (11, 10), (0, 0)]:
            with pytest.raises(ValueError):
                clopper_pearson_upper(k, n)
