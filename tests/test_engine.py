import math
from dataclasses import fields, replace

import numpy as np
import pytest

import tbal.confidence as conf
from tbal.confidence import AbsMargin, Energy, Softmax
from tbal.confidence import score as score_kind
from tbal.core import AUTO, HUMAN, KINDS, UNLABELED, Pool, ValidationSet, rng_from
from tbal.data import gen_unit_ball, gen_xor, split_pool_val
import tbal.engine as engine
from tbal.engine import METHODS, RoundRecord, RunConfig, _round_seed, run
from tbal.model import TrainConfig
import tbal.model as linmod
from tbal.query import QueryConfig
from tbal.threshold import ThresholdConfig, ThresholdDecision
import tbal.query as qry
from tbal.metrics import evaluate

from test_acceptance import check_invariants
from test_query import full_sort_margin_random
import reference_engine as reference


def small_problem(seed=0, n=600, val=200, d=4):
    x, y = gen_unit_ball(d, n + val, seed)
    return split_pool_val(x, y, n, val, seed)


def xor_problem(seed=0, n=800, val=300):
    x, y = gen_xor(n + val, seed=seed)
    return split_pool_val(x, y, n, val, seed)


def count_kinds(pool):
    return {k: len(pool.ids_with(k)) for k in (AUTO, HUMAN, UNLABELED)}


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            RunConfig(method="bootstrap")
        with pytest.raises(ValueError, match="n_s"):
            RunConfig(n_s=600, N_q=500)
        with pytest.raises(ValueError, match="n_b"):
            RunConfig(n_b=0)

    def test_rejects_empty_seed_batch(self):
        for method in METHODS:
            with pytest.raises(ValueError, match="n_s must be >= 1"):
                RunConfig(method=method, n_s=0, N_q=50)

    def test_shared_query_config_keeps_its_batch(self):
        shared = QueryConfig(strategy="random", batch=7, C=3.0)
        a = RunConfig(n_b=10, query=shared)
        b = RunConfig(n_b=20, query=shared)
        assert shared.batch == 7
        assert (a.query.batch, b.query.batch) == (10, 20)
        assert a.query.strategy == b.query.strategy == "random"
        assert a.query.C == b.query.C == 3.0

    def test_defaults_threaded(self):
        cfg = RunConfig(epsilon_a=0.07, n_b=13)
        assert cfg.threshold.epsilon_a == 0.07
        assert cfg.query.batch == 13
        assert isinstance(cfg.train, TrainConfig)


class TestTbalLoop:
    def test_budget_respected_and_partition_holds(self):
        pool, val = small_problem()
        cfg = RunConfig(method="tbal", n_s=30, n_b=10, N_q=80,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run(pool, val, cfg, seed=1)
        kinds = count_kinds(res.pool)
        assert kinds[HUMAN] == res.human_labels_used <= 80
        assert sum(kinds.values()) == len(pool)
        assert res.N_a == kinds[AUTO] == sum(r.n_a for r in res.rounds)
        assert res.k == len(res.rounds) >= 1

    def test_inputs_not_mutated(self):
        pool, val = small_problem(seed=2)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=50)
        run(pool, val, cfg, seed=0)
        assert count_kinds(pool)[UNLABELED] == len(pool)
        assert val.n_active == len(val)

    def test_seed_determinism(self):
        pool, val = small_problem(seed=3)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=60,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        r1 = run(pool, val, cfg, seed=9)
        r2 = run(pool, val, cfg, seed=9)
        assert np.array_equal(r1.pool.kind, r2.pool.kind)
        assert np.array_equal(r1.pool.label, r2.pool.label)
        for a, b in zip(r1.rounds, r2.rounds):
            assert np.array_equal(a.queried_ids, b.queried_ids)
            assert np.array_equal(a.auto_ids, b.auto_ids)
        r3 = run(pool, val, cfg, seed=10)
        assert any(not np.array_equal(a.auto_ids, b.auto_ids)
                   for a, b in zip(r1.rounds, r3.rounds)) or r1.N_a != r3.N_a

    def test_auto_rounds_recorded_in_order(self):
        pool, val = small_problem(seed=4)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=60,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run(pool, val, cfg, seed=0)
        assert [r.index for r in res.rounds] == list(range(1, res.k + 1))
        for r in res.rounds:
            assert np.all(res.pool.round[r.auto_ids] == r.index)

    def test_validation_only_deactivates(self):
        pool, val = small_problem(seed=5)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=60,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run(pool, val, cfg, seed=0)
        drops = np.concatenate([r.val_deactivated for r in res.rounds]) \
            if res.rounds else np.empty(0)
        assert len(drops) == len(set(drops.tolist()))  # never dropped twice
        assert res.validation.n_active == len(val) - len(drops)

    def test_impossible_target_abstains_everywhere(self):
        pool, val = xor_problem(seed=1)
        # unreachable epsilon: every threshold is infinite, nothing auto-labels
        cfg = RunConfig(method="tbal", n_s=20, n_b=20, N_q=100,
                        threshold=ThresholdConfig(epsilon_a=1e-9, n0=10**6))
        res = run(pool, val, cfg, seed=0)
        assert res.N_a == 0
        assert all(r.n_a == 0 for r in res.rounds)
        assert all(r.decision is None or r.decision.infinite.all()
                   for r in res.rounds)
        # full budget went to humans, everything else stays unlabeled
        assert res.human_labels_used == 100
        assert count_kinds(res.pool)[UNLABELED] == len(pool) - 100

    def test_final_pass_runs_after_budget(self):
        pool, val = small_problem(seed=6)
        cfg = RunConfig(method="tbal", n_s=40, n_b=20, N_q=40,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run(pool, val, cfg, seed=0)
        # budget equals the seed batch, so exactly one train/label pass runs
        assert res.k == 1
        assert res.human_labels_used == 40

    def test_random_query_strategy(self):
        pool, val = small_problem(seed=7)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=50,
                        query=QueryConfig(strategy="random", batch=10),
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run(pool, val, cfg, seed=0)
        assert res.human_labels_used <= 50

    def test_alternative_confidences_run(self):
        pool, val = small_problem(seed=8, n=300, val=150)
        for kind in (Softmax(), Energy(temperature=2.0)):
            cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=40,
                            confidence=kind,
                            threshold=ThresholdConfig(epsilon_a=0.05))
            res = run(pool, val, cfg, seed=0)
            assert sum(count_kinds(res.pool).values()) == len(pool)


class TestAbstainEquivalence:
    def test_infinite_thresholds_match_never_labeling(self):
        # a run whose thresholds never fire must walk the same query path as
        # a plain active-learning loop over the same streams
        pool, val = xor_problem(seed=2)
        cfg = RunConfig(method="tbal", n_s=20, n_b=15, N_q=80,
                        threshold=ThresholdConfig(epsilon_a=1e-9, n0=10**6))
        res = run(pool, val, cfg, seed=4)
        # replay the loop by hand with the same derived streams
        seed_ids, _ = qry.query_random(np.arange(len(pool)), 20,
                                       rng_from(4, "seed_query"))
        assert np.array_equal(res.rounds[0].queried_ids, seed_ids)
        human = set(seed_ids.tolist())
        for r in res.rounds[1:]:
            assert len(r.queried_ids) <= 15
            assert not human & set(r.queried_ids.tolist())
            human |= set(r.queried_ids.tolist())
        assert len(human) == 80


class TestBaselines:
    def test_pl_labels_everything_remaining(self):
        pool, val = small_problem(seed=9)
        cfg = RunConfig(method="pl", n_s=20, n_b=10, N_q=50)
        res = run(pool, val, cfg, seed=0)
        kinds = count_kinds(res.pool)
        assert kinds[HUMAN] == 50
        assert kinds[AUTO] == len(pool) - 50
        assert kinds[UNLABELED] == 0
        assert res.rounds[0].decision is None

    def test_pl_degenerate_full_budget(self):
        pool, val = small_problem(seed=10, n=60, val=40)
        cfg = RunConfig(method="pl", n_s=10, n_b=10, N_q=60)
        res = run(pool, val, cfg, seed=0)
        kinds = count_kinds(res.pool)
        assert kinds[HUMAN] == 60 and kinds[AUTO] == 0

    def test_selective_baselines_threshold_once(self):
        pool, val = xor_problem(seed=3)
        for method in ("plsc", "alsc"):
            cfg = RunConfig(method=method, n_s=30, n_b=15, N_q=90)
            res = run(pool, val, cfg, seed=0)
            assert res.k <= 1
            if res.rounds:
                assert res.rounds[0].decision is not None
            kinds = count_kinds(res.pool)
            assert kinds[HUMAN] == 90
            assert kinds[AUTO] == res.N_a

    def test_shared_seed_batch_across_methods(self):
        pool, val = small_problem(seed=11)
        seed_ids, _ = qry.query_random(np.arange(len(pool)), 20,
                                       rng_from(7, "seed_query"))
        for method in METHODS:
            cfg = RunConfig(method=method, n_s=20, n_b=10, N_q=40,
                            train=TrainConfig(normalized=True, learning_rate=3.0))
            res = run(pool, val, cfg, seed=7)
            assert np.all(res.pool.kind[seed_ids] == KINDS.index(HUMAN))

    def test_run_dispatch(self):
        pool, val = small_problem(seed=12, n=100, val=60)
        cfg = RunConfig(method="tbal", n_s=10, n_b=5, N_q=20)
        assert run(pool, val, cfg, seed=0).method == "tbal"

    def test_human_labels_match_oracle_truth(self):
        pool, val = small_problem(seed=13)
        cfg = RunConfig(method="al", n_s=20, n_b=10, N_q=40)
        res = run(pool, val, cfg, seed=0)
        human = res.pool.ids_with(HUMAN)
        assert np.array_equal(res.pool.label[human], pool._truth[human])


def record_fits(monkeypatch):
    """Route the engine's model fits through a recorder; returns the list of
    (X, y, seed, model) each fit saw and produced."""
    fits = []
    real_fit = linmod.fit

    def recording_fit(X, y, cfg, seed, num_classes=None):
        model = real_fit(X, y, cfg, seed, num_classes=num_classes)
        fits.append((np.array(X), np.array(y), seed, model))
        return model

    monkeypatch.setattr(linmod, "fit", recording_fit)
    return fits


class TestFitOnlyWhatIsRead:
    # n_s=20 then four random batches of 15 reach N_q=80
    N_S, N_B, N_Q, BATCHES = 20, 15, 80, 4

    def config(self, method):
        return RunConfig(method=method, n_s=self.N_S, n_b=self.N_B, N_q=self.N_Q)

    @pytest.mark.parametrize("method", ["pl", "plsc"])
    def test_random_query_baselines_fit_once(self, monkeypatch, method):
        pool, val = xor_problem(seed=5)
        fits = record_fits(monkeypatch)
        run(pool, val, self.config(method), seed=3)
        assert len(fits) == 1

    @pytest.mark.parametrize("method", ["al", "alsc"])
    def test_active_baselines_fit_every_round(self, monkeypatch, method):
        pool, val = xor_problem(seed=5)
        fits = record_fits(monkeypatch)
        run(pool, val, self.config(method), seed=3)
        assert [f[2] for f in fits] == [_round_seed(3, "train", r)
                                        for r in range(1, self.BATCHES + 2)]

    @pytest.mark.parametrize("method", ["pl", "plsc"])
    def test_single_fit_is_the_last_round_fit_on_the_full_budget(self, monkeypatch,
                                                                  method):
        pool, val = xor_problem(seed=5)
        fits = record_fits(monkeypatch)
        cfg = self.config(method)
        res = run(pool, val, cfg, seed=3)
        X, y, fit_seed, model = fits[0]
        # every human label, seed batch first, with the last round's seed
        human = res.pool.ids_with(HUMAN)
        assert len(X) == len(human) == self.N_Q
        seed_ids, _ = qry.query_random(np.arange(len(pool)), self.N_S,
                                       rng_from(3, "seed_query"))
        assert np.array_equal(X[:self.N_S], pool.features[seed_ids])
        assert sorted(zip(map(tuple, X), y.tolist())) == \
            sorted(zip(map(tuple, pool.features[human]), pool._truth[human].tolist()))
        assert fit_seed == _round_seed(3, "train", 1 + self.BATCHES)
        ref = linmod.fit(X, y, cfg.train, fit_seed, num_classes=2)
        assert np.array_equal(model.weights, ref.weights)
        assert np.array_equal(model.bias, ref.bias)
        if method == "pl":
            auto = res.rounds[0].auto_ids
            assert np.array_equal(res.rounds[0].auto_labels,
                                  linmod.predict(ref, pool.features[auto]))



class TestMulticlassOffline:
    """K=4 Gaussian clusters generated here: the multiclass path (logistic
    loss, softmax confidence, per-class thresholds) without MNIST."""

    K = 4

    def problem(self, seed=0, d=8, n=1200, val=600):
        rng = rng_from(seed, "gauss_clusters")
        centres = 1.0 * rng.standard_normal((self.K, d))
        y = rng.integers(0, self.K, size=n + val)
        X = centres[y] + rng.standard_normal((n + val, d))
        return split_pool_val(X, y, n, val, seed, num_classes=self.K)

    def run(self, monkeypatch, per_class):
        pool, val = self.problem()
        fits = record_fits(monkeypatch)
        cfg = RunConfig(method="tbal", epsilon_a=0.05, n_s=60, n_b=30, N_q=240,
                        threshold=ThresholdConfig(epsilon_a=0.05, per_class=per_class),
                        train=TrainConfig(loss="logistic"), confidence=Softmax())
        res = run(pool, val, cfg, seed=2)
        return pool, val, res, [f[3] for f in fits]

    @pytest.mark.parametrize("per_class", [True, False])
    def test_auto_labels_meet_their_class_threshold(self, monkeypatch, per_class):
        pool, val, res, models = self.run(monkeypatch, per_class)
        assert len(models) == res.k
        labeled_classes, distinct = set(), 0
        for r, model in zip(res.rounds, models):
            if r.decision is None or r.n_a == 0:
                continue
            pred, score = score_kind(Softmax(), model, pool.features[r.auto_ids])
            assert np.array_equal(pred, r.auto_labels)
            t = r.decision.thresholds
            assert t.shape == (self.K,)
            assert np.all(score >= t[pred])
            if not per_class:
                assert len(set(t.tolist())) == 1  # one threshold for every class
                assert t[0] == r.decision.thresholds[-1]
            distinct = max(distinct, len(set(t[np.isfinite(t)].tolist())))
            labeled_classes |= set(r.auto_labels.tolist())
        assert labeled_classes == set(range(self.K))
        assert distinct == (self.K if per_class else 1)
        assert 0 < res.N_a < len(pool) - res.human_labels_used

    def test_run_passes_the_invariant_audit(self, monkeypatch):
        pool, val, res, _ = self.run(monkeypatch, per_class=True)
        check_invariants(res, pool, val)
        report = evaluate(res, pool)
        assert report.n_auto == res.N_a
        assert report.n_human == res.human_labels_used


class TestQueryReadsThePassScores:
    """TBAL scores the pool once per round. Each round's queried batch must
    equal the old score-then-select: score the remaining pool again with
    that round's model (unshifted confidence, or the logit gap), lexsort all
    of it and draw on the same rng."""

    def record(self, monkeypatch, bias_shift=0.0):
        models, shifted, passed = [], [], []
        real_fit, real_shift = linmod.fit, conf.shift_nonnegative
        real_query = qry.query_margin_random

        def fit(X, y, cfg, seed, num_classes=None):
            model = real_fit(X, y, cfg, seed, num_classes=num_classes)
            # same argmax and softmax; every energy score falls by bias_shift
            model.bias = model.bias - bias_shift
            models.append(model)
            return model

        def shift(*arrays):
            shifted.append(min(a.min() for a in arrays if len(a)) < 0)
            return real_shift(*arrays)

        def query(ids, scores, cfg, rng):
            passed.append(np.array(scores, copy=True))
            return real_query(ids, scores, cfg, rng)

        monkeypatch.setattr(linmod, "fit", fit)
        monkeypatch.setattr(conf, "shift_nonnegative", shift)
        monkeypatch.setattr(qry, "query_margin_random", query)
        return models, shifted, passed

    def check_rounds(self, pool, res, cfg, models, passed, seed):
        assert len(passed) == res.k - 1 >= 3
        done = np.empty(0, dtype=np.int64)
        for r in range(1, res.k):  # rounds[r] holds the batch queried after round r
            prev = res.rounds[r - 1]
            done = np.concatenate([done, prev.queried_ids, prev.auto_ids])
            remaining = np.setdiff1d(np.arange(len(pool)), done)
            X, model = pool.features[remaining], models[r - 1]
            if cfg.query.use_gap:
                want_scores = qry.logit_gap(linmod.logits(model, X))
            else:
                _, want_scores = score_kind(cfg.confidence, model, X)
            assert passed[r - 1].tobytes() == want_scores.tobytes()
            batch = res.rounds[r].queried_ids
            want, _ = full_sort_margin_random(
                remaining, want_scores, replace(cfg.query, batch=len(batch)),
                rng_from(seed, "query", r))
            assert np.array_equal(batch, want)

    def multiclass_config(self, confidence, use_gap=False):
        return RunConfig(method="tbal", epsilon_a=0.05, n_s=60, n_b=30, N_q=240,
                         threshold=ThresholdConfig(epsilon_a=0.05),
                         query=QueryConfig(use_gap=use_gap),
                         train=TrainConfig(loss="logistic"), confidence=confidence)

    def test_multiclass_energy_reads_unshifted_scores(self, monkeypatch):
        pool, val = TestMulticlassOffline().problem()
        models, shifted, passed = self.record(monkeypatch, bias_shift=50.0)
        cfg = self.multiclass_config(Energy())
        res = run(pool, val, cfg, seed=2)
        assert all(shifted)  # every round's raw energy scores were negative
        self.check_rounds(pool, res, cfg, models, passed, 2)

    def test_multiclass_logit_gap(self, monkeypatch):
        pool, val = TestMulticlassOffline().problem()
        models, _, passed = self.record(monkeypatch)
        cfg = self.multiclass_config(Softmax(), use_gap=True)
        res = run(pool, val, cfg, seed=2)
        self.check_rounds(pool, res, cfg, models, passed, 2)

    @pytest.mark.parametrize("use_gap", [False, True])
    def test_binary_abs_margin(self, monkeypatch, use_gap):
        pool, val = xor_problem(seed=1)
        models, _, passed = self.record(monkeypatch)
        cfg = RunConfig(n_s=40, n_b=20, N_q=200, query=QueryConfig(use_gap=use_gap))
        res = run(pool, val, cfg, seed=4)
        self.check_rounds(pool, res, cfg, models, passed, 4)


def assert_same_run(got, want):
    """Every RoundRecord field, the pool's state arrays, the validation mask
    and the RunResult counters agree exactly."""
    assert (got.method, got.seed, got.N_a, got.k, got.human_labels_used,
            got.val_labels_used) == (want.method, want.seed, want.N_a, want.k,
                                     want.human_labels_used, want.val_labels_used)
    for name in ("kind", "label", "round"):
        assert np.array_equal(getattr(got.pool, name), getattr(want.pool, name))
    assert np.array_equal(got.validation.active, want.validation.active)
    assert len(got.rounds) == len(want.rounds)
    for a, b in zip(got.rounds, want.rounds):
        for f in fields(RoundRecord):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, ThresholdDecision):  # its arrays, as exact lists
                x, y = ([v.tolist() if isinstance(v, np.ndarray) else v
                         for v in vars(d).values()] for d in (x, y))
            if isinstance(y, np.ndarray):
                assert isinstance(x, np.ndarray) and x.dtype == y.dtype, f.name
                assert np.array_equal(x, y), f.name
            else:  # repr: exact floats, nan equal to nan, lists compared whole
                assert repr(x) == repr(y), f.name


def unit_ball_train():
    return TrainConfig(normalized=True, learning_rate=3.0)


def k4_config(**kw):
    return dict(epsilon_a=0.05, threshold=ThresholdConfig(epsilon_a=0.05),
                train=TrainConfig(loss="logistic"), confidence=Softmax(), **kw)


# name -> (problem, RunConfig keywords shared by the five methods)
MERGE_CASES = {
    "xor": (lambda: xor_problem(seed=1), dict(n_s=40, n_b=20, N_q=200)),
    "unit_ball": (lambda: small_problem(seed=3, d=6),
                  dict(n_s=30, n_b=10, N_q=110, train=unit_ball_train())),
    "k4_softmax": (lambda: TestMulticlassOffline().problem(),
                   k4_config(n_s=60, n_b=30, N_q=240)),
    "budget_is_seed_batch": (lambda: xor_problem(seed=2), dict(n_s=40, n_b=20, N_q=40)),
    "pool_spent_with_budget": (lambda: small_problem(seed=10, n=60, val=40),
                               dict(n_s=10, n_b=10, N_q=60)),
    "pool_drained_before_budget": (lambda: small_problem(seed=10, n=60, val=40),
                                   dict(n_s=10, n_b=10, N_q=80)),
    "random_query": (lambda: small_problem(seed=7),
                     dict(n_s=20, n_b=10, N_q=80, train=unit_ball_train(),
                          query=QueryConfig(strategy="random"))),
    # K=4: the logit gap orders points unlike softmax (for K=2 both follow |s|)
    "use_gap": (lambda: TestMulticlassOffline().problem(seed=1),
                k4_config(n_s=60, n_b=30, N_q=240, query=QueryConfig(use_gap=True))),
}


class TestOneLoopMatchesTheTwoLoops:
    """``run`` against verbatim copies of the loops it replaced."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", sorted(MERGE_CASES))
    def test_same_run_as_reference(self, case, method):
        problem, kw = MERGE_CASES[case]
        pool, val = problem()
        cfg = RunConfig(method=method, **kw)
        old = reference.run_tbal if method == "tbal" else reference.run_baseline
        for seed in (0, 5):
            assert_same_run(run(pool, val, cfg, seed), old(pool, val, cfg, seed))

    def test_tbal_records_a_pass_over_an_empty_pool(self):
        problem, kw = MERGE_CASES["pool_drained_before_budget"]
        pool, val = problem()
        res = run(pool, val, RunConfig(method="tbal", **kw), seed=0)
        last = res.rounds[-1]
        assert last.decision is None and last.n_a == 0
        assert last.n_v == res.validation.n_active > 0
        assert res.human_labels_used + res.N_a == len(pool)

    @pytest.mark.parametrize("method", ["plsc", "alsc"])
    @pytest.mark.parametrize("case", ["xor", "pool_drained_before_budget"])
    def test_selective_baselines_always_record_their_pass(self, case, method):
        problem, kw = MERGE_CASES[case]
        pool, val = problem()
        res = run(pool, val, RunConfig(method=method, **kw), seed=0)
        assert res.k == 1
        assert res.rounds[0].index == 1 and len(res.rounds[0].queried_ids) == 0

    @pytest.mark.parametrize("method", ["pl", "al"])
    def test_blanket_round_only_when_points_remain(self, method):
        problem, kw = MERGE_CASES["pool_drained_before_budget"]
        pool, val = problem()
        assert run(pool, val, RunConfig(method=method, **kw), seed=0).k == 0
        problem, kw = MERGE_CASES["xor"]
        pool, val = problem()
        res = run(pool, val, RunConfig(method=method, **kw), seed=0)
        (r,) = res.rounds
        assert (r.index, len(r.queried_ids), r.n_v) == (1, 0, len(val))
        assert r.n_a == len(pool) - kw["N_q"]

    @pytest.mark.parametrize("method", METHODS)
    def test_partition_is_checked(self, monkeypatch, method):
        def broken(pool):
            raise AssertionError("partition check ran")

        monkeypatch.setattr(engine, "check_partition", broken)
        pool, val = xor_problem(seed=1)
        with pytest.raises(AssertionError, match="partition check ran"):
            run(pool, val, RunConfig(method=method, n_s=40, n_b=20, N_q=80), seed=0)


class TestSharedTrajectories:
    """A pair that shares a trajectory through ``run``'s memo gets the runs
    that two independent calls give, in either order."""

    @pytest.mark.parametrize("pair", [("al", "alsc"), ("alsc", "al"),
                                      ("pl", "plsc"), ("plsc", "pl")])
    @pytest.mark.parametrize("case", ["xor", "unit_ball", "k4_softmax",
                                      "budget_is_seed_batch",
                                      "pool_drained_before_budget"])
    def test_shared_runs_equal_independent_runs(self, case, pair):
        problem, kw = MERGE_CASES[case]
        pool, val = problem()
        for seed in (0, 5):
            memo = {}
            shared = [run(pool, val, RunConfig(method=m, **kw), seed, memo) for m in pair]
            (key,) = memo
            assert key == engine.trajectory_key(pair[0], qry.MARGIN_RANDOM)
            for method, got in zip(pair, shared):
                assert_same_run(got, run(pool, val, RunConfig(method=method, **kw), seed))

    def test_the_second_run_of_a_pair_only_finishes(self, monkeypatch):
        pool, val = xor_problem(seed=1)
        memo = {}
        fits = record_fits(monkeypatch)
        run(pool, val, RunConfig(method="al", n_s=40, n_b=20, N_q=100), 0, memo)
        n = len(fits)
        assert n > 1
        run(pool, val, RunConfig(method="alsc", n_s=40, n_b=20, N_q=100), 0, memo)
        assert len(fits) == n

    def test_tbal_keeps_its_own_trajectory(self):
        pool, val = xor_problem(seed=1)
        cfg = dict(n_s=40, n_b=20, N_q=100)
        memo = {}
        for method in METHODS:
            run(pool, val, RunConfig(method=method, **cfg), 0, memo)
        assert sorted(memo) == sorted({engine.trajectory_key(m, qry.MARGIN_RANDOM)
                                       for m in METHODS})
        assert len(memo) == 3
        # TBAL's result is its trajectory's state, uncopied
        res = run(pool, val, RunConfig(method="tbal", **cfg), 0, memo)
        traj = memo[engine.trajectory_key("tbal", qry.MARGIN_RANDOM)]
        assert res.pool is traj.pool and res.validation is traj.validation

    @pytest.mark.parametrize("change", [
        lambda pool, val, cfg, seed: (pool.copy(), val, cfg, seed),
        lambda pool, val, cfg, seed: (pool, val.copy(), cfg, seed),
        lambda pool, val, cfg, seed: (pool, val, replace(cfg, N_q=120), seed),
        lambda pool, val, cfg, seed: (pool, val, cfg, seed + 1),
    ], ids=["pool", "validation", "config", "seed"])
    def test_memo_of_other_inputs_is_refused(self, change):
        pool, val = xor_problem(seed=1)
        cfg = RunConfig(method="pl", n_s=40, n_b=20, N_q=100)
        memo = {}
        run(pool, val, cfg, 0, memo)
        pool2, val2, cfg2, seed2 = change(pool, val, replace(cfg, method="plsc"), 0)
        with pytest.raises(ValueError, match="memo"):
            run(pool2, val2, cfg2, seed2, memo)


class TestBinaryConfidenceKindsAgree:
    """For a binary model every confidence kind is an increasing function of
    |w.x + b|, so the kinds rank points alike and pick the same thresholds:
    runs label and query the same points, round for round."""

    @pytest.mark.parametrize("method", ["tbal", "alsc"])
    @pytest.mark.parametrize("problem,train", [
        (lambda: xor_problem(seed=0, n=3000, val=1000), None),
        (lambda: small_problem(seed=1, n=3000, val=1000, d=30), unit_ball_train()),
    ], ids=["xor", "unit_ball"])
    def test_same_rounds_for_every_kind(self, problem, train, method):
        pool, val = problem()
        for seed in (0, 1):
            runs = [run(pool, val, RunConfig(method=method, n_s=100, n_b=25, N_q=500,
                                             train=train, confidence=kind), seed)
                    for kind in (AbsMargin(), Softmax(), Energy())]
            assert runs[0].N_a > 0
            for other in runs[1:]:
                assert other.k == runs[0].k
                for a, b in zip(runs[0].rounds, other.rounds):
                    assert np.array_equal(a.auto_ids, b.auto_ids)
                    assert np.array_equal(a.queried_ids, b.queried_ids)
