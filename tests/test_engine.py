import math

import numpy as np
import pytest

from tbal.confidence import AbsMargin, Energy, Softmax
from tbal.confidence import score as score_kind
from tbal.core import AUTO, HUMAN, UNLABELED, Pool, ValidationSet, rng_from
from tbal.data import gen_unit_ball, gen_xor, split_pool_val
from tbal.engine import METHODS, RunConfig, _round_seed, run, run_baseline, run_tbal
from tbal.model import TrainConfig
import tbal.model as linmod
from tbal.query import QueryConfig
from tbal.threshold import ThresholdConfig
import tbal.query as qry
from tbal.metrics import evaluate

from test_acceptance import check_invariants


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
        res = run_tbal(pool, val, cfg, seed=1)
        kinds = count_kinds(res.pool)
        assert kinds[HUMAN] == res.human_labels_used <= 80
        assert sum(kinds.values()) == len(pool)
        assert res.N_a == kinds[AUTO] == sum(r.n_a for r in res.rounds)
        assert res.k == len(res.rounds) >= 1

    def test_inputs_not_mutated(self):
        pool, val = small_problem(seed=2)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=50)
        run_tbal(pool, val, cfg, seed=0)
        assert count_kinds(pool)[UNLABELED] == len(pool)
        assert val.n_active == len(val)

    def test_seed_determinism(self):
        pool, val = small_problem(seed=3)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=60,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        r1 = run_tbal(pool, val, cfg, seed=9)
        r2 = run_tbal(pool, val, cfg, seed=9)
        assert [s.kind for s in r1.pool.states] == [s.kind for s in r2.pool.states]
        assert [s.label for s in r1.pool.states] == [s.label for s in r2.pool.states]
        for a, b in zip(r1.rounds, r2.rounds):
            assert np.array_equal(a.queried_ids, b.queried_ids)
            assert np.array_equal(a.auto_ids, b.auto_ids)
        r3 = run_tbal(pool, val, cfg, seed=10)
        assert any(not np.array_equal(a.auto_ids, b.auto_ids)
                   for a, b in zip(r1.rounds, r3.rounds)) or r1.N_a != r3.N_a

    def test_auto_rounds_recorded_in_order(self):
        pool, val = small_problem(seed=4)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=60,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run_tbal(pool, val, cfg, seed=0)
        assert [r.index for r in res.rounds] == list(range(1, res.k + 1))
        for r in res.rounds:
            for i in r.auto_ids:
                assert res.pool.states[i].round == r.index

    def test_validation_only_deactivates(self):
        pool, val = small_problem(seed=5)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=60,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run_tbal(pool, val, cfg, seed=0)
        drops = np.concatenate([r.val_deactivated for r in res.rounds]) \
            if res.rounds else np.empty(0)
        assert len(drops) == len(set(drops.tolist()))  # never dropped twice
        assert res.validation.n_active == len(val) - len(drops)

    def test_impossible_target_abstains_everywhere(self):
        pool, val = xor_problem(seed=1)
        # unreachable epsilon: every threshold is infinite, nothing auto-labels
        cfg = RunConfig(method="tbal", n_s=20, n_b=20, N_q=100,
                        threshold=ThresholdConfig(epsilon_a=1e-9, n0=10**6))
        res = run_tbal(pool, val, cfg, seed=0)
        assert res.N_a == 0
        assert all(r.n_a == 0 for r in res.rounds)
        assert all(r.decision is None or all(r.decision.infinite.values())
                   for r in res.rounds)
        # full budget went to humans, everything else stays unlabeled
        assert res.human_labels_used == 100
        assert count_kinds(res.pool)[UNLABELED] == len(pool) - 100

    def test_final_pass_runs_after_budget(self):
        pool, val = small_problem(seed=6)
        cfg = RunConfig(method="tbal", n_s=40, n_b=20, N_q=40,
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run_tbal(pool, val, cfg, seed=0)
        # budget equals the seed batch, so exactly one train/label pass runs
        assert res.k == 1
        assert res.human_labels_used == 40

    def test_random_query_strategy(self):
        pool, val = small_problem(seed=7)
        cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=50,
                        query=QueryConfig(strategy="random", batch=10),
                        train=TrainConfig(normalized=True, learning_rate=3.0))
        res = run_tbal(pool, val, cfg, seed=0)
        assert res.human_labels_used <= 50

    def test_alternative_confidences_run(self):
        pool, val = small_problem(seed=8, n=300, val=150)
        for kind in (Softmax(), Energy(temperature=2.0)):
            cfg = RunConfig(method="tbal", n_s=20, n_b=10, N_q=40,
                            confidence=kind,
                            threshold=ThresholdConfig(epsilon_a=0.05))
            res = run_tbal(pool, val, cfg, seed=0)
            assert sum(count_kinds(res.pool).values()) == len(pool)


class TestAbstainEquivalence:
    def test_infinite_thresholds_match_never_labeling(self):
        # a run whose thresholds never fire must walk the same query path as
        # a plain active-learning loop over the same streams
        pool, val = xor_problem(seed=2)
        cfg = RunConfig(method="tbal", n_s=20, n_b=15, N_q=80,
                        threshold=ThresholdConfig(epsilon_a=1e-9, n0=10**6))
        res = run_tbal(pool, val, cfg, seed=4)
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
        res = run_baseline(pool, val, cfg, seed=0)
        kinds = count_kinds(res.pool)
        assert kinds[HUMAN] == 50
        assert kinds[AUTO] == len(pool) - 50
        assert kinds[UNLABELED] == 0
        assert res.rounds[0].decision is None

    def test_pl_degenerate_full_budget(self):
        pool, val = small_problem(seed=10, n=60, val=40)
        cfg = RunConfig(method="pl", n_s=10, n_b=10, N_q=60)
        res = run_baseline(pool, val, cfg, seed=0)
        kinds = count_kinds(res.pool)
        assert kinds[HUMAN] == 60 and kinds[AUTO] == 0

    def test_selective_baselines_threshold_once(self):
        pool, val = xor_problem(seed=3)
        for method in ("plsc", "alsc"):
            cfg = RunConfig(method=method, n_s=30, n_b=15, N_q=90)
            res = run_baseline(pool, val, cfg, seed=0)
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
            for i in seed_ids:
                assert res.pool.states[i].kind == HUMAN

    def test_run_dispatch(self):
        pool, val = small_problem(seed=12, n=100, val=60)
        cfg = RunConfig(method="tbal", n_s=10, n_b=5, N_q=20)
        assert run(pool, val, cfg, seed=0).method == "tbal"
        with pytest.raises(ValueError):
            run_baseline(pool, val, cfg, seed=0)

    def test_human_labels_match_oracle_truth(self):
        pool, val = small_problem(seed=13)
        cfg = RunConfig(method="al", n_s=20, n_b=10, N_q=40)
        res = run(pool, val, cfg, seed=0)
        for i in res.pool.ids_with(HUMAN):
            assert res.pool.states[i].label == pool._truth[i]


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
        run_baseline(pool, val, self.config(method), seed=3)
        assert len(fits) == 1

    @pytest.mark.parametrize("method", ["al", "alsc"])
    def test_active_baselines_fit_every_round(self, monkeypatch, method):
        pool, val = xor_problem(seed=5)
        fits = record_fits(monkeypatch)
        run_baseline(pool, val, self.config(method), seed=3)
        assert [f[2] for f in fits] == [_round_seed(3, "train", r)
                                        for r in range(1, self.BATCHES + 2)]

    @pytest.mark.parametrize("method", ["pl", "plsc"])
    def test_single_fit_is_the_last_round_fit_on_the_full_budget(self, monkeypatch,
                                                                  method):
        pool, val = xor_problem(seed=5)
        fits = record_fits(monkeypatch)
        cfg = self.config(method)
        res = run_baseline(pool, val, cfg, seed=3)
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
        res = run_tbal(pool, val, cfg, seed=2)
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
            t = np.array([r.decision.threshold_for(c) for c in range(self.K)])
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
