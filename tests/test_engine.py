import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import tbal.confidence as conf
from tbal.confidence import AbsMargin, Energy, Softmax
from tbal.confidence import score as score_kind
from tbal.core import (AUTO, HUMAN, KINDS, UNLABELED, Pool, ValidationSet, partition_counts,
                       rng_from)
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


def gauss_clusters(seed=0, K=4, d=8, n=1200, val=600, spread=1.0):
    """K Gaussian clusters generated here: the multiclass path without
    MNIST."""
    rng = rng_from(seed, "gauss_clusters")
    centres = spread * rng.standard_normal((K, d))
    y = rng.integers(0, K, size=n + val)
    X = centres[y] + rng.standard_normal((n + val, d))
    return split_pool_val(X, y, n, val, seed, num_classes=K)


def k10_problem(seed=0, n=1400, val=600):
    """The MNIST shape, K=10 and d=784: TBAL labels part of the pool each
    round."""
    return gauss_clusters(seed, K=10, d=784, n=n, val=val, spread=0.2)


def softmax_config(**kw):
    return dict(epsilon_a=0.05, threshold=ThresholdConfig(epsilon_a=0.05),
                train=TrainConfig(loss="logistic"), confidence=Softmax(), **kw)


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

    def test_defaults_threaded(self):
        cfg = RunConfig(epsilon_a=0.07, n_b=13)
        assert cfg.threshold.epsilon_a == 0.07
        assert cfg.query == QueryConfig()
        assert isinstance(cfg.train, TrainConfig)

    def test_epsilon_a_mirrors_the_threshold(self):
        assert RunConfig().epsilon_a == ThresholdConfig().epsilon_a
        cfg = RunConfig(threshold=ThresholdConfig(epsilon_a=0.05))
        assert cfg.epsilon_a == cfg.threshold.epsilon_a == 0.05
        assert RunConfig(epsilon_a=0.05, threshold=ThresholdConfig(epsilon_a=0.05)) == cfg
        with pytest.raises(ValueError, match="epsilon_a 0.02 differs"):
            RunConfig(epsilon_a=0.02, threshold=ThresholdConfig(epsilon_a=0.05))


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

    @pytest.mark.parametrize("problem,kw", [
        (lambda: small_problem(seed=5),
         dict(n_s=20, n_b=10, N_q=60, train=TrainConfig(normalized=True, learning_rate=3.0))),
        (k10_problem, softmax_config(n_s=60, n_b=60, N_q=180)),
    ], ids=["binary", "k10_chunks"])
    def test_rounds_gather_only_the_training_rows(self, monkeypatch, problem, kw):
        # a fresh pool-sized copy per round left a run's peak memory to where
        # the allocator placed it, which varied from seed to seed; scoring
        # reads the matrix in place and copies no row
        pool, val = problem()
        gathered = spy_gathers(monkeypatch)
        res = run(pool, val, RunConfig(method="tbal", **kw), seed=0)
        # each round's fit gathers its human-labeled rows, in query order
        assert len(gathered) == res.k >= 2
        for r, ids in enumerate(gathered, 1):
            want = np.concatenate([x.queried_ids for x in res.rounds[:r]])
            assert np.array_equal(ids, want)

    @pytest.mark.parametrize("method", ["tbal", "al"])
    def test_constant_hinge_model_scores_a_long_pool(self, method):
        # a seed batch of one id has one class, so the first round fits a
        # constant model with binary weights, whose product over the pool
        # takes more than one view
        d = 30
        n = 2 * linmod._binary_chunk_rows(d) + 500
        pool, val = small_problem(seed=6, n=n, val=300, d=d)
        res = run(pool, val, RunConfig(method=method, n_s=1, n_b=10, N_q=21), seed=0)
        assert res.human_labels_used == 21
        check_invariants(res, pool, val)

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
        assert all(r.decision is None or np.isinf(r.decision.thresholds).all()
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
                        query=QueryConfig(strategy="random"),
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


def random_model(rng, K, d, binary=False):
    """Weights of a unit-scale margin: one vector (a binary model, as the
    hinge loss fits) or a row per class (as the logistic loss fits)."""
    if binary:
        w = rng.standard_normal(d) / math.sqrt(d)
        return linmod.LinearModel(w, np.array(rng.standard_normal()), 2, normalized=True)
    return linmod.LinearModel(rng.standard_normal((K, d)) / math.sqrt(d),
                              rng.standard_normal(K), K)


def spy_gathers(monkeypatch):
    """The ids of every ``gather`` call on a pool or validation set."""
    gathered = []
    for cls in (Pool, ValidationSet):
        def gather(self, ids, real=cls.gather):
            gathered.append(np.asarray(ids))
            return real(self, ids)
        monkeypatch.setattr(cls, "gather", gather)
    return gathered


def one_thread_margins(tmp_path, features, model):
    """A binary model's margins ``features @ w + b`` in one product,
    computed in a process whose BLAS runs on 1 thread."""
    np.savez(tmp_path / "in.npz", features=features, w=model.weights, b=model.bias)
    code = f"""if True:
        import numpy as np
        data = np.load({str(tmp_path / "in.npz")!r})
        np.save({str(tmp_path / "out.npy")!r}, data["features"] @ data["w"] + data["b"])
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return np.load(tmp_path / "out.npy")


def as_points(features):
    """``features`` as the rows of a validation set, in order: what
    ``engine._score_rows`` reads."""
    return ValidationSet(features, np.zeros(len(features), dtype=np.int64))


class TestChunkedScoring:
    """``_score_rows`` against one product over the whole matrix (a binary
    model's at 1 BLAS thread): a row's score keeps its bits whatever other
    rows a pass reads."""

    @pytest.mark.parametrize("d,c", [(2, 32768), (30, 2048), (784, 64), (4096, 16)])
    def test_chunk_length(self, d, c):
        # a binary model's view length; a multiclass product is not cut
        assert linmod._binary_chunk_rows(d) == c

    @pytest.mark.parametrize("d", [2, 5, 8, 30, 50, 784])
    def test_scores_keep_the_bits_of_the_matrix_product(self, tmp_path, d):
        rng = np.random.default_rng(d)
        c = linmod._binary_chunk_rows(d)
        features = rng.standard_normal((max(3 * c + 57, 3000), d))
        assert features.nbytes < 24e6
        # the points read the matrix's rows in another order than its own
        points = ValidationSet(features, np.zeros(len(features), dtype=np.int64),
                               rows=rng.permutation(len(features)))
        # (K, binary model): a binary model scores one vector
        for K, binary in [(2, True), (2, False), (3, False), (4, False), (10, False)]:
            model = random_model(rng, K, d, binary)
            # a binary product over the whole matrix is split between BLAS
            # threads, and a multiclass one at d = 784 takes other bits at 2
            # threads than at 1, so its reference runs in this process
            whole = (one_thread_margins(tmp_path, features, model) if binary
                     else features @ model.weights.T + model.bias)
            kinds = [Softmax(), Energy()] + ([AbsMargin()] if binary else [])
            sizes = [1, 5, c - 1, c, c + 1, 2 * c - 1, 2 * c, 3 * c + 7,
                     rng.integers(1, 3 * c + 7), len(features)]
            for n in sizes:
                ids = rng.permutation(len(features))[:n]
                for kind in kinds:
                    pred, score = engine._score_rows(kind, model, points, ids)
                    want_pred, want_score = score_kind(kind, model, whole[points.rows[ids]])
                    case = (K, binary, kind, n)
                    assert pred.dtype == want_pred.dtype, case
                    assert pred.tobytes() == want_pred.tobytes(), case
                    assert score.tobytes() == want_score.tobytes(), case

    @pytest.mark.parametrize("K,d,n", [(2, 8, 8191), (10, 784, 1000)],
                             ids=["binary", "k10"])
    def test_a_rows_score_does_not_depend_on_the_other_ids(self, K, d, n):
        # a multiclass pass of fewer than SMALL_GEMM / (K * d) gathered rows
        # ran on OpenBLAS's small-matrix kernel, and a binary pass's last
        # n mod 4 rows on the matrix-vector product's tail path: both gave
        # a row other bits than a long pass did
        rng = np.random.default_rng(K)
        points = as_points(rng.standard_normal((n, d)))
        model = random_model(rng, K, d, binary=K == 2)
        sample = np.concatenate([rng.choice(n - 4, 40, replace=False), np.arange(n - 4, n)])
        lengths = np.resize([1, 3, 5, 17, 64], n)
        short = np.split(rng.permutation(n), np.cumsum(lengths)[:-1])
        alone = np.split(sample, len(sample))
        for kind in (Softmax(), Energy()):
            full = rng.permutation(n)
            pred, score = engine._score_rows(kind, model, points, full)
            order = np.argsort(full)
            want_pred, want_score = pred[order], score[order]
            for ids in [x for x in short if len(x)] + alone:
                pred, score = engine._score_rows(kind, model, points, ids)
                assert pred.tobytes() == want_pred[ids].tobytes(), (kind, ids)
                assert score.tobytes() == want_score[ids].tobytes(), (kind, ids)

    def test_binary_scores_do_not_depend_on_the_blas_thread_count(self):
        # a binary model's matrix-vector product is split between BLAS
        # threads at a row set by the row count; scored in one pool-sized
        # call, a row's bits depended on the machine's core count
        code = """if True:
            import hashlib, math
            import numpy as np
            from tbal import engine
            from tbal.confidence import AbsMargin, Softmax, score
            from tbal.core import ValidationSet
            from tbal.model import LinearModel, _binary_chunk_rows
            chunked, whole = hashlib.sha256(), hashlib.sha256()
            for d in (2, 30, 784, 2048, 4096):
                c = _binary_chunk_rows(d)
                # 19345 rows at d = 30: one call split between 2 threads
                # gave other bits than 1 thread on OpenBLAS 0.3.31
                sizes = [c - 1, c, c + 1, 2 * c - 1, 3 * c + 7] + [19345] * (d == 30)
                rng = np.random.default_rng(d)
                features = rng.standard_normal((max(sizes) + 57, d))
                points = ValidationSet(features, np.zeros(len(features), dtype=np.int64))
                model = LinearModel(rng.standard_normal(d) / math.sqrt(d),
                                    np.array(rng.standard_normal()), 2, normalized=True)
                # the whole matrix in one plain product
                product = features @ model.weights + model.bias
                for n in sizes:
                    ids = rng.permutation(len(features))[:n]
                    for kind in (AbsMargin(), Softmax()):
                        for h, scored in (
                                (chunked, engine._score_rows(kind, model, points, ids)),
                                (whole, score(kind, model, product[ids]))):
                            for a in scored:
                                h.update(a.tobytes())
            print(chunked.hexdigest(), whole.hexdigest())
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
        digests = {}
        for threads in ("1", "2"):  # read by OpenBLAS when NumPy is imported
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert out.returncode == 0, out.stderr
            digests[threads] = out.stdout.split()
        assert digests["1"][0] == digests["2"][0]
        # and the views keep the bits of one single-threaded product
        assert digests["1"][0] == digests["1"][1]

    @pytest.mark.parametrize("n", [1, 255, 256, 511, 512, 767, 768, 1031])
    @pytest.mark.parametrize("binary", [False, True], ids=["k10", "binary"])
    def test_one_product_per_pass(self, monkeypatch, n, binary):
        # a matrix of n rows is multiplied in place, in one call over the
        # whole matrix, however few of its rows the pass reads
        rng = np.random.default_rng(0)
        features = rng.standard_normal((n, 784))
        gathered = spy_gathers(monkeypatch)
        products, real = [], linmod.raw_scores

        def raw_scores(model, X):
            products.append(X)
            return real(model, X)

        monkeypatch.setattr(linmod, "raw_scores", raw_scores)
        engine._score_rows(Softmax(), random_model(rng, 10, 784, binary),
                           as_points(features), rng.permutation(n)[:5])
        assert len(products) == 1
        assert products[0].shape == features.shape
        assert np.shares_memory(products[0], features)
        assert gathered == []

    @pytest.mark.parametrize("method", ["tbal", "al", "pl"])
    def test_one_score_call_per_scoring_pass(self, monkeypatch, method):
        # each pass scores its ids' rows of the raw scores in one call
        pool, val = k10_problem()
        passes, real_rows = [], engine._score_rows
        scored, real_score = [], conf.score

        def score_rows(kind, model, points, ids, raw=None):
            passes.append(len(ids))
            return real_rows(kind, model, points, ids, raw)

        def score(kind, model, raw):
            scored.append(len(raw))
            return real_score(kind, model, raw)

        monkeypatch.setattr(engine, "_score_rows", score_rows)
        monkeypatch.setattr(conf, "score", score)
        run(pool, val, RunConfig(method=method, **softmax_config(n_s=60, n_b=60, N_q=180)),
            seed=0)
        assert scored == passes and max(passes) > 256

    @pytest.mark.parametrize("method", ["tbal", "pl", "alsc"])
    def test_a_run_holds_no_pool_sized_copy(self, method):
        # gathering the pool whole took one full copy
        pool, val = k10_problem(n=2400, val=300)
        cfg = RunConfig(method=method, **softmax_config(n_s=30, n_b=30, N_q=60))
        tracemalloc.start()
        try:
            run(pool, val, cfg, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(pool) * pool.dimension * 8 / 2


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
        assert np.array_equal(X[:self.N_S], pool.gather(seed_ids))
        assert sorted(zip(map(tuple, X), y.tolist())) == \
            sorted(zip(map(tuple, pool.gather(human)), pool._truth[human].tolist()))
        assert fit_seed == _round_seed(3, "train", 1 + self.BATCHES)
        ref = linmod.fit(X, y, cfg.train, fit_seed, num_classes=2)
        assert np.array_equal(model.weights, ref.weights)
        assert np.array_equal(model.bias, ref.bias)
        if method == "pl":
            auto = res.rounds[0].auto_ids
            assert np.array_equal(res.rounds[0].auto_labels,
                                  linmod.predict(ref, pool.gather(auto)))



class TestMulticlassOffline:
    """K=4 Gaussian clusters generated here: the multiclass path (logistic
    loss, softmax confidence, per-class thresholds) without MNIST."""

    K = 4

    def problem(self, seed=0, d=8, n=1200, val=600):
        return gauss_clusters(seed, self.K, d, n, val)

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
            pred, score = score_kind(Softmax(), model,
                                     linmod.raw_scores(model, pool.gather(r.auto_ids)))
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
        evaluate(res, pool)
        n_auto, n_human, _ = partition_counts(res.pool)
        assert n_auto == res.N_a
        assert n_human == res.human_labels_used


class TestQueryReadsThePassScores:
    """TBAL scores the pool once per round. Each round's queried batch must
    equal the old score-then-select: score the remaining pool again with
    that round's model (unshifted confidence), lexsort all of it and draw on
    the same rng."""

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

        def query(ids, scores, n, C, rng):
            passed.append(np.array(scores, copy=True))
            return real_query(ids, scores, n, C, rng)

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
            X, model = pool.gather(remaining), models[r - 1]
            _, want_scores = score_kind(cfg.confidence, model, linmod.raw_scores(model, X))
            assert passed[r - 1].tobytes() == want_scores.tobytes()
            batch = res.rounds[r].queried_ids
            want, _ = full_sort_margin_random(remaining, want_scores, len(batch),
                                              cfg.query.C, rng_from(seed, "query", r))
            assert np.array_equal(batch, want)

    def multiclass_config(self, confidence):
        return RunConfig(method="tbal", epsilon_a=0.05, n_s=60, n_b=30, N_q=240,
                         threshold=ThresholdConfig(epsilon_a=0.05),
                         train=TrainConfig(loss="logistic"), confidence=confidence)

    def test_multiclass_energy_reads_unshifted_scores(self, monkeypatch):
        pool, val = TestMulticlassOffline().problem()
        models, shifted, passed = self.record(monkeypatch, bias_shift=50.0)
        cfg = self.multiclass_config(Energy())
        res = run(pool, val, cfg, seed=2)
        assert all(shifted)  # every round's raw energy scores were negative
        self.check_rounds(pool, res, cfg, models, passed, 2)

    def test_binary_abs_margin(self, monkeypatch):
        pool, val = xor_problem(seed=1)
        models, _, passed = self.record(monkeypatch)
        cfg = RunConfig(n_s=40, n_b=20, N_q=200)
        res = run(pool, val, cfg, seed=4)
        self.check_rounds(pool, res, cfg, models, passed, 4)


def assert_same_run(got, want):
    """Every RoundRecord field, the pool's state arrays, the validation mask,
    the RunResult counts and the last model's parameters agree exactly."""
    assert (got.method, got.seed, got.N_a, got.k, got.human_labels_used,
            got.val_labels_used) == (want.method, want.seed, want.N_a, want.k,
                                     want.human_labels_used, want.val_labels_used)
    for name in ("weights", "bias"):  # byte for byte, shape and dtype too
        x, y = (np.asarray(getattr(r.model, name)) for r in (got, want))
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), name
    assert got.model.epochs == want.model.epochs
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


# name -> (problem, RunConfig keywords shared by the five methods)
MERGE_CASES = {
    "xor": (lambda: xor_problem(seed=1), dict(n_s=40, n_b=20, N_q=200)),
    "unit_ball": (lambda: small_problem(seed=3, d=6),
                  dict(n_s=30, n_b=10, N_q=110, train=unit_ball_train())),
    "k4_softmax": (lambda: TestMulticlassOffline().problem(),
                   softmax_config(n_s=60, n_b=30, N_q=240)),
    "k10_chunks": (k10_problem, softmax_config(n_s=60, n_b=60, N_q=180)),
    "budget_is_seed_batch": (lambda: xor_problem(seed=2), dict(n_s=40, n_b=20, N_q=40)),
    "pool_spent_with_budget": (lambda: small_problem(seed=10, n=60, val=40),
                               dict(n_s=10, n_b=10, N_q=60)),
    "pool_drained_before_budget": (lambda: small_problem(seed=10, n=60, val=40),
                                   dict(n_s=10, n_b=10, N_q=80)),
    "random_query": (lambda: small_problem(seed=7),
                     dict(n_s=20, n_b=10, N_q=80, train=unit_ball_train(),
                          query=QueryConfig(strategy="random"))),
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

    @pytest.mark.parametrize("method", ["pl", "al"])
    @pytest.mark.parametrize("case", ["xor", "k4_softmax", "k10_chunks"])
    def test_blanket_labels_are_the_recorded_models_predictions(self, case, method):
        problem, kw = MERGE_CASES[case]
        pool, val = problem()
        res = run(pool, val, RunConfig(method=method, **kw), seed=0)
        (r,) = res.rounds
        assert r.n_a > 0
        want = linmod.predict(res.model, res.pool.gather(r.auto_ids))
        assert r.auto_labels.dtype == want.dtype
        assert np.array_equal(r.auto_labels, want)

    @pytest.mark.parametrize("method", METHODS)
    def test_partition_is_checked(self, monkeypatch, method):
        def broken(pool):
            raise AssertionError("partition check ran")

        monkeypatch.setattr(engine, "check_partition", broken)
        pool, val = xor_problem(seed=1)
        with pytest.raises(AssertionError, match="partition check ran"):
            run(pool, val, RunConfig(method=method, n_s=40, n_b=20, N_q=80), seed=0)


def count_fit_requests(monkeypatch):
    """Route the engine's ``fit_many`` calls through a recorder; returns the
    list of each call's request count."""
    calls = []
    real = linmod.fit_many

    def recording(requests):
        calls.append(len(requests))
        return real(requests)

    monkeypatch.setattr(linmod, "fit_many", recording)
    return calls


class TestRunMany:
    """``run_many`` runs one trajectory per point for each trajectory key
    (tbal; al/alsc; pl/plsc), advances every key's trajectories together and
    gives every run that an independent ``run`` gives."""

    SEEDS = (0, 5, 11)

    @pytest.mark.parametrize("methods", [("al", "alsc"), ("plsc", "pl"), METHODS],
                             ids="-".join)
    @pytest.mark.parametrize("case", ["xor", "unit_ball", "k4_softmax",
                                      "budget_is_seed_batch",
                                      "pool_drained_before_budget"])
    def test_runs_equal_independent_runs(self, case, methods):
        problem, kw = MERGE_CASES[case]
        pool, val = problem()
        points = [(pool, val, seed) for seed in self.SEEDS]
        outcomes = list(engine.run_many(points, [RunConfig(method=m, **kw)
                                                 for m in methods]))
        assert sorted((i, m) for i, m, _ in outcomes) == \
            sorted((i, m) for i in range(len(points)) for m in methods)
        for i, method, got in outcomes:
            assert_same_run(got, run(pool, val, RunConfig(method=method, **kw),
                                     self.SEEDS[i]))

    def test_trials_at_equal_rounds_fit_in_one_call(self, monkeypatch):
        pool, val = xor_problem(seed=1)
        calls = count_fit_requests(monkeypatch)
        list(engine.run_many([(pool, val, seed) for seed in self.SEEDS],
                             [RunConfig(method="tbal", n_s=40, n_b=20, N_q=100)]))
        assert calls == [3] * 4  # rounds at 40, 60, 80 and 100 rows

    def test_keys_at_equal_rounds_fit_in_one_call(self, monkeypatch):
        problem, kw = MERGE_CASES["xor"]
        pool, val = problem()
        tags, calls = {}, []  # id of a request -> (method, seed); each call's tags
        real_trajectory, real_fit_many = engine.trajectory, linmod.fit_many

        def trajectory(pool, val, cfg, seed):
            inner, model = real_trajectory(pool, val, cfg, seed), None
            while True:
                try:
                    request = inner.send(model)
                except StopIteration as end:
                    return end.value
                tags[id(request)] = cfg.method, seed
                model = yield request

        def fit_many(requests):
            calls.append(sorted((*tags[id(r)], len(r[0])) for r in requests))
            return real_fit_many(requests)

        monkeypatch.setattr(engine, "trajectory", trajectory)
        monkeypatch.setattr(linmod, "fit_many", fit_many)
        list(engine.run_many([(pool, val, seed) for seed in self.SEEDS],
                             [RunConfig(method=m, **kw) for m in METHODS]))
        assert all(len({n for _, _, n in call}) == 1 for call in calls)
        # round 1: the tbal and al trajectories of every point, at n = n_s
        assert calls[0] == sorted((m, seed, kw["n_s"]) for m in ("al", "tbal")
                                  for seed in self.SEEDS)
        # pl's one fit, at n = N_q, shares al's last round
        (last,) = [call for call in calls if any(m == "pl" for m, _, _ in call)]
        for seed in self.SEEDS:
            assert {("pl", seed, kw["N_q"]), ("al", seed, kw["N_q"])} <= set(last)

    def test_a_finished_trajectory_is_released(self, monkeypatch):
        # a point whose small pool drains early ends its runs while the xor
        # points' trajectories still fit. Once the caller drops a
        # trajectory's outcomes and takes another trajectory's, they are
        # freed: TBAL's uncopied trajectory state too
        small, small_val = small_problem(seed=10, n=60, val=40)
        pool, val = xor_problem(seed=1)
        points = [(small, small_val, 0), (pool, val, 1), (pool, val, 2)]
        cfgs = [RunConfig(method=m, n_s=10, n_b=10, N_q=80) for m in METHODS]
        calls = count_fit_requests(monkeypatch)
        refs, early = {}, []  # trajectory -> weakrefs to its runs' pools
        gc.disable()  # freed by reference counts, not by a collection
        try:
            for i, method, outcome in engine.run_many(points, cfgs):
                traj = i, engine._choices(method, cfgs[0].query.strategy)[:2]
                for other, pools in refs.items():
                    if other != traj:
                        assert [r() for r in pools] == [None] * len(pools), other
                refs.setdefault(traj, []).append(weakref.ref(outcome.pool))
                early.append((i, method, len(calls)))
                del outcome
        finally:
            gc.enable()
        assert sum(map(len, refs.values())) == len(points) * len(METHODS)
        # the small point's runs, TBAL's among them, ended before the last fit
        assert {m for i, m, n in early if i == 0 and n < len(calls)} == set(METHODS)

    def test_a_pair_fits_as_often_as_one_of_its_runs(self, monkeypatch):
        pool, val = xor_problem(seed=1)
        kw = dict(n_s=40, n_b=20, N_q=100)
        fits = {}
        for methods in (["al"], ["al", "alsc"], ["pl"], ["pl", "plsc"]):
            calls = count_fit_requests(monkeypatch)
            list(engine.run_many([(pool, val, 0)], [RunConfig(method=m, **kw)
                                                    for m in methods]))
            fits[tuple(methods)] = sum(calls)
        assert fits[("al",)] == fits[("al", "alsc")] == 4
        assert fits[("pl",)] == fits[("pl", "plsc")] == 1

    def test_tbal_keeps_its_own_trajectory(self, monkeypatch):
        pool, val = xor_problem(seed=1)
        started, finished = [], []
        real_trajectory, real_finish = engine.trajectory, engine.finish

        def trajectory(pool, val, cfg, seed):
            started.append(cfg.method)
            return real_trajectory(pool, val, cfg, seed)

        def finish(traj, cfg):
            finished.append((traj, real_finish(traj, cfg)))
            return finished[-1][1]

        monkeypatch.setattr(engine, "trajectory", trajectory)
        monkeypatch.setattr(engine, "finish", finish)
        cfgs = [RunConfig(method=m, n_s=40, n_b=20, N_q=100) for m in METHODS]
        list(engine.run_many([(pool, val, 0), (pool, val, 1)], cfgs))
        # tbal, pl/plsc and al/alsc, a trajectory each per point
        assert started == ["tbal"] * 2 + ["pl"] * 2 + ["al"] * 2
        # TBAL's result is its trajectory's state, uncopied
        for traj, res in finished:
            if res.method == "tbal":
                assert res.pool is traj.pool and res.validation is traj.validation

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the nan features
    @pytest.mark.parametrize("methods", [("tbal",), ("al", "alsc"), ("pl", "plsc")],
                             ids="-".join)
    def test_a_failing_point_fails_only_its_own_runs(self, methods):
        # nan features give a nan model, whose logits are refused; the other
        # points fit in the same stacked calls and keep their runs
        pool, val = xor_problem(seed=1)
        bad_pool, bad_val = xor_problem(seed=1)
        bad_pool.matrix[:] = np.nan
        cfgs = [RunConfig(method=m, n_s=40, n_b=20, N_q=100) for m in methods]
        points = [(pool, val, 0), (bad_pool, bad_val, 1), (pool, val, 2)]
        for i, method, outcome in engine.run_many(points, cfgs):
            if i == 1:
                assert isinstance(outcome, FloatingPointError)
                assert str(outcome) == "non-finite logits"
            else:
                cfg = cfgs[[c.method for c in cfgs].index(method)]
                assert_same_run(outcome, run(pool, val, cfg, points[i][2]))
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            run(bad_pool, bad_val, cfgs[0], 1)

    def test_configs_that_differ_beyond_their_method_are_refused(self):
        pool, val = xor_problem(seed=1)
        cfgs = [RunConfig(method="pl", n_s=40, n_b=20, N_q=100),
                RunConfig(method="plsc", n_s=40, n_b=20, N_q=120)]
        with pytest.raises(ValueError, match="differ in their method only"):
            list(engine.run_many([(pool, val, 0)], cfgs))


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
