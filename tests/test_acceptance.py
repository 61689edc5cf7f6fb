"""End-to-end acceptance checks: reproduction bands for the three dataset
families, oracle equivalence for the threshold scan, the engine invariant
suite, bound-evaluator cross-checks, and the gradient check.

Each test prints the measured numbers so a failing band is diagnosable from
the log alone.
"""

import os
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from tbal.cli import _subsample_validation
from tbal.confidence import AbsMargin, Softmax
from tbal.core import AUTO, HUMAN, KINDS, UNLABELED, partition_counts
from tbal.data import DatasetSpec, make_dataset
from tbal.engine import RunConfig, run
from tbal.metrics import evaluate
from tbal.model import TrainConfig
from tbal.theory import verify_error_bound_mc

from test_model import TestGradients
from test_threshold import random_instance, run_both

XOR_SPEC = DatasetSpec(kind="xor", d=2, n_total=10000, pool_size=8000,
                       val_size=2000)
BALL_SPEC = DatasetSpec(kind="unit_ball", d=30, n_total=20000,
                        pool_size=16000, val_size=4000)
BALL_TRAIN = TrainConfig(loss="hinge", learning_rate=3.0, normalized=True)


def mnist_paths() -> tuple[str, str] | None:
    """The MNIST training IDX pair under TBAL_DATA_DIR; None when absent."""
    root = os.environ.get("TBAL_DATA_DIR", "")
    if not root:
        return None
    for img, lbl in [
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
    ]:
        ip, lp = os.path.join(root, img), os.path.join(root, lbl)
        if os.path.exists(ip) and os.path.exists(lp):
            return ip, lp
    return None


def sweep(spec, method, seeds, N_q, *, train=None, confidence=None,
          epsilon_a=0.01, val_size=None):
    errs, covs, covs_rem, results = [], [], [], []
    for s in seeds:
        pool, val = make_dataset(spec, s)
        if val_size is not None:
            val = _subsample_validation(val, val_size, s)
        kwargs = {}
        if train is not None:
            kwargs["train"] = train
        if confidence is not None:
            kwargs["confidence"] = confidence
        cfg = RunConfig(method=method, epsilon_a=epsilon_a,
                        n_s=max(1, round(0.2 * N_q)),
                        n_b=max(1, round(0.05 * N_q)), N_q=N_q, **kwargs)
        res = run(pool, val, cfg, s)
        rep = evaluate(res, res.pool)
        errs.append(rep.err_hat)
        covs.append(rep.cov_hat)
        n_auto, n_human, _ = partition_counts(res.pool)
        covs_rem.append(n_auto / max(len(res.pool) - n_human, 1))
        results.append(res)
    return (float(np.nanmean(errs)), float(np.mean(covs)),
            float(np.mean(covs_rem)), results)


class TestCriterion1Xor:
    @pytest.mark.slow
    def test_xor_reproduction(self):
        t0 = time.time()
        seeds = range(10)
        tbal_err, tbal_cov, _, _ = sweep(XOR_SPEC, "tbal", seeds, 500)
        al_err, _, al_cov_rem, _ = sweep(XOR_SPEC, "al", seeds, 500)
        alsc_err, alsc_cov, _, _ = sweep(XOR_SPEC, "alsc", seeds, 500)
        elapsed = time.time() - t0
        print(f"\n[xor] tbal err={tbal_err:.4f} cov={tbal_cov:.3f} | "
              f"al err={al_err:.4f} cov_rem={al_cov_rem:.3f} | "
              f"alsc err={alsc_err:.4f} cov={alsc_cov:.3f} | {elapsed:.1f}s")
        assert tbal_err <= 0.05
        assert tbal_cov >= 0.80
        assert 0.18 <= al_err <= 0.32
        assert al_cov_rem >= 0.95
        assert alsc_cov <= 0.40
        assert alsc_err <= 0.05
        assert elapsed <= 120


class TestCriterion2UnitBallBudget:
    @pytest.mark.slow
    def test_error_control_and_coverage_growth(self):
        t0 = time.time()
        grid = [100, 200, 500]
        cov_means = []
        for N_q in grid:
            err, cov, _, _ = sweep(BALL_SPEC, "tbal", range(10), N_q,
                                   train=BALL_TRAIN, confidence=AbsMargin())
            print(f"\n[ball budget] N_q={N_q} err={err:.4f} cov={cov:.3f}")
            assert err <= 0.03
            cov_means.append(cov)
        rho = spearmanr(cov_means, grid).statistic
        elapsed = time.time() - t0
        print(f"[ball budget] spearman={rho:.3f} | {elapsed:.1f}s")
        assert rho >= 0.9
        assert elapsed <= 300


class TestCriterion3ValidationSize:
    @pytest.mark.slow
    def test_more_validation_reduces_error(self):
        t0 = time.time()
        errs = {}
        for n_v in (100, 500, 2000, 4000):
            err, _, _, _ = sweep(BALL_SPEC, "tbal", range(10), 500,
                                 train=BALL_TRAIN, confidence=AbsMargin(),
                                 val_size=n_v)
            errs[n_v] = err
            print(f"\n[ball val] n_v={n_v} err={err:.4f}")
        elapsed = time.time() - t0
        print(f"[ball val] {elapsed:.1f}s")
        assert errs[4000] <= errs[100]
        assert errs[4000] <= 0.03
        assert elapsed <= 300


class TestCriterion4MnistLinear:
    @pytest.mark.slow
    def test_mnist_band(self):
        paths = mnist_paths()
        if paths is None:
            pytest.skip("MNIST IDX files not found (set TBAL_DATA_DIR to a "
                        "directory holding train-images-idx3-ubyte[.gz] and "
                        "train-labels-idx1-ubyte[.gz])")
        t0 = time.time()
        spec = DatasetSpec(kind="mnist_linear", n_total=60000, pool_size=48000,
                           val_size=12000, images_path=paths[0],
                           labels_path=paths[1])
        err, cov, _, _ = sweep(
            spec, "tbal", range(3), 4000, epsilon_a=0.05,
            train=TrainConfig(loss="logistic"), confidence=Softmax())
        elapsed = time.time() - t0
        print(f"\n[mnist] err={err:.4f} cov={cov:.3f} | {elapsed:.1f}s")
        assert err <= 0.08
        assert cov >= 0.30
        assert elapsed <= 900


class TestCriterion5ThresholdOracle:
    def test_thousand_instance_equivalence(self):
        rng = np.random.default_rng(777)
        matches = 0
        for _ in range(1000):
            u, v, c, cfg = random_instance(rng)
            got, want = run_both(u, v, c, cfg)
            if got == pytest.approx(want):
                matches += 1
        print(f"\n[threshold oracle] {matches}/1000 exact matches")
        assert matches == 1000


def check_invariants(res, pool_before, val_before):
    """Per-round invariant audit over a finished run."""
    pool = res.pool
    seen_auto = set()
    active = set(val_before.active_indices().tolist())
    for r in res.rounds:
        for i, lab in zip(r.auto_ids, r.auto_labels):
            assert i not in seen_auto
            seen_auto.add(int(i))
            assert KINDS[pool.kind[i]] == AUTO
            assert pool.label[i] == lab and pool.round[i] == r.index
        if r.decision is not None:
            assert np.all(r.decision.est_error >= 0.0)
        drops = set(r.val_deactivated.tolist())
        assert drops <= active  # only active points get deactivated
        active -= drops
    kinds = [KINDS[c] for c in pool.kind]
    assert kinds.count(AUTO) + kinds.count(HUMAN) + kinds.count(UNLABELED) \
        == len(pool)
    assert kinds.count(AUTO) == res.N_a == len(seen_auto)
    assert kinds.count(HUMAN) == res.human_labels_used
    # the inputs were copied, never mutated
    assert all(KINDS[c] == UNLABELED for c in pool_before.kind)
    assert val_before.n_active == len(val_before)


def check_threshold_soundness(res, epsilon_a):
    for r in res.rounds:
        if r.decision is None:
            continue
        d = r.decision
        finite = np.isfinite(d.thresholds)
        assert np.all(d.est_error[finite] + d.chosen_sigma[finite] <= epsilon_a + 1e-12)


class TestCriterion6InvariantSuite:
    def test_invariants_across_sweeps(self):
        checked = 0
        for spec, train, conf in ((XOR_SPEC, None, None),
                                  (BALL_SPEC, BALL_TRAIN, AbsMargin())):
            for method in ("tbal", "alsc"):
                for s in range(3):
                    pool, val = make_dataset(spec, s)
                    kwargs = {"train": train} if train else {}
                    if conf is not None:
                        kwargs["confidence"] = conf
                    cfg = RunConfig(method=method, epsilon_a=0.01, n_s=40,
                                    n_b=10, N_q=200, **kwargs)
                    res = run(pool, val, cfg, s)
                    check_invariants(res, pool, val)
                    check_threshold_soundness(res, 0.01)
                    evaluate(res, pool)  # integrity audit of totals
                    checked += 1
        print(f"\n[invariants] {checked} runs audited")
        assert checked == 12

    def test_seed_determinism_across_methods(self):
        pool, val = make_dataset(XOR_SPEC, 0)
        for method in ("tbal", "pl", "al", "plsc", "alsc"):
            cfg = RunConfig(method=method, n_s=40, n_b=10, N_q=120)
            a = run(pool, val, cfg, 3)
            b = run(pool, val, cfg, 3)
            assert np.array_equal(a.pool.kind, b.pool.kind)
            assert np.array_equal(a.pool.label, b.pool.label)


class TestCriterion7BoundVerification:
    # the 100-random-input equivalence checks live in test_theory.py and run
    # as part of the same suite; this adds the Monte-Carlo half

    @pytest.mark.slow
    def test_error_bound_holds_over_unit_ball_runs(self):
        spec = DatasetSpec(kind="unit_ball", d=5, n_total=4000,
                           pool_size=2000, val_size=2000)

        def make_run(seed):
            pool, val = make_dataset(spec, seed)
            cfg = RunConfig(method="tbal", n_s=30, n_b=8, N_q=150,
                            train=TrainConfig(loss="hinge", learning_rate=3.0,
                                              normalized=True),
                            confidence=AbsMargin())
            return run(pool, val, cfg, seed)

        report = verify_error_bound_mc(make_run, d=5, trials=100)
        print(f"\n[mc bound] evaluated={report.evaluated} "
              f"violations={report.violations} vacuous={report.vacuous}")
        assert report.trials == 100
        assert report.violations == 0


class TestCriterion8Gradients:
    def test_gradient_checks(self):
        g = TestGradients()
        g.test_hinge_gradient_matches_finite_differences()
        g.test_logistic_gradient_matches_finite_differences()
        print("\n[gradients] hinge and logistic match central differences")
