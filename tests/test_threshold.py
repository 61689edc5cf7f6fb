import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbal.threshold import (HOEFFDING, STDERR, ZERO, ThresholdConfig,
                            estimate_threshold, sigma)


# ------------------------------------------------------------------ oracle

def oracle_threshold(unlabeled_scores, val_scores, val_correct, cfg):
    """Exhaustive reference scan, written independently of the library's
    pointer-walk implementation: test every distinct unlabeled score as a
    candidate and return the smallest qualifying one."""
    best = (math.inf, 0, 0.0, 0.0)
    for t in sorted(set(float(v) for v in unlabeled_scores)):
        covered = [c for s, c in zip(val_scores, val_correct) if s >= t]
        n_t = len(covered)
        if n_t < cfg.n0:
            continue
        e_hat = sum(1 for c in covered if not c) / n_t
        s_hat = sigma(e_hat, n_t, cfg.sigma_kind, cfg.delta)
        if e_hat + s_hat <= cfg.epsilon_a:
            return (t, n_t, e_hat, s_hat)  # first (smallest) qualifying wins
    return best


def run_both(unlabeled_scores, val_scores, val_correct, cfg):
    preds = np.zeros(len(unlabeled_scores), dtype=np.int64)
    vpreds = np.zeros(len(val_scores), dtype=np.int64)
    dec = estimate_threshold(np.asarray(unlabeled_scores), preds,
                             np.asarray(val_scores), vpreds,
                             np.asarray(val_correct, dtype=bool), cfg,
                             num_classes=1)
    got = (dec.thresholds[0], dec.support[0], dec.est_error[0],
           dec.chosen_sigma[0])
    want = oracle_threshold(unlabeled_scores, val_scores, val_correct, cfg)
    return got, want


def random_instance(rng):
    n_u = rng.integers(1, 51)
    n_v = rng.integers(0, 51)
    # coarse grid scores force plenty of ties between pool and validation
    u = rng.integers(0, 20, size=n_u) / 10.0
    v = rng.integers(0, 20, size=n_v) / 10.0
    correct = rng.random(n_v) < 0.9
    cfg = ThresholdConfig(
        epsilon_a=float(rng.choice([0.01, 0.05, 0.1, 0.3])),
        n0=int(rng.integers(1, 12)),
        sigma_kind=str(rng.choice([STDERR, HOEFFDING, ZERO])),
        delta=0.05)
    return u, v, correct, cfg


class TestOracleEquivalence:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(12345)
        agree = 0
        for _ in range(1000):
            u, v, c, cfg = random_instance(rng)
            got, want = run_both(u, v, c, cfg)
            assert got == pytest.approx(want), (u, v, c, cfg)
            agree += 1
        assert agree == 1000

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_oracle_equivalence_property(self, data):
        u = data.draw(st.lists(st.integers(0, 15), min_size=1, max_size=30))
        n_v = data.draw(st.integers(0, 30))
        v = data.draw(st.lists(st.integers(0, 15), min_size=n_v, max_size=n_v))
        c = data.draw(st.lists(st.booleans(), min_size=n_v, max_size=n_v))
        cfg = ThresholdConfig(epsilon_a=data.draw(st.sampled_from([0.05, 0.2, 0.5])),
                              n0=data.draw(st.integers(1, 8)),
                              sigma_kind=data.draw(st.sampled_from([STDERR, ZERO])))
        got, want = run_both(np.array(u) / 5.0, np.array(v) / 5.0, c, cfg)
        assert got == pytest.approx(want)


class TestWidePoolOracleEquivalence:
    """Pool and validation sizes of a real round, scores on a shared grid so
    many validation scores tie with candidates at `>=`."""

    K = 3
    EPSILON = {STDERR: 0.03, HOEFFDING: 0.2, ZERO: 0.01}

    def instance(self, seed, kind, per_class):
        rng = np.random.default_rng(seed)
        n_u, n_v = 3000, 600
        u = rng.integers(0, 100, n_u) / 50.0
        v = rng.integers(0, 100, n_v) / 50.0
        up, vp = rng.integers(0, self.K, n_u), rng.integers(0, self.K, n_v)
        # mistakes concentrate below 1.0, so thresholds land inside the grid
        c = rng.random(n_v) < np.where(v >= 1.0, 0.995, 0.7)
        cfg = ThresholdConfig(epsilon_a=self.EPSILON[kind], n0=20, sigma_kind=kind,
                              per_class=per_class)
        return u, up, v, vp, c, cfg

    @pytest.mark.parametrize("per_class", [True, False])
    @pytest.mark.parametrize("kind", [STDERR, HOEFFDING, ZERO])
    def test_matches_oracle_exactly(self, kind, per_class):
        finite = 0
        for seed in range(3):
            u, up, v, vp, c, cfg = self.instance(seed, kind, per_class)
            dec = estimate_threshold(u, up, v, vp, c, cfg, num_classes=self.K)
            for cls in (range(self.K) if per_class else [-1]):
                um = up == cls if per_class else np.ones(len(u), dtype=bool)
                vm = vp == cls if per_class else np.ones(len(v), dtype=bool)
                want = oracle_threshold(u[um], v[vm], c[vm], cfg)
                got = (dec.thresholds[cls], dec.support[cls], dec.est_error[cls],
                       dec.chosen_sigma[cls])
                assert got == want, (seed, cls)
                finite += math.isfinite(want[0])
        assert finite > 0

    def test_unknown_sigma_kind_raises_only_at_support_n0(self):
        cfg = ThresholdConfig(n0=3, sigma_kind="wilson")
        u, up = np.array([0.5]), np.array([0])
        v, vp, c = np.array([0.6, 0.7, 0.4]), np.array([0, 0, 0]), np.ones(3, dtype=bool)
        # the best candidate, 0.5, sees 2 < n0 validation scores: nothing is inflated
        dec = estimate_threshold(u, up, v, vp, c, cfg, num_classes=1)
        assert dec.thresholds[0] == math.inf
        # a tie at 0.5 lifts its support to n0
        with pytest.raises(ValueError, match="unknown sigma kind"):
            estimate_threshold(u, up, np.append(v, 0.5), np.append(vp, 0),
                               np.append(c, True), cfg, num_classes=1)


class TestSigma:
    def test_stderr_formula(self):
        assert sigma(0.2, 100, STDERR) == pytest.approx(math.sqrt(0.2 * 0.8 / 100))
        assert sigma(0.0, 50, STDERR) == 0.0

    def test_hoeffding_formula(self):
        # sqrt(log(2/0.05) / (2*200)) = sqrt(log(40)/400)
        assert sigma(0.5, 200, HOEFFDING, delta=0.05) == pytest.approx(
            math.sqrt(math.log(40.0) / 400.0))
        assert sigma(0.5, 200, HOEFFDING, delta=0.05) == pytest.approx(0.0960323, abs=1e-6)

    def test_zero_support_is_infinite(self):
        for kind in (STDERR, HOEFFDING, ZERO):
            assert sigma(0.1, 0, kind) == math.inf

    def test_zero_kind(self):
        assert sigma(0.3, 10, ZERO) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown sigma kind"):
            sigma(0.1, 10, "wilson")

    def test_hoeffding_ignores_estimate(self):
        assert sigma(0.0, 64, HOEFFDING) == sigma(0.9, 64, HOEFFDING)

    @pytest.mark.parametrize("kind", [STDERR, HOEFFDING, ZERO])
    def test_arrays_match_scalar_formulas_bit_for_bit(self, kind):
        def scalar(e, n):
            if n == 0:
                return math.inf
            if kind == STDERR:
                return math.sqrt(e * (1.0 - e) / n)
            if kind == HOEFFDING:
                return math.sqrt(math.log(2.0 / 0.1) / (2.0 * n))
            return 0.0

        e = np.array([0.0, 0.013, 0.2, 0.5, 1 / 3, 0.1])
        n = np.array([7, 91, 300, 12, 999, 0])
        got = sigma(e, n, kind, delta=0.1)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [scalar(float(a), int(b)) for a, b in zip(e, n)]
        assert sigma(0.013, 91, kind, delta=0.1) == scalar(0.013, 91)
        assert type(sigma(0.013, 91, kind)) is float


class TestDecisionProperties:
    def test_soundness_at_chosen_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, v, c, cfg = random_instance(rng)
            got, _ = run_both(u, v, c, cfg)
            t, n_t, e, s = got
            if math.isfinite(t):
                assert n_t >= cfg.n0
                assert e + s <= cfg.epsilon_a + 1e-12

    def test_threshold_nonincreasing_in_epsilon(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v, c, _ = random_instance(rng)
            cfg_lo = ThresholdConfig(epsilon_a=0.05, n0=3, sigma_kind=ZERO)
            cfg_hi = ThresholdConfig(epsilon_a=0.3, n0=3, sigma_kind=ZERO)
            (t_lo, *_), _ = run_both(u, v, c, cfg_lo)
            (t_hi, *_), _ = run_both(u, v, c, cfg_hi)
            assert t_hi <= t_lo  # weaker target never needs a higher bar

    def test_no_candidate_gives_infinity(self):
        cfg = ThresholdConfig(epsilon_a=0.01, n0=5)
        dec = estimate_threshold(np.array([0.5]), np.array([0]),
                                 np.array([0.6, 0.7]), np.array([0, 0]),
                                 np.array([True, True]), cfg, num_classes=1)
        assert dec.thresholds[0] == math.inf  # support 2 < n0
        assert dec.infinite[0]

    def test_empty_validation_flag(self):
        cfg = ThresholdConfig()
        dec = estimate_threshold(np.array([0.1, 0.9]), np.array([0, 1]),
                                 np.empty(0), np.empty(0, dtype=np.int64),
                                 np.empty(0, dtype=bool), cfg, num_classes=2)
        assert dec.empty_validation
        assert dec.infinite.all()

    def test_nonfinite_pool_scores_rejected(self):
        cfg = ThresholdConfig()
        with pytest.raises(ValueError, match="finite"):
            estimate_threshold(np.array([np.inf]), np.array([0]),
                               np.empty(0), np.empty(0, dtype=np.int64),
                               np.empty(0, dtype=bool), cfg, num_classes=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThresholdConfig(epsilon_a=0.0)
        with pytest.raises(ValueError):
            ThresholdConfig(n0=0)
        for delta in (0.0, 1.0, 2.0, -0.05, math.nan):
            with pytest.raises(ValueError, match="delta"):
                ThresholdConfig(delta=delta)

    def test_threshold_for_unknown_class(self):
        cfg = ThresholdConfig(sigma_kind=ZERO, n0=1, epsilon_a=0.5)
        dec = estimate_threshold(np.array([0.5]), np.array([0]),
                                 np.array([0.6]), np.array([0]),
                                 np.array([True]), cfg, num_classes=1)
        assert dec.threshold_for(9) == math.inf
        assert dec.threshold_for(-1) == math.inf


class TestPerClass:
    def test_classwise_equals_partitioned_single(self):
        rng = np.random.default_rng(2)
        n_u, n_v = 60, 80
        u = rng.random(n_u)
        up = rng.integers(0, 2, n_u)
        v = rng.random(n_v)
        vp = rng.integers(0, 2, n_v)
        c = rng.random(n_v) < 0.9
        cfg = ThresholdConfig(epsilon_a=0.2, n0=3)
        dec = estimate_threshold(u, up, v, vp, c, cfg, num_classes=2)
        for cls in (0, 1):
            um, vm = up == cls, vp == cls
            solo = estimate_threshold(u[um], np.zeros(um.sum(), dtype=np.int64),
                                      v[vm], np.zeros(vm.sum(), dtype=np.int64),
                                      c[vm], cfg, num_classes=1)
            assert dec.thresholds[cls] == solo.thresholds[0]
            assert dec.support[cls] == solo.support[0]

    def test_global_mode_copies_to_all_classes(self):
        rng = np.random.default_rng(3)
        u, v = rng.random(40), rng.random(50)
        up, vp = rng.integers(0, 3, 40), rng.integers(0, 3, 50)
        c = rng.random(50) < 0.95
        cfg = ThresholdConfig(epsilon_a=0.3, n0=2, per_class=False)
        dec = estimate_threshold(u, up, v, vp, c, cfg, num_classes=3)
        assert dec.thresholds[0] == dec.thresholds[1] == dec.thresholds[2] \
            == dec.thresholds[-1]

    def test_class_without_pool_points_abstains(self):
        cfg = ThresholdConfig(epsilon_a=0.5, n0=1, sigma_kind=ZERO)
        dec = estimate_threshold(np.array([0.5]), np.array([0]),
                                 np.array([0.9, 0.8]), np.array([1, 1]),
                                 np.array([True, True]), cfg, num_classes=2)
        assert dec.thresholds[0] == math.inf  # no class-0 validation support
        assert dec.thresholds[1] == math.inf  # no class-1 pool candidates
