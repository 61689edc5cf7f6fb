import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tbal
from tbal.data import gen_unit_ball, split_pool_val
from tbal.engine import RunConfig, run
from tbal.model import TrainConfig
from tbal.theory import (BoundInputs, DomainError, band_probability_bound,
                         coverage_bound_linear, error_bound_vc, inputs_from_run,
                         min_validation_size, rademacher_vc,
                         verify_error_bound_mc)

# -------------------------------------------------- second implementations
# Written from the formulas directly, with different algebra and library
# calls than the evaluators under test.


def rademacher_ref(n, d):
    return math.exp(0.5 * (math.log(2.0 * d) - math.log(n)
                           + math.log(1.0 + math.log(n / d))))


def _cap_ref(n, d):
    return 2.0 * d * (1.0 + np.log(n / d))


def error_bound_ref(d, k, delta, p0, n_v, n_a, e_val, N_a):
    lt = np.log(8.0) + np.log(k) - np.log(delta)
    n_v = np.asarray(n_v, dtype=float)
    n_a = np.asarray(n_a, dtype=float)
    e_val = np.asarray(e_val, dtype=float)
    dev = (4.0 / p0) * np.sqrt(2.0 / n_v * (_cap_ref(n_v, d) + lt))
    head = float(np.sum(n_a / N_a * (e_val + dev)))
    tail = (4.0 / p0) * math.sqrt(2.0 * k / N_a * (_cap_ref(N_a, d) + lt))
    return head + tail


def coverage_ref(t_hat_min, d, k, N, delta):
    band = 2.0 * t_hat_min * math.sqrt(d / math.pi)
    dev = 2.0 * k * math.sqrt(2.0 / N) * math.sqrt(
        _cap_ref(N, d) + math.log(8.0 * k) - math.log(delta))
    return 1.0 - band - dev


def band_ref(g1, g2, d):
    return g1 * math.sqrt(d / math.pi) / 2.0 * math.exp(-0.5 * (d - 2) * g2 * g2)


def min_validation_ref(sig, eps, c2):
    return math.ceil(12.0 * sig ** 2 / eps ** 2 * (math.log(4.0) + math.log(c2)))


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestAgainstSecondImplementation:
    def test_rademacher_100_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(1, 50))
            n = int(rng.integers(d, d + 10000))
            assert rel_err(rademacher_vc(n, d), rademacher_ref(n, d)) <= 1e-10

    def test_error_bound_100_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(1, 30))
            k = int(rng.integers(1, 8))
            delta = float(rng.uniform(0.01, 0.2))
            p0 = float(rng.uniform(0.05, 0.95))
            n_v = [int(rng.integers(d, d + 5000)) for _ in range(k)]
            n_a = [int(rng.integers(1, 2000)) for _ in range(k)]
            e_val = [float(rng.uniform(0, 0.2)) for _ in range(k)]
            N_a = max(sum(n_a), d)
            inputs = BoundInputs(d=d, k=k, delta=delta, p0=p0, n_v=n_v,
                                 n_a=n_a, e_val=e_val, N_a=N_a)
            got = error_bound_vc(inputs)
            want = error_bound_ref(d, k, delta, p0, n_v, n_a, e_val, N_a)
            assert rel_err(got, want) <= 1e-10

    def test_coverage_100_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 60))
            k = int(rng.integers(1, 10))
            N = int(rng.integers(d, d + 50000))
            t = float(rng.uniform(0, 1))
            delta = float(rng.uniform(0.01, 0.2))
            got = coverage_bound_linear(t, d, k, N, delta)
            assert rel_err(got, coverage_ref(t, d, k, N, delta)) <= 1e-10

    def test_band_100_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 200))
            g1, g2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            assert rel_err(band_probability_bound(g1, g2, d),
                           band_ref(g1, g2, d)) <= 1e-10

    def test_min_validation_100_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            sig = float(rng.uniform(0.1, 3))
            eps = float(rng.uniform(0.001, 0.5))
            c2 = float(rng.uniform(0.3, 10))
            assert min_validation_size(sig, eps, c2) == min_validation_ref(sig, eps, c2)


class TestFrozenValues:
    def test_rademacher(self):
        assert rademacher_vc(100, 2) == pytest.approx(0.44326168367807955, abs=1e-12)
        assert rademacher_vc(1000, 30) == pytest.approx(0.51999372480752, abs=1e-12)

    def test_band(self):
        assert band_probability_bound(0.5, 0.3, 10) == pytest.approx(
            0.31118528965304776, abs=1e-12)
        # d=2 kills the exponential factor entirely
        assert band_probability_bound(1.0, 0.9, 2) == pytest.approx(
            math.sqrt(2.0) / (2.0 * math.sqrt(math.pi)), abs=1e-12)

    def test_coverage_can_be_negative(self):
        assert coverage_bound_linear(0.05, 30, 5, 16000, 0.05) == pytest.approx(
            -1.6633595263495686, abs=1e-10)

    def test_min_validation(self):
        assert min_validation_size(1.0, 0.1) == 1200  # default c2 = e/4
        assert min_validation_size(0.5, 0.05, c2=2.0) == 2496

    def test_error_bound_single_round(self):
        inputs = BoundInputs(d=5, k=1, delta=0.05, p0=0.5, n_v=[1000],
                             n_a=[400], e_val=[0.01], N_a=400)
        assert error_bound_vc(inputs) == pytest.approx(7.302779973319478, abs=1e-10)


class TestDomains:
    def test_rademacher_domain(self):
        with pytest.raises(DomainError):
            rademacher_vc(5, 10)
        with pytest.raises(DomainError):
            rademacher_vc(5, 0)

    def test_bound_inputs_domain(self):
        with pytest.raises(DomainError):
            BoundInputs(d=2, k=1, delta=0.05, p0=0.0, n_v=[10], n_a=[1],
                        e_val=[0.0], N_a=1)
        with pytest.raises(DomainError):
            BoundInputs(d=2, k=2, delta=0.05, p0=0.5, n_v=[10], n_a=[1],
                        e_val=[0.0], N_a=1)

    def test_coverage_domain(self):
        with pytest.raises(DomainError):
            coverage_bound_linear(1.5, 5, 1, 100, 0.05)
        with pytest.raises(DomainError):
            coverage_bound_linear(0.1, 50, 1, 10, 0.05)

    def test_band_domain(self):
        with pytest.raises(DomainError):
            band_probability_bound(0.5, 0.5, 1)
        with pytest.raises(DomainError):
            band_probability_bound(1.5, 0.5, 10)

    def test_min_validation_domain(self):
        with pytest.raises(DomainError):
            min_validation_size(0.0, 0.1)
        with pytest.raises(DomainError):
            min_validation_size(1.0, 0.1, c2=0.1)  # log(4 c2) < 0


def small_run(seed):
    x, y = gen_unit_ball(5, 2500, seed)
    pool, val = split_pool_val(x, y, 1500, 1000, seed)
    cfg = RunConfig(method="tbal", n_s=40, n_b=10, N_q=120,
                    train=TrainConfig(normalized=True, learning_rate=3.0))
    return run(pool, val, cfg, seed)


class TestRunPlumbing:
    def test_inputs_from_run(self):
        res = small_run(0)
        inputs = inputs_from_run(res, d=5)
        if inputs is not None:
            assert inputs.N_a == res.N_a
            assert 0 < inputs.p0 < 1
            assert len(inputs.n_v) == inputs.k <= res.k

    def test_round_error_is_the_largest_class_error(self):
        res = small_run(0)
        rounds = [r for r in res.rounds if r.n_a > 0]
        assert rounds
        for i, r in enumerate(rounds):  # distinct per-class errors, class 1 the largest
            r.decision.est_error = np.array([0.001 * i, 0.002 * i + 0.01])
        inputs = inputs_from_run(res, d=5)
        assert inputs.e_val == [0.002 * i + 0.01 for i in range(len(rounds))]

    def test_bounds_table_script_runs(self):
        """``scripts/bounds_table.py`` reads a run's counts and prints them."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(tbal.__file__)))
        out = subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "bounds_table.py"),
             "--n-total", "2000", "--budget", "100"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert any(line.startswith("run: ") for line in lines)
        # this run's coverage bound is below 0: tagged, not read as a result
        (cov,) = [line for line in lines if line.startswith("coverage lower bound")]
        bound = float(cov.split(": ", 1)[1].split()[0])
        assert bound <= 0.0 and "(vacuous)" in cov

    def test_mc_report_shape(self):
        report = verify_error_bound_mc(small_run, d=5, trials=5)
        assert report.trials == 5
        assert report.evaluated + report.vacuous == 5
        assert report.allowed_rate == pytest.approx(0.05 + 3 * math.sqrt(0.05 / 5))
        assert report.violations >= 0
