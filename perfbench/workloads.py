"""The benchmark's workloads, each driven through the public API of ``tbal``.

Why these three: the layer that dominates a run depends on the inputs.

* ``xor_sweep`` is the shipped ``configs/xor.yaml`` sweep (five methods,
  N_q=500, d=2) as users run it. Hinge SGD dominates, and ``pl``/``plsc``
  refit after every random batch although only the last model is used.
* ``unit_ball_wide_pool`` is TBAL alone on a big pool with a tiny budget
  (d=30, 80k pool, 20k validation, N_q=100, the hinge/normalized training
  block of ``configs/unit_ball_budget.yaml``). Fitting is cheap; the
  threshold scan, the per-point pool bookkeeping and the engine's per-point
  loops dominate.
* ``gauss_k10`` is the multiclass path (K=10 Gaussian clusters in d=784, the
  MNIST shape) through ``data.split_pool_val`` -> ``engine.run`` ->
  ``metrics.evaluate`` with logistic loss, softmax confidence and per-class
  thresholds. The cluster centres are close (0.12 per coordinate against unit
  noise) so TBAL runs all 17 rounds and labels only part of the pool; well
  separated clusters finish in one round and measure nothing.

One iteration is one sweep call (or one gauss run); ``xor_sweep`` calls the
shipped config with half its trials, so that a run of the benchmark can stop
close to its time budget. Iteration ``i`` of benchmark seed ``s`` uses its own
seeds, ``s * SEED_STRIDE`` plus ``i`` times the trials per call, so no two
iterations or benchmark seeds share a run and an in-process cache keyed by
seed cannot turn repeated iterations into hits. For seed 0 the first
iterations replay the shipped config's own seeds: iterations 0 and 1 of
``xor_sweep`` together are exactly the shipped sweep.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import shutil
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tbal import cli, confidence, data, engine, metrics
from tbal.core import rng_from
from tbal.model import TrainConfig

SEED_STRIDE = 10_000
NAMES = ("xor_sweep", "unit_ball_wide_pool", "gauss_k10")
SELECTIVE = (engine.TBAL, engine.PLSC, engine.ALSC)


_REF_MATRIX = np.random.default_rng(0).standard_normal((32, 64))


def reference_seconds() -> float:
    """Wall time of a fixed kernel with the runs' mix of interpreter loops
    and small NumPy products. On a shared host the CPU's speed drifts by tens
    of percent within a minute; a run's time divided by this kernel's time,
    measured next to it, keeps the run's own cost and drops most of the
    drift."""
    t0 = perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i
    x = np.zeros(_REF_MATRIX.shape[1])
    for _ in range(300):
        x = _REF_MATRIX.T @ (_REF_MATRIX @ x + 1.0) * 1e-3
    return perf_counter() - t0


def timed(fn, *args, **kwargs):
    """(result, run seconds, reference seconds): the reference kernel runs
    just before and just after the call, outside its timing, and the mean of
    the two is kept."""
    ref = reference_seconds()
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    run_s = perf_counter() - t0
    return result, run_s, (ref + reference_seconds()) / 2


@dataclass
class Iteration:
    wall_s: float  # the timed call, reference kernels included
    run_s: list = field(default_factory=list)  # wall time of each completed run
    ref_s: list = field(default_factory=list)  # reference-kernel time around each
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    selective: list = field(default_factory=list)  # (err_hat, cov_hat), err nan if undefined


class SweepWorkload:
    """A shipped config, adjusted by ``customize``, run through
    ``cli.run_experiment``; ``runs.csv`` is the output checked."""

    def __init__(self, name, config, customize):
        self.name = name
        self.config = config
        self.customize = customize

    def prepare(self, root, out_dir, seed):
        exp = cli.load_config(os.path.join(root, "configs", self.config))
        self.customize(exp)
        exp.workers = 1
        exp.out = out_dir
        self.exp = exp
        self.epsilon_a = exp.epsilon_a
        self.base = exp.seed_base + seed * SEED_STRIDE

    def iteration(self, i) -> Iteration:
        exp = self.exp
        exp.seed_base = self.base + i * exp.trials
        runs_path = os.path.join(exp.out, "runs.csv")
        if os.path.exists(runs_path):
            os.remove(runs_path)

        # all an untraced iteration adds: a timer and the reference kernel around each run
        times, refs = [], []
        run_single = cli.run_single

        def timed_run_single(*args, **kwargs):
            row, run_s, ref_s = timed(run_single, *args, **kwargs)
            times.append(run_s)
            refs.append(ref_s)
            return row

        cli.run_single = timed_run_single
        try:
            with redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                cli.run_experiment(exp)
                wall = perf_counter() - t0
        finally:
            cli.run_single = run_single

        expected = len(exp.methods) * len(exp.grid) * exp.trials
        it = Iteration(wall_s=wall, run_s=times, ref_s=refs, attempted=expected)
        with open(runs_path, "rb") as f:
            blob = f.read()
        it.digest = hashlib.sha256(blob).hexdigest()
        rows = list(csv.DictReader(io.StringIO(blob.decode())))
        # the serial sweep only prints failed runs to stderr: count the gap
        it.failed = expected - len(rows)
        for row in rows:
            err, cov = float(row["err_hat"]), float(row["cov_hat"])
            sane = (0.0 <= cov <= 1.0 and int(row["rounds"]) >= 1
                    and (math.isnan(err) or 0.0 <= err <= 1.0))
            if exp.axis == cli.TRAIN_BUDGET:
                sane = sane and int(row["human_labels"]) <= int(row["axis_value"])
            if not sane:
                print(f"implausible row in {runs_path}: {row}", file=sys.stderr)
                it.failed += 1
            if row["method"] in SELECTIVE:
                it.selective.append((err, cov))
        return it


def _wide_unit_ball(exp):
    exp.dataset = data.DatasetSpec(kind="unit_ball", d=30, n_total=100_000,
                                   pool_size=80_000, val_size=20_000)
    exp.methods = [engine.TBAL]
    exp.grid = [100]
    exp.trials = 1


class GaussWorkload:
    """K=10 Gaussian clusters generated here, split into pool and validation
    per iteration and run through the engine; the labeled pool, as
    ``cli.export_dataset`` writes it, is the output checked."""

    name = "gauss_k10"
    K, D, N_POOL, N_VAL = 10, 784, 16_000, 4_000
    CENTRE_SCALE = 0.12
    epsilon_a = 0.05

    def prepare(self, root, out_dir, seed):
        rng = rng_from(seed, "perfbench", self.name)
        centres = self.CENTRE_SCALE * rng.standard_normal((self.K, self.D))
        n = self.N_POOL + self.N_VAL
        self.y = rng.integers(0, self.K, size=n)
        self.X = centres[self.y] + rng.standard_normal((n, self.D))
        self.seed = seed
        self.labels_path = os.path.join(out_dir, "labels.csv")
        self.cfg = engine.RunConfig(
            method=engine.TBAL, epsilon_a=self.epsilon_a, n_s=200, n_b=50, N_q=1000,
            train=TrainConfig(loss="logistic"), confidence=confidence.Softmax())

    def _run(self, seed):
        pool, val = data.split_pool_val(self.X, self.y, self.N_POOL, self.N_VAL,
                                        seed, num_classes=self.K)
        result = engine.run(pool, val, self.cfg, seed)
        return pool, result, metrics.evaluate(result, pool)

    def iteration(self, i) -> Iteration:
        seed = self.seed * SEED_STRIDE + i
        it = Iteration(wall_s=0.0, attempted=1)
        t0 = perf_counter()
        try:
            (pool, result, report), run_s, ref_s = timed(self._run, seed)
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc()
            it.wall_s = perf_counter() - t0
            it.failed = 1
            return it
        it.wall_s = perf_counter() - t0
        it.run_s.append(run_s)
        it.ref_s.append(ref_s)
        cli.export_dataset(result, self.labels_path)
        with open(self.labels_path, "rb") as f:
            it.digest = hashlib.sha256(f.read()).hexdigest()
        it.selective.append((report.err_hat, report.cov_hat))
        return it


def _half_trials(exp):
    exp.trials //= 2


def make(name):
    if name == "xor_sweep":
        return SweepWorkload(name, "xor.yaml", _half_trials)
    if name == "unit_ball_wide_pool":
        return SweepWorkload(name, "unit_ball_budget.yaml", _wide_unit_ball)
    if name == "gauss_k10":
        return GaussWorkload()
    raise KeyError(name)


def clean(out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
