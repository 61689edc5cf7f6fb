"""Threshold-based auto-labeling: iterative train / threshold / auto-label /
actively-query engine, baselines, metrics, bound evaluators, and an
experiment harness."""

from .core import Oracle, Pool, ValidationSet, partition_counts, rng_from
from .data import DatasetSpec, gen_unit_ball, gen_xor, load_mnist_idx, split_pool_val
from .engine import RunConfig, RunResult, run
from .metrics import MetricReport, evaluate, summarize_trials
from .model import LinearModel, TrainConfig, fit, logits, predict, raw_scores
from .threshold import ThresholdConfig, ThresholdDecision, estimate_threshold, sigma

__all__ = [
    "Oracle", "Pool", "ValidationSet", "partition_counts", "rng_from",
    "DatasetSpec", "gen_unit_ball", "gen_xor", "load_mnist_idx", "split_pool_val",
    "RunConfig", "RunResult", "run",
    "MetricReport", "evaluate", "summarize_trials",
    "LinearModel", "TrainConfig", "fit", "logits", "predict", "raw_scores",
    "ThresholdConfig", "ThresholdDecision", "estimate_threshold", "sigma",
]
