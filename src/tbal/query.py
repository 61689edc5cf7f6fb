"""Query strategies: uniform random batches and margin-random active
querying (uniform draw from the C*n_b least-confident points)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANDOM = "random"
MARGIN_RANDOM = "margin_random"
STRATEGIES = (MARGIN_RANDOM, RANDOM)


@dataclass
class QueryConfig:
    strategy: str = MARGIN_RANDOM
    C: float = 2.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown query strategy {self.strategy!r}")
        if self.strategy == MARGIN_RANDOM and self.C <= 1:
            raise ValueError("C must be > 1 for margin-random querying")


def query_random(unlabeled_ids: np.ndarray, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """n distinct ids uniformly without replacement. Asking for more than
    remain returns everything with a truncation flag."""
    ids = np.asarray(unlabeled_ids, dtype=np.int64)
    if n >= len(ids):
        return ids.copy(), n > len(ids)
    chosen = rng.choice(ids, size=n, replace=False)
    return np.sort(chosen), False


def _lowest(ids: np.ndarray, scores: np.ndarray, n: int) -> np.ndarray:
    """The n ids first in ascending (score, id) order, in that order, in
    linear time up to the final sort of those n."""
    if n < len(ids):
        kth = np.partition(scores, n - 1)[n - 1]
        below = np.flatnonzero(scores < kth)
        ties = np.flatnonzero(scores == kth)
        ties = ties[np.argsort(ids[ties], kind="stable")[:n - len(below)]]
        keep = np.concatenate([below, ties])
        ids, scores = ids[keep], scores[keep]
    return ids[np.lexsort((ids, scores))]


def query_margin_random(unlabeled_ids: np.ndarray, scores: np.ndarray, n: int,
                        C: float, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """Keep the C*n ids with the lowest scores, in ascending score order,
    and sample n ids uniformly from that slice. ``scores[i]`` is the
    caller's margin score of ``unlabeled_ids[i]``. Ties break on id so
    identical seeds reproduce identical batches. An n of ``len(ids)`` or
    more returns every id, with ``query_random``'s truncation flag."""
    ids = np.asarray(unlabeled_ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != ids.shape:
        raise ValueError(f"{len(scores)} scores for {len(ids)} ids")
    if n >= len(ids):
        return ids.copy(), n > len(ids)
    pool_slice = _lowest(ids, scores, min(int(C * n), len(ids)))
    chosen = rng.choice(pool_slice, size=n, replace=False)
    return np.sort(chosen), False
