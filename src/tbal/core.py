"""Shared domain types: pool of points, per-point lifecycle state, validation set,
and the deterministic RNG derivation used by every stochastic step."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

UNLABELED = "unlabeled"
HUMAN = "human"
AUTO = "auto"


class StateTransitionError(RuntimeError):
    """Raised on an illegal point-state transition (labels are never revoked)."""


@dataclass(frozen=True)
class PointState:
    kind: str  # one of UNLABELED / HUMAN / AUTO
    label: int | None = None
    round: int | None = None  # set for auto-labeled points only


KINDS = (UNLABELED, HUMAN, AUTO)  # a point's kind code is its index here
_CODE = {k: c for c, k in enumerate(KINDS)}


class Pool:
    """Indexed collection of feature vectors with hidden ground-truth labels.

    Ground truth is stored here but learners must never touch it directly;
    they go through :class:`Oracle` (to pay for a label) or the metrics
    module (to audit after the fact).

    Point state lives in three aligned arrays: ``kind`` (int8 code into
    :data:`KINDS`), ``label`` and ``round`` (int64, -1 when unset; ``round``
    is set for auto-labeled points only).
    """

    def __init__(self, features: np.ndarray, truth: np.ndarray, num_classes: int):
        features = np.asarray(features, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.int64)
        if features.ndim != 2 or len(features) != len(truth):
            raise ValueError("features must be (N, d) aligned with truth (N,)")
        self.features = features
        self._truth = truth
        self.num_classes = int(num_classes)
        self.kind = np.zeros(len(truth), dtype=np.int8)
        self.label = np.full(len(truth), -1, dtype=np.int64)
        self.round = np.full(len(truth), -1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def states(self) -> tuple[PointState, ...]:
        """Per-point view of the state arrays, built on each access."""
        return tuple(PointState(KINDS[k], None if lab < 0 else lab,
                                None if r < 0 else r)
                     for k, lab, r in zip(self.kind.tolist(), self.label.tolist(),
                                          self.round.tolist()))

    def ids_with(self, kind: str) -> np.ndarray:
        return np.flatnonzero(self.kind == _CODE[kind])

    def _mark(self, ids, kind: str, label, rnd: int) -> None:
        """Label one id or an array of distinct unlabeled ids; a batch with any
        other id is rejected whole, before anything is written."""
        flat = np.asarray(ids, dtype=np.int64).reshape(-1)
        # a label array of the wrong length fails here, before any write
        labels = np.broadcast_to(np.asarray(label, dtype=np.int64), flat.shape)
        taken = flat[self.kind[flat] != _CODE[UNLABELED]]
        if len(taken):
            i = int(taken[0])
            raise StateTransitionError(f"point {i} is already {KINDS[self.kind[i]]}")
        if len(np.unique(flat)) != len(flat):
            raise StateTransitionError("a batch names the same point twice")
        self.kind[flat] = _CODE[kind]
        self.label[flat] = labels
        self.round[flat] = rnd

    def mark_human(self, ids, label) -> None:
        self._mark(ids, HUMAN, label, -1)

    def mark_auto(self, ids, label, rnd: int) -> None:
        self._mark(ids, AUTO, label, rnd)

    def copy(self) -> "Pool":
        p = Pool(self.features, self._truth, self.num_classes)
        p.kind, p.label, p.round = self.kind.copy(), self.label.copy(), self.round.copy()
        return p


class Oracle:
    """The simulated human labeler: the only sanctioned path to ground truth
    during a run."""

    def __init__(self, pool: Pool):
        self._pool = pool
        self.queries = 0

    def label(self, i: int) -> int:
        self.queries += 1
        return int(self._pool._truth[i])


@dataclass
class ValidationSet:
    """Human-labeled holdout used only for threshold estimation.

    Entries are deactivated (never deleted) when they fall into an
    auto-labeled region, so post-hoc audits can still see them.
    """

    features: np.ndarray
    labels: np.ndarray
    active: np.ndarray = field(default=None)  # bool mask

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.active is None:
            self.active = np.ones(len(self.labels), dtype=bool)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.active)

    def deactivate(self, indices: np.ndarray) -> None:
        # filtering never re-adds; only True -> False transitions happen here
        self.active[np.asarray(indices, dtype=np.int64)] = False

    def copy(self) -> "ValidationSet":
        return ValidationSet(self.features, self.labels, self.active.copy())


def partition_counts(pool: Pool) -> tuple[int, int, int]:
    """(n_auto, n_human, n_unlabeled); always sums to len(pool)."""
    n_unl, n_human, n_auto = np.bincount(pool.kind, minlength=len(KINDS))[:len(KINDS)]
    return int(n_auto), int(n_human), int(n_unl)


def check_partition(pool: Pool) -> None:
    a, h, u = partition_counts(pool)
    assert a + h + u == len(pool), "point lifecycle partition violated"


def rng_from(seed: int, *stream) -> np.random.Generator:
    """Derive a named, reproducible random stream from a base seed.

    Every stochastic step in the library pulls from one of these; the
    (seed, stream-name) pair fully determines the sequence, so whole runs
    replay bit-identically.
    """
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in stream:
        if isinstance(part, (int, np.integer)):
            words.append(int(part) & 0xFFFFFFFF)
        else:
            words.append(zlib.crc32(str(part).encode()))
    return np.random.default_rng(np.random.SeedSequence(words))
