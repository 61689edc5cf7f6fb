"""Shared domain types: pool of points with their lifecycle state arrays,
validation set, and the deterministic RNG derivation used by every
stochastic step."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

UNLABELED = "unlabeled"
HUMAN = "human"
AUTO = "auto"


class StateTransitionError(RuntimeError):
    """Raised on an illegal point-state transition (labels are never revoked)."""


KINDS = (UNLABELED, HUMAN, AUTO)  # a point's kind code is its index here
_CODE = {k: c for c, k in enumerate(KINDS)}


def _point_ids(ids, n: int) -> np.ndarray:
    """``ids`` (an id or an array of them) as a flat int64 array; an id
    outside [0, n) raises IndexError, a negative one too, where NumPy
    indexing would wrap it around."""
    flat = np.asarray(ids, dtype=np.int64).reshape(-1)
    if len(flat) and (flat.min() < 0 or flat.max() >= n):
        raise IndexError(f"point ids must lie in [0, {n})")
    return flat


class _MatrixRows:
    """Features held as rows of a matrix: point ``i``'s features are row
    ``rows[i]`` of ``matrix``, a C-order float64 (rows, d) array that the
    pool and validation set split from one dataset share, so a split copies
    no features. Read them with :meth:`gather`; the engine scores the
    matrix's rows in place."""

    def _hold(self, matrix, n: int, rows) -> None:
        """Check and keep ``matrix`` and ``rows`` for ``n`` points; ``rows``
        None means one matrix row per point, in order."""
        matrix = np.asarray(matrix, dtype=np.float64, order="C")
        if matrix.ndim != 2:
            raise ValueError(f"the matrix must be 2-D (rows, d), got shape {matrix.shape}")
        if rows is None:
            if len(matrix) != n:
                raise ValueError(f"{len(matrix)} matrix rows for {n} points; pass rows")
            rows = np.arange(n)
        rows = np.asarray(rows)
        if rows.ndim != 1 or len(rows) != n:
            raise ValueError(f"rows must be 1-D with one entry per point ({n}), "
                             f"got shape {rows.shape}")
        # a row outside the matrix fails here, not mid-run
        if n and (rows.dtype.kind not in "iu" or rows.min() < 0
                  or rows.max() >= len(matrix)):
            raise ValueError(f"rows must be integers in [0, {len(matrix)})")
        self.matrix, self.rows = matrix, rows.astype(np.int64, copy=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def gather(self, ids) -> np.ndarray:
        """The features of points ``ids`` (an id or an array of them)."""
        return self.matrix.take(self.rows.take(ids), axis=0)


class Pool(_MatrixRows):
    """Indexed collection of points with hidden ground-truth labels; their
    features are rows of a matrix (see :class:`_MatrixRows`).

    Ground truth is stored here but learners must never touch it directly;
    they go through :class:`Oracle` (to pay for a label) or the metrics
    module (to audit after the fact).

    Point state lives in three aligned arrays: ``kind`` (int8 code into
    :data:`KINDS`), ``label`` and ``round`` (int64, -1 when unset; ``round``
    is set for auto-labeled points only).
    """

    def __init__(self, matrix: np.ndarray, truth: np.ndarray, num_classes: int,
                 rows: np.ndarray | None = None):
        truth = np.asarray(truth, dtype=np.int64)
        self._hold(matrix, len(truth), rows)
        self._truth = truth
        self.num_classes = int(num_classes)
        self.kind = np.zeros(len(truth), dtype=np.int8)
        self.label = np.full(len(truth), -1, dtype=np.int64)
        self.round = np.full(len(truth), -1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.kind)

    def ids_with(self, kind: str) -> np.ndarray:
        return np.flatnonzero(self.kind == _CODE[kind])

    def _mark(self, ids, kind: str, label, rnd: int) -> None:
        """Label one id or an array of distinct unlabeled ids; a batch with any
        other id is rejected whole, before anything is written."""
        flat = _point_ids(ids, len(self))
        # a label array of the wrong length fails here, before any write
        labels = np.broadcast_to(np.asarray(label, dtype=np.int64), flat.shape)
        taken = flat[self.kind[flat] != _CODE[UNLABELED]]
        if len(taken):
            i = int(taken[0])
            raise StateTransitionError(f"point {i} is already {KINDS[self.kind[i]]}")
        seen = np.zeros(len(self), dtype=bool)
        seen[flat] = True
        if np.count_nonzero(seen) != len(flat):
            raise StateTransitionError("a batch names the same point twice")
        self.kind[flat] = _CODE[kind]
        self.label[flat] = labels
        self.round[flat] = rnd

    def mark_human(self, ids, label) -> None:
        self._mark(ids, HUMAN, label, -1)

    def mark_auto(self, ids, label, rnd: int) -> None:
        self._mark(ids, AUTO, label, rnd)

    def copy(self) -> "Pool":
        p = Pool(self.matrix, self._truth, self.num_classes, self.rows)
        p.kind, p.label, p.round = self.kind.copy(), self.label.copy(), self.round.copy()
        return p


class Oracle:
    """The simulated human labeler: the only sanctioned path to ground truth
    during a run."""

    def __init__(self, pool: Pool):
        self._pool = pool

    def label(self, i: int) -> int:
        return int(self._pool._truth[i])


@dataclass
class ValidationSet(_MatrixRows):
    """Human-labeled holdout used only for threshold estimation; its
    features are rows of a matrix (see :class:`_MatrixRows`).

    Entries are deactivated (never deleted) when they fall into an
    auto-labeled region, so post-hoc audits can still see them.
    """

    matrix: np.ndarray
    labels: np.ndarray
    active: np.ndarray = field(default=None)  # bool mask
    rows: np.ndarray = field(default=None)  # None: one matrix row per entry

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self._hold(self.matrix, len(self.labels), self.rows)
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
        self.active[_point_ids(indices, len(self))] = False

    def copy(self) -> "ValidationSet":
        return ValidationSet(self.matrix, self.labels, self.active.copy(), self.rows)


def partition_counts(pool: Pool) -> tuple[int, int, int]:
    """(n_auto, n_human, n_unlabeled); always sums to len(pool)."""
    # a code outside KINDS is counted nowhere, so check_partition fails
    n_unl, n_human, n_auto = (np.count_nonzero(pool.kind == c) for c in range(len(KINDS)))
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
