"""Dataset generators (unit ball, XOR disks), MNIST IDX loader, and
pool/validation splitting."""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .core import Pool, ValidationSet, rng_from

MNIST_IMAGE_MAGIC = 2051
MNIST_LABEL_MAGIC = 2049

UNIT_BALL = "unit_ball"
XOR = "xor"
MNIST_LINEAR = "mnist_linear"
KINDS = (UNIT_BALL, XOR, MNIST_LINEAR)


class ConfigError(ValueError):
    pass


class IdxFormatError(ValueError):
    """Malformed IDX file; message carries the byte offset of the problem."""


@dataclass
class DatasetSpec:
    kind: str  # one of KINDS
    d: int = 30
    n_total: int = 20000
    pool_size: int = 16000
    val_size: int = 4000
    xor_radius: float = 1.0
    images_path: str | None = None
    labels_path: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}; choose from {list(KINDS)}")
        if self.pool_size < 1:
            raise ConfigError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.val_size < 0:
            raise ConfigError(f"val_size must be >= 0, got {self.val_size}")
        if self.pool_size + self.val_size > self.n_total:
            raise ConfigError("pool_size + val_size exceeds n_total")
        if self.kind == UNIT_BALL and self.d < 2:
            raise ConfigError(f"unit ball dimension d must be >= 2, got {self.d}")
        if self.kind == XOR and self.n_total < 4:
            raise ConfigError(f"n_total must be >= 4 on kind xor, got {self.n_total}")
        if self.kind == XOR and not 0 < self.xor_radius <= 2:
            raise ConfigError(f"xor_radius must be in (0, 2], got {self.xor_radius}")
        if self.kind == MNIST_LINEAR and not (self.images_path and self.labels_path):
            raise ConfigError("mnist_linear needs images_path and labels_path")


# rows per block in which ``gen_unit_ball`` scales its samples
UNIT_BALL_BLOCK = 4096


def gen_unit_ball(d: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform samples from the d-dimensional unit ball, labeled by the
    homogeneous separator w* = (1/sqrt(d), ..., 1/sqrt(d)).

    Sampling: normalize a Gaussian for the direction, radius ~ U^(1/d).
    """
    if d < 2:
        raise ConfigError(f"unit ball dimension must be >= 2, got {d}")
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    rng = rng_from(seed, "unit_ball")
    g = rng.standard_normal((n, d))
    r = rng.random(n) ** (1.0 / d)
    # a block at a time, so the norm's temporaries take one block, not n x d
    for lo in range(0, n, UNIT_BALL_BLOCK):
        blk = g[lo:lo + UNIT_BALL_BLOCK]
        blk /= np.linalg.norm(blk, axis=1, keepdims=True)
        blk *= r[lo:lo + UNIT_BALL_BLOCK, None]
    w_star = np.full(d, 1.0 / np.sqrt(d))
    y = (g @ w_star >= 0).astype(np.int64)
    return g, y


XOR_CENTERS = np.array([[2.0, 2.0], [-2.0, -2.0], [2.0, -2.0], [-2.0, 2.0]])
XOR_LABELS = np.array([1, 1, 0, 0])  # diagonally opposite disks share a class


def gen_xor(n: int, radius: float = 1.0, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Uniform samples from 4 disks at the corners of a side-4 square
    centered at the origin; diagonal pairs share a label."""
    if radius <= 0 or radius > 2:
        raise ConfigError(f"xor disk radius must be in (0, 2], got {radius}")
    if n < 4:
        raise ConfigError(f"need at least 4 samples, got {n}")
    rng = rng_from(seed, "xor")
    which = rng.integers(0, 4, size=n)
    r = radius * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2 * np.pi
    offsets = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    x = XOR_CENTERS[which] + offsets
    y = XOR_LABELS[which].astype(np.int64)
    return x, y


def _open_maybe_gzip(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_be32(f, path, offset):
    data = f.read(4)
    if len(data) != 4:
        raise IdxFormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack(">i", data)[0]


def load_mnist_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse the big-endian IDX pair into (n, 784) floats in [0, 1] and
    int labels. Gzipped files are handled transparently."""
    with _open_maybe_gzip(images_path) as f:
        magic = _read_be32(f, images_path, 0)
        if magic != MNIST_IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad magic {magic} at byte 0 (want {MNIST_IMAGE_MAGIC})")
        count = _read_be32(f, images_path, 4)
        rows = _read_be32(f, images_path, 8)
        cols = _read_be32(f, images_path, 12)
        raw = f.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise IdxFormatError(
                f"{images_path}: truncated pixel data at byte {16 + len(raw)}")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with _open_maybe_gzip(labels_path) as f:
        magic = _read_be32(f, labels_path, 0)
        if magic != MNIST_LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad magic {magic} at byte 0 (want {MNIST_LABEL_MAGIC})")
        lcount = _read_be32(f, labels_path, 4)
        raw = f.read(lcount)
        if len(raw) != lcount:
            raise IdxFormatError(
                f"{labels_path}: truncated label data at byte {8 + len(raw)}")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if count != lcount:
        raise IdxFormatError(
            f"count mismatch: {count} images vs {lcount} labels")
    x = images.astype(np.float64)
    x /= 255.0  # in place: the loader holds one float copy of the images
    return x, labels


def split_pool_val(features: np.ndarray, labels: np.ndarray,
                   pool_size: int, val_size: int, seed: int,
                   num_classes: int | None = None) -> tuple[Pool, ValidationSet]:
    """Disjoint uniform random split. Validation keeps labels visible; the
    pool hides them behind the oracle. Both read their features by row index
    from one matrix: ``features`` itself when the split uses every row, so
    it copies none of them; otherwise a copy of just the used rows, pool
    rows first, so the unused ones are not kept alive."""
    n = len(labels)
    used = pool_size + val_size
    if used > n:
        raise ConfigError(f"pool_size + val_size = {used} > {n}")
    rng = rng_from(seed, "split")
    perm = rng.permutation(n)
    k = num_classes if num_classes is not None else int(labels.max()) + 1
    features = np.asarray(features, dtype=np.float64)  # one matrix for both
    rows = perm[:used]
    if used < n:
        features = features.take(rows, axis=0)
        rows = np.arange(used)
    pool = Pool(features, labels[perm[:pool_size]], num_classes=k, rows=rows[:pool_size])
    val = ValidationSet(features, labels[perm[pool_size:used]], rows=rows[pool_size:])
    return pool, val


def make_dataset(spec: DatasetSpec, seed: int) -> tuple[Pool, ValidationSet]:
    if spec.kind == UNIT_BALL:
        x, y = gen_unit_ball(spec.d, spec.n_total, seed)
        k = 2
    elif spec.kind == XOR:
        x, y = gen_xor(spec.n_total, spec.xor_radius, seed)
        k = 2
    else:
        x, y = load_mnist_idx(spec.images_path, spec.labels_path)
        k = 10
    return split_pool_val(x, y, spec.pool_size, spec.val_size, seed, num_classes=k)

