import gzip
import re
import struct
import tracemalloc

import numpy as np
import pytest

from tbal.data import (ConfigError, DatasetSpec, IdxFormatError, XOR_CENTERS,
                       XOR_LABELS, gen_unit_ball, gen_xor, load_mnist_idx,
                       make_dataset, split_pool_val)
from tbal.core import rng_from


# ---------------------------------------------------------------- unit ball

class TestUnitBall:
    def test_inside_ball(self):
        x, _ = gen_unit_ball(5, 500, seed=0)
        assert np.all(np.linalg.norm(x, axis=1) <= 1.0 + 1e-12)

    def test_labels_match_separator(self):
        d = 7
        x, y = gen_unit_ball(d, 300, seed=1)
        w = np.full(d, 1.0 / np.sqrt(d))
        assert np.array_equal(y, (x @ w >= 0).astype(np.int64))

    def test_deterministic(self):
        a, ya = gen_unit_ball(4, 50, seed=9)
        b, yb = gen_unit_ball(4, 50, seed=9)
        assert np.array_equal(a, b) and np.array_equal(ya, yb)

    @pytest.mark.parametrize("d", [2, 30, 784])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10000])
    def test_blocks_keep_the_bits_of_one_pass(self, n, d):
        # the samples normalized and scaled in one pass over all n rows
        rng = rng_from(5, "unit_ball")
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g *= (rng.random(n) ** (1.0 / d))[:, None]
        y = (g @ np.full(d, 1.0 / np.sqrt(d)) >= 0).astype(np.int64)
        x, got_y = gen_unit_ball(d, n, seed=5)
        assert x.tobytes() == g.tobytes()
        assert got_y.tobytes() == y.tobytes()

    def test_radius_distribution(self):
        # P(r <= c) = c^d for the uniform ball; check the median radius
        d, n = 6, 20000
        x, _ = gen_unit_ball(d, n, seed=3)
        r = np.linalg.norm(x, axis=1)
        med = 0.5 ** (1.0 / d)
        frac = np.mean(r <= med)
        assert abs(frac - 0.5) < 0.02

    def test_roughly_balanced_classes(self):
        # a homogeneous separator halves the symmetric ball exactly
        _, y = gen_unit_ball(30, 100000, seed=4)
        assert abs(y.mean() - 0.5) <= 0.01

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            gen_unit_ball(1, 10, seed=0)
        with pytest.raises(ConfigError):
            gen_unit_ball(3, 0, seed=0)


# ----------------------------------------------------------------- xor disks

class TestXor:
    def test_points_inside_their_disk(self):
        x, y = gen_xor(2000, radius=1.0, seed=0)
        dist = np.linalg.norm(x[:, None, :] - XOR_CENTERS[None], axis=2)
        nearest = np.argmin(dist, axis=1)
        assert np.all(dist[np.arange(len(x)), nearest] <= 1.0 + 1e-12)
        assert np.array_equal(y, XOR_LABELS[nearest])

    def test_diagonal_pairs_share_class(self):
        # (+,+) and (-,-) one class, (+,-) and (-,+) the other
        x, y = gen_xor(4000, seed=1)
        q = np.sign(x[:, 0] * x[:, 1])  # +1 on the main diagonal quadrants
        assert np.all(y[q > 0] == 1)
        assert np.all(y[q < 0] == 0)

    def test_radius_validation(self):
        with pytest.raises(ConfigError):
            gen_xor(100, radius=0.0)
        with pytest.raises(ConfigError):
            gen_xor(100, radius=2.5)
        with pytest.raises(ConfigError):
            gen_xor(3)

    def test_deterministic(self):
        a, _ = gen_xor(100, seed=5)
        b, _ = gen_xor(100, seed=5)
        assert np.array_equal(a, b)

    def test_best_linear_error_near_quarter(self):
        # no half-plane beats isolating one disk, which miscovers exactly one
        # of the four; multistart training approximates that optimum
        from tbal.model import TrainConfig, fit, predict
        X_test, y_test = gen_xor(5000, seed=1000)
        errs = []
        for s in range(5):
            X, y = gen_xor(5000, seed=s)
            m = fit(X, y, TrainConfig(loss="hinge"), seed=s)
            errs.append(1.0 - np.mean(predict(m, X_test) == y_test))
        assert 0.22 <= min(errs) <= 0.28


# -------------------------------------------------------------- idx parsing

def write_idx_pair(tmp_path, images, labels, gz=False, image_magic=2051,
                   label_magic=2049, label_count=None):
    """Independent IDX writer used as the parsing oracle: big-endian int32
    header fields followed by raw uint8 payload."""
    n, rows, cols = images.shape
    img_blob = struct.pack(">iiii", image_magic, n, rows, cols) + images.tobytes()
    lc = label_count if label_count is not None else len(labels)
    lbl_blob = struct.pack(">ii", label_magic, lc) + labels.tobytes()
    opener = gzip.open if gz else open
    suffix = ".gz" if gz else ""
    ip = tmp_path / f"images-idx3-ubyte{suffix}"
    lp = tmp_path / f"labels-idx1-ubyte{suffix}"
    with opener(ip, "wb") as f:
        f.write(img_blob)
    with opener(lp, "wb") as f:
        f.write(lbl_blob)
    return str(ip), str(lp)


class TestIdxLoader:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        self.labels = rng.integers(0, 10, size=5, dtype=np.uint8)

    def test_roundtrip_plain(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, self.images, self.labels)
        X, y = load_mnist_idx(ip, lp)
        assert X.shape == (5, 12)
        assert np.allclose(X, self.images.reshape(5, 12) / 255.0)
        assert np.array_equal(y, self.labels.astype(np.int64))

    def test_zero_image_scales_to_zero_vector(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        labels = np.array([0, 1], dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, labels)
        X, _ = load_mnist_idx(ip, lp)
        assert np.all(X == 0.0)

    def test_roundtrip_gzip(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, self.images, self.labels, gz=True)
        X, y = load_mnist_idx(ip, lp)
        assert np.allclose(X, self.images.reshape(5, 12) / 255.0)
        assert np.array_equal(y, self.labels.astype(np.int64))

    def test_bad_image_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, self.images, self.labels, image_magic=1234)
        with pytest.raises(IdxFormatError, match="bad magic 1234"):
            load_mnist_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, self.images, self.labels, label_magic=99)
        with pytest.raises(IdxFormatError, match="bad magic 99"):
            load_mnist_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, self.images, self.labels)
        blob = open(ip, "rb").read()
        with open(ip, "wb") as f:
            f.write(blob[:-7])
        with pytest.raises(IdxFormatError, match="truncated pixel data"):
            load_mnist_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, self.images, self.labels)
        with open(ip, "wb") as f:
            f.write(b"\x00\x00")
        with pytest.raises(IdxFormatError, match="truncated header at byte 0"):
            load_mnist_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        labels = np.concatenate([self.labels, self.labels])
        ip, lp = write_idx_pair(tmp_path, self.images, labels)
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_mnist_idx(ip, lp)


# ------------------------------------------------------------------- splits

class TestSplit:
    def test_disjoint_and_sized(self):
        X = np.arange(40, dtype=np.float64).reshape(20, 2)
        y = np.arange(20) % 2
        pool, val = split_pool_val(X, y, pool_size=12, val_size=5, seed=0)
        assert len(pool) == 12 and len(val) == 5
        pool_rows = {tuple(r) for r in pool.gather(np.arange(len(pool)))}
        val_rows = {tuple(r) for r in val.gather(np.arange(len(val)))}
        assert not pool_rows & val_rows

    def test_rows_read_the_split_points(self):
        # a split that uses every row reads them from the matrix it was given
        X = np.arange(40, dtype=np.float64).reshape(20, 2)
        y = np.arange(20) % 2
        pool, val = split_pool_val(X, y, pool_size=12, val_size=8, seed=0)
        assert pool.matrix is X and val.matrix is X
        perm = rng_from(0, "split").permutation(20)
        assert np.array_equal(pool.rows, perm[:12])
        assert np.array_equal(val.rows, perm[12:])
        assert np.array_equal(pool.gather(np.arange(12)), X[perm[:12]])
        assert np.array_equal(pool._truth, y[perm[:12]])
        assert np.array_equal(val.labels, y[perm[12:]])

    def test_unused_rows_are_not_kept(self):
        # a split that leaves rows unused copies the used ones, pool first,
        # and reads the same points as the shared layout would
        X = np.arange(40, dtype=np.float64).reshape(20, 2)
        y = np.arange(20) % 2
        pool, val = split_pool_val(X, y, pool_size=12, val_size=5, seed=0)
        assert pool.matrix is val.matrix
        assert pool.matrix.nbytes == 17 * 2 * 8
        assert np.array_equal(pool.rows, np.arange(12))
        assert np.array_equal(val.rows, np.arange(12, 17))
        perm = rng_from(0, "split").permutation(20)
        assert np.array_equal(pool.gather(np.arange(12)), X[perm[:12]])
        assert np.array_equal(val.gather(np.arange(5)), X[perm[12:17]])
        assert np.array_equal(pool._truth, y[perm[:12]])
        assert np.array_equal(val.labels, y[perm[12:17]])

    def test_a_dataset_holds_only_its_pool_and_validation_rows(self):
        spec = DatasetSpec(kind="unit_ball", d=30, n_total=100_000, pool_size=1000,
                           val_size=1000)
        pool, val = make_dataset(spec, seed=3)
        assert pool.matrix.nbytes == 2000 * 30 * 8
        X, _ = gen_unit_ball(30, 100_000, seed=3)
        perm = rng_from(3, "split").permutation(100_000)
        assert pool.gather(np.arange(1000)).tobytes() == X[perm[:1000]].tobytes()
        assert val.gather(np.arange(1000)).tobytes() == X[perm[1000:2000]].tobytes()

    def test_split_copies_no_features(self):
        X = np.random.default_rng(0).standard_normal((100_000, 30))
        y = (X[:, 0] > 0).astype(np.int64)
        tracemalloc.start()
        try:
            split_pool_val(X, y, 80_000, 20_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copy of the split's rows took the matrix's size; what is left is
        # the permutation, the labels and the pool's state arrays (12% at d = 30)
        assert peak < X.nbytes / 4

    def test_oversized_split_rejected(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=np.int64)
        with pytest.raises(ConfigError):
            split_pool_val(X, y, pool_size=8, val_size=5, seed=0)

    def test_deterministic(self):
        X = np.random.default_rng(1).standard_normal((30, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        p1, v1 = split_pool_val(X, y, 20, 10, seed=4)
        p2, v2 = split_pool_val(X, y, 20, 10, seed=4)
        assert np.array_equal(p1.rows, p2.rows)
        assert np.array_equal(v1.labels, v2.labels)

    def test_make_dataset_dispatch(self):
        spec = DatasetSpec(kind="xor", n_total=200, pool_size=150, val_size=50)
        pool, val = make_dataset(spec, seed=0)
        assert len(pool) == 150 and len(val) == 50

    @pytest.mark.parametrize("kw, message", [
        (dict(kind="xor", pool_size=8, val_size=5), "exceeds n_total"),
        (dict(kind="nope"), "unknown dataset kind 'nope'"),
        (dict(kind="unit_ball", d=1), "dimension d must be >= 2"),
        (dict(kind="xor", xor_radius=3.0), "xor_radius must be in (0, 2]"),
        (dict(kind="xor", xor_radius=0.0), "xor_radius must be in (0, 2]"),
        (dict(kind="mnist_linear"), "needs images_path and labels_path"),
        (dict(kind="mnist_linear", images_path="i.idx"), "needs images_path and labels_path"),
        (dict(kind="xor", pool_size=0), "pool_size must be >= 1, got 0"),
        (dict(kind="unit_ball", val_size=-5), "val_size must be >= 0, got -5"),
        (dict(kind="xor", n_total=3, pool_size=2, val_size=1),
         "n_total must be >= 4 on kind xor, got 3"),
    ])
    def test_dataset_spec_validates(self, kw, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            DatasetSpec(**{"n_total": 10, "pool_size": 5, "val_size": 5, **kw})

