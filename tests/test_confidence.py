import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbal.confidence import (AbsMargin, Energy, Softmax, make_kind, score,
                             shift_nonnegative)
from tbal.model import LinearModel, logits


def binary_model(w, b, normalized=False):
    return LinearModel(np.asarray(w, dtype=np.float64), np.asarray(float(b)),
                       num_classes=2, normalized=normalized)


def multi_model(W, b):
    return LinearModel(np.asarray(W, dtype=np.float64),
                       np.asarray(b, dtype=np.float64), num_classes=len(b))


def energy_oracle(z, t):
    # plain-math reference for t * log(sum(exp(z / t)))
    return t * math.log(sum(math.exp(v / t) for v in z))


def softmax_oracle(z):
    ez = [math.exp(v - max(z)) for v in z]
    return max(ez) / sum(ez)


class TestAbsMargin:
    def test_is_absolute_margin(self):
        m = binary_model([2.0, -1.0], 0.5)
        X = np.array([[1.0, 1.0], [-1.0, 0.0]])
        pred, conf = score(AbsMargin(), m, X)
        s = X @ m.weights + 0.5
        assert np.allclose(conf, np.abs(s))
        assert np.array_equal(pred, (s > 0).astype(int))

    def test_clipped_only_when_normalized(self):
        X = np.array([[10.0, 0.0]])
        loose = binary_model([1.0, 0.0], 0.0)
        _, c1 = score(AbsMargin(), loose, X)
        assert c1[0] == 10.0
        unit = binary_model([1.0, 0.0], 0.0, normalized=True)
        _, c2 = score(AbsMargin(), unit, X)
        assert c2[0] == 1.0

    def test_rejects_multiclass(self):
        m = multi_model(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="binary"):
            score(AbsMargin(), m, np.zeros((1, 3)))


def logits_abs_margin(model, x):
    """abs_margin scored through the logit pair, as before the single
    product: argmax of (-s, s) for the class, then s computed again."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    z = logits(model, X)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite logits")
    pred = np.argmax(z, axis=1)
    conf = np.abs(X @ model.weights + float(model.bias))
    if model.normalized:
        conf = np.minimum(conf, 1.0)
    if single:
        return int(pred[0]), float(conf[0])
    return pred, conf


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        else:
            assert type(g) is type(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestAbsMarginSingleProduct:
    """score() computes w.x + b once for a binary model; it must equal the
    logits path bit for bit."""

    def test_random_models_match_the_logits_path(self):
        rng = np.random.default_rng(0)
        for normalized in (False, True):
            for _ in range(20):
                m = binary_model(rng.standard_normal(5), rng.standard_normal(),
                                 normalized=normalized)
                X = 3.0 * rng.standard_normal((200, 5))
                assert_same_bits(score(AbsMargin(), m, X), logits_abs_margin(m, X))

    def test_zero_margin_goes_to_class_zero(self):
        m = binary_model([1.0, -1.0], 0.0)
        X = np.array([[2.0, 2.0], [0.0, 0.0], [-0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
        pred, conf = score(AbsMargin(), m, X)
        assert pred.tolist() == [0, 0, 0, 1, 0]
        assert conf[:3].tolist() == [0.0, 0.0, 0.0]
        assert_same_bits((pred, conf), logits_abs_margin(m, X))
        # a bias that cancels the product exactly
        m = binary_model([0.5, 0.0], -1.0)
        X = np.array([[2.0, 7.0]])
        assert_same_bits(score(AbsMargin(), m, X), logits_abs_margin(m, X))
        assert score(AbsMargin(), m, X)[0].tolist() == [0]

    def test_normalized_clipping(self):
        m = binary_model([0.6, 0.8], 0.0, normalized=True)
        X = np.array([[10.0, 0.0], [-10.0, 0.0], [0.5, 0.0], [-0.5, 0.0]])
        pred, conf = score(AbsMargin(), m, X)
        assert conf.tolist() == [1.0, 1.0, 0.3, 0.3]
        assert_same_bits((pred, conf), logits_abs_margin(m, X))

    def test_constant_class_model(self):
        for cls in (0, 1):
            m = LinearModel(np.zeros(3), np.asarray(0.0), num_classes=2,
                            constant_class=cls)
            X = np.random.default_rng(cls).standard_normal((7, 3))
            pred, conf = score(AbsMargin(), m, X)
            assert pred.tolist() == [cls] * 7
            assert_same_bits((pred, conf), logits_abs_margin(m, X))

    def test_single_row_scalars(self):
        m = binary_model([1.5, -2.0], 0.25)
        for x in (np.array([1.0, 0.5]), np.array([-1.0, 3.0]), np.array([0.5, 0.5])):
            got = score(AbsMargin(), m, x)
            assert isinstance(got[0], int) and isinstance(got[1], float)
            assert_same_bits(got, logits_abs_margin(m, x))

    def test_dimension_mismatch(self):
        m = binary_model([1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            score(AbsMargin(), m, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            score(AbsMargin(), m, np.zeros(3))

    def test_nonfinite_input_rejected(self):
        m = binary_model([1.0, 0.0], 0.0)
        for bad in (np.nan, np.inf, -np.inf):
            X = np.array([[1.0, 0.0], [bad, 0.0]])
            with pytest.raises(FloatingPointError):
                score(AbsMargin(), m, X)
        with pytest.raises(FloatingPointError):
            score(AbsMargin(), binary_model([np.inf, 0.0], 0.0), np.ones((2, 2)))


class TestSoftmax:
    def test_matches_oracle(self):
        m = multi_model(np.random.default_rng(0).standard_normal((4, 3)),
                        np.zeros(4))
        X = np.random.default_rng(1).standard_normal((20, 3))
        pred, conf = score(Softmax(), m, X)
        z = X @ m.weights.T
        for i in range(len(X)):
            assert conf[i] == pytest.approx(softmax_oracle(list(z[i])), rel=1e-12)
            assert pred[i] == np.argmax(z[i])

    def test_confidence_in_half_open_interval(self):
        m = multi_model(np.random.default_rng(2).standard_normal((5, 2)),
                        np.zeros(5))
        _, conf = score(Softmax(), m, np.random.default_rng(3).standard_normal((50, 2)))
        assert np.all(conf >= 1.0 / 5) and np.all(conf <= 1.0)


class TestEnergy:
    def test_matches_oracle(self):
        m = multi_model(np.random.default_rng(0).standard_normal((3, 4)),
                        np.array([0.1, -0.2, 0.0]))
        X = np.random.default_rng(1).standard_normal((15, 4))
        for t in (0.5, 1.0, 2.0):
            _, conf = score(Energy(temperature=t), m, X)
            z = X @ m.weights.T + m.bias
            for i in range(len(X)):
                assert conf[i] == pytest.approx(energy_oracle(list(z[i]), t), rel=1e-12)

    def test_rank_agrees_with_softmax_for_two_classes(self):
        # for K=2 both scores are monotone in |s|, so orderings coincide
        m = binary_model([1.0, -0.5], 0.2)
        X = np.random.default_rng(4).standard_normal((40, 2))
        _, e = score(Energy(), m, X)
        _, p = score(Softmax(), m, X)
        assert np.array_equal(np.argsort(np.argsort(e)), np.argsort(np.argsort(p)))

    def test_nonfinite_logits_rejected(self):
        m = binary_model([1e308, 1e308], 0.0)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            score(Energy(), m, np.array([[1e10, 1e10]]))

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_temperature_must_be_finite_and_positive(self, t):
        with pytest.raises(ValueError, match="temperature"):
            Energy(temperature=t)


class TestScoreShapes:
    def test_single_row_returns_scalars(self):
        m = binary_model([1.0, 1.0], 0.0)
        pred, conf = score(AbsMargin(), m, np.array([0.5, 0.5]))
        assert isinstance(pred, int) and isinstance(conf, float)
        preds, confs = score(AbsMargin(), m, np.array([[0.5, 0.5]]))
        assert preds[0] == pred and confs[0] == conf

    def test_make_kind(self):
        assert isinstance(make_kind("abs_margin"), AbsMargin)
        assert make_kind("energy", temperature=2.0).temperature == 2.0
        with pytest.raises(ValueError, match="unknown confidence kind"):
            make_kind("entropy")
        with pytest.raises(ValueError, match="unknown confidence kind"):
            score(object(), binary_model([1.0], 0.0), np.array([[1.0]]))


class TestShiftNonnegative:
    def test_noop_when_already_nonnegative(self):
        a = np.array([0.0, 1.0])
        b = np.array([2.0])
        ra, rb = shift_nonnegative(a, b)
        assert ra is a and rb is b

    def test_shared_shift(self):
        a = np.array([-3.0, 1.0])
        b = np.array([0.5])
        ra, rb = shift_nonnegative(a, b)
        assert np.allclose(ra, [0.0, 4.0])
        assert np.allclose(rb, [3.5])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
           st.lists(st.floats(-1e6, 1e6), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_order_and_gaps_preserved(self, xs, ys):
        a, b = np.array(xs), np.array(ys)
        ra, rb = shift_nonnegative(a, b)
        assert ra.min() >= 0
        if len(rb):
            assert rb.min() >= 0
        assert np.allclose(np.diff(ra), np.diff(a))
        assert np.allclose(np.diff(rb), np.diff(b))
