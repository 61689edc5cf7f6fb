import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from tbal.confidence import (AbsMargin, Energy, Softmax, make_kind, score,
                             shift_nonnegative)
from tbal.model import LinearModel, TrainConfig, fit, logits, raw_scores


def score_rows(kind, model, X):
    """The scores of the rows of X: ``score`` of their raw scores."""
    return score(kind, model, raw_scores(model, X))


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
        pred, conf = score_rows(AbsMargin(), m, X)
        s = X @ m.weights + 0.5
        assert np.allclose(conf, np.abs(s))
        assert np.array_equal(pred, (s > 0).astype(int))

    def test_clipped_only_when_normalized(self):
        X = np.array([[10.0, 0.0]])
        loose = binary_model([1.0, 0.0], 0.0)
        _, c1 = score_rows(AbsMargin(), loose, X)
        assert c1[0] == 10.0
        unit = binary_model([1.0, 0.0], 0.0, normalized=True)
        _, c2 = score_rows(AbsMargin(), unit, X)
        assert c2[0] == 1.0

    def test_rejects_multiclass(self):
        m = multi_model(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="binary"):
            score_rows(AbsMargin(), m, np.zeros((1, 3)))


def logits_abs_margin(model, X):
    """abs_margin scored through the logit pair, as before the single
    product: argmax of (-s, s) for the class, then s computed again."""
    z = logits(model, X)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite logits")
    pred = np.argmax(z, axis=1)
    conf = np.abs(X @ model.weights + float(model.bias))
    if model.normalized:
        conf = np.minimum(conf, 1.0)
    return pred, conf


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestAbsMarginSingleProduct:
    """score_rows() computes w.x + b once for a binary model; it must equal the
    logits path bit for bit."""

    def test_random_models_match_the_logits_path(self):
        rng = np.random.default_rng(0)
        for normalized in (False, True):
            for _ in range(20):
                m = binary_model(rng.standard_normal(5), rng.standard_normal(),
                                 normalized=normalized)
                X = 3.0 * rng.standard_normal((200, 5))
                assert_same_bits(score_rows(AbsMargin(), m, X), logits_abs_margin(m, X))

    def test_zero_margin_goes_to_class_zero(self):
        m = binary_model([1.0, -1.0], 0.0)
        X = np.array([[2.0, 2.0], [0.0, 0.0], [-0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
        pred, conf = score_rows(AbsMargin(), m, X)
        assert pred.tolist() == [0, 0, 0, 1, 0]
        assert conf[:3].tolist() == [0.0, 0.0, 0.0]
        assert_same_bits((pred, conf), logits_abs_margin(m, X))
        # a bias that cancels the product exactly
        m = binary_model([0.5, 0.0], -1.0)
        X = np.array([[2.0, 7.0]])
        assert_same_bits(score_rows(AbsMargin(), m, X), logits_abs_margin(m, X))
        assert score_rows(AbsMargin(), m, X)[0].tolist() == [0]

    def test_normalized_clipping(self):
        m = binary_model([0.6, 0.8], 0.0, normalized=True)
        X = np.array([[10.0, 0.0], [-10.0, 0.0], [0.5, 0.0], [-0.5, 0.0]])
        pred, conf = score_rows(AbsMargin(), m, X)
        assert conf.tolist() == [1.0, 1.0, 0.3, 0.3]
        assert_same_bits((pred, conf), logits_abs_margin(m, X))

    def test_one_class_fit_predicts_its_class(self):
        for cls in (0, 1):
            X = np.random.default_rng(cls).standard_normal((7, 3))
            m = fit(X, np.full(7, cls), TrainConfig(), seed=0, num_classes=2)
            pred, conf = score_rows(AbsMargin(), m, X)
            assert pred.tolist() == [cls] * 7
            assert conf.tolist() == [1.0] * 7  # every score ties
            assert_same_bits((pred, conf), logits_abs_margin(m, X))

    @pytest.mark.parametrize("kind", [AbsMargin(), Softmax(), Energy()])
    def test_dimension_mismatch(self, kind):
        m = binary_model([1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            score_rows(kind, m, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="2-D"):
            score_rows(kind, m, np.zeros(2))

    def test_raw_scores_must_fit_the_model(self):
        # a binary model's raw scores are its margins, (n,); a model with a
        # weight row per class has one logit per class, (n, K)
        binary, multi = binary_model([1.0, 0.0], 0.0), multi_model(np.eye(3), np.zeros(3))
        for m, raw in [(binary, np.zeros((4, 2))), (binary, np.zeros((4, 1))),
                       (binary, np.float64(0.0)), (multi, np.zeros(4)),
                       (multi, np.zeros((4, 2))), (multi, np.zeros((4, 3, 1)))]:
            for kind in (AbsMargin(), Softmax(), Energy()):
                with pytest.raises(ValueError, match="raw scores of shape"):
                    score(kind, m, raw)
        assert score(Softmax(), binary, np.zeros(4))[1].tolist() == [0.5] * 4
        assert score(Softmax(), multi, np.zeros((4, 3)))[0].tolist() == [0] * 4

    def test_nonfinite_input_rejected(self):
        m = binary_model([1.0, 0.0], 0.0)
        for bad in (np.nan, np.inf, -np.inf):
            X = np.array([[1.0, 0.0], [bad, 0.0]])
            with pytest.raises(FloatingPointError):
                score_rows(AbsMargin(), m, X)
        with pytest.raises(FloatingPointError):
            score_rows(AbsMargin(), binary_model([np.inf, 0.0], 0.0), np.ones((2, 2)))


class TestSoftmax:
    def test_matches_oracle(self):
        m = multi_model(np.random.default_rng(0).standard_normal((4, 3)),
                        np.zeros(4))
        X = np.random.default_rng(1).standard_normal((20, 3))
        pred, conf = score_rows(Softmax(), m, X)
        z = X @ m.weights.T
        for i in range(len(X)):
            assert conf[i] == pytest.approx(softmax_oracle(list(z[i])), rel=1e-12)
            assert pred[i] == np.argmax(z[i])

    def test_confidence_in_half_open_interval(self):
        m = multi_model(np.random.default_rng(2).standard_normal((5, 2)),
                        np.zeros(5))
        _, conf = score_rows(Softmax(), m, np.random.default_rng(3).standard_normal((50, 2)))
        assert np.all(conf >= 1.0 / 5) and np.all(conf <= 1.0)


class TestEnergy:
    def test_matches_oracle(self):
        m = multi_model(np.random.default_rng(0).standard_normal((3, 4)),
                        np.array([0.1, -0.2, 0.0]))
        X = np.random.default_rng(1).standard_normal((15, 4))
        for t in (0.5, 1.0, 2.0):
            _, conf = score_rows(Energy(temperature=t), m, X)
            z = X @ m.weights.T + m.bias
            for i in range(len(X)):
                assert conf[i] == pytest.approx(energy_oracle(list(z[i]), t), rel=1e-12)

    def test_rank_agrees_with_softmax_for_two_classes(self):
        # for K=2 both scores are monotone in |s|, so orderings coincide
        m = binary_model([1.0, -0.5], 0.2)
        X = np.random.default_rng(4).standard_normal((40, 2))
        _, e = score_rows(Energy(), m, X)
        _, p = score_rows(Softmax(), m, X)
        assert np.array_equal(np.argsort(np.argsort(e)), np.argsort(np.argsort(p)))

    def test_nonfinite_logits_rejected(self):
        m = binary_model([1e308, 1e308], 0.0)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            score_rows(Energy(), m, np.array([[1e10, 1e10]]))

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_temperature_must_be_finite_and_positive(self, t):
        with pytest.raises(ValueError, match="temperature"):
            Energy(temperature=t)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestSameBitsAsScipy:
    """Softmax and energy are computed in NumPy, in scipy.special's steps;
    both keep the scores scipy.special gives, bit for bit."""

    def models(self):
        rng = np.random.default_rng(11)
        yield binary_model(rng.standard_normal(3), rng.standard_normal())
        for K in (4, 10):
            for scale in (1e-3, 1.0, 30.0, 1e4):  # the largest rounds rows to 1.0
                yield multi_model(scale * rng.standard_normal((K, 3)),
                                  scale * rng.standard_normal(K))

    def test_softmax(self):
        X = np.random.default_rng(12).standard_normal((200, 3))
        ones = 0
        for m in self.models():
            z = logits(m, X)
            _, conf = score_rows(Softmax(), m, X)
            assert np.array_equal(bits(conf), bits(scipy.special.softmax(z, axis=1).max(1)))
            ones += int(np.sum(conf == 1.0))
            for x in X[:5, None]:  # one row alone scores through the same steps
                want = scipy.special.softmax(logits(m, x), axis=1).max(1)
                assert np.array_equal(bits(score_rows(Softmax(), m, x)[1]), bits(want))
        assert ones > 0

    def test_energy(self):
        X = np.random.default_rng(13).standard_normal((200, 3))
        for m in self.models():
            z = logits(m, X)
            for t in (0.5, 1.0, 2.0):
                _, conf = score_rows(Energy(temperature=t), m, X)
                want = t * scipy.special.logsumexp(z / t, axis=1)
                assert np.array_equal(bits(conf), bits(want))

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    def test_energy_of_overflowing_logits(self):
        # z / t overflows at a tiny temperature: a row whose max is +inf
        # takes the direct sum, as scipy's does
        m = multi_model(np.array([[1.0], [-1.0], [0.0]]), np.zeros(3))
        X = np.array([[1e10], [-1e10], [0.0], [1e-300]])
        z = logits(m, X)
        for t in (1e-300, 1.0):
            _, conf = score_rows(Energy(temperature=t), m, X)
            want = t * scipy.special.logsumexp(z / t, axis=1)
            assert np.array_equal(bits(conf), bits(want))
            assert np.isinf(conf).sum() == (2 if t < 1 else 0)


@pytest.mark.parametrize("K, cls", [(2, 0), (2, 1), (10, 4)])
@pytest.mark.parametrize("kind", [Softmax(), Energy(), Energy(temperature=0.5)])
def test_one_class_fit_scores_as_the_constant_logits(K, cls, kind):
    # the scores of a one-class fit keep the bits of the constant logits
    # (1 for the class seen, -1 for the others) that such a fit once returned
    X = 100.0 * np.random.default_rng(K + cls).standard_normal((40, 5))
    m = fit(X, np.full(40, cls), TrainConfig(loss="logistic"), seed=0, num_classes=K)
    z = np.full((40, K), -1.0)
    z[:, cls] = 1.0
    if isinstance(kind, Softmax):
        want = scipy.special.softmax(z, axis=1).max(1)
    else:
        want = kind.temperature * scipy.special.logsumexp(z / kind.temperature, axis=1)
    assert_same_bits(score_rows(kind, m, X), (np.full(40, cls), want))


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import sys\n"
        "import tbal, tbal.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert loaded == [], loaded\n"
        "import numpy as np\n"
        "from tbal.confidence import Energy, score\n"
        "from tbal.model import LinearModel\n"
        "m = LinearModel(np.eye(3), np.zeros(3), num_classes=3)\n"
        "print(score(Energy(), m, np.zeros((1, 3)))[1][0])\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == pytest.approx(math.log(3.0), rel=1e-12)


class TestMakeKind:
    def test_make_kind(self):
        assert isinstance(make_kind("abs_margin"), AbsMargin)
        assert make_kind("energy", temperature=2.0).temperature == 2.0
        with pytest.raises(ValueError, match="unknown confidence kind"):
            make_kind("entropy")
        with pytest.raises(ValueError, match="unknown confidence kind"):
            score_rows(object(), binary_model([1.0], 0.0), np.array([[1.0]]))


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
