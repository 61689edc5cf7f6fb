"""Confidence functions g(model, x) -> nonnegative score, larger = more
confident. All kinds share that orientation so threshold search stays
kind-agnostic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp, softmax

from . import model as linmod


@dataclass(frozen=True)
class AbsMargin:
    """|w.x| for binary models; clipped to [0,1] when the model is
    unit-norm and the data lives in the unit ball."""
    name: str = "abs_margin"


@dataclass(frozen=True)
class Softmax:
    name: str = "softmax"


@dataclass(frozen=True)
class Energy:
    """Negated energy score: T * logsumexp(z / T). Monotone in confidence;
    the engine shifts scores into R+ per round (see shift_nonnegative)."""
    temperature: float = 1.0
    name: str = "energy"


@dataclass(frozen=True)
class PlattSigmoid:
    """sigmoid(a * margin + b) of the predicted class, with per-class (a, b)
    fit on calibration data."""
    a: tuple = ()
    b: tuple = ()
    name: str = "platt"


KINDS = {"abs_margin": AbsMargin, "softmax": Softmax, "energy": Energy,
         "platt": PlattSigmoid}


def make_kind(name: str, **params):
    try:
        return KINDS[name](**params)
    except KeyError:
        raise ValueError(f"unknown confidence kind {name!r}") from None


def _predicted_margin(model, X):
    z = linmod.logits(model, X)
    pred = np.argmax(z, axis=-1)
    return pred, np.take_along_axis(z, pred[..., None], axis=-1)[..., 0]


def _abs_margin(model, s):
    conf = np.abs(s)
    return np.minimum(conf, 1.0) if model.normalized else conf


def _score_logits(kind, model, X):
    z = linmod.logits(model, X)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite logits")
    pred = np.argmax(z, axis=1)
    if isinstance(kind, AbsMargin):
        if not model.binary:
            raise ValueError("abs_margin is defined for binary models only")
        conf = _abs_margin(model, linmod.margin(model, X))
    elif isinstance(kind, Softmax):
        conf = softmax(z, axis=1).max(axis=1)
    elif isinstance(kind, Energy):
        t = kind.temperature
        conf = t * logsumexp(z / t, axis=1)
    elif isinstance(kind, PlattSigmoid):
        a = np.asarray(kind.a) if len(kind.a) else np.ones(model.num_classes)
        b = np.asarray(kind.b) if len(kind.b) else np.zeros(model.num_classes)
        margin = np.take_along_axis(z, pred[:, None], axis=1)[:, 0]
        conf = expit(a[pred] * margin + b[pred])
    else:
        raise ValueError(f"unknown confidence kind {kind!r}")
    return pred, conf


def score(kind, model, x) -> tuple[np.ndarray, np.ndarray]:
    """(predicted class, confidence) for each row of x."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if isinstance(kind, AbsMargin) and model.binary and model.constant_class is None:
        # one product serves both: the argmax of the logit pair (-s, s) is
        # s > 0, with a tie (s == 0) going to class 0
        s = linmod.margin(model, X)
        if not np.all(np.isfinite(s)):
            raise FloatingPointError("non-finite logits")
        pred, conf = (s > 0).astype(np.int64), _abs_margin(model, s)
    else:
        pred, conf = _score_logits(kind, model, X)
    if single:
        return int(pred[0]), float(conf[0])
    return pred, conf


def shift_nonnegative(*score_arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Shared affine shift so every score is >= 0 (energy scores can be
    negative). One shift across all arrays keeps pool and validation scores
    comparable within a round."""
    lo = min((a.min() for a in score_arrays if len(a)), default=0.0)
    if lo >= 0:
        return score_arrays
    return tuple(a - lo for a in score_arrays)


def fit_platt(model, X: np.ndarray, y: np.ndarray,
              max_iter: int = 100, grad_tol: float = 1e-8) -> PlattSigmoid:
    """Fit per-class sigmoid(a * margin + b) to the correctness indicator of
    the model's predictions by Newton iteration.

    Classes whose calibration slice is empty or single-outcome fall back to
    identity calibration (a=1, b=0).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise ValueError("empty calibration set")
    pred, margin = _predicted_margin(model, X)
    correct = (pred == y).astype(np.float64)
    K = model.num_classes
    a_out = np.ones(K)
    b_out = np.zeros(K)
    for c in range(K):
        mask = pred == c
        m, t = margin[mask], correct[mask]
        if len(m) == 0 or len(np.unique(t)) < 2:
            continue  # identity fallback
        a, b = 1.0, 0.0
        for _ in range(max_iter):
            p = expit(a * m + b)
            r = p - t
            ga = float(r @ m)
            gb = float(r.sum())
            if np.hypot(ga, gb) <= grad_tol:
                break
            w = p * (1 - p)
            haa = float(w @ (m * m)) + 1e-12
            hab = float(w @ m)
            hbb = float(w.sum()) + 1e-12
            det = haa * hbb - hab * hab
            if det <= 0:
                break
            da = (hbb * ga - hab * gb) / det
            db = (haa * gb - hab * ga) / det
            a -= da
            b -= db
        a_out[c], b_out[c] = a, b
    return PlattSigmoid(a=tuple(a_out), b=tuple(b_out))
