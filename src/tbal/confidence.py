"""Confidence functions g(model, x) -> nonnegative score, larger = more
confident. All kinds share that orientation so threshold search stays
kind-agnostic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax

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

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("energy temperature must be finite and > 0")


KINDS = {"abs_margin": AbsMargin, "softmax": Softmax, "energy": Energy}


def make_kind(name: str, **params):
    try:
        return KINDS[name](**params)
    except KeyError:
        raise ValueError(f"unknown confidence kind {name!r}") from None


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
