"""Exact finite-population normalization and the batch/layer baselines.

Normalizing a population vector x in R^N maps it onto the sphere of radius
sqrt(N) inside the zero-sum subspace. Its gradient, a scaling composed with
projections off the ones vector and off the normalized output,

    x' = (1/sigma) (I - P_1) (I - P_y) y'

is orthogonal to both 1 and y. Where sigma falls below SIGMA_FLOOR the
forward divides by the floor instead, a constant, so the gradient there is
(I - P_1) y' / SIGMA_FLOOR: the y projection is dropped, as layer scaling
drops its coupling term, and the choice is made from the unfloored sigma.
Exact, batch and layer normalization run this one primitive, _normalize and
_normalize_backward, over the whole population, over (batch, spatial) of
each feature, or over each sample's features.
Centering is a corrected two-pass: subtract the mean, then the residual mean
of the centered values. That removes the first-order effect of the rounded
mean and, for two-sample batches, makes the output bit-exactly (+1, -1) and
the gradient zero.
"""

from __future__ import annotations

import numpy as np

from .tensor import SIGMA_FLOOR, ShapeError

# Decay of BatchNorm's running inference statistics.
_STATS_DECAY = 0.99


class DegenerateBatchError(ValueError):
    """Population standard deviation fell below the divisor floor."""


def _feature_axes(block: np.ndarray):
    """Axes that hold each feature's values in an (n, features) or
    (n, features, spatial) block: 0, or (0, 2)."""
    return 0 if block.ndim == 2 else (0, 2)


def _per_feature(v: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A (features,) array shaped to broadcast over the block's samples."""
    return v if block.ndim == 2 else v[:, None]


def _mean(v: np.ndarray, axes) -> np.ndarray:
    """v.mean(axis=axes, keepdims=True): the same sum and division, without
    its per-call overhead."""
    total = np.add.reduce(v, axis=axes, keepdims=True)
    return total / (v.size // total.size)


def _normalize(x: np.ndarray, axes, out=None, square=None):
    """Normalize x over axes: (y, mu, var, sigma) with keepdims, mu the
    effective mean and sigma = sqrt(var) unfloored; y divides by sigma
    floored at SIGMA_FLOOR. y is written into out, which may be x itself,
    and the centered square into square; each left None is allocated by its
    ufunc in its operands' layout. The sums' bits follow the arrays' layout.
    Neither kernel writes to an array it was not handed as a destination."""
    mu = _mean(x, axes)
    d = np.subtract(x, mu, out=out)
    r = _mean(d, axes)
    d -= r
    var = _mean(np.multiply(d, d, out=square), axes)
    sigma = np.sqrt(var)
    d /= np.maximum(sigma, SIGMA_FLOOR)
    return d, mu + r, var, sigma


def _normalize_backward(g: np.ndarray, y: np.ndarray, sigma, axes, out=None, coupling=None) -> np.ndarray:
    """(1/sigma)(I - P_1)(I - P_y) g over axes, given the forward's unfloored
    sigma: the corrected centering of g, then removal of its y component as
    a sum divided by the count. Where sigma < SIGMA_FLOOR the forward divided
    by the floor, so the y component stays and the division is by the floor.
    The result is written into out, which may be g itself, and the y
    coupling into coupling; each left None is allocated as in _normalize."""
    if g.shape != y.shape:
        raise ShapeError(f"gradient shape {g.shape} vs output {y.shape}")
    w = np.subtract(g, _mean(g, axes), out=out)
    w -= _mean(w, axes)
    t = np.multiply(w, y, out=coupling)
    np.multiply(np.where(sigma < SIGMA_FLOOR, 0.0, _mean(t, axes)), y, out=t)
    w -= t
    w /= np.maximum(sigma, SIGMA_FLOOR)
    return w


def exact_normalize(values) -> tuple[np.ndarray, float, float]:
    """Normalize a finite population vector to zero mean and unit variance:
    (y, mu, sigma) with divide-by-N moments, so sum(y) ~ 0 and sum(y^2) ~ N."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if x.size < 2:
        raise ShapeError(f"population needs at least 2 samples, got {x.size}")
    y, mu, _, sigma = _normalize(x, 0)
    sigma = float(sigma[0])
    if sigma < SIGMA_FLOOR:
        raise DegenerateBatchError(f"population std {sigma} below floor {SIGMA_FLOOR}")
    return y, float(mu[0]), sigma


def exact_backward(y: np.ndarray, y_grad: np.ndarray, sigma: float) -> np.ndarray:
    """Backpropagate through exact normalization; the sequential projections
    of _normalize_backward annihilate a two-sample gradient exactly."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    g = np.asarray(y_grad, dtype=np.float64).reshape(-1)
    return _normalize_backward(g, y, sigma, 0)


def jacobian_dense(values) -> np.ndarray:
    """Dense N x N Jacobian of exact_normalize, J_ij = ((N d_ij - 1) - y_i y_j) / (N sigma)."""
    y, _, sigma = exact_normalize(values)
    n = y.size
    return ((n * np.eye(n) - 1.0) - np.outer(y, y)) / (n * sigma)


class BatchNorm:
    """Per-feature exact normalization over the batch (and spatial) dimension.

    Takes (n, features) or (n, features, spatial) batches. Training keeps
    running inference statistics by exponential average and rejects
    one-sample batches, where a fully connected feature has no variance.
    """

    def __init__(self, features: int):
        self.features = int(features)
        self.running_mu = np.zeros(features)
        self.running_var = np.ones(features)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (2, 3):
            raise ShapeError(f"expected 2-D or 3-D batch, got {x.ndim}-D")
        if x.shape[1] != self.features:
            raise ShapeError(f"batch has {x.shape[1]} features, layer has {self.features}")
        if not training:
            return self._inference(x)
        if x.shape[0] < 2:
            raise ShapeError("batch normalization needs batch size >= 2")
        y, mu, var, sigma = _normalize(x, _feature_axes(x))
        a = _STATS_DECAY
        self.running_mu = a * self.running_mu + (1.0 - a) * mu.reshape(-1)
        self.running_var = a * self.running_var + (1.0 - a) * var.reshape(-1)
        self._cache = (y, sigma)
        return y

    def _inference(self, x: np.ndarray) -> np.ndarray:
        sigma = np.maximum(np.sqrt(self.running_var), SIGMA_FLOOR)
        return (x - _per_feature(self.running_mu, x)) / _per_feature(sigma, x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before training-mode forward")
        y, sigma = self._cache
        return _normalize_backward(np.asarray(grad, dtype=np.float64), y, sigma, _feature_axes(y))


class PopulationNorm(BatchNorm):
    """Exact population normalization: trains like BatchNorm on one batch holding
    the whole population; evaluation normalizes the presented population over
    the same axes with its own statistics instead of running ones, so it must
    be shown the whole set at once."""

    WHOLE_SET_INFERENCE = True

    def _inference(self, x: np.ndarray) -> np.ndarray:
        return _normalize(x, _feature_axes(x))[0]


class LayerNorm:
    """Stateless per-sample normalizer over the feature dimension, batched."""

    def __init__(self, features: int):
        self.features = int(features)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.features:
            raise ShapeError(f"expected (batch, {self.features}), got {x.shape}")
        if x.shape[1] < 2:
            raise ShapeError("layer normalization needs at least 2 elements per sample")
        y, _, _, sigma = _normalize(x, 1)
        if training:
            self._cache = (y, sigma)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before training-mode forward")
        return _normalize_backward(np.asarray(grad, dtype=np.float64), *self._cache, 1)
