"""Exact finite-population normalization and the batch/layer baselines.

Normalizing a population vector x in R^N maps it onto the sphere of radius
sqrt(N) inside the zero-sum subspace. Its gradient, a scaling composed with
projections off the ones vector and off the normalized output,

    x' = (1/sigma) (I - P_1) (I - P_y) y'

is orthogonal to both 1 and y. Exact, batch and layer normalization run this
one primitive, _normalize and _normalize_backward, over the whole population,
over (batch, spatial) of each feature, or over each sample's features.
Centering is a corrected two-pass: subtract the mean, then the residual mean
of the centered values. That removes the first-order effect of the rounded
mean and, for two-sample batches, makes the output bit-exactly (+1, -1) and
the gradient zero.
"""

from __future__ import annotations

import numpy as np

from .tensor import SIGMA_FLOOR, ShapeError, as_block

# Decay of BatchNorm's running inference statistics.
_STATS_DECAY = 0.99


class DegenerateBatchError(ValueError):
    """Population standard deviation fell below the divisor floor."""


def _normalize(x: np.ndarray, axes):
    """Normalize x over axes: (y, mu, var, sigma) with keepdims, mu the
    effective mean and sigma = sqrt(var) floored at SIGMA_FLOOR."""
    mu = x.mean(axis=axes, keepdims=True)
    d = x - mu
    r = d.mean(axis=axes, keepdims=True)
    d = d - r
    var = (d * d).mean(axis=axes, keepdims=True)
    sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
    return d / sigma, mu + r, var, sigma


def _normalize_backward(g: np.ndarray, y: np.ndarray, sigma, axes) -> np.ndarray:
    """(1/sigma)(I - P_1)(I - P_y) g over axes: the corrected centering of g,
    then removal of its y component as a sum divided by the count."""
    if g.shape != y.shape:
        raise ShapeError(f"gradient shape {g.shape} vs output {y.shape}")
    w = g - g.mean(axis=axes, keepdims=True)
    w = w - w.mean(axis=axes, keepdims=True)
    coupling = (w * y).sum(axis=axes, keepdims=True)
    return (w - coupling / (y.size // coupling.size) * y) / sigma


def exact_normalize(values) -> tuple[np.ndarray, float, float]:
    """Normalize a finite population vector to zero mean and unit variance:
    (y, mu, sigma) with divide-by-N moments, so sum(y) ~ 0 and sum(y^2) ~ N."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if x.size < 2:
        raise ShapeError(f"population needs at least 2 samples, got {x.size}")
    y, mu, var, _ = _normalize(x, 0)
    sigma = float(np.sqrt(var[0]))
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

    Training keeps running inference statistics by exponential average and
    rejects one-sample batches, where a fully connected feature has no variance.
    """

    def __init__(self, features: int):
        self.features = int(features)
        self.running_mu = np.zeros(features)
        self.running_var = np.ones(features)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        xb, squeeze = as_block(x)
        if xb.shape[1] != self.features:
            raise ShapeError(f"batch has {xb.shape[1]} features, layer has {self.features}")
        if training:
            if xb.shape[0] < 2:
                raise ShapeError("batch normalization needs batch size >= 2")
            y, mu, var, sigma = _normalize(xb, (0, 2))
            a = _STATS_DECAY
            self.running_mu = a * self.running_mu + (1.0 - a) * mu.reshape(-1)
            self.running_var = a * self.running_var + (1.0 - a) * var.reshape(-1)
            self._cache = (y, sigma)
        else:
            y = self._inference(xb)
        return y[:, :, 0] if squeeze else y

    def _inference(self, xb: np.ndarray) -> np.ndarray:
        sigma = np.maximum(np.sqrt(self.running_var), SIGMA_FLOOR)
        return (xb - self.running_mu[None, :, None]) / sigma[None, :, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before training-mode forward")
        gb, squeeze = as_block(grad)
        out = _normalize_backward(gb, *self._cache, (0, 2))
        return out[:, :, 0] if squeeze else out


class PopulationNorm(BatchNorm):
    """Exact population normalization: trains like BatchNorm on one batch holding
    the whole population; evaluation normalizes the presented population over
    the same axes with its own statistics instead of running ones."""

    def _inference(self, xb: np.ndarray) -> np.ndarray:
        return _normalize(xb, (0, 2))[0]


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
