"""Exact finite-population normalization and the batch/layer baselines.

Normalizing a population vector x in R^N maps it onto the sphere of radius
sqrt(N) inside the zero-sum subspace. Its gradient is a scaling composed
with two orthogonal projections, off the ones vector and off the normalized
output:

    x' = (1/sigma) (I - P_1) (I - P_y) y'

which leaves the backpropagated gradient orthogonal to both 1 and y.

Centering here runs a corrected two-pass: subtract the mean, then subtract
the residual mean of the centered values once more. The correction removes
the first-order effect of the rounded mean and, for two-sample batches,
makes the output bit-exactly (+1, -1) and the backpropagated gradient
identically zero.
"""

from __future__ import annotations

import numpy as np

from .tensor import SIGMA_FLOOR, ShapeError, as_block


class DegenerateBatchError(ValueError):
    """Population standard deviation fell below the divisor floor."""


def _center(x: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """Corrected two-pass centering; returns (centered, effective mean)."""
    mu = x.mean(axis=axis, keepdims=axis is not None)
    d = x - mu
    r = d.mean(axis=axis, keepdims=axis is not None)
    return d - r, mu + r


def exact_normalize(values) -> tuple[np.ndarray, float, float]:
    """Normalize a finite population vector to zero mean and unit variance.

    Returns (y, mu, sigma) with population (divide-by-N) moments, so that
    sum(y) ~ 0 and sum(y^2) ~ N.
    """
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if x.size < 2:
        raise ShapeError(f"population needs at least 2 samples, got {x.size}")
    d, mu = _center(x)
    sigma = float(np.sqrt((d * d).mean()))
    if sigma < SIGMA_FLOOR:
        raise DegenerateBatchError(f"population std {sigma} below floor {SIGMA_FLOOR}")
    return d / sigma, float(mu), sigma


def exact_backward(y: np.ndarray, y_grad: np.ndarray, sigma: float) -> np.ndarray:
    """Backpropagate through exact normalization.

    Evaluated as sequential projections (corrected mean removal, then removal
    of the y component) rather than one fused expression; the two agree to
    machine precision and the sequential form annihilates a two-sample batch
    gradient exactly.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    g = np.asarray(y_grad, dtype=np.float64).reshape(-1)
    if y.size != g.size:
        raise ShapeError(f"gradient length {g.size} vs output length {y.size}")
    n = y.size
    w, _ = _center(g)
    w = w - (np.dot(w, y) / n) * y
    return w / sigma


def jacobian_dense(values) -> np.ndarray:
    """Dense N x N Jacobian of exact_normalize, J_ij = ((N d_ij - 1) - y_i y_j) / (N sigma)."""
    y, _, sigma = exact_normalize(values)
    n = y.size
    return ((n * np.eye(n) - 1.0) - np.outer(y, y)) / (n * sigma)


class BatchNorm:
    """Per-feature exact normalization over the batch (and spatial) dimension.

    Training keeps running inference statistics by exponential average.
    Batches of one sample are rejected: a fully connected feature would have
    a single value and no variance.
    """

    def __init__(self, features: int, stats_decay: float = 0.99):
        self.features = int(features)
        self.stats_decay = float(stats_decay)
        self.running_mu = np.zeros(features)
        self.running_var = np.ones(features)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        xb, squeeze = as_block(x)
        b, f, s = xb.shape
        if f != self.features:
            raise ShapeError(f"batch has {f} features, layer has {self.features}")
        if training:
            if b < 2:
                raise ShapeError("batch normalization needs batch size >= 2")
            d, mu = _center(xb, axis=(0, 2))
            var = (d * d).mean(axis=(0, 2))
            sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
            y = d / sigma[None, :, None]
            a = self.stats_decay
            self.running_mu = a * self.running_mu + (1.0 - a) * mu.reshape(-1)
            self.running_var = a * self.running_var + (1.0 - a) * var
            self._cache = (y, sigma, b * s)
        else:
            sigma = np.maximum(np.sqrt(self.running_var), SIGMA_FLOOR)
            y = (xb - self.running_mu[None, :, None]) / sigma[None, :, None]
        return y[:, :, 0] if squeeze else y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before training-mode forward")
        gb, squeeze = as_block(grad)
        y, sigma, count = self._cache
        if gb.shape != y.shape:
            raise ShapeError(f"gradient shape {gb.shape} vs output {y.shape}")
        w, _ = _center(gb, axis=(0, 2))
        coupling = (w * y).sum(axis=(0, 2)) / count
        out = (w - coupling[None, :, None] * y) / sigma[None, :, None]
        return out[:, :, 0] if squeeze else out


class PopulationNorm(BatchNorm):
    """Exact population normalization of whichever full batch arrives.

    Trains like BatchNorm on one batch holding the whole population, and
    evaluation normalizes the presented population with its own statistics
    instead of running ones.
    """

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            return super().forward(x, training=True)
        d, _ = _center(np.asarray(x, dtype=np.float64), axis=0)
        return d / np.maximum(np.sqrt((d * d).mean(axis=0)), SIGMA_FLOOR)


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
        d, _ = _center(x, axis=1)
        sigma = np.maximum(np.sqrt((d * d).mean(axis=1)), SIGMA_FLOOR)
        y = d / sigma[:, None]
        if training:
            self._cache = (y, sigma)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before training-mode forward")
        y, sigma = self._cache
        if grad.shape != y.shape:
            raise ShapeError(f"gradient shape {grad.shape} vs output {y.shape}")
        n = y.shape[1]
        w, _ = _center(grad, axis=1)
        coupling = (w * y).sum(axis=1) / n
        return (w - coupling[:, None] * y) / sigma[:, None]
