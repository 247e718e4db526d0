"""Float64 primitives of the numeric modules: the divisor floor, the shape
error, ReLU and the seeded generator.

Everything is float64: the verification tolerances sit near 1e-10, which
float32 cannot hold. Activations travel as blocks of n samples: (n,
features) for fully connected layers, and (n, features, spatial) for
feature maps, which only BatchNorm normalizes (reference.py holds the
axis helpers of that layout). A fully connected block stays 2-D through
every normalizer; none adds a length-1 spatial axis. FeatureMap holds one
validated sample.
"""

from __future__ import annotations

import numpy as np

# Floor applied to every divisor derived from a standard deviation or an
# RMS, so degenerate constant inputs stay well-defined.
SIGMA_FLOOR = 1e-5


class ShapeError(ValueError):
    """Operand shapes do not satisfy the operation's contract."""


class FeatureMap:
    """One sample: `features` channels, each holding `spatial` scalar values.

    Values are stored feature-major and must be finite on construction.
    """

    __slots__ = ("features", "spatial", "data")

    def __init__(self, data, spatial: int | None = None):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 1:
            if spatial is None:
                arr = arr.reshape(-1, 1)
            else:
                if spatial < 1 or arr.size % spatial != 0:
                    raise ShapeError(
                        f"flat length {arr.size} not divisible by spatial {spatial}"
                    )
                arr = arr.reshape(-1, spatial)
        elif arr.ndim == 2:
            if spatial is not None and arr.shape[1] != spatial:
                raise ShapeError(f"spatial {spatial} != data width {arr.shape[1]}")
        else:
            raise ShapeError(f"FeatureMap takes 1-D or 2-D data, got {arr.ndim}-D")
        if not np.isfinite(arr).all():
            raise ValueError("FeatureMap values must be finite")
        self.features = arr.shape[0]
        self.spatial = arr.shape[1]
        self.data = arr

    def ravel(self) -> np.ndarray:
        """Flat feature-major view of the values."""
        return self.data.reshape(-1)

    def __repr__(self) -> str:
        return f"FeatureMap(features={self.features}, spatial={self.spatial})"


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """The gradient, read as float64, where pre > 0.0, and +0.0 elsewhere.

    A NaN pre is masked; grad passes through bit for bit, NaN payloads and
    -0.0 included, as np.where(pre > 0.0, grad, 0.0) gives them. The mask
    multiplies grad's bits as integers: a per-element branch on a mask
    that is about half set mispredicts, and a float product would turn
    -0.0 and NaN into other values.
    """
    grad, mask = np.asarray(grad, dtype=np.float64), np.greater(pre, 0.0)
    if grad.shape != mask.shape:
        raise ShapeError(f"relu_backward shapes {grad.shape} vs {mask.shape}")
    return np.multiply(grad.view(np.int64), mask).view(np.float64)


def make_rng(seed: int) -> np.random.Generator:
    """Seedable PCG64 generator; identical seeds give identical streams."""
    return np.random.default_rng(int(seed))
