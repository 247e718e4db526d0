"""Dense-array substrate shared by every other module.

Everything is float64: the verification tolerances sit near 1e-10, which
float32 cannot hold. Activations travel as blocks of shape (n, features)
or (n, features, spatial): n samples, each a feature-major map; fully
connected layers use spatial = 1. FeatureMap holds one validated sample.
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


def _values(m) -> np.ndarray:
    return m.data if isinstance(m, FeatureMap) else np.asarray(m, dtype=np.float64)


def _spatial_mean(v: np.ndarray) -> np.ndarray:
    # Same sum and division as v.mean(axis=-1), without its per-call overhead.
    return np.add.reduce(v, axis=-1) / v.shape[-1]


def feature_mean(m) -> np.ndarray:
    """Arithmetic mean over each feature's spatial values.

    Takes a FeatureMap or any array whose last axis is spatial, such as an
    (n, features, spatial) block.
    """
    return _spatial_mean(_values(m))


def feature_var(m) -> np.ndarray:
    """Population variance over each feature's spatial values (zero for spatial=1)."""
    v = _values(m)
    d = v - _spatial_mean(v)[..., None]
    return _spatial_mean(d * d)


def as_block(x) -> tuple[np.ndarray, bool]:
    """Coerce (n, features) or (n, features, spatial) to a 3-D float64 block.

    The flag says whether the input was 2-D, so callers can squeeze back.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return x[:, :, None], True
    if x.ndim == 3:
        return x, False
    raise ShapeError(f"expected 2-D or 3-D batch, got {x.ndim}-D")


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """Mask the gradient where the pre-activation was <= 0."""
    if np.shape(grad) != np.shape(pre):
        raise ShapeError(f"relu_backward shapes {np.shape(grad)} vs {np.shape(pre)}")
    return np.where(pre > 0.0, grad, 0.0)


def make_rng(seed: int) -> np.random.Generator:
    """Seedable PCG64 generator; identical seeds give identical streams."""
    return np.random.default_rng(int(seed))
