"""Batch-free streaming normalization.

Forward pass, per feature:

    y_t      = (x_t - mu_{t-1}) / max(sigma_{t-1}, floor)
    mu_t     = a_f * mu_{t-1} + (1 - a_f) * mean(x_t)
    var_t    = a_f * var_{t-1} + (1 - a_f) * var(x_t)
               + a_f * (1 - a_f) * (mean(x_t) - mu_{t-1})^2

where mean/var run over the sample's spatial extent and a_f is the forward
decay factor. The output is computed with the pre-update statistics.

Layer scaling then divides the whole sample by the RMS over every feature
and spatial position, which pins the sample's mean square at one and blocks
exponential growth or decay of activations through depth.

The backward pass is a two-stage control process. Each stage subtracts a
multiple of an accumulated error so the stream of produced gradients stays,
on average, orthogonal to the normalized output (first stage) and mean-free
(second stage):

    xt_t     = y'_t - (1 - a_b) * eps_y_{t-1} * y_t
    eps_y_t  = eps_y_{t-1} + mean(xt_t * y_t)
    x'_t     = xt_t / sigma_{t-1} - (1 - a_b) * eps_1_{t-1}
    eps_1_t  = eps_1_{t-1} + mean(x'_t)

Both accumulators stay bounded for bounded gradient streams. Strict
one-backward-per-forward ordering is enforced through the cache handshake.

Every function takes a float64 block of shape (n, features, spatial): n
consecutive samples, n = 1 being the streaming step. The recurrences loop
over the samples in order, vectorized across features, so a block is
bit-identical to n single-sample calls. Training may run a whole block
forward before its backward because the forward statistics never read the
backward accumulators, and the weights feeding the layer change only
between blocks. Values are not checked for finiteness.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .tensor import SIGMA_FLOOR, ShapeError, as_block, feature_mean, feature_var


class InterleaveError(RuntimeError):
    """Backward called without a matching, most-recent forward."""


@dataclass
class ForwardCache:
    """Values one forward pass over a block must hand to its matching backward pass.

    y is the normalized (n, features, spatial) block, sigma_used the (n,
    features) divisors each sample was normalized with, and z and zeta the
    layer-scaled block and its per-sample RMS.
    """

    y: np.ndarray | None = None
    sigma_used: np.ndarray | None = None
    z: np.ndarray | None = None
    zeta: np.ndarray | None = None
    token: int | None = None


class OnlineNormState:
    """Per-feature running statistics and backward error accumulators.

    After reset: mu = 0, var = 1 (the fixed point of normalized inputs),
    eps_y = eps_1 = 0. Decay factors must lie strictly inside (0, 1).
    """

    def __init__(
        self,
        features: int,
        alpha_f: float = 0.999,
        alpha_b: float = 0.99,
        sigma_floor: float = SIGMA_FLOOR,
        scale_by_output_rms: bool = False,
    ):
        if features < 1:
            raise ValueError(f"features must be >= 1, got {features}")
        if not (0.0 < alpha_f < 1.0) or not (0.0 < alpha_b < 1.0):
            raise ValueError(f"decay factors must be in (0,1): {alpha_f}, {alpha_b}")
        if sigma_floor <= 0.0:
            raise ValueError("sigma_floor must be positive")
        self.features = int(features)
        self.alpha_f = float(alpha_f)
        self.alpha_b = float(alpha_b)
        self.sigma_floor = float(sigma_floor)
        self.scale_by_output_rms = bool(scale_by_output_rms)
        self.mu = np.zeros(features)
        self.var = np.ones(features)
        self.eps_y = np.zeros(features)
        self.eps_1 = np.zeros(features)
        # Running mean square of the produced gradient, used only when
        # scale_by_output_rms replaces the 1/sigma scaling.
        self.out_ms = np.ones(features)
        self._tick = 0
        self._consumed = 0

    def reset(self) -> None:
        """Restore the initial state; idempotent."""
        self.mu.fill(0.0)
        self.var.fill(1.0)
        self.eps_y.fill(0.0)
        self.eps_1.fill(0.0)
        self.out_ms.fill(1.0)
        self._tick = 0
        self._consumed = 0


def _block(x, features: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != features:
        raise ShapeError(f"expected an (n, {features}, spatial) block, got shape {x.shape}")
    return x


def forward_sample(state: OnlineNormState, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Normalize each sample of a block with the running statistics, then advance them."""
    x = _block(x, state.features)
    n = x.shape[0]
    mx = feature_mean(x)
    vx = feature_var(x)
    y = np.empty_like(x)
    sigma_used = np.empty((n, state.features))
    af, cf = state.alpha_f, 1.0 - state.alpha_f
    mu, var = state.mu, state.var
    for t in range(n):
        sigma = sigma_used[t] = np.maximum(np.sqrt(var), state.sigma_floor)
        y[t] = (x[t] - mu[:, None]) / sigma[:, None]
        delta = mx[t] - mu
        mu = af * mu + cf * mx[t]
        var = af * var + cf * vx[t] + af * cf * delta * delta
    state.mu, state.var = mu, var
    state._tick += n
    return y, ForwardCache(y=y, sigma_used=sigma_used, token=state._tick)


def forward_inference(state: OnlineNormState, x: np.ndarray) -> np.ndarray:
    """Normalize a block with the current statistics without advancing the state."""
    x = _block(x, state.features)
    sigma = np.maximum(np.sqrt(state.var), state.sigma_floor)
    return (x - state.mu[:, None]) / sigma[:, None]


def layer_scale_forward(
    y: np.ndarray, cache: ForwardCache | None = None, sigma_floor: float = SIGMA_FLOOR
) -> tuple[np.ndarray, np.ndarray]:
    """Divide each sample by its RMS over all features and spatial positions.

    Returns the scaled block and the (n,) per-sample RMS values.
    """
    n = y.shape[0]
    zeta = np.sqrt((y * y).reshape(n, -1).mean(axis=1))
    z = y / np.maximum(zeta, sigma_floor)[:, None, None]
    if cache is not None:
        cache.z = z
        cache.zeta = zeta
    return z, zeta


def layer_scale_backward(
    z_grad: np.ndarray, cache: ForwardCache, sigma_floor: float = SIGMA_FLOOR
) -> np.ndarray:
    """Exact gradient of the RMS scaling, per sample.

    (z' - z * mean(z z')) / zeta where the forward divided by zeta, and
    z' / floor where it divided by the floor.
    """
    if cache.z is None or cache.zeta is None:
        raise InterleaveError("cache holds no layer-scaling record")
    z = cache.z
    if z_grad.shape != z.shape:
        raise ShapeError(f"gradient shape {z_grad.shape} vs output {z.shape}")
    n = z.shape[0]
    scaled = cache.zeta >= sigma_floor
    coupling = np.where(scaled, (z * z_grad).reshape(n, -1).mean(axis=1), 0.0)
    divisor = np.where(scaled, cache.zeta, sigma_floor)
    return (z_grad - z * coupling[:, None, None]) / divisor[:, None, None]


def backward_sample(
    state: OnlineNormState, y_grad: np.ndarray, cache: ForwardCache
) -> np.ndarray:
    """Run the two-stage control process over a block of sample gradients.

    Must be called exactly once per forward_sample, in order; the cache from
    the matching forward carries each y_t and the sigma used for its division.
    """
    if cache.token is None or cache.token != state._tick:
        raise InterleaveError("cache does not belong to the most recent forward pass")
    if cache.token == state._consumed:
        raise InterleaveError("backward already ran for this forward pass")
    y = cache.y
    if y_grad.shape != y.shape:
        raise ShapeError(f"gradient shape {y_grad.shape} vs output {y.shape}")

    ab, cb = state.alpha_b, 1.0 - state.alpha_b
    floor = state.sigma_floor
    eps_y, eps_1, out_ms = state.eps_y, state.eps_1, state.out_ms
    xg = np.empty_like(y)
    for t in range(y.shape[0]):
        xt = y_grad[t] - cb * eps_y[:, None] * y[t]
        eps_y = eps_y + feature_mean(xt * y[t])
        if state.scale_by_output_rms:
            divisor = np.maximum(np.sqrt(out_ms), floor)
        else:
            divisor = cache.sigma_used[t]
        xg[t] = xt / divisor[:, None] - cb * eps_1[:, None]
        eps_1 = eps_1 + feature_mean(xg[t])
        if state.scale_by_output_rms:
            out_ms = ab * out_ms + cb * feature_mean(xg[t] * xg[t])
    state.eps_y, state.eps_1, state.out_ms = eps_y, eps_1, out_ms
    state._consumed = cache.token
    return xg


class AffineParams:
    """Per-feature gain and bias restoring the two absorbed degrees of freedom."""

    def __init__(self, features: int):
        self.gain = np.ones(features)
        self.bias = np.zeros(features)
        self.d_gain = np.zeros(features)
        self.d_bias = np.zeros(features)
        self.v_gain = np.zeros(features)
        self.v_bias = np.zeros(features)


def affine_forward(p: AffineParams, z: np.ndarray) -> np.ndarray:
    if z.ndim != 3 or z.shape[1] != p.gain.size:
        raise ShapeError(f"block shape {z.shape}, params have {p.gain.size} features")
    return p.gain[:, None] * z + p.bias[:, None]


def affine_backward(p: AffineParams, z: np.ndarray, out_grad: np.ndarray) -> np.ndarray:
    """Accumulate gain/bias gradients (summed over samples and spatial) and pass the rest back."""
    if out_grad.shape != z.shape:
        raise ShapeError(f"gradient shape {out_grad.shape} vs input {z.shape}")
    p.d_gain += (out_grad * z).sum(axis=(0, 2))
    p.d_bias += out_grad.sum(axis=(0, 2))
    return p.gain[:, None] * out_grad


_HEADER = struct.Struct("<Qdd")


def save_state(state: OnlineNormState) -> bytes:
    """Serialize to a flat binary record.

    Layout, all little-endian: uint64 feature count, float64 forward decay,
    float64 backward decay, then four float64 blocks of `features` values
    each: mu, var, eps_y, eps_1.
    """
    head = _HEADER.pack(state.features, state.alpha_f, state.alpha_b)
    body = np.concatenate([state.mu, state.var, state.eps_y, state.eps_1])
    return head + body.astype("<f8").tobytes()


def load_state(blob: bytes) -> OnlineNormState:
    """Inverse of save_state."""
    if len(blob) < _HEADER.size:
        raise ValueError("state record truncated: missing header")
    features, alpha_f, alpha_b = _HEADER.unpack_from(blob)
    expected = _HEADER.size + 4 * features * 8
    if len(blob) != expected:
        raise ValueError(f"state record has {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    state = OnlineNormState(int(features), alpha_f=alpha_f, alpha_b=alpha_b)
    state.mu = flat[0:features].copy()
    state.var = flat[features : 2 * features].copy()
    state.eps_y = flat[2 * features : 3 * features].copy()
    state.eps_1 = flat[3 * features : 4 * features].copy()
    return state


class OnlineNorm:
    """Composed streaming normalizer: normalization, optional affine, layer scaling.

    Takes (n, features) or (n, features, spatial) blocks, like BatchNorm and
    LayerNorm. A training pass runs the n samples through the stream in
    order; it gives the same result as n single-sample passes provided the
    parameters change only between blocks. A single instance is a stateful
    stream processor and must see a strict forward/backward interleaving
    during training; distinct instances are independent.
    """

    def __init__(
        self,
        features: int,
        alpha_f: float = 0.999,
        alpha_b: float = 0.99,
        affine: bool = True,
        layer_scaling: bool = True,
        scale_by_output_rms: bool = False,
        sigma_floor: float = SIGMA_FLOOR,
    ):
        self.state = OnlineNormState(
            features,
            alpha_f=alpha_f,
            alpha_b=alpha_b,
            sigma_floor=sigma_floor,
            scale_by_output_rms=scale_by_output_rms,
        )
        self.affine = AffineParams(features) if affine else None
        self.layer_scaling = bool(layer_scaling)
        self._cache: ForwardCache | None = None
        self._affine_in: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Training advances the statistics; evaluation freezes them and keeps no cache."""
        xb, squeeze = as_block(x)
        if training:
            out, cache = forward_sample(self.state, xb)
        else:
            out, cache = forward_inference(self.state, xb), None
        if self.affine is not None:
            if training:
                self._affine_in = out
            out = affine_forward(self.affine, out)
        if self.layer_scaling:
            out, _ = layer_scale_forward(out, cache, self.state.sigma_floor)
        if training:
            self._cache = cache
        return out[:, :, 0] if squeeze else out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise InterleaveError("backward before any forward")
        grad, squeeze = as_block(grad)
        if self.layer_scaling:
            grad = layer_scale_backward(grad, self._cache, self.state.sigma_floor)
        if self.affine is not None:
            grad = affine_backward(self.affine, self._affine_in, grad)
        out = backward_sample(self.state, grad, self._cache)
        return out[:, :, 0] if squeeze else out

    def param_triples(self):
        if self.affine is None:
            return []
        a = self.affine
        return [(a.gain, a.d_gain, a.v_gain), (a.bias, a.d_bias, a.v_bias)]
