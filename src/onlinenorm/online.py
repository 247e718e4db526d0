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

Both accumulators stay bounded for bounded gradient streams. The state
holds its most recent forward's record until one backward consumes it.

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

import numpy as np

from .tensor import SIGMA_FLOOR, ShapeError, as_block, feature_mean, feature_var


class InterleaveError(RuntimeError):
    """Backward called with no forward pending on the stream."""


class OnlineNormState:
    """Per-feature running statistics and backward error accumulators.

    After reset: mu = 0, var = 1 (the fixed point of normalized inputs),
    eps_y = eps_1 = 0, pending = None. Decay factors must lie strictly
    inside (0, 1). pending is the last forward's (y, sigma_used) until a
    backward consumes it.
    """

    def __init__(
        self,
        features: int,
        alpha_f: float = 0.999,
        alpha_b: float = 0.99,
        scale_by_output_rms: bool = False,
    ):
        if features < 1:
            raise ValueError(f"features must be >= 1, got {features}")
        if not (0.0 < alpha_f < 1.0) or not (0.0 < alpha_b < 1.0):
            raise ValueError(f"decay factors must be in (0,1): {alpha_f}, {alpha_b}")
        self.features = int(features)
        self.alpha_f = float(alpha_f)
        self.alpha_b = float(alpha_b)
        self.scale_by_output_rms = bool(scale_by_output_rms)
        self.mu = np.zeros(features)
        self.var = np.ones(features)
        self.eps_y = np.zeros(features)
        self.eps_1 = np.zeros(features)
        # Running mean square of the produced gradient, used only when
        # scale_by_output_rms replaces the 1/sigma scaling.
        self.out_ms = np.ones(features)
        self.pending: tuple[np.ndarray, np.ndarray] | None = None

    def reset(self) -> None:
        """Restore the initial state; idempotent."""
        self.mu.fill(0.0)
        self.var.fill(1.0)
        self.eps_y.fill(0.0)
        self.eps_1.fill(0.0)
        self.out_ms.fill(1.0)
        self.pending = None


def _block(x, features: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != features:
        raise ShapeError(f"expected an (n, {features}, spatial) block, got shape {x.shape}")
    return x


def forward_sample(state: OnlineNormState, x: np.ndarray) -> np.ndarray:
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
        sigma = sigma_used[t] = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        y[t] = (x[t] - mu[:, None]) / sigma[:, None]
        delta = mx[t] - mu
        mu = af * mu + cf * mx[t]
        var = af * var + cf * vx[t] + af * cf * delta * delta
    state.mu, state.var = mu, var
    state.pending = (y, sigma_used)
    return y


def forward_inference(state: OnlineNormState, x: np.ndarray) -> np.ndarray:
    """Normalize a block with the current statistics without advancing the state."""
    x = _block(x, state.features)
    sigma = np.maximum(np.sqrt(state.var), SIGMA_FLOOR)
    return (x - state.mu[:, None]) / sigma[:, None]


def layer_scale_forward(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each sample by its RMS over all features and spatial positions.

    Returns the scaled block z and the (n,) per-sample RMS values zeta,
    which layer_scale_backward takes back.
    """
    n = y.shape[0]
    zeta = np.sqrt((y * y).reshape(n, -1).mean(axis=1))
    z = y / np.maximum(zeta, SIGMA_FLOOR)[:, None, None]
    return z, zeta


def layer_scale_backward(z_grad: np.ndarray, z: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Exact gradient of the RMS scaling, per sample, given its forward's (z, zeta).

    (z' - z * mean(z z')) / zeta where the forward divided by zeta, and
    z' / floor where it divided by the floor.
    """
    if z_grad.shape != z.shape:
        raise ShapeError(f"gradient shape {z_grad.shape} vs output {z.shape}")
    n = z.shape[0]
    scaled = zeta >= SIGMA_FLOOR
    coupling = np.where(scaled, (z * z_grad).reshape(n, -1).mean(axis=1), 0.0)
    divisor = np.where(scaled, zeta, SIGMA_FLOOR)
    return (z_grad - z * coupling[:, None, None]) / divisor[:, None, None]


def backward_sample(state: OnlineNormState, y_grad: np.ndarray) -> np.ndarray:
    """Run the two-stage control process over a block of sample gradients.

    Consumes the state's pending record of its last forward_sample: each
    y_t and the sigma used for its division.
    """
    if state.pending is None:
        raise InterleaveError("no forward pass is pending a backward")
    y, sigma_used = state.pending
    if y_grad.shape != y.shape:
        raise ShapeError(f"gradient shape {y_grad.shape} vs output {y.shape}")

    ab, cb = state.alpha_b, 1.0 - state.alpha_b
    eps_y, eps_1, out_ms = state.eps_y, state.eps_1, state.out_ms
    xg = np.empty_like(y)
    for t in range(y.shape[0]):
        xt = y_grad[t] - cb * eps_y[:, None] * y[t]
        eps_y = eps_y + feature_mean(xt * y[t])
        if state.scale_by_output_rms:
            divisor = np.maximum(np.sqrt(out_ms), SIGMA_FLOOR)
        else:
            divisor = sigma_used[t]
        xg[t] = xt / divisor[:, None] - cb * eps_1[:, None]
        eps_1 = eps_1 + feature_mean(xg[t])
        if state.scale_by_output_rms:
            out_ms = ab * out_ms + cb * feature_mean(xg[t] * xg[t])
    state.eps_y, state.eps_1, state.out_ms = eps_y, eps_1, out_ms
    state.pending = None
    return xg


# A record opens with _MAGIC and a version. A record without the magic is the
# unversioned layout, which opens with its uint64 feature count; no real
# feature count matches the magic's eight bytes.
_MAGIC = b"ONLNORM\x00"
_VERSION = 2
_HEADER = struct.Struct("<8sIIQdd")
_LEGACY_HEADER = struct.Struct("<Qdd")


def save_state(state: OnlineNormState) -> bytes:
    """Serialize to a flat binary record.

    Layout, all little-endian: the 8-byte magic b"ONLNORM\\0", uint32
    version (2), uint32 flags (1 if scale_by_output_rms, else 0), uint64
    feature count, float64 forward decay, float64 backward decay, then five
    float64 blocks of `features` values each: mu, var, eps_y, eps_1, out_ms.
    """
    head = _HEADER.pack(
        _MAGIC, _VERSION, int(state.scale_by_output_rms), state.features, state.alpha_f, state.alpha_b
    )
    body = np.concatenate([state.mu, state.var, state.eps_y, state.eps_1, state.out_ms])
    return head + body.astype("<f8").tobytes()


def load_state(blob: bytes) -> OnlineNormState:
    """Inverse of save_state.

    Also reads the unversioned record: uint64 feature count, the two
    float64 decays, then mu, var, eps_y and eps_1. It predates output-RMS
    mode, so it loads with the mode off and out_ms at one. A loaded state
    has no forward pending.
    """
    versioned = blob[: len(_MAGIC)] == _MAGIC
    header = _HEADER if versioned else _LEGACY_HEADER
    if len(blob) < header.size:
        raise ValueError("state record truncated: missing header")
    if versioned:
        _, version, flags, features, alpha_f, alpha_b = header.unpack_from(blob)
        if version != _VERSION or flags not in (0, 1):
            raise ValueError(f"unsupported state record: version {version}, flags {flags}")
        blocks = 5
    else:
        features, alpha_f, alpha_b = header.unpack_from(blob)
        flags, blocks = 0, 4
    expected = header.size + blocks * features * 8
    if len(blob) != expected:
        raise ValueError(f"state record has {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=header.size).astype(np.float64)
    flat = flat.reshape(blocks, features)
    state = OnlineNormState(
        int(features), alpha_f=alpha_f, alpha_b=alpha_b, scale_by_output_rms=bool(flags)
    )
    state.mu, state.var, state.eps_y, state.eps_1 = (row.copy() for row in flat[:4])
    if blocks == 5:
        state.out_ms = flat[4].copy()
    return state


class OnlineNorm:
    """Composed streaming normalizer: normalization, a per-feature gain and
    bias, then layer scaling.

    Takes (n, features) or (n, features, spatial) blocks, like BatchNorm and
    LayerNorm, and holds its gain and bias with their gradient and momentum
    buffers the way DenseLayer holds w and b. A training pass runs the n
    samples through the stream in order; it gives the same result as n
    single-sample passes provided the parameters change only between
    blocks. A single instance is a stateful stream processor and must see a
    strict forward/backward interleaving during training; distinct
    instances are independent.
    """

    def __init__(self, features: int, alpha_f: float = 0.999, alpha_b: float = 0.99):
        self.state = OnlineNormState(features, alpha_f=alpha_f, alpha_b=alpha_b)
        self.gain = np.ones(features)
        self.bias = np.zeros(features)
        self.d_gain = np.zeros(features)
        self.d_bias = np.zeros(features)
        self.v_gain = np.zeros(features)
        self.v_bias = np.zeros(features)
        self._scaled: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Training advances the statistics; evaluation freezes them and keeps no record."""
        xb, squeeze = as_block(x)
        if training:
            y = forward_sample(self.state, xb)
        else:
            y = forward_inference(self.state, xb)
        z, zeta = layer_scale_forward(self.gain[:, None] * y + self.bias[:, None])
        if training:
            self._scaled = (z, zeta)
        return z[:, :, 0] if squeeze else z

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._scaled is None:
            raise InterleaveError("backward before any forward")
        grad, squeeze = as_block(grad)
        grad = layer_scale_backward(grad, *self._scaled)
        pending = self.state.pending
        out = backward_sample(self.state, self.gain[:, None] * grad)
        # Accumulated only once backward_sample has consumed the pending
        # record, so a refused backward leaves the gradients as they were.
        self.d_gain += (grad * pending[0]).sum(axis=(0, 2))
        self.d_bias += grad.sum(axis=(0, 2))
        return out[:, :, 0] if squeeze else out

    def param_triples(self):
        return [(self.gain, self.d_gain, self.v_gain), (self.bias, self.d_bias, self.v_bias)]
