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
holds its most recent forward's record, y_t and sigma_{t-1}, until one
backward consumes it. That sigma is the divisor of the first stage's
output; a caller may replace it in between, as the equilibrium experiment
does with the running RMS of the produced gradient.

Every function takes a float64 block of shape (n, features, spatial): n
consecutive samples, n = 1 being the streaming step. Rearranged, each
recurrence is first-order linear, h_t = a_t h_{t-1} + b_t: mu and var with
a = a_f (var once mu is known), eps_y with a_t = 1 - (1 - a_b) mean(y_t^2)
and b_t = mean(y'_t y_t), and eps_1 with a = a_b and
b_t = mean(xt_t) / sigma_{t-1}. A block of n >= 2 runs each one as a
log-depth scan over the block, vectorized across features, and is equal
to n single-sample calls to within rounding (<= 1e-10 relative). A block
of n = 1 takes one step in the order written above, on its
(features, spatial) sample. At spatial size S = 1 that step uses two
exact identities: the mean of one value is that value (x / 1 == x), so
x_t - mu_{t-1} is mean(x_t) - mu_{t-1}; and the in-sample variance is 0,
so a_f * var + (1 - a_f) * 0 == a_f * var. Such a sample takes no
reduction, no square and no x - mean. (Where a length-1 reduction would
turn -0.0 into +0.0, that mean is only squared or added to running sums
that start at +0.0, so the bits agree.)
Training may run a whole block forward before its backward because the
forward statistics never read the backward accumulators, and the weights
feeding the layer change only between blocks. Values are not checked for
finiteness.
"""

from __future__ import annotations

import struct

import numpy as np

from .tensor import SIGMA_FLOOR, ShapeError, as_block, spatial_mean


class InterleaveError(RuntimeError):
    """Backward called with no forward pending on the stream."""


class OnlineNormState:
    """Per-feature running statistics and backward error accumulators.

    After reset: mu = 0, var = 1 (the fixed point of normalized inputs),
    eps_y = eps_1 = 0, pending = None. Decay factors must lie strictly
    inside (0, 1). pending is the last forward's (y, sigma) until a
    backward consumes it. Its sigma, the forward's divisor, is the divisor
    of the backward's first stage; a caller may replace it in between.
    """

    def __init__(self, features: int, alpha_f: float = 0.999, alpha_b: float = 0.99):
        if features < 1:
            raise ValueError(f"features must be >= 1, got {features}")
        if not (0.0 < alpha_f < 1.0) or not (0.0 < alpha_b < 1.0):
            raise ValueError(f"decay factors must be in (0,1): {alpha_f}, {alpha_b}")
        self.features = int(features)
        self.alpha_f = float(alpha_f)
        self.alpha_b = float(alpha_b)
        self.mu = np.zeros(features)
        self.var = np.ones(features)
        self.eps_y = np.zeros(features)
        self.eps_1 = np.zeros(features)
        self.pending: tuple[np.ndarray, np.ndarray] | None = None

    def reset(self) -> None:
        """Restore the initial state; idempotent."""
        self.mu.fill(0.0)
        self.var.fill(1.0)
        self.eps_y.fill(0.0)
        self.eps_1.fill(0.0)
        self.pending = None


def _block(x, features: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != features:
        raise ShapeError(f"expected an (n, {features}, spatial) block, got shape {x.shape}")
    return x


def _scan(a, b: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run h_t = a_t * h_{t-1} + b_t over axis 0 of the (n, F) array b, from h.

    Recursive doubling: ceil(log2 n) vectorized steps, each folding in the
    partial result from d = 1, 2, 4, ... rows back. a is a scalar, whose
    powers are carried as scalars, or an (n, F) array. Overwrites b with
    the h_t and leaves a and h as they were. Returns h_{t-1} for each t and
    the final h.
    """
    if not len(b):
        return b, h.copy()
    scalar = np.ndim(a) == 0
    b[0] += (a if scalar else a[0]) * h
    if not scalar:
        a = a.copy()
    n, d = b.shape[0], 1
    while d < n:
        if scalar:
            b[d:] += a * b[:-d]
            a = a * a
        else:
            b[d:] += a[d:] * b[:-d]
            a[d:] *= a[:-d]
        d *= 2
    return np.concatenate((h[None], b[:-1])), b[-1].copy()


def forward_sample(state: OnlineNormState, x: np.ndarray) -> np.ndarray:
    """Normalize each sample of a block with the running statistics, then advance them."""
    x = _block(x, state.features)
    af, cf = state.alpha_f, 1.0 - state.alpha_f
    if len(x) == 1:
        x0, s = x[0], x.shape[2]
        mx = x0[:, 0] if s == 1 else spatial_mean(x0)
        mu, var = state.mu, state.var
        state.mu = af * mu + cf * mx
        delta = mx - mu
        decayed = af * var if s == 1 else af * var + cf * spatial_mean(np.square(x0 - mx[:, None]))
        state.var = decayed + af * cf * delta * delta
        sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        y = (delta / sigma)[None, :, None] if s == 1 else ((x0 - mu[:, None]) / sigma[:, None])[None]
        sigma_used = sigma[None]
    else:
        mx = spatial_mean(x)
        d = x - mx[:, :, None]
        mu, state.mu = _scan(af, cf * mx, state.mu)
        delta = mx - mu
        var, state.var = _scan(af, cf * spatial_mean(d * d) + af * cf * delta * delta, state.var)
        sigma_used = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        y = (x - mu[:, :, None]) / sigma_used[:, :, None]
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
    which layer_scale_backward takes back. A one-sample block divides by
    its zeta as a scalar.
    """
    n, f, s = y.shape
    zeta = np.sqrt(np.add.reduce((y * y).reshape(n, f * s), axis=1) / (f * s))
    z = y / (max(zeta[0], SIGMA_FLOOR) if n == 1 else np.maximum(zeta, SIGMA_FLOOR)[:, None, None])
    return z, zeta


def layer_scale_backward(z_grad: np.ndarray, z: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Exact gradient of the RMS scaling, per sample, given its forward's (z, zeta).

    (z' - z * mean(z z')) / zeta where the forward divided by zeta, and
    z' / floor where it divided by the floor. A one-sample block takes its
    zeta as a scalar.
    """
    if z_grad.shape != z.shape:
        raise ShapeError(f"gradient shape {z_grad.shape} vs output {z.shape}")
    n, f, s = z.shape
    coupling = np.add.reduce((z * z_grad).reshape(n, f * s), axis=1)
    if n == 1:
        zeta = zeta[0]
        return z_grad / SIGMA_FLOOR if zeta < SIGMA_FLOOR else (z_grad - z * (coupling[0] / (f * s))) / zeta
    scaled = zeta >= SIGMA_FLOOR
    coupling = np.where(scaled, coupling / (f * s), 0.0)
    divisor = np.where(scaled, zeta, SIGMA_FLOOR)
    return (z_grad - z * coupling[:, None, None]) / divisor[:, None, None]


def backward_sample(state: OnlineNormState, y_grad: np.ndarray) -> np.ndarray:
    """Run the two-stage control process over a block of sample gradients.

    Consumes the state's pending record of its last forward_sample: each
    y_t and the sigma that divides its first stage's output.
    """
    if state.pending is None:
        raise InterleaveError("no forward pass is pending a backward")
    y, sigma_used = state.pending
    if y_grad.shape != y.shape:
        raise ShapeError(f"gradient shape {y_grad.shape} vs output {y.shape}")

    ab, cb = state.alpha_b, 1.0 - state.alpha_b
    if len(y) == 1:
        y0, s = y[0], y.shape[2]
        xt = y_grad[0] - cb * state.eps_y[:, None] * y0
        p = xt * y0
        state.eps_y = state.eps_y + (p[:, 0] if s == 1 else spatial_mean(p))
        xg = xt / sigma_used.T - cb * state.eps_1[:, None]
        state.eps_1 = state.eps_1 + (xg[:, 0] if s == 1 else spatial_mean(xg))
        xg = xg[None]
    else:
        eps_y, state.eps_y = _scan(1.0 - cb * spatial_mean(y * y), spatial_mean(y_grad * y), state.eps_y)
        xs = (y_grad - cb * eps_y[:, :, None] * y) / sigma_used[:, :, None]
        eps_1, state.eps_1 = _scan(ab, spatial_mean(xs), state.eps_1)
        xg = xs - cb * eps_1[:, :, None]
    state.pending = None
    return xg


_MAGIC = b"ONLNORM\x00"
_VERSION = 3
_HEADER = struct.Struct("<8sIQdd")


def save_state(state: OnlineNormState) -> bytes:
    """Serialize to a flat binary record.

    Layout, all little-endian: the 8-byte magic b"ONLNORM\\0", uint32
    version (3), uint64 feature count, float64 forward decay, float64
    backward decay, then four float64 blocks of `features` values each:
    mu, var, eps_y, eps_1.
    """
    head = _HEADER.pack(_MAGIC, _VERSION, state.features, state.alpha_f, state.alpha_b)
    body = np.concatenate([state.mu, state.var, state.eps_y, state.eps_1])
    return head + body.astype("<f8").tobytes()


def load_state(blob: bytes) -> OnlineNormState:
    """Inverse of save_state; a loaded state has no forward pending.

    Raises ValueError for a blob that is not a complete version-3 record.
    """
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a state record: missing the ONLNORM magic")
    if len(blob) < _HEADER.size:
        raise ValueError("state record truncated: missing header")
    _, version, features, alpha_f, alpha_b = _HEADER.unpack_from(blob)
    if version != _VERSION:
        raise ValueError(f"unsupported state record: version {version}")
    expected = _HEADER.size + 4 * features * 8
    if len(blob) != expected:
        raise ValueError(f"state record has {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    state = OnlineNormState(int(features), alpha_f=alpha_f, alpha_b=alpha_b)
    state.mu, state.var, state.eps_y, state.eps_1 = flat.reshape(4, features)
    return state


class OnlineNorm:
    """Composed streaming normalizer: normalization, a per-feature gain and
    bias, then layer scaling.

    Takes (n, features) or (n, features, spatial) blocks, like BatchNorm and
    LayerNorm, and holds its gain and bias with their gradient buffers the
    way DenseLayer holds w and b; the model's optimizer holds the momentum.
    A training pass runs the n samples through the stream in order; provided
    the parameters change only between blocks, it equals n single-sample
    passes to within rounding (<= 1e-10 relative), exactly at n = 1. A single
    instance is a stateful stream processor and must see a strict
    forward/backward interleaving during training; distinct instances are
    independent.
    """

    PARAMS = ("gain", "bias")

    def __init__(self, features: int, alpha_f: float = 0.999, alpha_b: float = 0.99):
        self.state = OnlineNormState(features, alpha_f=alpha_f, alpha_b=alpha_b)
        self.gain = np.ones(features)
        self.bias = np.zeros(features)
        self.d_gain = np.zeros(features)
        self.d_bias = np.zeros(features)
        self._scaled: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Training advances the statistics; evaluation freezes them and keeps no record."""
        xb, squeeze = as_block(x)
        if training:
            y = forward_sample(self.state, xb)
        else:
            y = forward_inference(self.state, xb)
        # (1, features, 1) views have a one-sample block's shape, so at n = 1
        # numpy multiplies element by element with no broadcast.
        z, zeta = layer_scale_forward(self.gain[None, :, None] * y + self.bias[None, :, None])
        if training:
            self._scaled = (z, zeta)
        return z[:, :, 0] if squeeze else z

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._scaled is None:
            raise InterleaveError("backward before any forward")
        grad, squeeze = as_block(grad)
        grad = layer_scale_backward(grad, *self._scaled)
        pending = self.state.pending
        out = backward_sample(self.state, self.gain[None, :, None] * grad)
        # Accumulated only once backward_sample has consumed the pending
        # record, so a refused backward leaves the gradients as they were.
        self.d_gain += np.add.reduce(grad * pending[0], axis=(0, 2))
        self.d_bias += np.add.reduce(grad, axis=(0, 2))
        return out[:, :, 0] if squeeze else out
