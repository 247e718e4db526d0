"""Batch-free streaming normalization.

Forward pass, per feature:

    y_t      = (x_t - mu_{t-1}) / max(sigma_{t-1}, floor)
    mu_t     = a_f * mu_{t-1} + (1 - a_f) * x_t
    var_t    = a_f * var_{t-1} + a_f * (1 - a_f) * (x_t - mu_{t-1})^2

where a_f is the forward decay factor, one value or one per feature, as is
a_b below. The output is computed with the pre-update statistics.

Layer scaling then divides the whole sample by the RMS over its features,
which pins the sample's mean square at one and blocks exponential growth
or decay of activations through depth.

The backward pass is a two-stage control process. Each stage subtracts a
multiple of an accumulated error so the stream of produced gradients stays,
on average, orthogonal to the normalized output (first stage) and mean-free
(second stage):

    xt_t     = y'_t - (1 - a_b) * eps_y_{t-1} * y_t
    eps_y_t  = eps_y_{t-1} + xt_t * y_t
    x'_t     = xt_t / sigma_{t-1} - (1 - a_b) * eps_1_{t-1}
    eps_1_t  = eps_1_{t-1} + x'_t

Bounded gradients alone do not keep the accumulators bounded. Written as
eps_y_t = a_t * eps_y_{t-1} + y'_t * y_t, eps_y's coefficient
a_t = 1 - (1 - a_b) * y_t^2 leaves [-1, 1] once y_t^2 > 2 / (1 - a_b),
and y, divided by the running sigma of earlier samples, reaches that
region on heavy-tailed inputs. On 1e5 one-feature steps with gradients
uniform on (-1, 1), max |eps| after step 1000 over max |eps| before it
reached 191 for Student-t(2) inputs at a_f = a_b = 0.99 and 410 at
a_f = 0.999, a_b = 0.9; Cauchy inputs at 0.999/0.9 drove max |eps| to
4.0e27, every value still finite. No sufficient condition for
boundedness is established here. The state
holds its most recent forward's record, y_t and sigma_{t-1}, until one
backward consumes it. That sigma is the divisor of the first stage's
output; a caller may replace it in between. The equilibrium experiment
instead passes its own divisor, the running RMS of the produced gradient,
straight to backward_float.

Every function but the two float steps below takes a block of n
consecutive samples of a fully connected layer, shaped (n, features) and
read as float64, n = 1 being the streaming step, and raises ShapeError
for any other ndim. Rearranged, each recurrence is first-order linear,
h_t = a_t h_{t-1} + b_t: mu and var with a = a_f (var once mu is known),
eps_y with a_t = 1 - (1 - a_b) y_t^2 and b_t = y'_t y_t, and eps_1 with
a = a_b and b_t = xt_t / sigma_{t-1}. A block of n >= 2 runs each one as a
log-depth scan over the block (recursive doubling, as in Hillis & Steele
1986 and Blelloch 1990), vectorized across features, and is equal to n
single-sample calls to within rounding (<= 1e-10 relative). A block of
n = 1 takes one step in the order written above; forward_float and
backward_float take that step for one feature in Python floats, with its
bits NaN signs aside, for their one caller, the equilibrium experiment.
Training may run a whole block forward before its backward because the
forward statistics never read the backward accumulators, and the weights
feeding the layer change only between blocks. Values are not checked for
finiteness.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .tensor import SIGMA_FLOOR, ShapeError


class InterleaveError(RuntimeError):
    """Backward called with no forward pending on the stream."""


class OnlineNormState:
    """Per-feature running statistics and backward error accumulators.

    Initially: mu = 0, var = 1 (the fixed point of normalized inputs),
    eps_y = eps_1 = 0, pending = None. Each decay factor is a float or a
    (features,) array, every value strictly inside (0, 1). pending is the
    last forward's (y, sigma) until a backward consumes it. Its sigma, the
    forward's divisor, is the divisor of the backward's first stage; a
    caller may replace it in between.
    """

    def __init__(self, features: int, alpha_f=0.999, alpha_b=0.99):
        if features < 1:
            raise ValueError(f"features must be >= 1, got {features}")
        self.features = int(features)
        self.alpha_f = _decay("alpha_f", alpha_f, self.features)
        self.alpha_b = _decay("alpha_b", alpha_b, self.features)
        self.mu = np.zeros(features)
        self.var = np.ones(features)
        self.eps_y = np.zeros(features)
        self.eps_1 = np.zeros(features)
        self.pending: tuple[np.ndarray, np.ndarray] | None = None


def _decay(name: str, value, features: int):
    """value as a float, or as a (features,) float64 array; ValueError naming a value outside (0, 1)."""
    per_feature = np.ndim(value) > 0
    value = np.array(value, dtype=np.float64) if per_feature else float(value)
    if per_feature and value.shape != (features,):
        raise ValueError(f"per-feature {name} must have shape ({features},), got {value.shape}")
    for k, v in enumerate(np.ravel(value)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"decay factor {name}{f'[{k}]' if per_feature else ''} must be in (0,1), got {v}")
    return value


def _block(x, features: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != features:
        raise ShapeError(f"expected an (n, {features}) block, got shape {x.shape}")
    return x


def _scan(a, b: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run h_t = a_t * h_{t-1} + b_t over axis 0 of the (n, F) array b, from h.

    Recursive doubling: ceil(log2 n) vectorized steps, each folding in the
    partial result from d = 1, 2, 4, ... rows back. a is a scalar or an
    (F,) array, whose powers are carried along, or an (n, F) array.
    Overwrites b with the h_t and leaves a and h as they were. Returns
    h_{t-1} for each t and the final h.
    """
    if not len(b):
        return b, h.copy()
    scalar = not isinstance(a, np.ndarray) or a.ndim < 2
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
            if 2 * d < n:  # the last step's products would go unread
                a[d:] *= a[:-d]
        d *= 2
    return np.concatenate((h[None], b[:-1])), b[-1].copy()


def forward_float(mu: float, var: float, x: float, alpha_f: float) -> tuple[float, float, float, float]:
    """One forward step of one feature in Python floats: (mu, var, y, sigma).

    Returns the advanced mu and var, the output y and the divisor sigma it
    was computed with, each with the bits of the array step's, NaN signs
    aside. A negative var gives a NaN sigma, as np.sqrt does.
    """
    cf = 1.0 - alpha_f
    delta = x - mu
    # math.sqrt raises on a negative var; np.sqrt gives the array path's NaN.
    # max keeps a NaN only as its first argument, as np.maximum does.
    sigma = max(math.sqrt(var) if var >= 0.0 else np.sqrt(var).item(), SIGMA_FLOOR)
    return alpha_f * mu + cf * x, alpha_f * var + alpha_f * cf * delta * delta, delta / sigma, sigma


def backward_float(
    eps_y: float, eps_1: float, y: float, divisor: float, y_grad: float, alpha_b: float
) -> tuple[float, float, float]:
    """One two-stage backward step of one feature in Python floats: (eps_y, eps_1, x').

    divisor divides the first stage's output; it is the forward's sigma
    unless the caller passes another. Each value has the bits of the array
    step's, NaN signs aside, a zero divisor included.
    """
    cb = 1.0 - alpha_b
    xt = y_grad - cb * eps_y * y
    # / raises on a zero divisor where numpy gives inf or NaN.
    x_grad = (xt / divisor if divisor else np.divide(xt, divisor).item()) - cb * eps_1
    return eps_y + xt * y, eps_1 + x_grad, x_grad


def forward_sample(state: OnlineNormState, x: np.ndarray) -> np.ndarray:
    """Normalize each sample of a block with the running statistics, then advance them."""
    x = _block(x, state.features)
    af, cf = state.alpha_f, 1.0 - state.alpha_f
    if len(x) == 1:
        x0, mu, var = x[0], state.mu, state.var
        state.mu = af * mu + cf * x0
        delta = x0 - mu
        state.var = af * var + af * cf * delta * delta
        sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        y = (delta / sigma)[None]
        sigma_used = sigma[None]
    else:
        mu, state.mu = _scan(af, cf * x, state.mu)
        delta = x - mu
        var, state.var = _scan(af, af * cf * delta * delta, state.var)
        sigma_used = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        y = delta / sigma_used
    state.pending = (y, sigma_used)
    return y


def forward_inference(state: OnlineNormState, x: np.ndarray) -> np.ndarray:
    """Normalize a block with the current statistics without advancing the state."""
    x = _block(x, state.features)
    return (x - state.mu) / np.maximum(np.sqrt(state.var), SIGMA_FLOOR)


def layer_scale_forward(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each sample of an (n, features) block by its RMS over the features.

    Returns the scaled block z and the (n,) per-sample RMS values zeta,
    which layer_scale_backward takes back. A one-sample block divides by
    its zeta as a scalar.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ShapeError(f"expected an (n, features) block, got shape {y.shape}")
    m = y.shape[1]
    zeta = np.sqrt(np.add.reduce(y * y, axis=1) / m)
    z = y / (max(zeta[0], SIGMA_FLOOR) if len(y) == 1 else np.maximum(zeta, SIGMA_FLOOR)[:, None])
    return z, zeta


def layer_scale_backward(z_grad: np.ndarray, z: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Exact gradient of the RMS scaling, per sample, given its forward's (z, zeta).

    (z' - z * mean(z z')) / zeta where the forward divided by zeta, and
    z' / floor where it divided by the floor, the mean running over each
    sample's features. A one-sample block takes its zeta as a scalar.
    """
    z_grad, z, zeta = (np.asarray(a, dtype=np.float64) for a in (z_grad, z, zeta))
    if z_grad.shape != z.shape or z.ndim != 2:
        raise ShapeError(f"expected an (n, features) gradient shaped like its output {z.shape}, got {z_grad.shape}")
    m = z.shape[1]
    coupling = np.add.reduce(z * z_grad, axis=1)
    if len(z) == 1:
        zeta = zeta[0]
        return z_grad / SIGMA_FLOOR if zeta < SIGMA_FLOOR else (z_grad - z * (coupling[0] / m)) / zeta
    scaled = zeta >= SIGMA_FLOOR
    coupling = np.where(scaled, coupling / m, 0.0)
    divisor = np.where(scaled, zeta, SIGMA_FLOOR)
    return (z_grad - z * coupling[:, None]) / divisor[:, None]


def backward_sample(state: OnlineNormState, y_grad: np.ndarray) -> np.ndarray:
    """Run the two-stage control process over a block of sample gradients.

    Consumes the state's pending record of its last forward_sample: each
    y_t and the sigma that divides its first stage's output.
    """
    if state.pending is None:
        raise InterleaveError("no forward pass is pending a backward")
    y, sigma_used = state.pending
    y_grad = np.asarray(y_grad, dtype=np.float64)
    if y_grad.shape != y.shape:
        raise ShapeError(f"gradient shape {y_grad.shape} vs output {y.shape}")

    ab, cb = state.alpha_b, 1.0 - state.alpha_b
    if len(y) == 1:
        y0 = y[0]
        xt = y_grad[0] - cb * state.eps_y * y0
        state.eps_y = state.eps_y + xt * y0
        xg = xt / sigma_used[0] - cb * state.eps_1
        state.eps_1 = state.eps_1 + xg
        xg = xg[None]
    else:
        eps_y, state.eps_y = _scan(1.0 - cb * (y * y), y_grad * y, state.eps_y)
        xs = (y_grad - cb * eps_y * y) / sigma_used
        # _scan overwrites its b, and xs is still needed.
        eps_1, state.eps_1 = _scan(ab, xs.copy(), state.eps_1)
        xg = xs - cb * eps_1
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
    mu, var, eps_y, eps_1. Raises ValueError for per-feature decays, which
    the record has no room for.
    """
    if not isinstance(state.alpha_f, float) or not isinstance(state.alpha_b, float):
        raise ValueError("save_state records one float decay of each kind, not per-feature decays")
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

    Takes (n, features) blocks and returns blocks of the same shape. It
    holds its gain and bias with their gradient buffers the way DenseLayer
    holds w and b; the model's optimizer holds the momentum.
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
        y = forward_sample(self.state, x) if training else forward_inference(self.state, x)
        z, zeta = layer_scale_forward(self.gain * y + self.bias)
        if training:
            self._scaled = (z, zeta)
        return z

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._scaled is None:
            raise InterleaveError("backward before any forward")
        grad = layer_scale_backward(np.asarray(grad, dtype=np.float64), *self._scaled)
        pending = self.state.pending
        out = backward_sample(self.state, self.gain * grad)
        # Accumulated only once backward_sample has consumed the pending
        # record, so a refused backward leaves the gradients as they were.
        if len(grad) == 1:  # one row, as in DenseLayer.backward
            self.d_gain += grad[0] * pending[0][0]
            self.d_bias += grad[0]
        else:
            self.d_gain += np.add.reduce(grad * pending[0], axis=0)
            self.d_bias += np.add.reduce(grad, axis=0)
        return out
