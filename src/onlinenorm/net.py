"""Minimal feed-forward network with hand-written backprop.

Dense layers, one small valid-padding conv layer, ReLU, softmax
cross-entropy, SGD with momentum and L2 decay, and the batch-size scaling
rules for learning rate and momentum. The conv layer is only ever an input
layer and forms no input gradient. The training loop runs one group
of samples at a time through the whole network, layer by layer, for every
normalizer kind. The streaming normalizer runs the group's samples through
its stream in order; weights change only between groups, so a group of B
gives what B single-sample passes would, equal to within rounding
(<= 1e-10 relative) and exact at B = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .online import OnlineNorm
from .reference import BatchNorm, LayerNorm, PopulationNorm
from .tensor import ShapeError, make_rng, relu, relu_backward

NORMALIZER_KINDS = ("online", "batch", "layer", "exact-population", "none")

# Samples per evaluation block: evaluation memory scales with this, not with
# the validation set.
_EVAL_BLOCK = 128


class DivergenceError(RuntimeError):
    """A run's loss, parameters or measured figures left the finite, bounded regime."""


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    eval_interval counts optimizer steps between metric rows; 0 means one
    row per epoch. Divergence halts the run when |loss| exceeds
    divergence_limit or stops being finite, or when a row finds the
    parameters' sum of squares or an eps accumulator not finite.
    """

    eta: float = 0.1
    momentum: float = 0.9
    l2: float = 1e-4
    batch_size: int = 32
    epochs: int = 5
    seed: int = 0
    normalizer: str = "online"
    alpha_f: float = 0.999
    alpha_b: float = 0.99
    hidden: int = 32
    depth: int = 1
    eval_interval: int = 0
    divergence_limit: float = 1e6

    def validate(self) -> None:
        # eta = 0 is legal and freezes the parameters; useful as a control.
        # Each check is written so that NaN fails it.
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if not 0.0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")
        if not self.divergence_limit > 0.0:
            raise ValueError(f"divergence_limit must be > 0, got {self.divergence_limit}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.normalizer not in NORMALIZER_KINDS:
            raise ValueError(f"unknown normalizer {self.normalizer!r}")
        if not (0.0 < self.alpha_f < 1.0) or not (0.0 < self.alpha_b < 1.0):
            raise ValueError("decay factors must be in (0,1)")
        if self.hidden < 1 or self.depth < 1:
            raise ValueError("hidden and depth must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.eval_interval < 0:
            raise ValueError(f"eval_interval must be >= 0, got {self.eval_interval}")


@dataclass
class MetricsRecord:
    step: int
    epoch: int
    loss: float
    accuracy: float
    weight_norm_l2: float
    eps_y_max: float
    eps_1_max: float


class Params:
    """Parameters p, gradients g and momentum v of some layers, one flat array
    each, and one work buffer of the same size for the optimizer step.

    Each layer names its parameters in PARAMS; the gradient of `w` is `d_w`.
    Both are rebound to views of p and g, so layers must update them in place.
    """

    def __init__(self, layers):
        slots = [(layer, name) for layer in layers for name in layer.PARAMS]
        self.p = np.concatenate([getattr(layer, name).ravel() for layer, name in slots])
        self.g = np.concatenate([getattr(layer, "d_" + name).ravel() for layer, name in slots])
        self.v = np.zeros_like(self.p)
        self.work = np.empty_like(self.p)
        start = 0
        for layer, name in slots:
            value = getattr(layer, name)
            stop = start + value.size
            setattr(layer, name, self.p[start:stop].reshape(value.shape))
            setattr(layer, "d_" + name, self.g[start:stop].reshape(value.shape))
            start = stop


class DenseLayer:
    """Affine map with its gradient buffers. A training forward's input is
    held until backward has formed the weight gradient; evaluation holds none."""

    PARAMS = ("w", "b")

    def __init__(self, n_in: int, n_out: int, rng, weight_scale: float | None = None):
        if weight_scale is None:
            weight_scale = np.sqrt(2.0 / n_in)
        self.w = rng.normal(0.0, weight_scale, size=(n_out, n_in))
        self.b = np.zeros(n_out)
        self.d_w = np.zeros_like(self.w)
        self.d_b = np.zeros(n_out)
        self._x = None
        # np.dot takes a 1 x 1 operand as a scalar, by BLAS axpy, which skips a
        # zero: NaN * 0 would read 0 and a -0.0 product +0.0. With both weight
        # dimensions above 1 no operand is 1 x 1, and np.dot gives the bits of
        # @ at less call overhead.
        self._dot = np.dot if min(self.w.shape) > 1 else np.matmul

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.w.shape[1]:
            raise ShapeError(f"dense input {x.shape} vs weights {self.w.shape}")
        if training:
            self._x = x
        return self._dot(x, self.w.T) + self.b

    def backward(self, grad: np.ndarray, input_grad: bool = True, out=None) -> np.ndarray | None:
        """Accumulate d_w and d_b; return the input gradient, written into out
        if given (it may be the forward's input), or None without input_grad."""
        if self._x is None:
            raise RuntimeError("backward before forward")
        if grad.shape != (self._x.shape[0], self.w.shape[0]):
            raise ShapeError(f"dense gradient {grad.shape}")
        self.d_w += self._dot(grad.T, self._x)
        self._x = None
        # A one-row sum is that row with -0.0 as +0.0, which d_b, only added to from +0.0, cannot tell.
        self.d_b += grad[0] if len(grad) == 1 else np.add.reduce(grad, axis=0)
        return self._dot(grad, self.w, out=out) if input_grad else None


class Conv2D:
    """Single valid-padding 2-D convolution layer with a small fixed kernel.

    The forward pass and the kernel gradient contract the input's sliding
    windows as BLAS matrix products. The forward emits its output
    channel-major: (n, channels, h, w) strided over (channels, n, h, w)
    memory. The layer is only ever a network's input layer, so its backward
    forms no input gradient.
    """

    PARAMS = ("k", "b")

    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng):
        weight_scale = np.sqrt(2.0 / (in_ch * kernel * kernel))
        self.k = rng.normal(0.0, weight_scale, size=(out_ch, in_ch, kernel, kernel))
        self.b = np.zeros(out_ch)
        self.d_k = np.zeros_like(self.k)
        self.d_b = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        _, ic, kh, kw = self.k.shape
        if x.ndim != 4 or x.shape[1] != ic or x.shape[2] < kh or x.shape[3] < kw:
            raise ShapeError(f"conv input {x.shape} vs kernel {self.k.shape}")
        self._x = x
        win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
        out = np.tensordot(self.k, win, axes=((1, 2, 3), (1, 4, 5)))  # (oc, b, h, w)
        return out.transpose(1, 0, 2, 3) + self.b[None, :, None, None]

    def backward(self, grad: np.ndarray, rows=None, work=(None, None)) -> None:
        """Accumulate d_k and d_b from grad, the output gradient of the last
        forward's samples `rows` (all of them by default). The product's
        operands are C-contiguous copies of the (in, kh, kw)-major windows and
        of the channel-last grad, written into work's two flat arrays if given."""
        if self._x is None:
            raise RuntimeError("backward before forward")
        x = self._x if rows is None else self._x[rows]
        oc, ic, kh, kw = self.k.shape
        if grad.shape != (x.shape[0], oc, x.shape[2] - kh + 1, x.shape[3] - kw + 1):
            raise ShapeError(f"conv gradient {grad.shape} vs input {x.shape}")
        win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
        a = _copy_into(work[0], win.transpose(1, 4, 5, 0, 2, 3)).reshape(ic * kh * kw, -1)
        g = _copy_into(work[1], grad.transpose(0, 2, 3, 1)).reshape(-1, oc)
        self.d_k += np.dot(a, g).reshape(ic, kh, kw, -1).transpose(3, 0, 1, 2)
        self.d_b += grad.sum(axis=(0, 2, 3))


def _copy_into(buf, a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of a, in buf's leading elements if buf is given."""
    out = np.empty(a.shape) if buf is None else buf[: a.size].reshape(a.shape)
    np.copyto(out, a)
    return out


def softmax_xent_forward(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch; returns (loss, softmax probabilities)."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / np.add.reduce(expd, axis=1, keepdims=True)
    if len(labels) == 1:
        # max keeps a NaN as np.maximum does; adding +0.0 gives a one-term sum's bits (-0.0 to +0.0).
        return -float(np.log(max(probs[0, labels[0]], 1e-300))) + 0.0, probs
    labels = np.asarray(labels)
    picked = probs[np.arange(labels.size), labels]
    loss = float(np.add.reduce(-np.log(np.maximum(picked, 1e-300))) / labels.size)
    return loss, probs


def softmax_xent_backward(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    grad = probs.copy()
    if len(labels) == 1:
        grad[0, labels[0]] -= 1.0
        return grad
    grad[np.arange(labels.size), labels] -= 1.0
    return grad / labels.size


def sgd_momentum_step(params: Params, eta: float, momentum: float, l2: float) -> None:
    """v = mu*v + (1-mu)*(g + l2*w); w -= eta*v; gradients cleared. Works in params.work."""
    p, g, v, t = params.p, params.g, params.v, params.work
    v *= momentum
    np.multiply(p, l2, out=t)
    t += g
    t *= 1.0 - momentum
    v += t
    np.multiply(v, eta, out=t)
    p -= t
    g.fill(0.0)


def scale_hyperparams(
    eta: float, momentum: float, l2: float, b_old: int, b_new: int
) -> tuple[float, float, float]:
    """Rescale (eta, momentum) for a batch-size change; l2 stays unchanged.

    Learning rate scales linearly with batch size; momentum is matched by
    equating its per-sample decay. The third value folds in the extra
    (1-mu_new)/(1-mu_old) learning-rate factor needed by optimizers that do
    not multiply the gradient by (1 - mu).
    """
    if b_old < 1 or b_new < 1:
        raise ValueError(f"batch sizes must be >= 1, got {b_old} -> {b_new}")
    ratio = b_new / b_old
    eta_new = ratio * eta
    mu_new = momentum ** ratio
    eta_star = (1.0 - mu_new) / (1.0 - momentum) * eta_new
    return eta_new, mu_new, eta_star


def _make_normalizer(kind: str, features: int, cfg: TrainConfig):
    if kind == "online":
        return OnlineNorm(features, alpha_f=cfg.alpha_f, alpha_b=cfg.alpha_b)
    if kind == "batch":
        return BatchNorm(features)
    if kind == "exact-population":
        return PopulationNorm(features)
    if kind == "layer":
        return LayerNorm(features)
    if kind == "none":
        return None
    raise ValueError(f"unknown normalizer {kind!r}")


class Mlp:
    """Dense/normalize/ReLU stack with a linear classifier head. whole_set: a normalizer
    declares WHOLE_SET_INFERENCE, so training and evaluation each take the whole set at once."""

    def __init__(self, sizes, cfg: TrainConfig, rng):
        self.dense = []
        self.norms = []
        for i in range(len(sizes) - 2):
            self.dense.append(DenseLayer(sizes[i], sizes[i + 1], rng))
            self.norms.append(_make_normalizer(cfg.normalizer, sizes[i + 1], cfg))
        self.dense.append(DenseLayer(sizes[-2], sizes[-1], rng))
        self.params = Params(self.dense + [n for n in self.norms if isinstance(n, OnlineNorm)])
        self.whole_set = any(getattr(n, "WHOLE_SET_INFERENCE", False) for n in self.norms)
        self._pre = []

    def weight_norm(self) -> float:
        total = 0.0
        for d in self.dense:
            total += float((d.w * d.w).sum())
            total += float((d.b * d.b).sum())
        return float(np.sqrt(total))

    def eps_maxima(self) -> tuple[float, float]:
        """Largest |eps_y| and |eps_1| over the streaming layers; NaN if any value is NaN."""
        ey = e1 = 0.0
        for n in self.norms:
            if isinstance(n, OnlineNorm):
                ey = np.maximum(ey, np.abs(n.state.eps_y).max())
                e1 = np.maximum(e1, np.abs(n.state.eps_1).max())
        return float(ey), float(e1)

    def forward_batch(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Logits for a (B, dim) group; training advances normalizer state and
        records what backward_batch reads. Evaluation records nothing: it frees
        each activation after its last read and leaves those records intact.
        Unless a normalizer declares WHOLE_SET_INFERENCE, an evaluated sample's
        logits do not depend on the rest of the group beyond rounding, so
        evaluate_accuracy runs the set in blocks."""
        if training:
            self._pre = []
        h = x
        for dense, norm in zip(self.dense[:-1], self.norms):
            a = dense.forward(h, training)
            if norm is not None:
                a = norm.forward(a, training=training)
            if training:
                self._pre.append(a)
            h = relu(a)
        return self.dense[-1].forward(h, training)

    def backward_batch(self, grad: np.ndarray) -> None:
        """Accumulate parameter gradients for the last training forward_batch.
        The first dense layer forms no input gradient."""
        g = self.dense[-1].backward(grad)
        for i in reversed(range(len(self.norms))):
            g = relu_backward(g, self._pre[i])
            if self.norms[i] is not None:
                g = self.norms[i].backward(g)
            g = self.dense[i].backward(g, input_grad=i > 0)


def train(cfg: TrainConfig, train_set, val_set=None) -> tuple[list[MetricsRecord], Mlp]:
    """Run the training loop and return (metrics records, trained network).

    Each epoch walks a fresh permutation in groups of batch_size samples,
    one optimizer step per group. The streaming normalizer sums per-sample
    gradients and keeps the trailing partial group; the other kinds average
    and drop it. exact-population takes one group of the whole set. A
    record's loss is the mean per-sample loss since the previous record.

    The run diverges at a step whose loss is not finite or exceeds
    divergence_limit, or at a record that finds the parameters' sum of
    squares, eps_y_max or eps_1_max not finite. The offending record is
    appended before DivergenceError is raised; the partial records stay
    available on the exception as exc.records.
    """
    cfg.validate()
    if train_set.n == 0:
        raise ValueError("training set is empty")
    if train_set.dim == 0:
        raise ValueError("training set has no features")
    rng = make_rng(cfg.seed)
    net = Mlp([train_set.dim] + [cfg.hidden] * cfg.depth + [train_set.n_classes], cfg, rng)
    sum_gradients = cfg.normalizer == "online"
    group = train_set.n if net.whole_set else cfg.batch_size
    if not sum_gradients and group > train_set.n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds training set size {train_set.n}")
    stop = train_set.n if sum_gradients else train_set.n - group + 1
    steps_per_epoch = len(range(0, stop, group))
    every, last_step = cfg.eval_interval or steps_per_epoch, cfg.epochs * steps_per_epoch
    records: list[MetricsRecord] = []
    step = 0
    losses: list[float] = []
    sizes: list[int] = []
    hits = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(train_set.n)
        xs, ys = train_set.x[order], train_set.labels[order]
        for start in range(0, stop, group):
            labels = ys[start : start + group]
            logits = net.forward_batch(xs[start : start + group], training=True)
            loss, probs = softmax_xent_forward(logits, labels)
            grad = softmax_xent_backward(probs, labels)
            if sum_gradients and group > 1:
                grad *= labels.size
            net.backward_batch(grad)
            sgd_momentum_step(net.params, cfg.eta, cfg.momentum, cfg.l2)
            step += 1
            losses.append(loss)
            sizes.append(labels.size)
            if val_set is None:
                hits += int((np.argmax(logits, axis=1) == labels).sum())
            diverged = not math.isfinite(loss) or abs(loss) > cfg.divergence_limit
            if not (diverged or step % every == 0 or step == last_step):
                continue
            if diverged:
                mean_loss, acc = loss, 0.0
            else:
                mean_loss = float(np.average(losses, weights=sizes))
                acc = hits / sum(sizes) if val_set is None else evaluate_accuracy(net, val_set)
            ey, e1 = net.eps_maxima()
            records.append(MetricsRecord(step, epoch, mean_loss, acc, net.weight_norm(), ey, e1))
            finite = math.isfinite(net.params.p @ net.params.p) and math.isfinite(ey) and math.isfinite(e1)
            if diverged or not finite:
                exc = DivergenceError(
                    f"loss diverged: {loss}" if diverged else f"parameters or accumulators diverged at step {step}"
                )
                exc.records = records
                raise exc
            losses, sizes, hits = [], [], 0
    return records, net


def evaluate_accuracy(net: Mlp, dataset) -> float:
    """Fraction of the set classified correctly; NaN for an empty set.

    The set runs through the network in consecutive blocks of _EVAL_BLOCK
    samples, so evaluation holds O(block x width) activations whatever the
    set's size, and the hits are counted exactly. A normalizer whose
    inference normalizes the presented set by its own statistics declares
    WHOLE_SET_INFERENCE and gets the whole set as one block.
    """
    if dataset.n == 0:
        return float("nan")
    block = dataset.n if net.whole_set else _EVAL_BLOCK
    hits = 0
    for start in range(0, dataset.n, block):
        logits = net.forward_batch(dataset.x[start : start + block], training=False)
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == dataset.labels[start : start + block]))
    return hits / dataset.n
