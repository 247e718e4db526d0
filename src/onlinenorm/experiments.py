"""Desk-scale diagnostic experiments.

Three phenomena around normalized networks, each reduced to a synthetic
setup small enough to verify in seconds:

* gradient bias: batch-estimated gradients of a normalized network tilt
  away from the full-population gradient as the batch shrinks;
* activation growth: systematic errors in per-layer normalization
  statistics compound exponentially with depth unless a per-sample RMS
  rescaling is inserted;
* weight equilibrium: with a normalizer absorbing weight scale, L2 decay
  balances gradient growth at |w| = sqrt(eta / (2 * lambda)) * E|w'|.

Plus a decay-factor grid sweep. Every experiment is a pure function of its
configuration and seed and returns a result; the CLI writes each result as
one CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import Dataset, DatasetSpec, make_synthetic_images
from .net import (
    Conv2D,
    DenseLayer,
    DivergenceError,
    Params,
    TrainConfig,
    softmax_xent_backward,
    softmax_xent_forward,
    train,
)
from .online import OnlineNormState, backward_sample, forward_sample, layer_scale_forward
from .reference import BatchNorm
from .tensor import SIGMA_FLOOR, make_rng, relu, relu_backward

# Fixed sizes. The gradient-bias network reads _SIDE x _SIDE single-channel
# images of _CLASSES classes through _CHANNELS 3x3 filters; the growth
# experiment runs _GROWTH_SAMPLES inputs; the equilibrium unit has _EQ_DIM
# inputs and records every _EQ_RECORD_EVERY-th step.
_SIDE, _CHANNELS, _CLASSES = 8, 8, 10
_GROWTH_SAMPLES = 256
_EQ_DIM, _EQ_RECORD_EVERY = 16, 10


@dataclass
class BiasReport:
    """Per batch size: mean and standard deviation of the gradient angle."""

    batch_sizes: list[int]
    mean_angle_deg: list[float]
    std_angle_deg: list[float]

    def as_rows(self):
        return list(zip(self.batch_sizes, self.mean_angle_deg, self.std_angle_deg))


@dataclass
class GrowthProfile:
    """Per-layer RMS activation magnitude for one perturbation setting."""

    rms: np.ndarray

    def log_rms_slope(self) -> float:
        """Least-squares slope of log(rms) against layer index."""
        x = np.arange(self.rms.size, dtype=np.float64)
        y = np.log(self.rms)
        x = x - x.mean()
        return float(np.dot(x, y - y.mean()) / np.dot(x, x))


def _angle_deg(g: np.ndarray, ref: np.ndarray) -> float:
    cos = float(np.dot(g, ref) / (np.linalg.norm(g) * np.linalg.norm(ref)))
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


class _BiasNet:
    """Fixed-weight conv -> batch-normalize -> ReLU -> dense -> softmax.

    One call takes `groups` equal batches at once, interleaved: sample
    r * groups + j is sample r of batch j. The conv output of b * groups
    samples then reshapes to (b, groups * channels, spatial), whose
    features are (batch, channel) pairs, so one BatchNorm normalizes each
    batch with its own statistics. With fixed weights the batches are
    independent, and the result equals the sum of one call per batch to
    within rounding: the sums over samples run in a different order.
    """

    def __init__(self, rng):
        self.conv = Conv2D(1, _CHANNELS, 3, rng)
        self.flat = _CHANNELS * (_SIDE - 2) * (_SIDE - 2)
        self.dense = DenseLayer(self.flat, _CLASSES, rng, weight_scale=np.sqrt(1.0 / self.flat))
        self.params = Params([self.conv, self.dense])

    def gradient(self, x: np.ndarray, labels: np.ndarray, groups: int = 1) -> np.ndarray:
        """Sum over the interleaved batches of each one's mean-loss parameter gradient."""
        n = x.shape[0]
        b = n // groups
        images = x.reshape(n, 1, _SIDE, _SIDE)
        a = self.conv.forward(images)
        norm = BatchNorm(groups * _CHANNELS)
        spatial = a.shape[2] * a.shape[3]
        an = norm.forward(a.reshape(b, groups * _CHANNELS, spatial), training=True)
        h = relu(an)
        logits = self.dense.forward(h.reshape(n, self.flat))
        _, probs = softmax_xent_forward(logits, labels)
        # The loss averages over all n samples; each batch's averages over b.
        g = softmax_xent_backward(probs, labels) * groups
        gh = self.dense.backward(g).reshape(b, groups * _CHANNELS, spatial)
        gn = norm.backward(relu_backward(gh, an))
        self.conv.backward(gn.reshape(a.shape))
        flat = self.params.g.copy()
        self.params.g[...] = 0.0
        return flat


def _interleave(order: np.ndarray, b: int) -> np.ndarray:
    """Reorder so that sample r * groups + j is order[j * b + r], sample r of batch j."""
    return order.reshape(-1, b).T.ravel()


def gradient_bias_experiment(
    seed: int,
    dataset_size: int = 2048,
    batch_sizes=(2, 4, 8, 16, 32, 64),
    repetitions: int = 10,
) -> BiasReport:
    """Angle between batch-averaged and full-population gradients.

    Weights stay fixed so the angle isolates the estimation bias of
    normalizing per batch. Each repetition splits a fresh permutation into
    contiguous batches and runs them all through one grouped pass of the
    network; the angle of their summed gradient is that of their average.
    The rows equal those of one gradient call per batch to within rounding.
    The full-dataset batch is always appended, is one group, and must come
    out at zero angle.
    """
    # The full-population batch is batch-normalized too, so it needs two samples.
    if dataset_size < 2:
        raise ValueError(f"dataset size (--samples) must be >= 2, got {dataset_size}")
    if repetitions < 1:
        raise ValueError(f"repetitions (--reps) must be >= 1, got {repetitions}")
    for b in batch_sizes:
        if b < 2:
            raise ValueError(
                f"batch size {b} (--batch-sizes) below the batch-normalization minimum of 2"
            )
        if dataset_size % b != 0:
            raise ValueError(
                f"dataset size {dataset_size} (--samples) not divisible by batch {b} (--batch-sizes)"
            )
    rng = make_rng(seed)
    spec = DatasetSpec(
        kind="synthetic-images",
        classes=_CLASSES,
        samples=dataset_size,
        image_side=_SIDE,
        class_scale=1.0,
        noise=0.5,
        brightness=3.0,
    )
    data = make_synthetic_images(spec, seed)
    net = _BiasNet(rng)
    truth = net.gradient(data.x, data.labels)

    sizes = list(batch_sizes) + [dataset_size]
    means, stds = [], []
    for b in sizes:
        angles = []
        for _ in range(repetitions):
            sel = _interleave(rng.permutation(dataset_size), b)
            g = net.gradient(data.x[sel], data.labels[sel], dataset_size // b)
            angles.append(_angle_deg(g, truth))
        means.append(float(np.mean(angles)))
        stds.append(float(np.std(angles)))
    return BiasReport(sizes, means, stds)


def activation_growth_experiment(
    depth: int,
    width: int = 32,
    noise: float = 0.0,
    sigma_down: float = 0.0,
    layer_scaling: bool = False,
    seed: int = 0,
) -> GrowthProfile:
    """RMS of per-layer activations under perturbed normalization statistics.

    A clean pass through the dense/normalize/ReLU chain computes exact
    population statistics per layer. Those coefficients are then perturbed
    (multiplicative lognormal on sigma, additive Gaussian on mu, and a
    systematic (1 - sigma_down) shrink of sigma) and inference is rerun.
    Because downstream coefficients were fit to the clean network, errors
    compound through depth; RMS is recorded after normalization (and after
    the optional per-sample RMS rescaling), before ReLU. A layer whose RMS
    is not finite raises DivergenceError naming the first such layer.
    """
    # Each check is written so that NaN fails it. A slope needs two layers.
    if depth < 2:
        raise ValueError(f"depth (--depth) must be >= 2, got {depth}")
    if width < 1:
        raise ValueError(f"width (--width) must be >= 1, got {width}")
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise (--noise) must be finite and >= 0, got {noise}")
    if not 0.0 <= sigma_down < 1.0:
        raise ValueError(f"sigma_down (--sigma-down) must be in [0, 1), got {sigma_down}")
    rng = make_rng(seed)
    x0 = rng.normal(size=(_GROWTH_SAMPLES, width))
    weights = [rng.normal(0.0, np.sqrt(2.0 / width), size=(width, width)) for _ in range(depth)]

    # The clean pass stores each layer's exact population coefficients, with
    # sigma floored; the perturbed pass reruns inference with them perturbed.
    mus, sigmas = [], []
    rms = np.empty(depth)
    for perturbed in (False, True):
        h = x0
        for i, w in enumerate(weights):
            a = h @ w.T
            if perturbed:
                mu, sigma = mus[i], sigmas[i] * (1.0 - sigma_down)
                if noise > 0.0:
                    sigma = sigma * np.exp(noise * rng.normal(size=width))
                    mu = mu + noise * sigmas[i] * rng.normal(size=width)
            else:
                mu, sigma = a.mean(axis=0), np.maximum(a.std(axis=0), SIGMA_FLOOR)
                mus.append(mu)
                sigmas.append(sigma)
            y = (a - mu) / np.maximum(sigma, SIGMA_FLOOR)
            if layer_scaling:
                y = layer_scale_forward(y[:, :, None])[0][:, :, 0]
            if perturbed:
                rms[i] = np.sqrt((y * y).mean())
            h = relu(y)
    bad = np.flatnonzero(~np.isfinite(rms))
    if bad.size:
        raise DivergenceError(f"activation RMS diverged at layer {bad[0]}: {rms[bad[0]]}")
    return GrowthProfile(rms)


@dataclass
class EquilibriumResult:
    steps: np.ndarray
    weight_norm: np.ndarray
    grad_norm: np.ndarray
    eta: float
    l2: float

    @property
    def law_scale(self) -> float:
        """sqrt(eta / 2 lambda), the equilibrium law's |w| per unit of E|w'|."""
        return np.sqrt(self.eta / (2.0 * self.l2))

    def final_quartile_ratio(self) -> float:
        """|w| / (sqrt(eta / 2 lambda) * E|w'|) over the last quarter of steps."""
        q = self.steps.size * 3 // 4
        expected = self.law_scale * self.grad_norm[q:].mean()
        return float(self.weight_norm[q:].mean() / expected)

    def rows(self):
        """(step, |w|, |w'|, ratio) per record, the ratio being |w| / (law_scale * |w'|).

        The ratio is NaN where |w'| is 0.
        """
        scale = self.law_scale
        for t, wn, gn in zip(self.steps, self.weight_norm, self.grad_norm):
            ratio = float(wn / (scale * gn)) if gn > 0 else float("nan")
            yield int(t), float(wn), float(gn), ratio


def equilibrium_experiment(eta: float, l2: float, steps: int, seed: int) -> EquilibriumResult:
    """Weight-norm equilibrium of a single normalized linear unit.

    A bias-free linear unit feeds the streaming normalizer under random
    unit-magnitude supervision (loss -s * y with s = +-1), so the loss
    gradient never vanishes and |y'| = 1. The backward's first stage divides
    by max(sqrt(ms), floor) in place of the forward sigma, where ms is the
    running mean square of the produced gradient x' (ms = 1 at the start,
    then a_b * ms + (1 - a_b) * x'^2 after each backward). That makes E|w'|
    invariant to weight scale and so reproduces the first-moment
    equilibrium law directly. Plain SGD with L2 decay; |w'| records the
    loss gradient only. A gradient norm, or a recorded weight norm, that is
    not finite raises DivergenceError.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta (--eta) must be finite and > 0, got {eta}")
    if not 0.0 < l2 < math.inf:
        raise ValueError(f"l2 (--l2) must be finite and > 0, got {l2}")
    if steps < 1:
        raise ValueError(f"steps (--steps) must be >= 1, got {steps}")
    rng = make_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(_EQ_DIM), size=_EQ_DIM)
    state = OnlineNormState(1, alpha_f=0.99, alpha_b=0.99)
    ab, cb, ms = state.alpha_b, 1.0 - state.alpha_b, 1.0
    rec_steps, rec_wnorm, rec_gnorm = [], [], []
    # One-sample blocks rewritten every step; the layer keeps neither of them.
    # y' = -s for the supervision sign s drawn as an index into (-1, 1).
    a, y_grad, signs = np.empty((1, 1, 1)), np.empty((1, 1, 1)), (1.0, -1.0)
    for t in range(steps):
        u = rng.normal(size=_EQ_DIM)
        a[0, 0, 0] = np.dot(w, u)
        forward_sample(state, a)
        state.pending[1][0, 0] = max(math.sqrt(ms), SIGMA_FLOOR)
        y_grad[0, 0, 0] = signs[rng.integers(0, 2)]
        x_grad = float(backward_sample(state, y_grad)[0, 0, 0])
        ms = ab * ms + cb * (x_grad * x_grad)
        g = x_grad * u
        gnorm = math.sqrt(g.dot(g))
        if not math.isfinite(gnorm):
            raise DivergenceError(f"gradient diverged at step {t}")
        w = w - eta * (g + l2 * w)
        if t % _EQ_RECORD_EVERY == 0:
            wnorm = math.sqrt(w.dot(w))
            if not math.isfinite(wnorm):
                raise DivergenceError(f"weight norm diverged at step {t}")
            rec_steps.append(t)
            rec_wnorm.append(wnorm)
            rec_gnorm.append(gnorm)
    return EquilibriumResult(
        np.array(rec_steps), np.array(rec_wnorm), np.array(rec_gnorm), eta, l2
    )


@dataclass
class SweepResult:
    alpha_f_grid: list[float]
    alpha_b_grid: list[float]
    final_loss: np.ndarray
    diverged: np.ndarray

    def as_rows(self):
        rows = []
        for i, af in enumerate(self.alpha_f_grid):
            for j, ab in enumerate(self.alpha_b_grid):
                rows.append((float(af), float(ab), float(self.final_loss[i, j]), int(self.diverged[i, j])))
        return rows


def decay_sweep(
    alpha_f_grid, alpha_b_grid, base_cfg: TrainConfig, train_set: Dataset
) -> SweepResult:
    """Final training loss of the streaming-normalizer MLP per decay pair.

    Divergent cells are recorded (loss = inf, diverged = 1), not fatal.
    """
    af = list(alpha_f_grid)
    ab = list(alpha_b_grid)
    for flag, grid in (("--alpha-f-grid", af), ("--alpha-b-grid", ab)):
        if not grid:
            raise ValueError(f"decay grid ({flag}) must be nonempty")
        for v in grid:
            if not 0.0 < v < 1.0:
                raise ValueError(f"decay {v} in {flag} outside (0, 1)")
    losses = np.empty((len(af), len(ab)))
    diverged = np.zeros((len(af), len(ab)), dtype=bool)
    for i, a_f in enumerate(af):
        for j, a_b in enumerate(ab):
            cfg = replace(base_cfg, normalizer="online", alpha_f=a_f, alpha_b=a_b)
            try:
                records, _ = train(cfg, train_set)
                losses[i, j] = records[-1].loss
            except DivergenceError:
                losses[i, j] = np.inf
                diverged[i, j] = True
    return SweepResult(af, ab, losses, diverged)
