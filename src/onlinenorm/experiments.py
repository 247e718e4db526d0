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
from types import SimpleNamespace

import numpy as np

from .datasets import Dataset, DatasetSpec, make_synthetic_images
from .net import (
    Conv2D,
    DenseLayer,
    DivergenceError,
    Mlp,
    Params,
    TrainConfig,
    sgd_momentum_step,
    softmax_xent_backward,
    softmax_xent_forward,
)
from .online import OnlineNorm, backward_float, backward_sample, forward_float, forward_sample
from .online import layer_scale_backward, layer_scale_forward
from .reference import _normalize, _normalize_backward
from .tensor import SIGMA_FLOOR, make_rng, relu, relu_backward

# Fixed sizes. The gradient-bias network reads _SIDE x _SIDE single-channel
# images of _CLASSES classes through _CHANNELS 3x3 filters; the growth
# experiment runs _GROWTH_SAMPLES inputs; the equilibrium unit has _EQ_DIM
# inputs, records every _EQ_RECORD_EVERY-th step and draws its randomness
# _EQ_BLOCK steps at a time.
_SIDE, _CHANNELS, _CLASSES = 8, 8, 10
_GROWTH_SAMPLES = 256
_EQ_DIM, _EQ_RECORD_EVERY, _EQ_BLOCK = 16, 10, 1024


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
    """Fixed-weight conv -> batch-normalize -> ReLU -> dense -> softmax on a
    fixed dataset.

    The conv weights never change, so the conv runs once, over the whole
    dataset, when the net is built, and a pass gathers its samples'
    features: a sample's conv output has the same bits whichever samples it
    runs with. Each pass works in one workspace allocated then, two flat
    arrays of one conv output each and one of 1.125 for the conv backward's
    window copy, so it allocates no conv-output-sized array.

    One call takes `groups` equal batches at once, batch j being the
    contiguous run idx[j * b:(j + 1) * b]. The pass keeps the conv's
    channel-major layout, so each (channel, batch) pair is one contiguous
    row, normalized alone with the sums, in order, that BatchNorm takes
    over that batch's channel-major conv output: each batch gets its own
    BatchNorm's bits, forward and backward. A transposing ReLU writes the
    dense input, (n, channels * spatial), and a transposing copy reads its
    gradient back. The result equals the sum of one call per batch to
    within rounding.
    """

    def __init__(self, rng, x: np.ndarray):
        self.conv = Conv2D(1, _CHANNELS, 3, rng)
        self.flat = _CHANNELS * (_SIDE - 2) * (_SIDE - 2)
        self.dense = DenseLayer(self.flat, _CLASSES, rng, weight_scale=np.sqrt(1.0 / self.flat))
        self.params = Params([self.conv, self.dense])
        n = x.shape[0]
        # The conv emits channel-major output, so (channels, n, spatial) is a view of it.
        a = self.conv.forward(x.reshape(n, 1, _SIDE, _SIDE))
        self.features = a.transpose(1, 0, 2, 3).reshape(_CHANNELS, n, -1)
        size = self.features.size
        self.work = np.empty(size), np.empty(size), np.empty(self.conv.k[0].size * size // _CHANNELS)

    def gradient(self, idx: np.ndarray, labels: np.ndarray, groups: int = 1) -> np.ndarray:
        """Sum over the contiguous batches of samples idx of each one's
        mean-loss parameter gradient; labels are those samples' labels."""
        n, C = idx.size, _CHANNELS
        size = C * n * self.features.shape[2]
        first, second, windows = self.work
        # Mode "clip" takes straight into out; the default "raise" would buffer it.
        x = np.take(self.features, idx, axis=1, out=first[:size].reshape(C, n, -1), mode="clip")
        x = x.reshape(C * groups, -1)  # one row per (channel, batch)
        y, _, _, sigma = _normalize(x, 1, out=x, square=second[:size].reshape(x.shape))
        h = second[:size].reshape(n, self.flat)  # the dense input, then the channel-major gradient
        np.maximum(y.reshape(C, n, -1).transpose(1, 0, 2), 0.0, out=h.reshape(n, C, -1))
        _, probs = softmax_xent_forward(self.dense.forward(h), labels)
        # The loss averages over all n samples; each batch's averages over b.
        d_h = windows[:size].reshape(h.shape)
        self.dense.backward(softmax_xent_backward(probs, labels) * groups, out=d_h)
        g = h.reshape(y.shape)
        np.copyto(g.reshape(C, n, -1), d_h.reshape(n, C, -1).transpose(1, 0, 2))
        # relu_backward in place, its 0/1 mask in the free window buffer
        bits = g.view(np.int64)
        mask = np.greater(y, 0.0, out=windows[:size].view(np.int64).reshape(g.shape))
        np.multiply(bits, mask, out=bits)
        g = _normalize_backward(g, y, sigma, 1, out=g, coupling=windows[:size].reshape(g.shape))
        g = g.reshape(C, n, _SIDE - 2, _SIDE - 2).transpose(1, 0, 2, 3)  # (n, C, h, w), channel-major
        self.conv.backward(g, idx, (windows, first))
        flat = self.params.g.copy()
        self.params.g[...] = 0.0
        return flat


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
    network, each batch normalized with the bits of its own BatchNorm; the
    angle of their summed gradient is that of their average. The rows equal
    those of one gradient call per batch to within rounding.
    The full-dataset batch is always appended, is one group, and must come
    out at zero angle; so a batch size may not repeat or equal the dataset
    size.
    """
    # The full-population batch is batch-normalized too, so it needs two samples.
    if dataset_size < 2:
        raise ValueError(f"dataset size (--samples) must be >= 2, got {dataset_size}")
    if repetitions < 1:
        raise ValueError(f"repetitions (--reps) must be >= 1, got {repetitions}")
    batch_sizes = list(batch_sizes)
    if not batch_sizes:
        raise ValueError("batch sizes (--batch-sizes) must be nonempty")
    if len(set(batch_sizes)) < len(batch_sizes):
        raise ValueError(f"batch sizes (--batch-sizes) {batch_sizes} repeat a size")
    for b in batch_sizes:
        if b == dataset_size:
            raise ValueError(
                f"batch size {b} (--batch-sizes) is the dataset size (--samples), whose row is always appended"
            )
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
    net = _BiasNet(rng, data.x)
    truth = net.gradient(np.arange(dataset_size), data.labels)

    sizes = batch_sizes + [dataset_size]
    means, stds = [], []
    for b in sizes:
        angles = []
        for _ in range(repetitions):
            sel = rng.permutation(dataset_size)
            g = net.gradient(sel, data.labels[sel], dataset_size // b)
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
    is 0 or not finite, where log(RMS) has no finite value, raises
    DivergenceError naming the first such layer.
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
                d = a - mu
            else:
                # a.mean(0) and a.std(0): numpy's own sums and divisions, from one centered d.
                mu = np.add.reduce(a, 0) / _GROWTH_SAMPLES
                d = a - mu
                sigma = np.maximum(np.sqrt(np.add.reduce(d * d, 0) / _GROWTH_SAMPLES), SIGMA_FLOOR)
                mus.append(mu)
                sigmas.append(sigma)
            y = d / np.maximum(sigma, SIGMA_FLOOR)
            if layer_scaling:
                y = layer_scale_forward(y)[0]
            if perturbed:
                rms[i] = np.sqrt((y * y).mean())
            h = relu(y)
    bad = np.flatnonzero(~((0.0 < rms) & (rms < math.inf)))
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
        wn, gn = self.weight_norm, self.grad_norm
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(gn > 0, wn / (self.law_scale * gn), np.nan)
        return zip(self.steps.tolist(), wn.tolist(), gn.tolist(), ratio.tolist())


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
    not finite raises DivergenceError. An eta and l2 whose law scale
    sqrt(eta / (2 * l2)) is not finite and > 0, or whose product is 2 or
    more, where decay multiplies |w| by |1 - eta * l2| >= 1, raise
    ValueError before any step.

    The unit holds w as a float scale times a vector v: L2 decay is one
    float multiply, and the rest of the update one axpy on v. The scale is
    folded into v before the update on every record step, whose weight norm
    is then |v|, and whenever |scale| leaves [2**-64, 2**64] (at once if
    eta * l2 = 1). |w'| is |x'| * |u|, each |u| taken once per draw block.

    The normalizer is the kernel's one-value float steps: forward_float,
    then backward_float with the ms divisor, the unit holding mu, var,
    eps_y, eps_1 and ms itself. A run gives the bits of a one-feature
    OnlineNormState stepped by forward_sample and backward_sample with its
    pending sigma replaced by that divisor. The float steps differ from
    the array step only in NaN signs, and no NaN reaches the records: a
    NaN entering a step makes its x' NaN, and the gradient-norm check raises.

    The seed's stream is drawn in this order: first w, then for each block
    of _EQ_BLOCK steps its _EQ_BLOCK x _EQ_DIM standard normal inputs, then
    its _EQ_BLOCK signs. Every block is drawn whole, the last one too, so a
    run is a prefix of any longer run with the same arguments, and memory
    does not grow with the step count.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta (--eta) must be finite and > 0, got {eta}")
    if not 0.0 < l2 < math.inf:
        raise ValueError(f"l2 (--l2) must be finite and > 0, got {l2}")
    # Else the ratio column reads 0 or inf whatever the run does.
    if not 0.0 < eta / (2.0 * l2) < math.inf:
        raise ValueError(
            f"l2 (--l2) {l2} with eta (--eta) {eta}: the law scale sqrt(eta / (2 * l2)) "
            "must be finite and > 0"
        )
    # At eta * l2 >= 2 the decay factor 1 - eta * l2 is <= -1: L2 decay alone no longer shrinks |w|.
    if not eta * l2 < 2.0:
        raise ValueError(
            f"eta (--eta) {eta} times l2 (--l2) {l2} is {eta * l2}: L2 decay shrinks |w| only below 2"
        )
    if steps < 1:
        raise ValueError(f"steps (--steps) must be >= 1, got {steps}")
    rng = make_rng(seed)
    v = rng.normal(0.0, 1.0 / np.sqrt(_EQ_DIM), size=_EQ_DIM)
    scale, decay = 1.0, 1.0 - eta * l2
    af = ab = 0.99
    cb = 1.0 - ab
    mu, var, eps_y, eps_1, ms = 0.0, 1.0, 0.0, 0.0, 1.0
    rec_steps, rec_wnorm, rec_gnorm = [], [], []
    for t in range(steps):
        i = t % _EQ_BLOCK
        if i == 0:
            inputs = rng.standard_normal((_EQ_BLOCK, _EQ_DIM))
            u_norms = np.linalg.norm(inputs, axis=1).tolist()
            # y' = -s for the supervision sign s drawn as an index into (-1, 1).
            y_grads = (1.0 - 2.0 * rng.integers(0, 2, size=_EQ_BLOCK)).tolist()
        u = inputs[i]
        # The float steps' NaN signs may differ from the array step's; a NaN
        # entering a step makes its x' NaN, so the gnorm check below raises
        # at that step and no NaN's bits reach the records.
        mu, var, y, _ = forward_float(mu, var, scale * v.dot(u).item(), af)
        divisor = max(math.sqrt(ms), SIGMA_FLOOR)
        eps_y, eps_1, x_grad = backward_float(eps_y, eps_1, y, divisor, y_grads[i], ab)
        ms = ab * ms + cb * (x_grad * x_grad)
        gnorm = abs(x_grad) * u_norms[i]
        if not math.isfinite(gnorm):
            raise DivergenceError(f"gradient diverged at step {t}")
        scale *= decay
        record = t % _EQ_RECORD_EVERY == 0
        if record or not 2.0**-64 <= abs(scale) <= 2.0**64:
            v *= scale
            scale = 1.0
        v -= (eta * x_grad / scale) * u
        if record:
            wnorm = math.sqrt(v.dot(v))
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


@np.errstate(all="ignore")  # a divergent cell is recorded, not warned about
def decay_sweep(
    alpha_f_grid, alpha_b_grid, base_cfg: TrainConfig, train_set: Dataset
) -> SweepResult:
    """Final training loss of the streaming-normalizer MLP per decay pair.

    The cells run side by side as one stacked network, each with its own
    weights, decays, layer scaling, loss and divergence, and every per-cell
    sum in train()'s order: each loss has the bits of its own train() run.
    A divergent cell is recorded (loss = inf, diverged = 1), not fatal, and
    zeroed (normalizer var 1) so that it stays finite while the rest go on.
    """
    af = list(alpha_f_grid)
    ab = list(alpha_b_grid)
    for flag, grid in (("--alpha-f-grid", af), ("--alpha-b-grid", ab)):
        if not grid:
            raise ValueError(f"decay grid ({flag}) must be nonempty")
        for v in grid:
            if not 0.0 < v < 1.0:
                raise ValueError(f"decay {v} in {flag} outside (0, 1)")
    cfg = replace(base_cfg, normalizer="online", alpha_f=af[0], alpha_b=ab[0])
    cfg.validate()
    if train_set.n == 0 or train_set.dim == 0:
        raise ValueError("training set is empty" if train_set.n == 0 else "training set has no features")
    # Cell i * len(ab) + j has decays (af[i], ab[j]); train(cfg)'s weights and data order serve every cell.
    C, H, rng = len(af) * len(ab), cfg.hidden, make_rng(cfg.seed)
    net = Mlp([train_set.dim] + [H] * cfg.depth + [train_set.n_classes], cfg, rng)
    # Cell-major parameters, dense weights (C, out, in) and normalizer gains (C * H,); owner: each one's cell.
    dense = [SimpleNamespace(PARAMS=("w", "b"), **{k: np.stack([getattr(d, k)] * C) for k in ("w", "b", "d_w", "d_b")})
             for d in net.dense]
    norms = [OnlineNorm(C * H, np.repeat(af, len(ab) * H), np.tile(np.repeat(ab, H), len(af))) for _ in net.norms]
    params = Params(dense + norms)
    owner = np.concatenate([np.repeat(np.arange(C), getattr(m, k).size // C) for m in dense + norms for k in m.PARAMS])
    starts = range(0, train_set.n, cfg.batch_size)
    every, last_step = cfg.eval_interval or len(starts), cfg.epochs * len(starts)
    orders = (rng.permutation(train_set.n) for _ in range(cfg.epochs))
    groups = (order[start : start + cfg.batch_size] for order in orders for start in starts)
    final, diverged, losses, sizes = np.full(C, np.inf), np.zeros(C, dtype=bool), [], []
    for step, group in enumerate(groups, 1):
        loss = _stacked_step(train_set.x[group], train_set.labels[group], dense, norms)
        sgd_momentum_step(params, cfg.eta, cfg.momentum, cfg.l2)
        losses.append(loss)
        sizes.append(group.size)
        bad = ~np.isfinite(loss) | (np.abs(loss) > cfg.divergence_limit)
        if step % every == 0 or step == last_step:
            bad |= ~np.isfinite(np.bincount(owner, weights=params.p * params.p, minlength=C))
            for m in norms:
                bad |= ~(np.isfinite(m.state.eps_y) & np.isfinite(m.state.eps_1)).reshape(C, H).all(axis=1)
            if step == last_step:  # np.average of one cell's losses, as train() takes it of its list
                final = np.array([np.average(row, weights=sizes) for row in np.array(losses).T])
            losses, sizes = [], []
        if bad.any():
            diverged |= bad
            params.p[bad[owner]] = params.v[bad[owner]] = 0.0
            f = np.repeat(bad, H)
            for m in norms:
                m.state.mu[f], m.state.var[f], m.state.eps_y[f], m.state.eps_1[f] = 0.0, 1.0, 0.0, 0.0
            if diverged.all():
                break
    final[diverged] = np.inf
    return SweepResult(af, ab, final.reshape(len(af), len(ab)), diverged.reshape(len(af), len(ab)))


def _stacked_step(x, labels, dense, norms) -> np.ndarray:
    """One training group through every cell, gradients accumulated; the (C,) per-cell losses.

    The kernel takes (n, C * H) blocks, layer scaling (n * C, H) rows, and the dense layers
    (C, n, F) stacks of contiguous matrices: BLAS gives a strided matrix-vector operand other bits.
    """
    n, C = len(labels), dense[0].w.shape[0]

    def cells(a):  # (n, C * F) -> (C, n, F)
        return np.ascontiguousarray(a.reshape(n, C, -1).transpose(1, 0, 2))

    def samples(a):  # (C, n, F) -> (n, C * F)
        return a.transpose(1, 0, 2).reshape(n, -1)

    ins, kept = [x], []  # each dense layer's input; the first broadcasts x to every cell
    for d, m in zip(dense, norms):
        y = forward_sample(m.state, samples(np.matmul(ins[-1], d.w.transpose(0, 2, 1)) + d.b[:, None]))
        z, zeta = layer_scale_forward((m.gain * y + m.bias).reshape(n * C, -1))
        kept.append((y, z, zeta))
        ins.append(cells(relu(z)))
    logits = np.matmul(ins[-1], dense[-1].w.transpose(0, 2, 1)) + dense[-1].b[:, None]
    # softmax_xent_forward and _backward per cell, each cell's samples contiguous.
    expd = np.exp(logits - np.maximum.reduce(logits, axis=2, keepdims=True))
    probs = expd / np.add.reduce(expd, axis=2, keepdims=True)
    picked = np.ascontiguousarray(probs[:, np.arange(n), labels])
    loss = np.add.reduce(-np.log(np.maximum(picked, 1e-300)), axis=1) / n
    if n == 1:
        loss += 0.0  # a one-term loss reads -0.0 as +0.0
    probs[:, np.arange(n), labels] -= 1.0
    grad = probs / n * n  # train() sums an online group's gradients: the mean loss's, times n
    for i in reversed(range(len(dense))):
        if i < len(norms):  # back through ReLU and normalizer i
            y, z, zeta = kept[i]
            gz = layer_scale_backward(relu_backward(g.reshape(z.shape), z), z, zeta).reshape(n, -1)
            g = backward_sample(norms[i].state, norms[i].gain * gz)
            norms[i].d_gain += np.add.reduce(gz * y, axis=0)
            norms[i].d_bias += np.add.reduce(gz, axis=0)
            grad = cells(g)
        dense[i].d_w += np.matmul(grad.transpose(0, 2, 1), ins[i])
        dense[i].d_b += np.add.reduce(grad, axis=1)
        if i > 0:
            g = samples(np.matmul(grad, dense[i].w))
    return loss
