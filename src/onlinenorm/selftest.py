"""Invariant measurements shared by `onlinenorm selftest` and the acceptance suite.

Each measuring function returns the figures it measured and no verdict,
and depends only on its arguments: the input streams, or a seed and a
scale. The acceptance criteria call these functions with their own seeds
and scale and hold the figures to their own tolerances. CHECKS runs the
same measurements at a smaller scale with the selftest's tolerances, and
the CLI prints one PASS/FAIL line per row.

The oracles are written out here rather than derived from the kernel: the
control accumulator eps += x - (1 - alpha) * eps, the estimator recurrence
for mu_y, and central finite differences. Every sample-by-sample
measurement is one or two runs of stream, the kernel over consecutive
blocks, compared with an oracle. group_deviation, the one check of a group
against the stream, holds blocks of a training group's size against blocks
of one sample, which keep the recurrences' written order of operations.
Every "largest" is a numpy maximum, so a NaN figure comes back as NaN and
fails any tolerance; Python's max(worst, nan) would keep worst.
"""

from __future__ import annotations

import numpy as np

from . import online, reference
from .tensor import make_rng


def central_differences(loss, v: np.ndarray, h: float) -> np.ndarray:
    """(loss(v + h e_i) - loss(v - h e_i)) / 2h for each element i of v, shaped like v."""
    fd = np.empty(v.shape)
    for i in range(v.size):
        up, dn = v.copy(), v.copy()
        up.flat[i] += h
        dn.flat[i] -= h
        fd.flat[i] = (loss(up) - loss(dn)) / (2 * h)
    return fd


def stream(x, g, block: int, alpha_f: float, alpha_b: float):
    """Run the kernel forward, then backward, over consecutive blocks of `block` samples.

    x and g are (n, features) inputs and output gradients, or 1-D streams
    of n one-feature samples; g = None runs forwards only. Returns copies
    of the per-sample y, x' (None without g) and sigma each sample was
    divided by, all (n, features), and the (blocks, 4, features) rows of
    mu, var, eps_y and eps_1 after each block. The last block may be
    short.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
        g = None if g is None else np.asarray(g, dtype=np.float64).reshape(-1, 1)
    state = online.OnlineNormState(x.shape[1], alpha_f, alpha_b)
    starts = range(0, len(x), block)
    y, sigma = np.empty(x.shape), np.empty(x.shape)
    xg = None if g is None else np.empty(x.shape)
    states = np.empty((len(starts), 4, x.shape[1]))
    for i, start in enumerate(starts):
        part = slice(start, start + block)
        y[part] = online.forward_sample(state, x[part])
        sigma[part] = state.pending[1]
        if g is not None:
            xg[part] = online.backward_sample(state, g[part])
        states[i] = state.mu, state.var, state.eps_y, state.eps_1
    return y, xg, sigma, states


def forward_mean_gap(xs, alpha: float) -> float:
    """Largest gap between the running mean and (1 - alpha) * eps over the stream xs.

    eps is the forward control accumulator, eps_t = eps_{t-1} + x_t - (1 - alpha) eps_{t-1}.
    """
    mu = stream(xs, None, 1, alpha, 0.99)[3][:, 0, 0]
    gaps, eps = np.empty(len(mu)), 0.0
    for t, x in enumerate(xs):
        eps += x - (1.0 - alpha) * eps
        gaps[t] = abs(mu[t] - (1.0 - alpha) * eps)
    return float(gaps.max())


def backward_gap(pairs, alpha_b: float) -> float:
    """Largest gap between (1 - alpha_b) * eps_y and the estimator mu_y.

    Row t of the (N, 2) array pairs is sample t's input and output gradient g_t,
    and mu_y_t = (1 - (1 - alpha_b) y_t^2) mu_y_{t-1} + (1 - alpha_b) g_t y_t.
    The forward decay is pinned at 0.99, which keeps the normalized stream
    bounded.
    """
    y, _, _, states = stream(pairs[:, 0], pairs[:, 1], 1, 0.99, alpha_b)
    gaps, mu_y = np.empty(len(pairs)), 0.0
    for t, (yv, gv) in enumerate(zip(y[:, 0], pairs[:, 1])):
        mu_y = (1.0 - (1.0 - alpha_b) * yv * yv) * mu_y + (1.0 - alpha_b) * gv * yv
        gaps[t] = abs(mu_y - (1.0 - alpha_b) * states[t, 2, 0])
    return float(gaps.max())


def accumulator_maxima(pairs) -> tuple[float, float]:
    """Largest |eps_y| or |eps_1| over the first 1000 samples (head) and over the rest (tail).

    Both decays are 0.99; row t of the (N, 2) array pairs is sample t's
    input and output gradient.
    """
    mags = np.abs(stream(pairs[:, 0], pairs[:, 1], 1, 0.99, 0.99)[3][:, 2:, 0])
    return float(mags[:1000].max(initial=0.0)), float(mags[1000:].max(initial=0.0))


def group_deviation(x, g, block: int, alpha_f: float, alpha_b: float) -> float:
    """Largest gap between the kernel run on blocks and run one sample at a time.

    x and g are (n, features) inputs and output gradients. The grouped run
    streams blocks of `block` samples, the streamed run blocks of one. The
    gap covers y, x', the sigma each sample was divided by and every final
    state array, each relative to max(1, the largest |value| of the
    streamed run); it is exactly 0 when every value agrees bit for bit.
    """
    runs = [stream(x, g, size, alpha_f, alpha_b) for size in (block, 1)]
    grouped, streamed = ([*run[:3], *run[3][-1]] for run in runs)
    return float(np.max([np.abs(a - b).max() / np.maximum(1.0, np.abs(b).max()) for a, b in zip(grouped, streamed)]))


def exact_backward_errors(seed: int, reps: int, sizes=(2, 3, 10, 50)) -> tuple[float, float]:
    """Exact-normalization gradient against finite differences, and its orthogonality.

    For each population size in sizes, reps inputs x (scaled normal draws)
    and loss weights w; the loss is w . exact_normalize(x). Returns the
    largest finite-difference error relative to the largest difference
    quotient, and the largest |cosine| between a nonzero gradient and
    either the ones vector or y. Two-sample gradients are exactly zero
    and only enter the first figure.
    """
    rng = make_rng(seed)
    rel_errs, cosines = [], []
    for n in sizes:
        for _ in range(reps):
            x = rng.normal(size=n) * rng.uniform(0.5, 2.0)
            loss_w = rng.normal(size=n)
            y, _, sigma = reference.exact_normalize(x)
            got = reference.exact_backward(y, loss_w, sigma)
            fd = central_differences(
                lambda v: np.dot(loss_w, reference.exact_normalize(v)[0]), x, 1e-5
            )
            rel_errs.append(np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-30))
            norm = np.linalg.norm(got)
            if norm != 0:
                ones = np.ones(n)
                cosines.append(abs(np.dot(got, ones)) / (norm * np.linalg.norm(ones)))
                cosines.append(abs(np.dot(got, y)) / (norm * np.linalg.norm(y)))
    return float(np.max(rel_errs)), float(np.max(cosines, initial=0.0))


def batch_two_exactness(seed: int, pairs: int) -> tuple[bool, bool]:
    """Whether BatchNorm maps every two-sample batch to exactly (+-1, -+1), and
    whether every gradient it back-propagates through one is exactly zero."""
    rng = make_rng(seed)
    bn = reference.BatchNorm(1)
    exact_outputs = zero_grads = True
    for _ in range(pairs):
        y = bn.forward(rng.normal(0.0, 2.0, size=(2, 1)), training=True)
        a, b = y[0, 0], y[1, 0]
        exact_outputs = exact_outputs and abs(a) == 1.0 and abs(b) == 1.0 and a == -b
        g = bn.backward(rng.normal(size=(2, 1)))
        zero_grads = zero_grads and g[0, 0] == 0.0 and g[1, 0] == 0.0
    return bool(exact_outputs), bool(zero_grads)


def layer_scale_fd_error(seed: int, trials: int) -> float:
    """Largest finite-difference error of the layer-scaling gradient, relative
    to the largest difference quotient, over trials scaled normal samples of
    3 to 11 features."""
    rng = make_rng(seed)
    rel_errs = np.empty(trials)
    for t in range(trials):
        n = int(rng.integers(3, 12))
        y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        loss_w = rng.normal(size=n)
        z, zeta = online.layer_scale_forward(y[None])
        got = online.layer_scale_backward(loss_w[None], z, zeta)[0]
        fd = central_differences(
            lambda v: float(np.dot(loss_w, v / np.sqrt((v * v).mean()))), y, 1e-6
        )
        rel_errs[t] = np.abs(got - fd).max() / np.abs(fd).max()
    return float(rel_errs.max())


def _layer_scale_ms_error() -> float:
    z, _ = online.layer_scale_forward(make_rng(3).normal(size=(50, 32)))
    return float(np.abs((z**2).mean(axis=1) - 1.0).max())


def _roundtrip_mismatches() -> int:
    """Fields of a state that differ after save_state/load_state of it, once
    it holds the statistics a 50-sample block leaves."""
    x, g = make_rng(23).normal(size=(2, 50, 5))
    state = online.OnlineNormState(5, alpha_f=0.97, alpha_b=0.9)
    state.mu, state.var, state.eps_y, state.eps_1 = stream(x, g, 50, 0.97, 0.9)[3][-1]
    clone = online.load_state(online.save_state(state))
    fields = ("features", "alpha_f", "alpha_b", "mu", "var", "eps_y", "eps_1")
    return sum(not np.array_equal(getattr(clone, k), getattr(state, k)) for k in fields)


def _jacobian_gap() -> float:
    rng = make_rng(29)
    x = rng.normal(size=12)
    y, _, sigma = reference.exact_normalize(x)
    jac = reference.jacobian_dense(x)
    gaps = [np.abs(jac @ np.ones(12)).max()]
    for _ in range(10):
        g = rng.normal(size=12)
        gaps.append(np.abs(jac.T @ g - reference.exact_backward(y, g, sigma)).max())
    return float(np.max(gaps))


def _group_inputs(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n samples of 12 features drawn from N(3, 2), and N(0, 1) gradients."""
    rng = make_rng(seed)
    return rng.normal(3.0, 2.0, size=(n, 12)), rng.normal(size=(n, 12))


def _uniform(seed: int, size) -> np.ndarray:
    return make_rng(seed).uniform(-1.0, 1.0, size=size)


# One row per check: its name, its measurement at selftest scale as named
# figures, and the tolerance those figures must meet.
CHECKS = (
    ("forward mean control/estimator equivalence",
     lambda: {"max gap": np.max([forward_mean_gap(_uniform(7, 3000), a) for a in (0.5, 0.99, 0.999)])},
     lambda f: f["max gap"] < 1e-10),
    ("backward control/estimator equivalence",
     lambda: {"max gap": backward_gap(_uniform(11, (3000, 2)), 0.99)},
     lambda f: f["max gap"] < 1e-10),
    ("layer scaling pins mean square at one",
     lambda: {"max |ms-1|": _layer_scale_ms_error()},
     lambda f: f["max |ms-1|"] < 1e-12),
    ("layer scaling gradient vs finite differences",
     lambda: {"max rel err": layer_scale_fd_error(5, 20)},
     lambda f: f["max rel err"] < 1e-6),
    ("exact backward orthogonal to 1 and y",
     lambda: dict(zip(("fd rel err", "max rel dot"), exact_backward_errors(9, 50, sizes=(20,)))),
     lambda f: f["max rel dot"] < 1e-9 and f["fd rel err"] < 1e-6),
    ("batch-two output exactly +-1 with zero gradient",
     lambda: dict(zip(("exact outputs", "zero gradients"), batch_two_exactness(13, 100))),
     lambda f: f["exact outputs"] and f["zero gradients"]),
    ("backward accumulators stay bounded",
     lambda: dict(zip(("head", "tail"), accumulator_maxima(_uniform(17, (20_000, 2))))),
     lambda f: f["tail"] <= 10.0 * f["head"]),
    ("state serialization round-trips",
     lambda: {"differing fields": _roundtrip_mismatches()},
     lambda f: f["differing fields"] == 0),
    ("dense Jacobian consistent with backward",
     lambda: {"max gap": _jacobian_gap()},
     lambda f: f["max gap"] < 1e-10),
    ("grouped kernel matches single-sample calls",
     lambda: {"max gap": np.max([group_deviation(*_group_inputs(seed, n), max(1, n // 3), a, a)
                                 for seed in (41, 43, 47) for n in (2, 3, 8, 32) for a in (0.5, 0.99, 0.999)])},
     lambda f: f["max gap"] < 1e-10),
)


def _show(value) -> str:
    return str(value) if isinstance(value, (bool, int)) else f"{value:.3g}"


def run_selftest() -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for each row of CHECKS, in order."""
    results = []
    for name, measure, tolerance in CHECKS:
        figures = measure()
        detail = ", ".join(f"{label} {_show(v)}" for label, v in figures.items())
        results.append((name, bool(tolerance(figures)), detail))
    return results
