"""Invariant measurements shared by `onlinenorm selftest` and the acceptance suite.

Each measuring function returns the figures it measured and no verdict,
and depends only on its arguments: the input streams, or a seed and a
scale. The acceptance criteria call these functions with their own seeds
and scale and hold the figures to their own tolerances. CHECKS runs the
same measurements at a smaller scale with the selftest's tolerances, and
the CLI prints one PASS/FAIL line per row.

The oracles are written out here rather than derived from the kernel: the
control accumulator eps += x - (1 - alpha) * eps, the estimator recurrence
for mu_y, the closed-form group emulation, and central finite differences.
The streaming measurements feed the kernel one (1, 1, 1) block per sample;
group_deviation holds the kernel's scan over a block against its own
one-sample steps, which keep the recurrences' written order of operations.
Every "largest" is a numpy maximum, so a NaN figure comes back as NaN and
fails any tolerance; Python's max(worst, nan) would keep worst.
"""

from __future__ import annotations

import numpy as np

from . import emulation, online, reference
from .tensor import make_rng


def _steps(xs) -> np.ndarray:
    """A 1-D stream as consecutive (1, 1, 1) sample blocks."""
    return np.reshape(np.asarray(xs, dtype=np.float64), (-1, 1, 1, 1))


def _pair_steps(pairs) -> np.ndarray:
    """An (N, 2) stream of (input, gradient) rows as N pairs of (1, 1, 1) blocks."""
    return np.reshape(np.asarray(pairs, dtype=np.float64), (-1, 2, 1, 1, 1))


def central_differences(loss, v: np.ndarray, h: float) -> np.ndarray:
    """(loss(v + h e_i) - loss(v - h e_i)) / 2h for each element i of v, shaped like v."""
    fd = np.empty(v.shape)
    for i in range(v.size):
        up, dn = v.copy(), v.copy()
        up.flat[i] += h
        dn.flat[i] -= h
        fd.flat[i] = (loss(up) - loss(dn)) / (2 * h)
    return fd


def forward_mean_gap(xs, alpha: float) -> float:
    """Largest gap between the running mean and (1 - alpha) * eps over the stream xs.

    eps is the forward control accumulator, eps_t = eps_{t-1} + x_t - (1 - alpha) eps_{t-1}.
    """
    state = online.OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    steps = _steps(xs)
    gaps = np.empty(len(steps))
    eps = 0.0
    for t, x in enumerate(steps):
        online.forward_sample(state, x)
        eps += x[0, 0, 0] - (1.0 - alpha) * eps
        gaps[t] = abs(state.mu[0] - (1.0 - alpha) * eps)
    return float(gaps.max())


def backward_gap(pairs, alpha_b: float) -> float:
    """Largest gap between (1 - alpha_b) * eps_y and the estimator mu_y.

    Row t of the (N, 2) array pairs is sample t's input and output gradient g_t,
    and mu_y_t = (1 - (1 - alpha_b) y_t^2) mu_y_{t-1} + (1 - alpha_b) g_t y_t.
    The forward decay is pinned at 0.99, which keeps the normalized stream
    bounded.
    """
    state = online.OnlineNormState(1, alpha_f=0.99, alpha_b=alpha_b)
    steps = _pair_steps(pairs)
    gaps = np.empty(len(steps))
    mu_y = 0.0
    for t, (x, g) in enumerate(steps):
        y = online.forward_sample(state, x)
        online.backward_sample(state, g)
        yv, gv = y[0, 0, 0], g[0, 0, 0]
        mu_y = (1.0 - (1.0 - alpha_b) * yv * yv) * mu_y + (1.0 - alpha_b) * gv * yv
        gaps[t] = abs(mu_y - (1.0 - alpha_b) * state.eps_y[0])
    return float(gaps.max())


def accumulator_maxima(pairs) -> tuple[float, float]:
    """Largest |eps_y| or |eps_1| over the first 1000 samples (head) and over the rest (tail).

    Both decays are 0.99; row t of the (N, 2) array pairs is sample t's
    input and output gradient.
    """
    state = online.OnlineNormState(1, alpha_f=0.99, alpha_b=0.99)
    steps = _pair_steps(pairs)
    accs = np.empty((len(steps), 2))
    for t, (x, g) in enumerate(steps):
        online.forward_sample(state, x)
        online.backward_sample(state, g)
        accs[t] = state.eps_y[0], state.eps_1[0]
    mags = np.abs(accs)
    return float(mags[:1000].max(initial=0.0)), float(mags[1000:].max(initial=0.0))


def emulation_deviation(xs: np.ndarray, n: int, alpha: float) -> float:
    """Largest gap between the streaming kernel's mean/variance trajectory and emulate_stream's."""
    mus, vars_ = emulation.emulate_stream(xs, n, alpha)
    state = online.OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    steps = _steps(xs)
    got = np.empty((len(steps), 2))
    for t, x in enumerate(steps):
        online.forward_sample(state, x)
        got[t] = state.mu[0], state.var[0]
    return float(np.abs(got - np.column_stack((mus, vars_))).max())


def group_deviation(x, g, split: int, alpha_f: float, alpha_b: float) -> float:
    """Largest gap between the kernel run on blocks and run one sample at a time.

    x and g are (n, features, spatial) inputs and output gradients. The
    grouped run takes the blocks x[:split] and x[split:], skipping an empty
    one, each forward then backward; the streamed run takes n (1, features,
    spatial) blocks. The gap covers y, x', the sigma each sample was divided
    by and every state array, each relative to max(1, the largest |value|
    of the streamed run); it is exactly 0 when every value agrees bit for bit.
    """
    n = len(x)

    def run(parts):
        state = online.OnlineNormState(x.shape[1], alpha_f, alpha_b)
        ys, sigmas, xgs = [], [], []
        for part in parts:
            ys.append(online.forward_sample(state, x[part]))
            sigmas.append(state.pending[1])
            xgs.append(online.backward_sample(state, g[part]))
        outputs = [np.concatenate(ys), np.concatenate(xgs), np.concatenate(sigmas)]
        return outputs + [getattr(state, k) for k in ("mu", "var", "eps_y", "eps_1")]

    grouped = run([p for p in (slice(0, split), slice(split, n)) if len(x[p])])
    streamed = run([slice(t, t + 1) for t in range(n)])
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
        z, zeta = online.layer_scale_forward(y.reshape(1, n, 1))
        got = online.layer_scale_backward(loss_w.reshape(1, n, 1), z, zeta).ravel()
        fd = central_differences(
            lambda v: float(np.dot(loss_w, v / np.sqrt((v * v).mean()))), y, 1e-6
        )
        rel_errs[t] = np.abs(got - fd).max() / np.abs(fd).max()
    return float(rel_errs.max())


def _layer_scale_ms_error() -> float:
    z, _ = online.layer_scale_forward(make_rng(3).normal(size=(50, 8, 4)))
    return float(np.abs((z**2).mean(axis=(1, 2)) - 1.0).max())


def _roundtrip_mismatches() -> int:
    """Fields of a state that differ after save_state/load_state of it, once
    it has run a 50-sample block."""
    rng = make_rng(23)
    state = online.OnlineNormState(5, alpha_f=0.97, alpha_b=0.9)
    online.forward_sample(state, rng.normal(size=(50, 5, 3)))
    online.backward_sample(state, rng.normal(size=(50, 5, 3)))
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
    """n samples of 4 features by 3 positions drawn from N(3, 2), and N(0, 1) gradients."""
    rng = make_rng(seed)
    return rng.normal(3.0, 2.0, size=(n, 4, 3)), rng.normal(size=(n, 4, 3))


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
    ("group emulation matches streaming",
     lambda: {"max gap": np.max([emulation_deviation(_uniform(100 * n + int(1000 * a), 10 * n), n, a)
                                 for n in (1, 2, 3, 5, 8) for a in (0.5, 0.99, 0.999)])},
     lambda f: f["max gap"] < 1e-10),
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
     lambda: {"max gap": np.max([group_deviation(*_group_inputs(seed, n), n // 3, a, a)
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
