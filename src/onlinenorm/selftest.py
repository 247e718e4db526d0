"""Self-contained invariant checks runnable from the command line.

Each check returns (name, passed, detail); the CLI prints one line per
check. These are quick smoke versions of the formal properties; the full
suite lives in the test tree. The streaming checks feed the kernel one
(1, 1, 1) block per step.
"""

from __future__ import annotations

import numpy as np

from . import emulation, online, reference
from .tensor import make_rng


def _scalar(x) -> np.ndarray:
    return np.full((1, 1, 1), float(x))


def _forward_mean_equivalence() -> tuple[str, bool, str]:
    worst = 0.0
    for alpha in (0.5, 0.99, 0.999):
        rng = make_rng(7)
        state = online.OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
        eps = 0.0
        for _ in range(3000):
            x = float(rng.uniform(-1.0, 1.0))
            online.forward_sample(state, _scalar(x))
            eps += x - (1.0 - alpha) * eps
            worst = max(worst, abs(state.mu[0] - (1.0 - alpha) * eps))
    return "forward mean control/estimator equivalence", worst < 1e-10, f"max gap {worst:.2e}"


def _backward_equivalence() -> tuple[str, bool, str]:
    alpha_b = 0.99
    rng = make_rng(11)
    state = online.OnlineNormState(1, alpha_f=0.99, alpha_b=alpha_b)
    mu_y = 0.0
    worst = 0.0
    for _ in range(3000):
        x = float(rng.uniform(-1.0, 1.0))
        y, cache = online.forward_sample(state, _scalar(x))
        g = float(rng.uniform(-1.0, 1.0))
        online.backward_sample(state, _scalar(g), cache)
        yv = y[0, 0, 0]
        mu_y = (1.0 - (1.0 - alpha_b) * yv * yv) * mu_y + (1.0 - alpha_b) * g * yv
        worst = max(worst, abs(mu_y - (1.0 - alpha_b) * state.eps_y[0]))
    return "backward control/estimator equivalence", worst < 1e-10, f"max gap {worst:.2e}"


def _layer_scale_unit_ms() -> tuple[str, bool, str]:
    z, _ = online.layer_scale_forward(make_rng(3).normal(size=(50, 8, 4)))
    worst = float(np.abs((z**2).mean(axis=(1, 2)) - 1.0).max())
    return "layer scaling pins mean square at one", worst < 1e-12, f"max |ms-1| {worst:.2e}"


def _layer_scale_gradient() -> tuple[str, bool, str]:
    rng = make_rng(5)
    worst = 0.0
    for _ in range(20):
        y = rng.normal(size=6)
        loss_w = rng.normal(size=6)

        def loss(v):
            z = v / max(np.sqrt((v * v).mean()), 1e-5)
            return float(np.dot(loss_w, z))

        cache = online.ForwardCache()
        online.layer_scale_forward(y.reshape(1, 6, 1), cache)
        got = online.layer_scale_backward(loss_w.reshape(1, 6, 1), cache).ravel()
        fd = np.empty(6)
        for i in range(6):
            up, down = y.copy(), y.copy()
            up[i] += 1e-6
            down[i] -= 1e-6
            fd[i] = (loss(up) - loss(down)) / 2e-6
        worst = max(worst, float(np.max(np.abs(got - fd)) / max(np.max(np.abs(fd)), 1e-12)))
    return "layer scaling gradient vs finite differences", worst < 1e-6, f"max rel err {worst:.2e}"


def _exact_backward_orthogonality() -> tuple[str, bool, str]:
    rng = make_rng(9)
    worst = 0.0
    for _ in range(50):
        x = rng.normal(size=20)
        y, _, sigma = reference.exact_normalize(x)
        g = rng.normal(size=20)
        xg = reference.exact_backward(y, g, sigma)
        ones = np.ones(20)
        worst = max(
            worst,
            abs(np.dot(xg, ones)) / (np.linalg.norm(xg) * np.linalg.norm(ones) + 1e-300),
            abs(np.dot(xg, y)) / (np.linalg.norm(xg) * np.linalg.norm(y) + 1e-300),
        )
    return "exact backward orthogonal to 1 and y", worst < 1e-9, f"max rel dot {worst:.2e}"


def _batch_two_degeneracy() -> tuple[str, bool, str]:
    rng = make_rng(13)
    ok = True
    for _ in range(100):
        pair = rng.normal(size=2) * 3.0
        if pair[0] == pair[1]:
            continue
        y, _, sigma = reference.exact_normalize(pair)
        xg = reference.exact_backward(y, rng.normal(size=2), sigma)
        ok = ok and abs(y[0]) == 1.0 and abs(y[1]) == 1.0 and xg[0] == 0.0 and xg[1] == 0.0
    return "batch-two output exactly +-1 with zero gradient", ok, ""


def emulation_deviation(xs: np.ndarray, n: int, alpha: float) -> float:
    """Largest gap between the streaming kernel's mean/variance trajectory and emulate_stream's."""
    mus, vars_ = emulation.emulate_stream(xs, n, alpha)
    state = online.OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    worst = 0.0
    for t, x in enumerate(np.reshape(xs, (-1, 1, 1, 1))):
        online.forward_sample(state, x)
        worst = max(worst, abs(state.mu[0] - mus[t]), abs(state.var[0] - vars_[t]))
    return worst


def _emulation_equivalence() -> tuple[str, bool, str]:
    worst = 0.0
    for n in (1, 2, 3, 5, 8):
        for alpha in (0.5, 0.99, 0.999):
            rng = make_rng(100 * n + int(1000 * alpha))
            worst = max(worst, emulation_deviation(rng.uniform(-1.0, 1.0, size=10 * n), n, alpha))
    return "group emulation matches streaming", worst < 1e-10, f"max gap {worst:.2e}"


def _accumulator_boundedness() -> tuple[str, bool, str]:
    rng = make_rng(17)
    state = online.OnlineNormState(1, alpha_f=0.99, alpha_b=0.99)
    head = 0.0
    tail = 0.0
    for t in range(20000):
        y, cache = online.forward_sample(state, _scalar(rng.uniform(-1, 1)))
        online.backward_sample(state, _scalar(rng.uniform(-1, 1)), cache)
        mag = max(abs(state.eps_y[0]), abs(state.eps_1[0]))
        if t < 1000:
            head = max(head, mag)
        else:
            tail = max(tail, mag)
    return "backward accumulators stay bounded", tail <= 10.0 * head, f"head {head:.3f} tail {tail:.3f}"


def _serialization_roundtrip() -> tuple[str, bool, str]:
    rng = make_rng(23)
    state = online.OnlineNormState(5, alpha_f=0.97, alpha_b=0.9)
    online.forward_sample(state, rng.normal(size=(50, 5, 3)))
    clone = online.load_state(online.save_state(state))
    same = (
        np.array_equal(clone.mu, state.mu)
        and np.array_equal(clone.var, state.var)
        and np.array_equal(clone.eps_y, state.eps_y)
        and np.array_equal(clone.eps_1, state.eps_1)
        and clone.alpha_f == state.alpha_f
        and clone.alpha_b == state.alpha_b
    )
    return "state serialization round-trips", same, ""


def _jacobian_consistency() -> tuple[str, bool, str]:
    rng = make_rng(29)
    x = rng.normal(size=12)
    y, _, sigma = reference.exact_normalize(x)
    jac = reference.jacobian_dense(x)
    worst = float(np.max(np.abs(jac @ np.ones(12))))
    for _ in range(10):
        g = rng.normal(size=12)
        worst = max(worst, float(np.max(np.abs(jac.T @ g - reference.exact_backward(y, g, sigma)))))
    return "dense Jacobian consistent with backward", worst < 1e-10, f"max gap {worst:.2e}"


CHECKS = (
    _forward_mean_equivalence,
    _backward_equivalence,
    _layer_scale_unit_ms,
    _layer_scale_gradient,
    _exact_backward_orthogonality,
    _batch_two_degeneracy,
    _emulation_equivalence,
    _accumulator_boundedness,
    _serialization_roundtrip,
    _jacobian_consistency,
)


def run_selftest() -> list[tuple[str, bool, str]]:
    return [check() for check in CHECKS]
