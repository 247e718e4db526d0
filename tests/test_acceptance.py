"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline);
together they gate the build. Criteria with runtime budgets stay well
inside them on commodity hardware.
"""

import time

import numpy as np

from onlinenorm.datasets import DatasetSpec, generate_dataset
from onlinenorm.emulation import emulate_stream
from onlinenorm.experiments import (
    activation_growth_experiment,
    equilibrium_experiment,
    gradient_bias_experiment,
)
from onlinenorm.net import TrainConfig, scale_hyperparams, train
from onlinenorm.online import OnlineNormState, backward_sample, forward_sample
from onlinenorm.reference import BatchNorm, exact_backward, exact_normalize
from onlinenorm.tensor import make_rng


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def scalar(x):
    """One sample with one feature: a (1, 1, 1) block."""
    return np.full((1, 1, 1), float(x))


def test_criterion_01_gradient_oracle_suite():
    t0 = time.time()
    rng = make_rng(101)
    worst_rel = worst_orth = 0.0
    for n in (2, 3, 10, 50):
        for _ in range(5):
            x = rng.normal(size=n) * rng.uniform(0.5, 2.0)
            loss_w = rng.normal(size=n)
            y, _, sigma = exact_normalize(x)
            got = exact_backward(y, loss_w, sigma)
            h = 1e-5
            fd = np.empty(n)
            for i in range(n):
                up, dn = x.copy(), x.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    np.dot(loss_w, exact_normalize(up)[0])
                    - np.dot(loss_w, exact_normalize(dn)[0])
                ) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-30)
            worst_rel = max(worst_rel, np.abs(got - fd).max() / scale)
            ones = np.ones(n)
            norm = np.linalg.norm(got)
            if norm > 0:
                worst_orth = max(
                    worst_orth,
                    abs(np.dot(got, ones)) / (norm * np.linalg.norm(ones)),
                    abs(np.dot(got, y)) / (norm * np.linalg.norm(y)),
                )
    elapsed = time.time() - t0
    report(
        1,
        worst_rel <= 1e-6 and worst_orth <= 1e-9 and elapsed < 1.0,
        f"max FD rel err {worst_rel:.2e} (<=1e-6), max orthogonality {worst_orth:.2e} (<=1e-9), {elapsed:.2f}s",
    )


def test_criterion_02_batch_two_degeneracy():
    t0 = time.time()
    rng = make_rng(102)
    bn = BatchNorm(1)
    exact_outputs = zero_grads = True
    for _ in range(100):
        pair = rng.normal(0.0, 2.0, size=(2, 1))
        y = bn.forward(pair, training=True)
        a, b = y[0, 0], y[1, 0]
        exact_outputs = exact_outputs and abs(a) == 1.0 and abs(b) == 1.0 and a == -b
        g = bn.backward(rng.normal(size=(2, 1)))
        zero_grads = zero_grads and g[0, 0] == 0.0 and g[1, 0] == 0.0
    elapsed = time.time() - t0
    report(
        2,
        exact_outputs and zero_grads and elapsed < 1.0,
        f"outputs exactly (+-1,-+1): {exact_outputs}, gradients identically 0: {zero_grads}, {elapsed:.2f}s",
    )


def test_criterion_03_control_estimator_equivalences():
    t0 = time.time()
    worst_f = worst_b = 0.0
    for alpha in (0.5, 0.99, 0.999):
        rng = make_rng(103)
        state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
        eps = 0.0
        for x in rng.uniform(-1.0, 1.0, size=10_000):
            forward_sample(state, scalar(x))
            eps += x - (1.0 - alpha) * eps
            worst_f = max(worst_f, abs(state.mu[0] - (1.0 - alpha) * eps))
        # backward equivalence at decay alpha; forward decay pinned at 0.99
        # keeps the normalized stream bounded.
        state = OnlineNormState(1, alpha_f=0.99, alpha_b=alpha)
        mu_y = 0.0
        for _ in range(10_000):
            y, cache = forward_sample(state, scalar(rng.uniform(-1.0, 1.0)))
            g = float(rng.uniform(-1.0, 1.0))
            backward_sample(state, scalar(g), cache)
            yv = y[0, 0, 0]
            mu_y = (1.0 - (1.0 - alpha) * yv * yv) * mu_y + (1.0 - alpha) * g * yv
            worst_b = max(worst_b, abs(mu_y - (1.0 - alpha) * state.eps_y[0]))
    elapsed = time.time() - t0
    report(
        3,
        worst_f <= 1e-10 and worst_b <= 1e-10 and elapsed < 5.0,
        f"forward gap {worst_f:.2e}, backward gap {worst_b:.2e} (<=1e-10), {elapsed:.2f}s",
    )


def test_criterion_04_asymptotic_moments():
    t0 = time.time()
    rng = make_rng(42)
    state = OnlineNormState(1, alpha_f=0.99, alpha_b=0.99)
    xs = 5.0 + 2.0 * rng.normal(size=100_000)
    ys = np.empty(xs.size)
    for t, x in enumerate(xs):
        y, _ = forward_sample(state, scalar(x))
        ys[t] = y[0, 0, 0]
    half = ys[50_000:]
    mean = float(half.mean())
    var = float(half.var())
    target = 1.0 / 0.99
    elapsed = time.time() - t0
    report(
        4,
        abs(mean) <= 0.02 and abs(var - target) <= 0.03 * target and elapsed < 10.0,
        f"time-mean {mean:+.5f} (|.|<=0.02), time-var {var:.5f} vs {target:.5f} "
        f"(dev {abs(var - target) / target * 100:.2f}% <= 3%), {elapsed:.1f}s",
    )


def test_criterion_05_accumulator_boundedness():
    t0 = time.time()
    rng = make_rng(17)
    state = OnlineNormState(1, alpha_f=0.99, alpha_b=0.99)
    head = tail = 0.0
    for t in range(100_000):
        _, cache = forward_sample(state, scalar(rng.uniform(-1.0, 1.0)))
        backward_sample(state, scalar(rng.uniform(-1.0, 1.0)), cache)
        mag = max(abs(state.eps_y[0]), abs(state.eps_1[0]))
        if t < 1000:
            head = max(head, mag)
        else:
            tail = max(tail, mag)
    elapsed = time.time() - t0
    report(
        5,
        tail <= 10.0 * head and elapsed < 10.0,
        f"max |eps| first 1e3 steps {head:.3f}, after {tail:.3f} (ratio {tail / head:.2f} <= 10), {elapsed:.1f}s",
    )


def test_criterion_06_batched_emulation_equivalence():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2, 3, 5, 8):
        for alpha in (0.5, 0.99, 0.999):
            rng = make_rng(1000 * n + int(alpha * 10_000))
            xs = rng.uniform(-2.0, 2.0, size=10 * n)
            mus, vars_ = emulate_stream(xs, n, alpha)
            state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
            for t, x in enumerate(xs):
                forward_sample(state, scalar(x))
                worst = max(worst, abs(state.mu[0] - mus[t]), abs(state.var[0] - vars_[t]))
    elapsed = time.time() - t0
    report(
        6,
        worst <= 1e-10 and elapsed < 5.0,
        f"max streaming/batched deviation {worst:.2e} (<=1e-10), {elapsed:.2f}s",
    )


def test_criterion_07_hyperparameter_scaling():
    _, mu_new, _ = scale_hyperparams(0.1, 0.9, 1e-4, 256, 32)
    report(7, round(mu_new, 5) == 0.98692, f"momentum 256->32 gives {mu_new:.7f}, rounds to {round(mu_new, 5)}")


def test_criterion_08_gradient_bias_phenomenon():
    t0 = time.time()
    result = gradient_bias_experiment(
        0, dataset_size=2048, batch_sizes=(2, 4, 8, 16, 32, 64), repetitions=10
    )
    angles = dict(zip(result.batch_sizes, result.mean_angle_deg))
    full_zero = angles[2048] <= 1e-2
    ordered = angles[2] > angles[64]
    exceeds = any(angles[b] > 10.0 for b in (2, 4, 8, 16, 32))
    elapsed = time.time() - t0
    report(
        8,
        full_zero and ordered and exceeds and elapsed < 120.0,
        f"angle(2)={angles[2]:.2f} > angle(64)={angles[64]:.2f}, full batch {angles[2048]:.4f}deg, "
        f"max small-batch angle {max(angles[b] for b in (2, 4, 8, 16, 32)):.2f}deg > 10, {elapsed:.0f}s",
    )


def test_criterion_09_activation_growth():
    t0 = time.time()
    grown = activation_growth_experiment(depth=64, sigma_down=0.05, layer_scaling=False, seed=0)
    scaled = activation_growth_experiment(depth=64, sigma_down=0.05, layer_scaling=True, seed=0)
    slope = grown.log_rms_slope()
    spread = float(scaled.rms.max() / scaled.rms.min())
    elapsed = time.time() - t0
    report(
        9,
        slope > 0.01 and spread < 10.0 and elapsed < 60.0,
        f"log-RMS slope {slope:.4f} (>0.01) without scaling; max/min RMS {spread:.3f} (<10) with, {elapsed:.1f}s",
    )


def test_criterion_10_weight_equilibrium():
    t0 = time.time()
    result = equilibrium_experiment(0.1, 1e-3, 20_000, seed=0)
    ratio = result.final_quartile_ratio()
    elapsed = time.time() - t0
    report(
        10,
        0.8 <= ratio <= 1.25 and elapsed < 60.0,
        f"final-quartile ratio {ratio:.4f} in [0.8, 1.25], {elapsed:.1f}s",
    )


def test_criterion_11_end_to_end_parity():
    t0 = time.time()
    spec = DatasetSpec(kind="gaussian-blobs", classes=3, samples=6000, dim=8)
    data = generate_dataset(spec, 0)
    train_set, val_set = data.split(1000 / 6000, 0)

    cfg_bn = TrainConfig(
        eta=0.1, momentum=0.9, l2=1e-4, batch_size=32, epochs=5,
        seed=0, normalizer="batch", hidden=32,
    )
    acc_bn = train(cfg_bn, train_set, val_set)[0][-1].accuracy

    eta1, mu1, _ = scale_hyperparams(cfg_bn.eta, cfg_bn.momentum, cfg_bn.l2, 32, 1)
    cfg_on = TrainConfig(
        eta=eta1, momentum=mu1, l2=1e-4, batch_size=1, epochs=5,
        seed=0, normalizer="online", hidden=32, alpha_f=0.999, alpha_b=0.99,
    )
    acc_on = train(cfg_on, train_set, val_set)[0][-1].accuracy
    elapsed = time.time() - t0
    report(
        11,
        acc_on >= acc_bn - 0.02 and acc_on > 0.90 and acc_bn > 0.90 and elapsed < 120.0,
        f"online {acc_on:.4f} vs batch {acc_bn:.4f} (online >= batch - 0.02, both > 0.90), {elapsed:.0f}s",
    )


def test_criterion_12_layer_scaling_gradient():
    t0 = time.time()
    from onlinenorm.online import ForwardCache, layer_scale_backward, layer_scale_forward

    rng = make_rng(112)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 12))
        y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        loss_w = rng.normal(size=n)

        def loss(v):
            return float(np.dot(loss_w, v / np.sqrt((v * v).mean())))

        cache = ForwardCache()
        layer_scale_forward(y.reshape(1, n, 1), cache)
        got = layer_scale_backward(loss_w.reshape(1, n, 1), cache).ravel()
        h = 1e-6
        fd = np.empty(n)
        for i in range(n):
            up, dn = y.copy(), y.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (loss(up) - loss(dn)) / (2 * h)
        worst = max(worst, float(np.abs(got - fd).max() / np.abs(fd).max()))
    elapsed = time.time() - t0
    report(
        12,
        worst <= 1e-7 and elapsed < 1.0,
        f"max FD rel err over 50 inputs {worst:.2e} (<=1e-7), {elapsed:.2f}s",
    )
