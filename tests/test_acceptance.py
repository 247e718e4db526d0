"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline);
together they gate the build. Criteria with runtime budgets stay well
inside them on commodity hardware. Criteria 01, 02, 03, 05, 06 and 12
take their figures from the measuring functions in onlinenorm.selftest,
which `onlinenorm selftest` runs at a smaller scale; criterion 04 runs the
kernel through the same module's stream.
"""

import time

import numpy as np

from onlinenorm.datasets import DatasetSpec, generate_dataset
from onlinenorm.experiments import (
    activation_growth_experiment,
    equilibrium_experiment,
    gradient_bias_experiment,
)
from onlinenorm.net import TrainConfig, scale_hyperparams, train
from onlinenorm.selftest import (
    accumulator_maxima,
    backward_gap,
    batch_two_exactness,
    exact_backward_errors,
    forward_mean_gap,
    group_deviation,
    layer_scale_fd_error,
    stream,
)
from onlinenorm.tensor import make_rng


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_gradient_oracle_suite():
    t0 = time.time()
    worst_rel, worst_orth = exact_backward_errors(101, reps=5)
    elapsed = time.time() - t0
    report(
        1,
        worst_rel <= 1e-6 and worst_orth <= 1e-9 and elapsed < 1.0,
        f"max FD rel err {worst_rel:.2e} (<=1e-6), max orthogonality {worst_orth:.2e} (<=1e-9), {elapsed:.2f}s",
    )


def test_criterion_02_batch_two_degeneracy():
    t0 = time.time()
    exact_outputs, zero_grads = batch_two_exactness(102, pairs=100)
    elapsed = time.time() - t0
    report(
        2,
        exact_outputs and zero_grads and elapsed < 1.0,
        f"outputs exactly (+-1,-+1): {exact_outputs}, gradients identically 0: {zero_grads}, {elapsed:.2f}s",
    )


def test_criterion_03_control_estimator_equivalences():
    t0 = time.time()
    gaps_f, gaps_b = [], []
    for alpha in (0.5, 0.99, 0.999):
        rng = make_rng(103)
        gaps_f.append(forward_mean_gap(rng.uniform(-1.0, 1.0, size=10_000), alpha))
        # Backward equivalence at decay alpha on the next 10_000 (input,
        # gradient) pairs of the same generator.
        gaps_b.append(backward_gap(rng.uniform(-1.0, 1.0, size=(10_000, 2)), alpha))
    worst_f, worst_b = np.max(gaps_f), np.max(gaps_b)
    elapsed = time.time() - t0
    report(
        3,
        worst_f <= 1e-10 and worst_b <= 1e-10 and elapsed < 5.0,
        f"forward gap {worst_f:.2e}, backward gap {worst_b:.2e} (<=1e-10), {elapsed:.2f}s",
    )


def test_criterion_04_asymptotic_moments():
    t0 = time.time()
    rng = make_rng(42)
    ys = stream(5.0 + 2.0 * rng.normal(size=100_000), None, 1, 0.99, 0.99)[0].ravel()
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
    head, tail = accumulator_maxima(make_rng(17).uniform(-1.0, 1.0, size=(100_000, 2)))
    elapsed = time.time() - t0
    report(
        5,
        tail <= 10.0 * head and elapsed < 10.0,
        f"max |eps| first 1e3 steps {head:.3f}, after {tail:.3f} (ratio {tail / head:.2f} <= 10), {elapsed:.1f}s",
    )


def test_criterion_06_batched_emulation_equivalence():
    t0 = time.time()
    gaps = []
    for n in (1, 2, 3, 5, 8):
        for alpha in (0.5, 0.99, 0.999):
            # Inputs, then gradients, from one generator, run as blocks of n.
            x, g = make_rng(1000 * n + int(alpha * 10_000)).uniform(-2.0, 2.0, size=(2, 10 * n, 1, 1))
            gaps.append(group_deviation(x, g, n, alpha, alpha))
    worst = np.max(gaps)
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
    worst = layer_scale_fd_error(112, trials=50)
    elapsed = time.time() - t0
    report(
        12,
        worst <= 1e-7 and elapsed < 1.0,
        f"max FD rel err over 50 inputs {worst:.2e} (<=1e-7), {elapsed:.2f}s",
    )
