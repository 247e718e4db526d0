import math

import numpy as np
import pytest

from onlinenorm import experiments
from onlinenorm.datasets import DatasetSpec, generate_dataset
from onlinenorm.experiments import (
    activation_growth_experiment,
    decay_sweep,
    equilibrium_experiment,
    gradient_bias_experiment,
    write_bias_csv,
    write_equilibrium_csv,
    write_growth_csv,
    write_sweep_csv,
)
from onlinenorm.net import TrainConfig, train
from onlinenorm.online import backward_sample
from onlinenorm.tensor import SIGMA_FLOOR, make_rng


# ------------------------------------------------------------ gradient bias


def test_full_batch_angle_is_zero():
    report = gradient_bias_experiment(0, dataset_size=64, batch_sizes=(8,), repetitions=2)
    assert report.batch_sizes[-1] == 64
    assert report.mean_angle_deg[-1] <= 1e-2


def test_angles_within_valid_range_and_monotone_trend():
    report = gradient_bias_experiment(0, dataset_size=128, batch_sizes=(2, 32), repetitions=3)
    angles = dict(zip(report.batch_sizes, report.mean_angle_deg))
    assert all(0.0 <= a <= 180.0 for a in report.mean_angle_deg)
    assert angles[2] > angles[32]


def test_bias_experiment_is_pure_function_of_seed():
    a = gradient_bias_experiment(5, dataset_size=64, batch_sizes=(4,), repetitions=2)
    b = gradient_bias_experiment(5, dataset_size=64, batch_sizes=(4,), repetitions=2)
    assert a.mean_angle_deg == b.mean_angle_deg
    assert a.std_angle_deg == b.std_angle_deg


def test_bias_experiment_preconditions():
    with pytest.raises(ValueError):
        gradient_bias_experiment(0, dataset_size=64, batch_sizes=(1,), repetitions=1)
    with pytest.raises(ValueError):
        gradient_bias_experiment(0, dataset_size=100, batch_sizes=(16,), repetitions=1)


# -------------------------------------------------------- activation growth


def test_exact_coefficients_keep_rms_flat():
    profile = activation_growth_experiment(depth=24, noise=0.0, sigma_down=0.0, seed=0)
    assert profile.rms.max() <= 1.0 + 1e-9  # bounded independent of depth
    assert profile.rms.min() >= 1.0 - 1e-9


def test_exact_coefficients_with_scaling_give_unit_rms():
    profile = activation_growth_experiment(
        depth=24, noise=0.0, sigma_down=0.0, layer_scaling=True, seed=0
    )
    assert np.abs(profile.rms - 1.0).max() < 1e-12


def test_underestimated_sigma_grows_exponentially():
    profile = activation_growth_experiment(depth=64, sigma_down=0.05, seed=0)
    assert profile.log_rms_slope() > 0.01


def test_layer_scaling_stops_growth():
    profile = activation_growth_experiment(depth=64, sigma_down=0.05, layer_scaling=True, seed=0)
    assert profile.rms.max() / profile.rms.min() < 10.0


def test_growth_with_random_noise_and_scaling_stays_bounded():
    profile = activation_growth_experiment(
        depth=48, noise=0.1, sigma_down=0.0, layer_scaling=True, seed=1
    )
    assert profile.rms.max() / profile.rms.min() < 10.0


def test_growth_preconditions():
    with pytest.raises(ValueError):
        activation_growth_experiment(depth=0)
    with pytest.raises(ValueError):
        activation_growth_experiment(depth=4, noise=-1.0)


# ------------------------------------------------------------- equilibrium


def test_equilibrium_ratio_matches_first_moment_law():
    result = equilibrium_experiment(0.1, 1e-3, 20000, seed=0)
    assert 0.8 <= result.final_quartile_ratio() <= 1.25


def test_doubling_eta_scales_weight_norm_by_sqrt_two():
    a = equilibrium_experiment(0.1, 1e-3, 20000, seed=0)
    b = equilibrium_experiment(0.2, 1e-3, 20000, seed=0)
    q = a.steps.size * 3 // 4
    ratio = b.weight_norm[q:].mean() / a.weight_norm[q:].mean()
    assert 1.25 <= ratio <= 1.6


def test_pure_decay_without_gradient_is_geometric():
    eta, l2 = 0.1, 1e-3
    w = np.array([1.0, -2.0, 0.5])
    w0 = w.copy()
    for k in range(1, 8):
        w = w - eta * (0.0 + l2 * w)
        assert np.allclose(w, w0 * (1 - eta * l2) ** k, rtol=1e-13)


def reference_equilibrium(eta, l2, steps, seed):
    """The experiment written out in plain floats, without the kernel:
    rng.choice for the sign, and the one-feature normalizer's forward mean
    and variance, eps_y stage, output-RMS divisor, eps_1 stage and mean
    square update, each in the kernel's order of operations."""
    rng = make_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(16), size=16)
    a_f = a_b = 0.99
    c_f, c_b = 1.0 - a_f, 1.0 - a_b
    mu, var, eps_y, eps_1, ms = 0.0, 1.0, 0.0, 0.0, 1.0
    rec = []
    for t in range(steps):
        u = rng.normal(size=16)
        a = float(np.dot(w, u))
        # One position per sample, so the sample's own variance is 0.
        y = (a - mu) / max(math.sqrt(var), SIGMA_FLOOR)
        delta = a - mu
        mu = a_f * mu + c_f * a
        var = a_f * var + a_f * c_f * delta * delta
        y_grad = -float(rng.choice([-1.0, 1.0]))
        xt = y_grad - c_b * eps_y * y
        eps_y = eps_y + xt * y
        x_grad = xt / max(math.sqrt(ms), SIGMA_FLOOR) - c_b * eps_1
        eps_1 = eps_1 + x_grad
        ms = a_b * ms + c_b * (x_grad * x_grad)
        g = x_grad * u
        w = w - eta * (g + l2 * w)
        if t % 10 == 0:
            rec.append((t, float(np.linalg.norm(w)), float(np.linalg.norm(g))))
    return np.array(rec).T


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_equilibrium_draws_the_reference_stream(seed):
    steps, wnorm, gnorm = reference_equilibrium(0.1, 1e-3, 300, seed)
    result = equilibrium_experiment(0.1, 1e-3, 300, seed)
    assert np.array_equal(result.steps, steps)
    assert np.array_equal(result.weight_norm, wnorm)
    assert np.array_equal(result.grad_norm, gnorm)


def test_output_rms_rescaling_mode(monkeypatch):
    # The experiment's produced gradients, recorded as its backward returns them.
    mags = []

    def recording_backward(state, y_grad):
        x_grad = backward_sample(state, y_grad)
        mags.append(x_grad[0, 0, 0] ** 2)
        return x_grad

    monkeypatch.setattr(experiments, "backward_sample", recording_backward)
    equilibrium_experiment(0.1, 1e-3, 3000, seed=19)
    assert len(mags) == 3000
    # the produced gradient is forced toward unit mean square
    assert np.mean(mags[1500:]) == pytest.approx(1.0, rel=0.15)


def test_equilibrium_preconditions():
    with pytest.raises(ValueError):
        equilibrium_experiment(0.0, 1e-3, 10, 0)
    with pytest.raises(ValueError):
        equilibrium_experiment(0.1, 0.0, 10, 0)


# ------------------------------------------------------------------- sweep


def sweep_setup():
    spec = DatasetSpec(kind="gaussian-blobs", classes=3, samples=600, dim=8)
    data = generate_dataset(spec, 1)
    base = TrainConfig(eta=0.003, momentum=0.9, l2=1e-4, batch_size=1, epochs=2,
                       seed=1, normalizer="online", hidden=16)
    return data, base


def test_single_point_grid_equals_single_run():
    data, base = sweep_setup()
    result = decay_sweep([0.99], [0.99], base, data)
    cfg = TrainConfig(**{**base.__dict__, "alpha_f": 0.99, "alpha_b": 0.99})
    records, _ = train(cfg, data)
    assert result.final_loss[0, 0] == records[-1].loss
    assert not result.diverged.any()


def test_grid_shows_broad_optimum():
    data, base = sweep_setup()
    grid = [0.9, 0.99, 0.999, 0.9999]
    result = decay_sweep(grid, grid, base, data)
    finite = result.final_loss[np.isfinite(result.final_loss)]
    assert finite.size == 16
    best, median = finite.min(), float(np.median(finite))
    assert best <= 1.05 * median
    assert median <= 1.05 * best  # near-optimal region covers most of the grid


def test_sweep_determinism():
    data, base = sweep_setup()
    grid = [0.99, 0.999]
    a = decay_sweep(grid, grid, base, data)
    b = decay_sweep(grid, grid, base, data)
    assert np.array_equal(a.final_loss, b.final_loss)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_sweep_records_divergent_cell_and_continues():
    data, _ = sweep_setup()
    base = TrainConfig(eta=1.0, momentum=0.0, l2=0.0, batch_size=4, epochs=1,
                       seed=0, normalizer="online", hidden=8)
    # A backward decay of 0.5 drives this network to non-finite values.
    result = decay_sweep([0.99], [0.5, 0.99], base, data)
    assert result.diverged.tolist() == [[True, False]]
    assert result.final_loss[0, 0] == np.inf
    assert np.isfinite(result.final_loss[0, 1])


def test_sweep_rejects_bad_grids():
    data, base = sweep_setup()
    with pytest.raises(ValueError):
        decay_sweep([], [0.9], base, data)
    with pytest.raises(ValueError):
        decay_sweep([0.9], [1.5], base, data)


# -------------------------------------------------------------- CSV outputs


def test_experiment_csvs_parse_strictly(tmp_path):
    report = gradient_bias_experiment(0, dataset_size=32, batch_sizes=(4,), repetitions=1)
    write_bias_csv(tmp_path / "bias.csv", report)
    profile = activation_growth_experiment(depth=4, seed=0)
    write_growth_csv(tmp_path / "growth.csv", profile)
    eq = equilibrium_experiment(0.1, 1e-3, 200, 0)
    write_equilibrium_csv(tmp_path / "eq.csv", eq)
    data, base = sweep_setup()
    sweep = decay_sweep([0.99], [0.99], base, data)
    write_sweep_csv(tmp_path / "sweep.csv", sweep)
    import csv

    for name, cols in (
        ("bias.csv", 3),
        ("growth.csv", 2),
        ("eq.csv", 4),
        ("sweep.csv", 4),
    ):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2
        assert all(len(r) == cols for r in rows)
        for row in rows[1:]:
            for cell in row:
                float(cell)  # numeric, quote-free fields
