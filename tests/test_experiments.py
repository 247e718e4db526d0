import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onlinenorm import experiments
from onlinenorm.cli import write_csv
from onlinenorm.datasets import DatasetSpec, generate_dataset
from onlinenorm.experiments import (
    activation_growth_experiment,
    decay_sweep,
    equilibrium_experiment,
    gradient_bias_experiment,
)
from onlinenorm.net import DivergenceError, TrainConfig, train
from onlinenorm.online import backward_float, forward_float
from onlinenorm.tensor import SIGMA_FLOOR, make_rng

from helpers import traced_peak


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


_BIAS_SAMPLES = 1024
_CONV_OUTPUT = _BIAS_SAMPLES * experiments._CHANNELS * (experiments._SIDE - 2) ** 2 * 8


@pytest.mark.parametrize("groups", [1, 16, 512])
def test_bias_gradient_peaks_at_few_conv_outputs(groups):
    # A pass works in the workspace the net allocated, its ReLU mask
    # included, so once the net is built a 1024-sample call peaks at about
    # 0.26-0.28 conv outputs whatever the grouping: Conv2D.backward's copy of
    # the pass's input rows (64 values a sample against the conv output's
    # 288, 0.22) on top of the logit-sized arrays still held.
    rng = make_rng(81)
    x = rng.normal(size=(_BIAS_SAMPLES, experiments._SIDE**2))
    labels = rng.integers(0, experiments._CLASSES, size=_BIAS_SAMPLES)
    net = experiments._BiasNet(rng, x)
    sel = rng.permutation(_BIAS_SAMPLES)
    net.gradient(sel, labels[sel], groups)
    assert traced_peak(lambda: net.gradient(sel, labels[sel], groups)) <= 0.3 * _CONV_OUTPUT


def test_bias_experiment_peaks_at_few_conv_outputs():
    # The conv's features of every sample and the workspace, about 4.1 conv
    # outputs, are held through the run; the conv's own temporaries are gone
    # before the workspace is allocated.
    run = lambda: gradient_bias_experiment(0, _BIAS_SAMPLES, (2, 4, 8, 16, 32, 64), repetitions=1)
    assert traced_peak(run) <= 5 * _CONV_OUTPUT


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


def test_pure_decay_without_gradient_is_geometric(monkeypatch):
    # With x' = 0 the unit only decays, so the norm recorded at step t is
    # |w0| * |1 - eta * l2| ** (t + 1) across the scale's folds.
    def no_gradient(*args):
        eps_y, eps_1, _ = backward_float(*args)
        return eps_y, eps_1, 0.0

    monkeypatch.setattr(experiments, "backward_float", no_gradient)
    w0 = np.linalg.norm(make_rng(5).normal(0.0, 1.0 / np.sqrt(16), size=16))
    for eta, l2 in ((1.0, 0.5), (0.5, 0.6), (1.0, 1.5)):
        result = equilibrium_experiment(eta, l2, 200, seed=5)
        expected = w0 * abs(1.0 - eta * l2) ** (result.steps + 1.0)
        np.testing.assert_allclose(result.weight_norm, expected, rtol=1e-12, atol=0.0)
        assert np.all(result.grad_norm == 0.0)
    # eta * l2 = 1 decays w to 0 in one step.
    assert np.all(equilibrium_experiment(0.5, 2.0, 200, seed=5).weight_norm == 0.0)


def reference_equilibrium(eta, l2, steps, seed, block, plain=False):
    """The experiment written out in plain floats, without the kernel: per
    whole block of `block` steps, its inputs by rng.normal and then its
    signs by rng.choice; the one-feature normalizer's forward mean and
    variance, eps_y stage, output-RMS divisor, eps_1 stage and mean square
    update, each in the kernel's order of operations.

    The weights are w = scale * v. The scale takes the L2 decay and is
    folded into v before the update on every record step and whenever
    |scale| leaves [2**-64, 2**64]; the gradient norm is |x'| * |u|. With
    plain=True the update is w <- w - eta * (g + l2 * w) on w itself and
    |g| = sqrt(g . g), as the law states it."""
    rng = make_rng(seed)
    v, scale = rng.normal(0.0, 1.0 / np.sqrt(16), size=16), 1.0
    a_f = a_b = 0.99
    c_f, c_b = 1.0 - a_f, 1.0 - a_b
    mu, var, eps_y, eps_1, ms = 0.0, 1.0, 0.0, 0.0, 1.0
    rec = []
    for t in range(steps):
        if t % block == 0:
            inputs = rng.normal(size=(block, 16))
            signs = rng.choice([-1.0, 1.0], size=block)
        u = inputs[t % block]
        a = scale * float(np.dot(v, u))
        # One position per sample, so the sample's own variance is 0.
        y = (a - mu) / max(math.sqrt(var), SIGMA_FLOOR)
        delta = a - mu
        mu = a_f * mu + c_f * a
        var = a_f * var + a_f * c_f * delta * delta
        y_grad = -float(signs[t % block])
        xt = y_grad - c_b * eps_y * y
        eps_y = eps_y + xt * y
        x_grad = xt / max(math.sqrt(ms), SIGMA_FLOOR) - c_b * eps_1
        eps_1 = eps_1 + x_grad
        ms = a_b * ms + c_b * (x_grad * x_grad)
        g = x_grad * u
        gnorm = math.sqrt(np.dot(g, g)) if plain else abs(x_grad) * math.sqrt(np.sum(u * u))
        if not math.isfinite(gnorm):
            raise DivergenceError(f"gradient diverged at step {t}")
        if plain:
            v = v - eta * (g + l2 * v)
        else:
            scale = scale * (1.0 - eta * l2)
            if t % 10 == 0 or not 2.0**-64 <= abs(scale) <= 2.0**64:
                v, scale = v * scale, 1.0
            v = v - (eta * x_grad / scale) * u
        if t % 10 == 0:
            wnorm = math.sqrt(np.dot(v, v))
            if not math.isfinite(wnorm):
                raise DivergenceError(f"weight norm diverged at step {t}")
            rec.append((t, wnorm, gnorm))
    return np.array(rec).T


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_equilibrium_draws_the_reference_stream(seed):
    block = experiments._EQ_BLOCK
    # Within the first block, and across two whole blocks into a third.
    for n in (300, 2 * block + 300):
        steps, wnorm, gnorm = reference_equilibrium(0.1, 1e-3, n, seed, block)
        result = equilibrium_experiment(0.1, 1e-3, n, seed)
        assert np.array_equal(result.steps, steps)
        assert np.array_equal(result.weight_norm, wnorm)
        assert np.array_equal(result.grad_norm, gnorm)


@settings(max_examples=25)
@given(
    eta=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
    eta_l2=st.floats(-12.0, math.log10(1.999)).map(lambda e: 10.0**e),
    steps=st.integers(1, 2500),
    seed=st.integers(0, 2**16),
)
@example(eta=0.5, eta_l2=1.0, steps=300, seed=0)
@example(eta=0.25, eta_l2=0.5, steps=130, seed=1)
@example(eta=0.1, eta_l2=0.995, steps=1100, seed=2)
@example(eta=1.0, eta_l2=1.5, steps=200, seed=3)
def test_equilibrium_records_match_the_plain_update(eta, eta_l2, steps, seed):
    # Holding w as scale * v and taking |w'| as |x'| * |u| moves only the
    # last bits of the records, across draw blocks, folds and sign flips.
    # The range ends below eta * l2 = 2, which the experiment refuses.
    l2 = eta_l2 / eta
    args = (eta, l2, steps, seed)
    with np.errstate(all="ignore"):
        try:
            expected = reference_equilibrium(*args, experiments._EQ_BLOCK, plain=True)
        except DivergenceError as exc:
            with pytest.raises(DivergenceError, match=f"^{exc}$"):
                equilibrium_experiment(*args)
            return
        result = equilibrium_experiment(*args)
    assert np.array_equal(result.steps, expected[0])
    np.testing.assert_allclose(result.weight_norm, expected[1], rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(result.grad_norm, expected[2], rtol=1e-10, atol=0.0)


def test_equilibrium_runs_are_prefixes_and_memory_stays_per_block():
    # The experiment draws 1024 steps at a time. A run that ends inside the
    # first block records the first rows of a run of 20 blocks, so the last
    # block is drawn whole; and the 20-block run holds less than its whole
    # stream of inputs at any time.
    short = equilibrium_experiment(0.1, 1e-3, 1001, seed=3)
    steps, runs = 20 * 1024, []
    peak = traced_peak(lambda: runs.append(equilibrium_experiment(0.1, 1e-3, steps, seed=3)))
    assert peak < steps * 16 * 8
    long, rows = runs[0], short.steps.size
    assert np.array_equal(long.steps[:rows], short.steps)
    assert np.array_equal(long.weight_norm[:rows], short.weight_norm)
    assert np.array_equal(long.grad_norm[:rows], short.grad_norm)


def test_output_rms_rescaling_mode(monkeypatch):
    # The experiment's produced gradients, recorded as its backward returns them.
    mags = []

    def recording_backward(*args):
        eps_y, eps_1, x_grad = backward_float(*args)
        mags.append(x_grad**2)
        return eps_y, eps_1, x_grad

    monkeypatch.setattr(experiments, "backward_float", recording_backward)
    equilibrium_experiment(0.1, 1e-3, 3000, seed=19)
    assert len(mags) == 3000
    # the produced gradient is forced toward unit mean square
    assert np.mean(mags[1500:]) == pytest.approx(1.0, rel=0.15)


def test_equilibrium_preconditions():
    with pytest.raises(ValueError):
        equilibrium_experiment(0.0, 1e-3, 10, 0)
    with pytest.raises(ValueError):
        equilibrium_experiment(0.1, 0.0, 10, 0)
    # sqrt(eta / (2 * l2)) overflows to inf or underflows to 0, so the ratio
    # column would read 0 or inf; each is refused before any step.
    for eta, l2 in ((0.1, 1e-320), (1.7e308, 1e-3), (5e-324, 1e300)):
        with pytest.raises(ValueError, match="--l2"):
            equilibrium_experiment(eta, l2, 10, 0)
    # From eta * l2 = 2 on, decay alone does not shrink |w|: no equilibrium to show.
    for eta, l2 in ((1.0, 2.0), (2.0, 1.0), (1e3, 50.0), (1.7e308, 1.0)):
        with pytest.raises(ValueError, match=r"--eta.*--l2.* is [0-9.e+]+: "):
            equilibrium_experiment(eta, l2, 10, 0)
    equilibrium_experiment(1.0, np.nextafter(2.0, 0.0), 10, 0)


@pytest.mark.parametrize(
    "eta, l2, steps, seed, message",
    [
        (1e5, 1e-6, 200, 0, "gradient diverged at step 38"),
        (1e3, 1.9e-3, 200, 2, "gradient diverged at step 65"),
        (1e10, 1e-11, 200, 0, "gradient diverged at step 18"),
        (1e154, 1e-154, 5, 0, "weight norm diverged at step 0"),
    ],
)
def test_equilibrium_diverges_at_the_pinned_step(eta, l2, steps, seed, message):
    # The unit takes the one-value float steps, whose NaN signs may differ
    # from the array step's; a run must still stop at the step and with the
    # message it always did.
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=f"^{message}$"):
        equilibrium_experiment(eta, l2, steps, seed)


@pytest.mark.parametrize("slot", ["mu", "var", "x", "eps_y", "eps_1", "ms"])
def test_a_nan_entering_an_equilibrium_step_makes_its_gradient_nan(slot):
    # Why the unit needs no NaN guard: its gnorm check raises at the step a
    # NaN enters, so no NaN's bits reach the records.
    rng = make_rng(4)
    names = ("mu", "var", "x", "eps_y", "eps_1", "ms")
    for _ in range(20):
        v = dict(zip(names, (rng.normal(size=6) * 10.0 ** rng.uniform(-3, 3, size=6)).tolist()))
        v["var"], v["ms"] = abs(v["var"]), abs(v["ms"])
        for nan in (math.nan, -math.nan):
            v[slot] = nan
            _, _, y, _ = forward_float(v["mu"], v["var"], v["x"], 0.99)
            divisor = max(math.sqrt(v["ms"]), SIGMA_FLOOR)
            for y_grad in (-1.0, 1.0):
                assert math.isnan(backward_float(v["eps_y"], v["eps_1"], y, divisor, y_grad, 0.99)[2])


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
    write_csv(tmp_path / "bias.csv", "batch_size,mean_angle_deg,std_angle_deg", report.as_rows())
    profile = activation_growth_experiment(depth=4, seed=0)
    write_csv(tmp_path / "growth.csv", "layer,rms", enumerate(map(float, profile.rms)))
    eq = equilibrium_experiment(0.1, 1e-3, 200, 0)
    write_csv(tmp_path / "eq.csv", "step,weight_norm,grad_norm,ratio", eq.rows())
    data, base = sweep_setup()
    sweep = decay_sweep([0.99], [0.99], base, data)
    write_csv(tmp_path / "sweep.csv", "alpha_f,alpha_b,final_loss,diverged", sweep.as_rows())
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
