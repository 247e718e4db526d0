import copy
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinenorm.online import (
    InterleaveError,
    OnlineNorm,
    OnlineNormState,
    backward_sample,
    forward_inference,
    forward_sample,
    layer_scale_backward,
    layer_scale_forward,
    load_state,
    save_state,
)
from onlinenorm import online
from onlinenorm.selftest import (
    accumulator_maxima, backward_gap, central_differences, forward_mean_gap, layer_scale_fd_error, stream,
)
from onlinenorm.tensor import ShapeError, make_rng


def scalar(x):
    """One sample with one feature: a (1, 1) block."""
    return np.full((1, 1), float(x))


def sample(values):
    """One sample as a (1, features) block."""
    return np.asarray(values, dtype=np.float64).reshape(1, -1)


# ---------------------------------------------------------------- forward


def test_first_sample_after_reset():
    alpha = 0.9
    # One feature, then three whose columns are independent streams.
    for x in (scalar(3.0), np.array([[3.0, -1.0, 0.5]])):
        v = x.reshape(-1)
        state = OnlineNormState(v.size, alpha_f=alpha, alpha_b=0.99)
        y = forward_sample(state, x)
        assert np.array_equal(y, x)
        assert state.mu == pytest.approx((1 - alpha) * v, abs=1e-15)
        assert state.var == pytest.approx(alpha + alpha * (1 - alpha) * v * v, abs=1e-15)
        assert np.all(state.pending[1] == 1.0)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 0.999])
def test_mean_matches_decayed_sum_oracle(alpha):
    rng = make_rng(10)
    # One feature, then three whose columns are independent streams.
    for xs in (rng.uniform(-2.0, 2.0, size=1000), rng.uniform(-2.0, 2.0, size=(1000, 3))):
        mu = stream(xs, None, 1, alpha, 0.99)[3][:, 0]
        for t in [*range(0, len(xs), 97), len(xs) - 1]:
            expect = (1 - alpha) * sum(alpha ** (t - j) * xs[j] for j in range(t + 1))
            assert np.abs(mu[t] - expect).max() < 1e-9


@pytest.mark.parametrize("alpha", [0.5, 0.99, 0.999])
def test_var_matches_unrolled_recurrence_oracle(alpha):
    rng = make_rng(11)
    xs = rng.uniform(-2.0, 2.0, size=400)
    wide = rng.uniform(-2.0, 2.0, size=(400, 3))
    # One feature, then three whose columns are independent streams.
    cases = [(xs, stream(xs, None, 1, alpha, 0.99)[3][-1, 1, 0])]
    cases += zip(wide.T, stream(wide, None, 1, alpha, 0.99)[3][-1, 1])
    t = xs.size - 1
    for xs, var in cases:

        def mu_closed(j):
            if j < 0:
                return 0.0
            return (1 - alpha) * sum(alpha ** (j - k) * xs[k] for k in range(j + 1))

        expect = alpha ** (t + 1) * 1.0 + alpha * (1 - alpha) * sum(
            alpha ** (t - j) * (xs[j] - mu_closed(j - 1)) ** 2 for j in range(t + 1)
        )
        assert abs(var - expect) < 1e-9


def test_asymptotic_variance_near_inverse_alpha():
    alpha = 0.999
    rng = make_rng(20)
    ys = stream(rng.normal(size=100_000), None, 1, alpha, 0.99)[0]
    var = ys[50_000:].var()
    assert var == pytest.approx(1.0 / alpha, rel=0.03)


def test_measurements_report_nan_not_the_largest_finite_gap(monkeypatch):
    # A NaN in the last sample poisons every later figure; each measurement
    # must return NaN, which fails any tolerance, rather than the finite
    # maximum of the samples before it.
    pairs = make_rng(13).uniform(-1.0, 1.0, size=(1200, 2))
    pairs[-1, 0] = np.nan
    assert np.isnan(forward_mean_gap(pairs[:, 0], 0.9))
    assert np.isnan(backward_gap(pairs, 0.99))
    head, tail = accumulator_maxima(pairs)
    assert np.isfinite(head) and np.isnan(tail)
    monkeypatch.setattr(online, "layer_scale_backward", lambda g, z, zeta: np.full(g.shape, np.nan))
    assert np.isnan(layer_scale_fd_error(5, 3))


def test_accumulated_centered_output_bounded():
    alpha = 0.9
    rng = make_rng(13)
    # One feature, then three whose columns are independent streams.
    for xs in (rng.uniform(-1.0, 1.0, size=(20_000, 1)), rng.uniform(-1.0, 1.0, size=(20_000, 3))):
        mu = stream(xs, None, 1, alpha, 0.99)[3][:, 0]
        # Sample t is centred on the mean before it, mu_{t-1}, and mu_{-1} = 0.
        totals = np.cumsum(xs - np.concatenate((np.zeros((1, xs.shape[1])), mu[:-1])), axis=0)
        assert np.abs(totals).max() <= 1.0 / (1 - alpha) + 1e-9


def test_forward_errors():
    state = OnlineNormState(2)
    with pytest.raises(ShapeError):
        forward_sample(state, sample([1.0, 2.0, 3.0]))
    # A block is (n, features).
    for shape in ((2,), (1, 2, 1, 1)):
        with pytest.raises(ShapeError):
            forward_sample(state, np.zeros(shape))


@pytest.mark.parametrize(
    "name, takes_state, gradient",
    [
        ("forward_sample", True, False),
        ("forward_inference", True, False),
        ("backward_sample", True, True),
        ("layer_scale_forward", False, False),
        ("layer_scale_backward", False, True),
    ],
)
def test_list_blocks_give_the_array_bits(name, takes_state, gradient):
    # Each block function reads an array-like block as float64; a 1-D list
    # is no (n, features) block.
    rng = make_rng(29)
    x, g = rng.normal(size=(2, 3, 2))
    block = g if gradient else x

    def call(b):
        state = OnlineNormState(2, alpha_f=0.9, alpha_b=0.9)
        forward_sample(state, x)  # the record backward_sample consumes
        args = (state, b) if takes_state else (b, *layer_scale_forward(x)) if gradient else (b,)
        out = getattr(online, name)(*args)
        return [*(out if isinstance(out, tuple) else (out,)), state.mu, state.var, state.eps_y, state.eps_1]

    for got, want in zip(call(block.tolist()), call(block), strict=True):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    with pytest.raises(ShapeError):
        call(block[0].tolist())


def test_spatial_blocks_are_refused_and_leave_the_state_alone():
    # The kernel and layer scaling take (n, features) blocks only. A 3-D
    # block, even of spatial size 1, raises before anything moves: layer
    # scaling must not reduce it over the features axis alone.
    rng = make_rng(28)
    layer = OnlineNorm(3, alpha_f=0.9, alpha_b=0.9)
    layer.forward(rng.normal(size=(2, 3)))
    layer.backward(rng.normal(size=(2, 3)))
    layer.forward(rng.normal(size=(2, 3)))  # leaves a forward pending
    before = copy.deepcopy(layer)
    pending, scaled = layer.state.pending, layer._scaled
    for shape in ((1, 3, 1), (4, 3, 2)):
        x = rng.normal(size=shape)
        calls = (
            lambda: forward_sample(layer.state, x),
            lambda: forward_inference(layer.state, x),
            lambda: layer_scale_forward(x),
            lambda: layer_scale_backward(x, x, np.ones(len(x))),
            lambda: layer.forward(x, training=True),
            lambda: layer.forward(x, training=False),
        )
        for call in calls:
            with pytest.raises(ShapeError):
                call()
    assert layer.state.pending is pending and layer._scaled is scaled
    for name in ("mu", "var", "eps_y", "eps_1"):
        assert np.array_equal(getattr(layer.state, name), getattr(before.state, name))
    for name in ("gain", "bias", "d_gain", "d_bias"):
        assert np.array_equal(getattr(layer, name), getattr(before, name))
    g = rng.normal(size=(2, 3))
    assert np.array_equal(layer.backward(g), before.backward(g))


# ---------------------------------------------------------- layer scaling


def test_layer_scale_direct_example():
    z, zeta = layer_scale_forward(sample([3.0, -3.0]))
    assert zeta[0] == 3.0
    assert np.array_equal(z.ravel(), np.array([1.0, -1.0]))


def test_layer_scale_identity_when_rms_one():
    y = sample([1.0, -1.0])
    z, zeta = layer_scale_forward(y)
    assert zeta[0] == 1.0
    assert np.array_equal(z, y)


def test_layer_scale_unit_mean_square():
    rng = make_rng(14)
    y = sample(rng.normal(size=32))
    z, _ = layer_scale_forward(y)
    assert abs((z**2).mean() - 1.0) < 1e-12


def test_layer_scale_backward_parallel_gradient_annihilates():
    rng = make_rng(15)
    y = sample(rng.normal(size=8))
    z, zeta = layer_scale_forward(y)
    g = 2.5 * z
    back = layer_scale_backward(g, z, zeta)
    assert np.abs(back).max() < 1e-12


def test_layer_scale_backward_orthogonal_gradient_passthrough():
    z, zeta = layer_scale_forward(sample([2.0, -2.0]))
    g = sample([1.0, 1.0])  # mean(z*g) = 0
    back = layer_scale_backward(g, z, zeta)
    assert np.allclose(back, g / zeta[0], atol=1e-15)


def test_layer_scale_backward_matches_finite_differences():
    rng = make_rng(16)
    y = rng.normal(size=6)
    loss_w = rng.normal(size=6)

    def loss(v):
        return float(np.dot(loss_w, v / np.sqrt((v * v).mean())))

    z, zeta = layer_scale_forward(sample(y))
    got = layer_scale_backward(sample(loss_w), z, zeta).ravel()
    fd = central_differences(loss, y, 1e-6)
    assert np.abs(got - fd).max() / np.abs(fd).max() < 1e-7


def test_layer_scale_floor_guards_zero_input():
    z, zeta = layer_scale_forward(sample([0.0, 0.0]))
    assert zeta[0] == 0.0
    assert np.isfinite(z).all()


def test_layer_scale_backward_below_floor_matches_finite_differences():
    # RMS 1e-7 is below the 1e-5 floor, so the forward is z = y / floor and
    # its exact gradient is g / floor.
    y = np.array([1e-7, -1e-7])
    loss_w = np.array([1.0, 0.0])

    def loss(v):
        return float(np.dot(loss_w, v / max(np.sqrt((v * v).mean()), 1e-5)))

    z, zeta = layer_scale_forward(sample(y))
    got = layer_scale_backward(sample(loss_w), z, zeta).ravel()
    fd = central_differences(loss, y, 1e-9)
    assert np.abs(got - fd).max() / np.abs(fd).max() < 1e-7
    assert np.array_equal(got, loss_w / 1e-5)


def test_layer_scale_backward_zero_sample_gives_finite_gradient():
    z, zeta = layer_scale_forward(sample([0.0, 0.0, 0.0]))
    g = sample([0.5, -2.0, 1.0])
    back = layer_scale_backward(g, z, zeta)
    assert np.isfinite(back).all()
    assert np.array_equal(back, g / 1e-5)


# ---------------------------------------------------------------- backward


def test_first_backward_divides_by_initial_sigma():
    # One feature, then three whose columns are independent streams.
    for x, g in ((scalar(3.0), scalar(0.5)), (np.array([[3.0, -1.0, 0.5]]), np.array([[0.5, -2.0, 0.25]]))):
        state = OnlineNormState(x.shape[1], alpha_f=0.9, alpha_b=0.9)
        forward_sample(state, x)
        assert np.array_equal(backward_sample(state, g), g)  # sigma_0 = 1, accumulators zero


def test_interleave_handshake_errors():
    state = OnlineNormState(1)
    forward_sample(state, scalar(1.0))
    backward_sample(state, scalar(1.0))
    with pytest.raises(InterleaveError):
        backward_sample(state, scalar(1.0))  # already consumed
    with pytest.raises(InterleaveError):
        backward_sample(OnlineNormState(1), scalar(1.0))  # no forward yet


def test_refused_backward_leaves_gain_and_bias_gradients_unchanged():
    layer = OnlineNorm(3)
    layer.forward(make_rng(27).normal(size=(2, 3)))
    layer.backward(np.ones((2, 3)))
    d_gain, d_bias = layer.d_gain.copy(), layer.d_bias.copy()
    with pytest.raises(InterleaveError):
        layer.backward(np.ones((2, 3)))  # already consumed
    assert np.array_equal(layer.d_gain, d_gain) and np.array_equal(layer.d_bias, d_bias)


# ------------------------------------------------- gain and bias of OnlineNorm


def test_affine_identity_at_init():
    # A fresh layer normalizes with mu = 0, sigma = 1, so y = x; gain one and
    # bias zero leave layer scaling the only change.
    layer = OnlineNorm(3)
    z = sample([1.0, -2.0, 0.5])
    assert np.array_equal(layer.forward(z), layer_scale_forward(z)[0])


def test_affine_direct_example():
    layer = OnlineNorm(1)
    layer.gain[:] = 2.0
    layer.bias[:] = -1.0
    out = layer.forward(scalar(0.5))  # 2 * 0.5 - 1 = 0, which layer scaling keeps at 0
    assert out[0, 0] == 0.0


def test_affine_gradients_match_finite_differences():
    # d_gain and d_bias of the composed layer, through layer scaling, against
    # central differences of loss_w . forward(x). Each perturbed forward runs
    # on a copy of the layer as it was before the forward, so every pass sees
    # the same running statistics.
    rng = make_rng(21)
    layer = OnlineNorm(4, alpha_f=0.5, alpha_b=0.9)
    layer.gain[:] = rng.normal(size=4)
    layer.bias[:] = rng.normal(size=4)
    x = rng.normal(size=(3, 4))
    loss_w = rng.normal(size=(3, 4))
    before = copy.deepcopy(layer)

    def loss(gain, bias):
        probe = copy.deepcopy(before)
        probe.gain[:], probe.bias[:] = gain, bias
        return float((loss_w * probe.forward(x)).sum())

    layer.forward(x)
    xg = layer.backward(loss_w)
    fd_gain = central_differences(lambda v: loss(v, before.bias), before.gain, 1e-6)
    fd_bias = central_differences(lambda v: loss(before.gain, v), before.bias, 1e-6)
    assert layer.d_gain == pytest.approx(fd_gain, rel=1e-7, abs=1e-7)
    assert layer.d_bias == pytest.approx(fd_bias, rel=1e-7, abs=1e-7)
    # The normalization stage receives the layer-scaling gradient times the gain.
    state = copy.deepcopy(before.state)
    y = forward_sample(state, x)
    z, zeta = layer_scale_forward(before.gain * y + before.bias)
    zg = before.gain * layer_scale_backward(loss_w, z, zeta)
    assert np.array_equal(xg, backward_sample(state, zg))


# ------------------------------------------------------------------- state


def test_invalid_construction():
    with pytest.raises(ValueError):
        OnlineNormState(0)
    with pytest.raises(ValueError):
        OnlineNormState(1, alpha_f=1.0)
    with pytest.raises(ValueError):
        OnlineNormState(1, alpha_b=0.0)


@pytest.mark.parametrize("name", ["alpha_f", "alpha_b"])
@pytest.mark.parametrize("bad", [np.nan, 1.0, 0.0, -0.5])
def test_decay_outside_the_unit_interval_is_named(name, bad):
    with pytest.raises(ValueError, match=re.escape(f"decay factor {name}[1] must be in (0,1), got {bad}")):
        OnlineNormState(3, **{name: [0.9, bad, 0.9]})
    with pytest.raises(ValueError, match=re.escape(f"decay factor {name} must be in (0,1), got {bad}")):
        OnlineNormState(3, **{name: bad})
    with pytest.raises(ValueError, match=re.escape(f"per-feature {name} must have shape (3,)")):
        OnlineNormState(3, **{name: [0.9, 0.9]})


def test_save_state_refuses_per_feature_decays():
    # The version-3 record holds one float64 decay of each kind.
    for decays in ({"alpha_f": [0.9, 0.99]}, {"alpha_b": np.array([0.9, 0.99])}):
        with pytest.raises(ValueError, match="per-feature decays"):
            save_state(OnlineNormState(2, **decays))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_per_feature_decays_step_each_feature_group_as_its_own_state(n):
    # Two feature groups with their own decays in one state give the bits of
    # two states, for the one-sample step and the scan alike.
    rng = make_rng(31)
    cells = [(0.9, 0.5), (0.999, 0.99)]
    wide = OnlineNormState(6, np.repeat([af for af, _ in cells], 3), np.repeat([ab for _, ab in cells], 3))
    parts = [OnlineNormState(3, af, ab) for af, ab in cells]
    for _ in range(4):
        x, g = rng.normal(2.0, 3.0, size=(2, n, 6))
        y, xg = forward_sample(wide, x), backward_sample(wide, g)
        for k, part in enumerate(parts):
            cols = slice(3 * k, 3 * k + 3)
            assert forward_sample(part, x[:, cols]).tobytes() == y[:, cols].tobytes()
            assert backward_sample(part, g[:, cols]).tobytes() == xg[:, cols].tobytes()
            for name in ("mu", "var", "eps_y", "eps_1"):
                assert getattr(part, name).tobytes() == getattr(wide, name)[cols].tobytes()


def test_var_stays_nonnegative():
    states = stream(make_rng(23).normal(size=(500, 6)), None, 1, 0.5, 0.5)[3]
    assert (states[:, 1] >= 0.0).all()


def test_layer_scaling_of_an_empty_block():
    z, zeta = layer_scale_forward(np.empty((0, 4)))
    assert z.shape == (0, 4) and zeta.shape == (0,)
    assert layer_scale_backward(np.empty((0, 4)), z, zeta).shape == (0, 4)
    assert OnlineNorm(4).forward(np.empty((0, 4)), training=False).shape == (0, 4)


def test_empty_training_block_leaves_the_state_alone():
    state = OnlineNormState(3, alpha_f=0.9, alpha_b=0.9)
    forward_sample(state, sample([1.0, 2.0, 3.0]))
    backward_sample(state, sample([0.5, -1.0, 2.0]))
    before = copy.deepcopy(state)
    assert forward_sample(state, np.empty((0, 3))).shape == (0, 3)
    assert backward_sample(state, np.empty((0, 3))).shape == (0, 3)
    for name in ("mu", "var", "eps_y", "eps_1"):
        assert np.array_equal(getattr(state, name), getattr(before, name))


@settings(max_examples=40)
@given(
    features=st.integers(1, 16),
    alpha_f=st.floats(0.5, 0.9999),
    alpha_b=st.floats(0.5, 0.9999),
    blocks=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_serialization_roundtrip_and_continuation(features, alpha_f, alpha_b, blocks, seed):
    # Blocks of n >= 2 leave a state from the scan path, n = 1 one from the step.
    rng = make_rng(seed)
    state = OnlineNormState(features, alpha_f=alpha_f, alpha_b=alpha_b)
    for n in blocks:
        forward_sample(state, rng.normal(3.0, 2.0, size=(n, features)))
        backward_sample(state, rng.normal(size=(n, features)))
    clone = load_state(save_state(state))
    for name in ("mu", "var", "eps_y", "eps_1"):
        assert np.array_equal(getattr(clone, name), getattr(state, name))
    assert clone.features == state.features
    assert clone.alpha_f == state.alpha_f and clone.alpha_b == state.alpha_b
    assert clone.pending is None
    # both continue identically, forward and backward, on a further block
    n = int(rng.integers(1, 65))
    x, g = rng.normal(3.0, 2.0, size=(n, features)), rng.normal(size=(n, features))
    assert np.array_equal(forward_sample(state, x), forward_sample(clone, x))
    assert np.array_equal(backward_sample(state, g), backward_sample(clone, g))
    for name in ("mu", "var", "eps_y", "eps_1"):
        assert np.array_equal(getattr(clone, name), getattr(state, name))


def test_serialization_reads_unversioned_records():
    # The unversioned layout (feature count, decays, four blocks, no magic)
    # is not a state record: load_state refuses it, whole or truncated.
    mu, var, eps_y, eps_1 = (np.arange(3.0) + k for k in range(4))
    body = np.concatenate([mu, var, eps_y, eps_1]).astype("<f8").tobytes()
    blob = struct.pack("<Qdd", 3, 0.9, 0.8) + body
    with pytest.raises(ValueError, match="magic"):
        load_state(blob)
    with pytest.raises(ValueError, match="magic"):
        load_state(blob[:-8])


def test_serialization_rejects_bad_blobs():
    state = OnlineNormState(3)
    blob = save_state(state)
    with pytest.raises(ValueError):
        load_state(blob[:10])
    with pytest.raises(ValueError):
        load_state(blob + b"\x00" * 8)
    with pytest.raises(ValueError):
        load_state(blob[:8] + struct.pack("<I", 4) + blob[12:])  # unknown version
    # A version-2 record: a flags word after the version, and a fifth block.
    v2 = struct.pack("<8sIIQdd", b"ONLNORM\x00", 2, 0, 3, 0.999, 0.99) + np.zeros(5 * 3).tobytes()
    with pytest.raises(ValueError, match="version 2"):
        load_state(v2)


def test_composed_layer_pipeline_and_backward_runs():
    rng = make_rng(26)
    layer = OnlineNorm(5, alpha_f=0.99, alpha_b=0.99)
    for _ in range(50):
        out = layer.forward(rng.normal(size=(1, 5)))
        assert abs((out**2).mean() - 1.0) < 1e-12  # layer scaling pins RMS
        back = layer.backward(rng.normal(size=(1, 5)))
        assert np.isfinite(back).all()
