"""Property tests: a block of n samples is the same stream as n single
samples to within rounding, the scan behind it matches a plain loop, the
streaming state keeps its invariants over random shapes and decays, the conv
layer matches its einsum formulas, the gradient-bias network's grouped pass
matches one call per batch, the parameter store steps like one update per
array, a one-sample OnlineNorm step gives the bits of its written-out
arithmetic, the one-value float steps that the equilibrium experiment takes
give the array step's bits on signed zeros, infinities and zero divisors, and
its NaN-ness where a NaN enters, a fully connected (n, F) block gives
the bits of the same block as (n, F, 1) in BatchNorm and LayerNorm and no
normalizer keeps a record of it with a spatial axis, softmax cross-entropy
and OnlineNorm's parameter gradients at one sample and the dense layer at
groups of 1 to 4 give the general arithmetic's bits on signed zeros, huge
values and NaN, the in-place exact-normalization kernel gives the bits of its
out-of-place form and never writes to its caller's arrays, and train()
records at the steps its schedule names, each with the mean loss of its
interval and, without a validation set, its training accuracy, evaluation
in blocks of 128 samples gives the whole set's accuracy (exact-population,
whose inference reads the whole set, runs it as one block), and the decay
sweep's stacked cells give the final losses and divergences of one train()
run per cell, bit for bit."""

import copy
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from onlinenorm import experiments
from onlinenorm import net as net_module
from onlinenorm.datasets import DatasetSpec, generate_dataset
from onlinenorm.experiments import _CLASSES, _SIDE, _BiasNet, _interleave, decay_sweep
from onlinenorm.net import (
    NORMALIZER_KINDS,
    Conv2D,
    DenseLayer,
    DivergenceError,
    Mlp,
    Params,
    TrainConfig,
    evaluate_accuracy,
    scale_hyperparams,
    sgd_momentum_step,
    train,
)
from onlinenorm.online import (
    InterleaveError,
    OnlineNorm,
    OnlineNormState,
    backward_float,
    backward_sample,
    forward_float,
    forward_inference,
    forward_sample,
    layer_scale_backward,
    layer_scale_forward,
    _scan,
)
from onlinenorm.reference import (
    BatchNorm,
    LayerNorm,
    PopulationNorm,
    _normalize,
    _normalize_backward,
    exact_backward,
    exact_normalize,
)
from onlinenorm.selftest import group_deviation
from onlinenorm.tensor import SIGMA_FLOOR, make_rng

decays = st.floats(0.5, 0.9999)
seeds = st.integers(0, 2**32 - 1)
STATE_ARRAYS = ("mu", "var", "eps_y", "eps_1")


@settings(max_examples=60)
@given(
    n=st.integers(1, 64),
    features=st.integers(1, 16),
    alpha_f=decays,
    alpha_b=decays,
    block=st.integers(1, 64),
    seed=seeds,
)
def test_block_matches_single_sample_calls(n, features, alpha_f, alpha_b, block, seed):
    rng = make_rng(seed)
    x = rng.normal(3.0, 2.0, size=(n, features))
    g = rng.normal(size=(n, features))
    gap = group_deviation(x, g, block, alpha_f, alpha_b)
    # One-sample blocks keep the single-sample arithmetic; a scan over a
    # longer block sums in another order.
    if n == 1 or block == 1:
        assert gap == 0.0
    else:
        assert gap <= 1e-10


@settings(max_examples=30)
@given(
    blocks=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    features=st.integers(1, 16),
    alpha_f=decays,
    alpha_b=decays,
    seed=seeds,
)
def test_block_sequence_repeats_bit_identically(blocks, features, alpha_f, alpha_b, seed):
    rng = make_rng(seed)
    data = [(rng.normal(3.0, 2.0, size=(n, features)), rng.normal(size=(n, features))) for n in blocks]

    def run():
        state = OnlineNormState(features, alpha_f=alpha_f, alpha_b=alpha_b)
        outputs = []
        for x, g in data:
            outputs.append(forward_sample(state, x))
            outputs.append(state.pending[1])
            outputs.append(backward_sample(state, g))
        return outputs + [getattr(state, name) for name in STATE_ARRAYS]

    for first, second in zip(run(), run(), strict=True):
        assert np.array_equal(first, second)


@settings(max_examples=60)
@given(
    n=st.integers(1, 64),
    features=st.integers(1, 16),
    scalar=st.booleans(),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=seeds,
)
def test_scan_matches_a_sequential_loop(n, features, scalar, alpha, seed):
    rng = make_rng(seed)
    a = alpha if scalar else rng.uniform(-2.0, 1.0, size=(n, features))
    b = rng.normal(size=(n, features))
    h = rng.normal(size=features)
    a_in, b_in, h_in = np.copy(a), b.copy(), h.copy()
    prev, last = _scan(a, b, h)

    want = np.empty((n + 1, features))
    want[0] = h_in
    for t in range(n):
        want[t + 1] = (a_in if scalar else a_in[t]) * want[t] + b_in[t]
    scale = max(1.0, np.abs(want).max())
    assert np.abs(prev - want[:-1]).max() <= 1e-10 * scale
    assert np.abs(last - want[-1]).max() <= 1e-10 * scale
    # b alone is overwritten, with h_t; a and h are left as they were.
    assert np.array_equal(np.copy(a), a_in) and np.array_equal(h, h_in)
    assert np.abs(b - want[1:]).max() <= 1e-10 * scale


@settings(max_examples=60)
@given(
    blocks=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    features=st.integers(1, 16),
    alpha_f=decays,
    alpha_b=decays,
    seed=seeds,
)
def test_state_invariants_and_handshake(blocks, features, alpha_f, alpha_b, seed):
    rng = make_rng(seed)
    state = OnlineNormState(features, alpha_f=alpha_f, alpha_b=alpha_b)
    with pytest.raises(InterleaveError):
        backward_sample(state, rng.normal(size=(1, features)))  # nothing pending
    for n in blocks:
        x = rng.normal(3.0, 2.0, size=(n, features))
        g = rng.normal(size=(n, features))
        forward_sample(state, x)
        untouched = copy.deepcopy(state)
        # Inference between a forward and its backward changes nothing the backward reads.
        forward_inference(state, rng.normal(size=(n, features)))
        assert np.array_equal(backward_sample(state, g), backward_sample(untouched, g))
        with pytest.raises(InterleaveError):
            backward_sample(state, g)  # already consumed
        assert (state.var >= 0.0).all()
        for name in STATE_ARRAYS:
            assert np.isfinite(getattr(state, name)).all(), name

    layer = OnlineNorm(features, alpha_f=alpha_f, alpha_b=alpha_b)
    x = rng.normal(size=(blocks[0], features))
    g = rng.normal(size=(blocks[0], features))
    layer.forward(x)
    untouched = copy.deepcopy(layer)
    layer.forward(rng.normal(size=x.shape), training=False)
    assert np.array_equal(layer.backward(g), untouched.backward(g))


@settings(max_examples=40)
@given(
    n=st.integers(1, 16),
    features=st.integers(1, 16),
    scale=st.sampled_from([0.0, 1e-7, 1.0, 1e3]),
    seed=seeds,
)
def test_layer_scaling_block_is_bit_identical_to_single_samples(n, features, scale, seed):
    rng = make_rng(seed)
    y = scale * rng.normal(size=(n, features))
    g = rng.normal(size=(n, features))
    z, zeta = layer_scale_forward(y)
    back = layer_scale_backward(g, z, zeta)
    for t in range(n):
        z_t, zeta_t = layer_scale_forward(y[t : t + 1])
        assert np.array_equal(z_t, z[t : t + 1])
        assert np.array_equal(zeta_t, zeta[t : t + 1])
        assert np.array_equal(layer_scale_backward(g[t : t + 1], z_t, zeta_t), back[t : t + 1])


def _general_sample_step(ref, x, g, gain, bias, alpha_f, alpha_b):
    """One OnlineNorm training step on a (1, F) sample, written out: the
    recurrences in their written order and the np.where form of the
    layer-scaling backward. ref holds mu, var, eps_y, eps_1, d_gain and
    d_bias; returns (z, x', zeta)."""
    af, cf = alpha_f, 1.0 - alpha_f
    cb = 1.0 - alpha_b
    mu, ref["mu"] = ref["mu"][None], af * ref["mu"] + cf * x[0]
    delta = x - mu
    var, ref["var"] = ref["var"][None], af * ref["var"] + af * cf * delta[0] * delta[0]
    sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
    y = delta / sigma

    h = gain * y + bias
    f = h.shape[1]
    zeta = np.sqrt(np.add.reduce(h * h, axis=1) / f)
    z = h / np.maximum(zeta, SIGMA_FLOOR)[:, None]
    scaled = zeta >= SIGMA_FLOOR
    coupling = np.where(scaled, np.add.reduce(z * g, axis=1) / f, 0.0)
    gz = (g - z * coupling[:, None]) / np.where(scaled, zeta, SIGMA_FLOOR)[:, None]

    xt = gain * gz - cb * ref["eps_y"] * y
    ref["eps_y"] = ref["eps_y"] + (xt * y)[0]
    xg = xt / sigma - cb * ref["eps_1"]
    ref["eps_1"] = ref["eps_1"] + xg[0]
    ref["d_gain"] = ref["d_gain"] + (gz * y).sum(axis=0)
    ref["d_bias"] = ref["d_bias"] + gz.sum(axis=0)
    return z, xg, zeta


@settings(max_examples=60)
@given(
    features=st.integers(1, 64),
    alpha_f=decays,
    alpha_b=decays,
    steps=st.integers(2, 6),
    seed=seeds,
)
def test_one_sample_step_matches_the_general_arithmetic(features, alpha_f, alpha_b, steps, seed):
    # The first sample is all zeros, so the fresh state maps it to y = 0 and
    # its RMS zeta falls under the floor; the rest are random.
    rng = make_rng(seed)
    layer = OnlineNorm(features, alpha_f=alpha_f, alpha_b=alpha_b)
    layer.gain[:] = rng.normal(size=features)
    ref = {
        "mu": np.zeros(features), "var": np.ones(features), "eps_y": np.zeros(features),
        "eps_1": np.zeros(features), "d_gain": np.zeros(features), "d_bias": np.zeros(features),
    }
    for t in range(steps):
        x = rng.normal(3.0, 2.0, size=(1, features)) if t else np.zeros((1, features))
        g = rng.normal(size=(1, features))
        want_z, want_xg, zeta = _general_sample_step(ref, x, g, layer.gain, layer.bias, alpha_f, alpha_b)
        assert (zeta[0] < SIGMA_FLOOR) == (t == 0)
        assert np.array_equal(layer.forward(x), want_z)
        assert np.array_equal(layer.backward(g), want_xg)
        for name in STATE_ARRAYS:
            assert np.array_equal(getattr(layer.state, name), ref[name]), name
        assert np.array_equal(layer.d_gain, ref["d_gain"])
        assert np.array_equal(layer.d_bias, ref["d_bias"])


def spatial(a):
    """An (n, F) block as the (n, F, 1) block of a feature map of one position."""
    return a[:, :, None]


@settings(max_examples=40)
@given(
    blocks=st.lists(st.integers(2, 64), min_size=1, max_size=3),
    features=st.integers(2, 32),
    seed=seeds,
)
def test_fully_connected_batch_and_layer_norm_match_the_general_arithmetic(blocks, features, seed):
    # BatchNorm reduces an (n, F) block over axis 0 and an (n, F, 1) block
    # over axes (0, 2). LayerNorm takes (n, F) only; its general arithmetic
    # is the exact normalization over a sample's (features, spatial) axes.
    rng = make_rng(seed)
    bn, bn3, ln = BatchNorm(features), BatchNorm(features), LayerNorm(features)
    for n in blocks:
        x, g = rng.normal(3.0, 2.0, size=(n, features)), rng.normal(size=(n, features))
        assert np.array_equal(bn.forward(x), bn3.forward(spatial(x))[:, :, 0])
        assert np.array_equal(bn.backward(g), bn3.backward(spatial(g))[:, :, 0])
        assert np.array_equal(bn.running_mu, bn3.running_mu)
        assert np.array_equal(bn.running_var, bn3.running_var)
        assert np.array_equal(bn.forward(x, training=False), bn3.forward(spatial(x), training=False)[:, :, 0])
        y3, _, _, sigma3 = _normalize(spatial(x), (1, 2))
        assert np.array_equal(ln.forward(x), y3[:, :, 0])
        assert np.array_equal(ln.backward(g), _normalize_backward(spatial(g), y3, sigma3, (1, 2))[:, :, 0])


# Signed zeros, magnitudes whose exponentials underflow or whose products
# overflow, NaN, and ordinary values.
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, 1e300, -1e300, 800.0, -800.0]),
    st.floats(-50.0, 50.0),
)


def edge_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=edge_floats)


def same_bits(got, want):
    """Equal under np.array_equal(..., equal_nan=True), and byte for byte, so
    that the signs of zeros and of NaNs agree as well."""
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want, equal_nan=True) and got.tobytes() == want.tobytes()


one_sample_logits = st.integers(1, 6).flatmap(
    lambda classes: st.tuples(edge_arrays((1, classes)), st.integers(0, classes - 1))
)


@settings(max_examples=100)
@given(case=one_sample_logits)
# The label's probability rounds to exactly 1, so its -log is -0.0, which
# the general path's one-term sum turns into +0.0.
@example(case=(np.array([[800.0, -800.0]]), 0))
def test_one_sample_softmax_xent_gives_the_general_bits(case):
    logits, label = case
    labels = np.array([label])
    with np.errstate(all="ignore"):
        loss, probs = net_module.softmax_xent_forward(logits, labels)
        grad = net_module.softmax_xent_backward(probs, labels)
        # The general arithmetic, which every group size took before.
        shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
        expd = np.exp(shifted)
        want_probs = expd / np.add.reduce(expd, axis=1, keepdims=True)
        picked = want_probs[np.arange(labels.size), labels]
        want_loss = float(np.add.reduce(-np.log(np.maximum(picked, 1e-300))) / labels.size)
        want_grad = want_probs.copy()
        want_grad[np.arange(labels.size), labels] -= 1.0
        want_grad = want_grad / labels.size
    assert type(loss) is float
    assert same_bits(loss, want_loss)
    assert same_bits(probs, want_probs)
    assert same_bits(grad, want_grad)


@st.composite
def dense_cases(draw):
    """Weights, bias and two (input, output gradient) steps of one dense layer."""
    n, n_in, n_out = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    steps = [(draw(edge_arrays((n, n_in))), draw(edge_arrays((n, n_out)))) for _ in range(2)]
    return draw(edge_arrays((n_out, n_in))), draw(edge_arrays(n_out)), steps


@settings(max_examples=80)
@given(case=dense_cases(), input_grad=st.booleans())
# A 1 x 1 operand: np.dot would take it as a scalar and skip it when zero,
# reading NaN * 0 as 0 and -0.0 products as +0.0.
@example(case=(np.zeros((2, 1)), np.zeros(2), [(np.zeros((1, 1)), np.full((1, 2), np.nan))] * 2), input_grad=True)
@example(case=(np.zeros((1, 1)), np.array([-0.0]), [(np.array([[-0.0]]), np.array([[-0.0]]))] * 2), input_grad=True)
def test_dense_layer_gives_the_general_bits(case, input_grad):
    w, b, steps = case
    layer = DenseLayer(w.shape[1], w.shape[0], make_rng(0))
    layer.w[:], layer.b[:] = w, b
    want_dw, want_db = np.zeros_like(layer.w), np.zeros_like(layer.b)
    for x, grad in steps:  # the second backward adds to the first's sums
        with np.errstate(all="ignore"):
            out = layer.forward(x)
            got = layer.backward(grad, input_grad=input_grad)
            # The general arithmetic, which every group size took before.
            want_out = x @ layer.w.T + layer.b
            want_dw += grad.T @ x
            want_db += np.add.reduce(grad, axis=0)
            want_in = grad @ layer.w
        assert same_bits(out, want_out)
        assert same_bits(layer.d_w, want_dw)
        assert same_bits(layer.d_b, want_db)
        if input_grad:
            assert same_bits(got, want_in)
        else:
            assert got is None


@settings(max_examples=80)
@given(features=st.integers(1, 9), alpha_f=decays, alpha_b=decays, steps=st.integers(1, 4), data=st.data())
def test_one_sample_online_norm_parameter_gradients_give_the_general_bits(
    features, alpha_f, alpha_b, steps, data
):
    layer = OnlineNorm(features, alpha_f=alpha_f, alpha_b=alpha_b)
    layer.gain[:] = data.draw(edge_arrays(features))
    layer.bias[:] = data.draw(edge_arrays(features))
    want_gain, want_bias = np.zeros(features), np.zeros(features)
    for _ in range(steps):
        x, g = data.draw(edge_arrays((1, features))), data.draw(edge_arrays((1, features)))
        with np.errstate(all="ignore"):
            layer.forward(x)
            y = layer.state.pending[0]
            grad = layer_scale_backward(g, *layer._scaled)
            layer.backward(g)
            # The general arithmetic, which every block size took before.
            want_gain += np.add.reduce(grad * y, axis=0)
            want_bias += np.add.reduce(grad, axis=0)
        assert same_bits(layer.d_gain, want_gain)
        assert same_bits(layer.d_bias, want_bias)


# edge_floats, with a negative NaN, infinities and a square that underflows.
stream_values = st.one_of(edge_floats, st.sampled_from([-np.nan, np.inf, -np.inf, 1e-300]))
nonzero_values = stream_values.filter(lambda v: v != 0.0)


@st.composite
def one_value_steps(draw):
    """A state, then 1-4 steps of (x, y', the divisor written into pending[1] or None)."""
    state = {"mu": draw(stream_values), "var": draw(st.sampled_from([1.0, -1.0, 0.0, np.nan, np.inf])),
             "eps_y": draw(nonzero_values), "eps_1": draw(nonzero_values)}
    divisors = st.one_of(st.none(), st.sampled_from([0.0, -0.0, np.nan, np.inf, SIGMA_FLOOR]))
    steps = draw(st.lists(st.tuples(stream_values, stream_values, divisors), min_size=1, max_size=4))
    return state, steps


@settings(max_examples=200)
@given(case=one_value_steps(), alpha_f=decays, alpha_b=decays)
# A negative var, whose sigma is NaN, and a zero divisor: math.sqrt and /
# raise on them, and max keeps the NaN only as its first argument.
@example(case=({"mu": 0.0, "var": -1.0, "eps_y": 1.0, "eps_1": 1.0}, [(1.0, 1.0, 0.0)]), alpha_f=0.9, alpha_b=0.9)
def test_one_value_step_gives_the_array_bits(case, alpha_f, alpha_b):
    # forward_float and backward_float over a stream, against column 0 of a
    # (1, 2) block that the array step takes over the same stream. Where a
    # NaN enters a step, the two agree on NaN-ness alone: which of two NaNs
    # a CPython float operation keeps changes once the interpreter has
    # specialized the operation.
    start, steps = case
    v = dict(start)
    two = OnlineNormState(2, alpha_f, alpha_b)
    for name, value in start.items():
        setattr(two, name, np.array([value, 1.0]))

    def agree(pairs, inputs):
        nan_entered = any(map(math.isnan, inputs))
        for got, want in pairs:
            assert type(got) is float
            assert same_bits(got, want) or (nan_entered and math.isnan(got) and np.isnan(want))

    for x, g, divisor in steps:
        with np.errstate(all="ignore"):
            inputs = (v["mu"], v["var"], x)
            v["mu"], v["var"], y, sigma = forward_float(*inputs, alpha_f)
            want_y = forward_sample(two, np.array([[x, 0.5]]))[0, 0]
            agree([(y, want_y), (sigma, two.pending[1][0, 0]), (v["mu"], two.mu[0]), (v["var"], two.var[0])], inputs)
            if divisor is None:
                divisor = sigma
            else:
                two.pending[1][0, 0] = divisor
            inputs = (v["eps_y"], v["eps_1"], y, divisor, g)
            v["eps_y"], v["eps_1"], x_grad = backward_float(*inputs, alpha_b)
            want_xg = backward_sample(two, np.array([[g, 0.5]]))[0, 0]
            agree([(x_grad, want_xg), (v["eps_y"], two.eps_y[0]), (v["eps_1"], two.eps_1[0])], inputs)


def _mean(v, axes):
    total = np.add.reduce(v, axis=axes, keepdims=True)
    return total / (v.size // total.size)


def _out_of_place_normalize(x, axes):
    mu = _mean(x, axes)
    d = x - mu
    r = _mean(d, axes)
    d = d - r
    var = _mean(d * d, axes)
    sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
    return d / sigma, mu + r, var, sigma


def _out_of_place_backward(g, y, sigma, axes):
    w = g - _mean(g, axes)
    w = w - _mean(w, axes)
    return (w - _mean(w * y, axes) * y) / sigma


@settings(max_examples=60)
@given(
    n=st.integers(2, 16),
    features=st.integers(2, 8),
    spatial=st.one_of(st.none(), st.integers(1, 4)),
    seed=seeds,
)
def test_exact_kernel_writes_only_its_own_arrays(n, features, spatial, seed):
    # The kernel works in place on the arrays it allocates; the caller's x
    # and g, and the y a layer caches for its backward, keep their bits, and
    # every output has the bits of the out-of-place expressions.
    rng = make_rng(seed)
    shape = (n, features) if spatial is None else (n, features, spatial)
    x, g, x_eval = rng.normal(3.0, 2.0, size=(3, *shape))
    before = x.copy(), g.copy(), x_eval.copy()
    layers = [BatchNorm(features), PopulationNorm(features)]
    if spatial is None:
        layers.append(LayerNorm(features))
    for layer in layers:
        axes = 1 if isinstance(layer, LayerNorm) else (0 if spatial is None else (0, 2))
        want_y, want_mu, want_var, want_sigma = _out_of_place_normalize(x, axes)
        if type(layer) is BatchNorm:  # one step of the running statistics from (0, 1)
            mu = 0.99 * np.zeros(features) + (1.0 - 0.99) * want_mu.reshape(-1)
            var = 0.99 * np.ones(features) + (1.0 - 0.99) * want_var.reshape(-1)
            sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
            if spatial is not None:  # broadcast each feature's value over its positions
                mu, sigma = mu[:, None], sigma[:, None]
            want_eval = (x_eval - mu) / sigma
        else:
            want_eval = _out_of_place_normalize(x_eval, axes)[0]
        y = layer.forward(x)
        cached = y.copy()
        assert np.array_equal(y, want_y)
        assert np.array_equal(layer.backward(g), _out_of_place_backward(g, want_y, want_sigma, axes))
        assert np.array_equal(layer.forward(x_eval, training=False), want_eval)
        assert np.array_equal(y, cached) and np.array_equal(layer._cache[0], cached)
        assert all(np.array_equal(a, b) for a, b in zip((x, g, x_eval), before))

    flat_y, mu, sigma = exact_normalize(x)
    want_y, want_mu, want_var, _ = _out_of_place_normalize(x.reshape(-1), 0)
    assert np.array_equal(flat_y, want_y) and mu == want_mu[0] and sigma == np.sqrt(want_var[0])
    cached = flat_y.copy()
    got = exact_backward(flat_y, g, sigma)
    assert np.array_equal(got, _out_of_place_backward(g.reshape(-1), want_y, sigma, 0))
    assert np.array_equal(flat_y, cached)
    assert all(np.array_equal(a, b) for a, b in zip((x, g), before))


def test_fully_connected_blocks_take_no_spatial_path():
    # A fully connected block stays 2-D through every normalizer: no record
    # kept for the backward has a third axis.
    rng = make_rng(31)
    for n in (1, 2, 32):
        x, g = rng.normal(size=(2, n, 6))
        layers = [OnlineNorm(6), LayerNorm(6)] + ([BatchNorm(6)] if n > 1 else [])
        for layer in layers:
            assert layer.forward(x).shape == (n, 6)
            records = (*layer.state.pending, *layer._scaled) if isinstance(layer, OnlineNorm) else layer._cache
            assert all(np.ndim(r) <= 2 for r in records), type(layer).__name__
            assert layer.backward(g).shape == (n, 6)
            assert layer.forward(x, training=False).shape == (n, 6)


@settings(max_examples=20)
@given(batch=st.integers(1, 32), seed=seeds)
def test_mlp_group_matches_one_row_passes(batch, seed):
    # Parameters change only between groups, so one group of B samples and B
    # one-row passes with no optimizer step between them see the same
    # weights; only the dense layers' summation order differs, which moves
    # d_w by up to about 6e-13 of its largest entry over many seeds.
    cfg = TrainConfig(normalizer="online", hidden=6, depth=2)
    sizes = [4, 6, 6, 3]
    rng = make_rng(seed)
    x = rng.normal(size=(batch, 4))
    grad = rng.normal(size=(batch, 3))
    group = Mlp(sizes, cfg, make_rng(seed))
    rows = Mlp(sizes, cfg, make_rng(seed))
    group.forward_batch(x)
    group.backward_batch(grad)
    for i in range(batch):
        rows.forward_batch(x[i : i + 1])
        rows.backward_batch(grad[i : i + 1])
    for dg, dr in zip(group.dense, rows.dense):
        for got, want in ((dg.d_w, dr.d_w), (dg.d_b, dr.d_b)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@functools.cache
def evaluated_net(kind, trained):
    """A (4, 8, 8, 3) network of the given kind, untrained or after two epochs on blobs."""
    cfg = TrainConfig(normalizer=kind, hidden=8, depth=2, epochs=2, batch_size=8, seed=5)
    if not trained:
        return Mlp([4, 8, 8, 3], cfg, make_rng(cfg.seed))
    data = generate_dataset(DatasetSpec(kind="gaussian-blobs", classes=3, samples=200, dim=4), 6)
    return train(cfg, data)[1]


def evaluate_in_blocks(net, data):
    """evaluate_accuracy(net, data), the size of each group it ran forward, and
    the accuracy of the whole set's logits in one forward_batch."""
    sizes = []
    forward = net.forward_batch

    def recording(x, training=True):
        sizes.append(len(x))
        return forward(x, training)

    net.forward_batch = recording
    try:
        accuracy = evaluate_accuracy(net, data)
    finally:
        del net.forward_batch
    logits = net.forward_batch(data.x, training=False)
    return accuracy, sizes, float((np.argmax(logits, axis=1) == data.labels).mean())


# Set sizes on either side of one and two block edges, and beyond.
eval_sizes = st.sampled_from([1, 127, 128, 129, 255, 256, 257]) | st.integers(1, 600)


@settings(max_examples=40)
@given(kind=st.sampled_from(["online", "batch", "layer", "none"]), trained=st.booleans(), n=eval_sizes, seed=seeds)
def test_blocked_evaluation_gives_the_whole_set_accuracy(kind, trained, n, seed):
    data = generate_dataset(DatasetSpec(kind="gaussian-blobs", classes=3, samples=n, dim=4), seed)
    accuracy, sizes, whole = evaluate_in_blocks(evaluated_net(kind, trained), data)
    assert sizes == [min(128, n - start) for start in range(0, n, 128)]
    assert type(accuracy) is float and accuracy == whole


@settings(max_examples=10)
@given(trained=st.booleans(), n=st.integers(129, 600), seed=seeds)
def test_exact_population_evaluates_the_whole_set_at_once(trained, n, seed):
    # Its inference normalizes the presented set by that set's own statistics.
    data = generate_dataset(DatasetSpec(kind="gaussian-blobs", classes=3, samples=n, dim=4), seed)
    accuracy, sizes, whole = evaluate_in_blocks(evaluated_net("exact-population", trained), data)
    assert sizes == [n]
    assert accuracy == whole


def einsum_conv(x, k, b, grad):
    """Reference valid-padding convolution as two 6-index einsums: the
    output and the kernel gradient."""
    kh, kw = k.shape[2:]
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.einsum("bihwkl,oikl->bohw", win, k) + b[None, :, None, None]
    d_k = np.einsum("bihwkl,bohw->oikl", win, grad)
    return out, d_k, grad.sum(axis=(0, 2, 3))


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=60)
@given(
    batch=st.integers(1, 5),
    in_ch=st.integers(1, 4),
    out_ch=st.integers(1, 4),
    kernel=st.integers(1, 4),
    extra=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    seed=seeds,
)
def test_conv_matches_einsum_reference(batch, in_ch, out_ch, kernel, extra, seed):
    rng = make_rng(seed)
    conv = Conv2D(in_ch, out_ch, kernel, rng)
    conv.b[...] = rng.normal(size=out_ch)
    x = rng.normal(size=(batch, in_ch, kernel + extra[0], kernel + extra[1]))
    grads = [rng.normal(size=(batch, out_ch, extra[0] + 1, extra[1] + 1)) for _ in range(2)]
    out, d_k, d_b = einsum_conv(x, conv.k, conv.b, grads[0])
    assert_close(conv.forward(x), out)
    conv.backward(grads[0])
    assert_close(conv.d_k, d_k)
    assert_close(conv.d_b, d_b)
    # A second backward adds onto the gradients of the first.
    _, d_k2, d_b2 = einsum_conv(x, conv.k, conv.b, grads[1])
    conv.backward(grads[1])
    assert_close(conv.d_k, d_k + d_k2)
    assert_close(conv.d_b, d_b + d_b2)


@settings(max_examples=40)
@given(b=st.integers(2, 8), groups=st.integers(1, 8), seed=seeds)
def test_grouped_bias_gradient_matches_one_call_per_batch(b, groups, seed):
    rng = make_rng(seed)
    n = b * groups
    x = rng.normal(size=(n, _SIDE * _SIDE))
    labels = rng.integers(0, _CLASSES, size=n)
    net = _BiasNet(rng)
    order = rng.permutation(n)
    sel = _interleave(order, b)
    got = net.gradient(x[sel], labels[sel], groups)
    # The reference: one call per contiguous batch of the permutation, summed.
    want = np.zeros_like(got)
    for start in range(0, n, b):
        batch = order[start : start + b]
        want += net.gradient(x[batch], labels[batch])
    assert_close(got, want)


def assert_layers_view_the_store(params, layers):
    """Every PARAMS attribute is a view of params.p and its d_ twin of params.g."""
    total = 0
    for layer in layers:
        for name in layer.PARAMS:
            assert np.shares_memory(getattr(layer, name), params.p)
            assert np.shares_memory(getattr(layer, "d_" + name), params.g)
            total += getattr(layer, name).size
    assert total == params.p.size


def make_layer(kind, a, b, rng):
    if kind == "dense":
        return DenseLayer(a, b, rng)
    if kind == "conv":
        return Conv2D(a, b, 2, rng)
    return OnlineNorm(a, alpha_f=0.9, alpha_b=0.9)


def accumulate_random_gradients(layer, rng):
    """One training forward and backward of the layer on random data."""
    if isinstance(layer, DenseLayer):
        out = layer.forward(rng.normal(size=(3, layer.w.shape[1])))
    elif isinstance(layer, Conv2D):
        out = layer.forward(rng.normal(size=(2, layer.k.shape[1], 4, 4)))
    else:
        out = layer.forward(rng.normal(size=(3, layer.state.features)))
    layer.backward(rng.normal(size=out.shape))


layer_specs = st.lists(
    st.tuples(st.sampled_from(["dense", "conv", "online"]), st.integers(1, 5), st.integers(1, 5)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40)
@given(
    specs=layer_specs,
    steps=st.integers(1, 4),
    eta=st.floats(0.0, 1.0),
    momentum=st.floats(0.0, 0.99),
    l2=st.floats(0.0, 0.1),
    seed=seeds,
)
def test_parameter_store_steps_like_one_update_per_array(specs, steps, eta, momentum, l2, seed):
    rng = make_rng(seed)
    layers = [make_layer(*spec, rng) for spec in specs]
    slots = [(layer, name) for layer in layers for name in layer.PARAMS]
    ref_p = [getattr(layer, name).copy() for layer, name in slots]
    ref_v = [np.zeros_like(p) for p in ref_p]
    params = Params(layers)
    for _ in range(steps):
        for layer in layers:
            accumulate_random_gradients(layer, rng)
        grads = [getattr(layer, "d_" + name).copy() for layer, name in slots]
        sgd_momentum_step(params, eta, momentum, l2)
        # The reference: the same four updates, one parameter array at a time.
        for p, g, v in zip(ref_p, grads, ref_v):
            v *= momentum
            v += (1.0 - momentum) * (g + l2 * p)
            p -= eta * v
        for (layer, name), p in zip(slots, ref_p):
            assert np.array_equal(getattr(layer, name), p)
            assert not getattr(layer, "d_" + name).any()
    assert np.array_equal(params.v, np.concatenate([v.ravel() for v in ref_v]))
    assert_layers_view_the_store(params, layers)


# Batch normalization needs groups of at least two samples.
TRAIN_CASES = [(k, b) for k in NORMALIZER_KINDS for b in (1, 32) if (k, b) != ("batch", 1)]


@pytest.mark.parametrize("kind, batch_size", TRAIN_CASES)
def test_training_keeps_every_layer_on_the_parameter_store(kind, batch_size):
    data = generate_dataset(DatasetSpec(kind="gaussian-blobs", classes=3, samples=96, dim=4), 0)
    cfg = TrainConfig(eta=0.01, batch_size=batch_size, epochs=1, normalizer=kind, hidden=6, depth=2, seed=1)
    _, net = train(cfg, data)
    untrained = Mlp([4, 6, 6, 3], cfg, make_rng(cfg.seed))
    assert not np.array_equal(net.params.p, untrained.params.p)
    assert_layers_view_the_store(net.params, net.dense + [n for n in net.norms if isinstance(n, OnlineNorm)])


@settings(max_examples=60)
@given(
    kind=st.sampled_from(NORMALIZER_KINDS),
    n=st.integers(10, 40),
    batch_size=st.integers(1, 8),
    epochs=st.integers(1, 3),
    eval_interval=st.integers(0, 7),
    validation=st.booleans(),
    seed=seeds,
)
def test_train_records_on_schedule_with_interval_mean_losses(
    kind, n, batch_size, epochs, eval_interval, validation, seed
):
    # Batch normalization needs groups of at least two samples.
    assume(kind != "batch" or batch_size >= 2)
    data = generate_dataset(DatasetSpec(kind="gaussian-blobs", classes=2, samples=n, dim=2), seed)
    train_set, val_set = data.split(0.2, seed) if validation else (data, None)
    cfg = TrainConfig(
        eta=0.01, batch_size=batch_size, epochs=epochs, normalizer=kind,
        hidden=2, eval_interval=eval_interval, seed=seed,
    )
    step_losses, step_sizes, step_hits = [], [], []
    forward = net_module.softmax_xent_forward

    def recording_forward(logits, labels):
        loss, probs = forward(logits, labels)
        step_losses.append(loss)
        step_sizes.append(labels.size)
        step_hits.append(int((np.argmax(logits, axis=1) == labels).sum()))
        return loss, probs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(net_module, "softmax_xent_forward", recording_forward)
        records, _ = train(cfg, train_set, val_set)

    if kind == "exact-population":
        per_epoch = 1
    elif kind == "online":
        per_epoch = -(-train_set.n // batch_size)
    else:
        per_epoch = train_set.n // batch_size
    total = epochs * per_epoch
    assert len(step_losses) == total
    every = eval_interval or per_epoch
    expected = list(range(every, total + 1, every))
    if expected[-1:] != [total]:
        expected.append(total)
    assert [r.step for r in records] == expected
    previous = 0
    for r in records:
        assert r.epoch == (r.step - 1) // per_epoch
        assert r.loss == np.average(step_losses[previous : r.step], weights=step_sizes[previous : r.step])
        if not validation:  # the training samples' accuracy over the interval
            assert r.accuracy == sum(step_hits[previous : r.step]) / sum(step_sizes[previous : r.step])
        previous = r.step


def one_train_run_per_cell(alpha_f, alpha_b, base, data):
    """The sweep as separate train() runs: (final losses, diverged), inf where a run diverged."""
    losses = np.full((len(alpha_f), len(alpha_b)), np.inf)
    diverged = np.zeros(losses.shape, dtype=bool)
    for i, af in enumerate(alpha_f):
        for j, ab in enumerate(alpha_b):
            try:
                with np.errstate(all="ignore"):
                    losses[i, j] = train(replace(base, alpha_f=af, alpha_b=ab), data)[0][-1].loss
            except DivergenceError:
                diverged[i, j] = True
    return losses, diverged


@st.composite
def sweep_groups(draw):
    """(batch size 1-7, samples): 2-8 full groups and, past batch size 1, a trailing partial one."""
    batch = draw(st.integers(1, 7))
    return batch, batch * draw(st.integers(2, 8)) + (draw(st.integers(1, batch - 1)) if batch > 1 else 0)


sweep_grids = st.lists(st.sampled_from([0.3, 0.5, 0.9, 0.99, 0.999]), min_size=1, max_size=3, unique=True)
BENCH_ETA, BENCH_MOMENTUM, _ = scale_hyperparams(0.1, 0.9, 1e-4, 32, 4)


@settings(max_examples=40)
@given(
    alpha_f=sweep_grids,
    alpha_b=sweep_grids,
    groups=sweep_groups(),
    dim=st.integers(2, 8),
    depth=st.integers(1, 2),
    hidden=st.integers(2, 16),
    epochs=st.integers(1, 2),
    eval_interval=st.integers(0, 3),
    eta=st.sampled_from([0.003, 0.03, 0.3]),
    momentum=st.sampled_from([0.0, 0.9]),
    seed=st.integers(0, 2**16),
)
# test_cli's divergent cell: (0.999, 0.5) diverges and the rest go on.
@example(alpha_f=[0.9, 0.999], alpha_b=[0.5, 0.99], groups=(16, 200), dim=8, depth=1, hidden=8,
         epochs=1, eval_interval=0, eta=0.1, momentum=0.9, seed=1)
# Every cell diverges.
@example(alpha_f=[0.9, 0.99], alpha_b=[0.5], groups=(4, 120), dim=4, depth=1, hidden=8,
         epochs=1, eval_interval=0, eta=1.0, momentum=0.0, seed=0)
# The benchmark's sweep.
@example(alpha_f=[0.99, 0.999], alpha_b=[0.9, 0.99], groups=(4, 1000), dim=8, depth=1, hidden=16,
         epochs=1, eval_interval=0, eta=BENCH_ETA, momentum=BENCH_MOMENTUM, seed=13)
def test_sweep_cells_equal_one_train_run_each(
    alpha_f, alpha_b, groups, dim, depth, hidden, epochs, eval_interval, eta, momentum, seed
):
    batch, samples = groups
    data = generate_dataset(DatasetSpec(kind="gaussian-blobs", classes=3, samples=samples, dim=dim), seed)
    base = TrainConfig(eta=eta, momentum=momentum, batch_size=batch, epochs=epochs, seed=seed,
                       hidden=hidden, depth=depth, eval_interval=eval_interval)
    stacked = []

    def recording_step(params, *args):
        stacked.append(params)
        sgd_momentum_step(params, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "sgd_momentum_step", recording_step)
        result = decay_sweep(alpha_f, alpha_b, base, data)
    losses, diverged = one_train_run_per_cell(alpha_f, alpha_b, base, data)
    assert np.array_equal(result.final_loss, losses)
    assert np.array_equal(result.diverged, diverged)
    # A diverged cell is zeroed, so every cell's parameters end finite.
    assert np.isfinite(stacked[-1].p).all() and np.isfinite(stacked[-1].v).all()
