"""Property tests: a block of n samples is the same stream as n single samples
to within rounding, the scan behind it matches a plain loop, the streaming
state keeps its invariants over random shapes and decays, the conv layer
matches its einsum formulas, the gradient-bias network's grouped pass
matches one call per batch, and the parameter store steps like one update
per array."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinenorm.datasets import DatasetSpec, generate_dataset
from onlinenorm.experiments import _CLASSES, _SIDE, _BiasNet, _interleave
from onlinenorm.net import (
    NORMALIZER_KINDS,
    Conv2D,
    DenseLayer,
    Mlp,
    Params,
    TrainConfig,
    sgd_momentum_step,
    train,
)
from onlinenorm.online import (
    InterleaveError,
    OnlineNorm,
    OnlineNormState,
    backward_sample,
    forward_inference,
    forward_sample,
    layer_scale_backward,
    layer_scale_forward,
    _scan,
)
from onlinenorm.selftest import emulation_deviation, group_deviation
from onlinenorm.tensor import make_rng

decays = st.floats(0.5, 0.9999)
seeds = st.integers(0, 2**32 - 1)
STATE_ARRAYS = ("mu", "var", "eps_y", "eps_1")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 64),
    features=st.integers(1, 16),
    spatial=st.integers(1, 4),
    alpha_f=decays,
    alpha_b=decays,
    split=st.integers(0, 64),
    seed=seeds,
)
def test_block_matches_single_sample_calls(n, features, spatial, alpha_f, alpha_b, split, seed):
    rng = make_rng(seed)
    x = rng.normal(3.0, 2.0, size=(n, features, spatial))
    g = rng.normal(size=(n, features, spatial))
    gap = group_deviation(x, g, split, alpha_f, alpha_b)
    # One-sample blocks keep the single-sample arithmetic; a scan over a
    # longer block sums in another order.
    if n == 1 or (n, split) == (2, 1):
        assert gap == 0.0
    else:
        assert gap <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    blocks=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    features=st.integers(1, 16),
    spatial=st.integers(1, 4),
    alpha_f=decays,
    alpha_b=decays,
    seed=seeds,
)
def test_block_sequence_repeats_bit_identically(blocks, features, spatial, alpha_f, alpha_b, seed):
    rng = make_rng(seed)
    data = [(rng.normal(3.0, 2.0, size=(n, features, spatial)), rng.normal(size=(n, features, spatial))) for n in blocks]

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


@settings(max_examples=60, deadline=None)
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


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    features=st.integers(1, 16),
    spatial=st.integers(1, 4),
    alpha_f=decays,
    alpha_b=decays,
    seed=seeds,
)
def test_state_invariants_and_handshake(blocks, features, spatial, alpha_f, alpha_b, seed):
    rng = make_rng(seed)
    state = OnlineNormState(features, alpha_f=alpha_f, alpha_b=alpha_b)
    with pytest.raises(InterleaveError):
        backward_sample(state, rng.normal(size=(1, features, spatial)))  # nothing pending
    for n in blocks:
        x = rng.normal(3.0, 2.0, size=(n, features, spatial))
        g = rng.normal(size=(n, features, spatial))
        forward_sample(state, x)
        untouched = copy.deepcopy(state)
        # Inference between a forward and its backward changes nothing the backward reads.
        forward_inference(state, rng.normal(size=(n, features, spatial)))
        assert np.array_equal(backward_sample(state, g), backward_sample(untouched, g))
        with pytest.raises(InterleaveError):
            backward_sample(state, g)  # already consumed
        assert (state.var >= 0.0).all()
        for name in STATE_ARRAYS:
            assert np.isfinite(getattr(state, name)).all(), name
    forward_sample(state, rng.normal(size=(1, features, spatial)))
    state.reset()
    with pytest.raises(InterleaveError):
        backward_sample(state, rng.normal(size=(1, features, spatial)))  # reset dropped it

    layer = OnlineNorm(features, alpha_f=alpha_f, alpha_b=alpha_b)
    x = rng.normal(size=(blocks[0], features, spatial))
    g = rng.normal(size=(blocks[0], features, spatial))
    layer.forward(x)
    untouched = copy.deepcopy(layer)
    layer.forward(rng.normal(size=x.shape), training=False)
    assert np.array_equal(layer.backward(g), untouched.backward(g))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 16),
    features=st.integers(1, 16),
    spatial=st.integers(1, 4),
    scale=st.sampled_from([0.0, 1e-7, 1.0, 1e3]),
    seed=seeds,
)
def test_layer_scaling_block_is_bit_identical_to_single_samples(n, features, spatial, scale, seed):
    rng = make_rng(seed)
    y = scale * rng.normal(size=(n, features, spatial))
    g = rng.normal(size=(n, features, spatial))
    z, zeta = layer_scale_forward(y)
    back = layer_scale_backward(g, z, zeta)
    for t in range(n):
        z_t, zeta_t = layer_scale_forward(y[t : t + 1])
        assert np.array_equal(z_t, z[t : t + 1])
        assert np.array_equal(zeta_t, zeta[t : t + 1])
        assert np.array_equal(layer_scale_backward(g[t : t + 1], z_t, zeta_t), back[t : t + 1])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), groups=st.integers(1, 4), alpha=decays, seed=seeds)
def test_closed_form_emulation_matches_streaming(n, groups, alpha, seed):
    xs = make_rng(seed).uniform(-2.0, 2.0, size=n * groups)
    assert emulation_deviation(xs, n, alpha) <= 1e-10


@settings(max_examples=20, deadline=None)
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


def einsum_conv(x, k, b, grad):
    """Reference valid-padding convolution as three 6-index einsums: the
    output, the kernel gradient and the input gradient (a full correlation of
    the zero-padded output gradient with the flipped kernel)."""
    kh, kw = k.shape[2:]
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.einsum("bihwkl,oikl->bohw", win, k) + b[None, :, None, None]
    d_k = np.einsum("bihwkl,bohw->oikl", win, grad)
    pad = np.pad(grad, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    gwin = np.lib.stride_tricks.sliding_window_view(pad, (kh, kw), axis=(2, 3))
    d_x = np.einsum("bohwkl,oikl->bihw", gwin, k[:, :, ::-1, ::-1])
    return out, d_k, grad.sum(axis=(0, 2, 3)), d_x


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=60, deadline=None)
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
    out, d_k, d_b, d_x = einsum_conv(x, conv.k, conv.b, grads[0])
    assert_close(conv.forward(x), out)
    assert_close(conv.backward(grads[0]), d_x)
    assert_close(conv.d_k, d_k)
    assert_close(conv.d_b, d_b)
    # A second backward adds onto the gradients of the first.
    _, d_k2, d_b2, d_x2 = einsum_conv(x, conv.k, conv.b, grads[1])
    assert_close(conv.backward(grads[1]), d_x2)
    assert_close(conv.d_k, d_k + d_k2)
    assert_close(conv.d_b, d_b + d_b2)


@settings(max_examples=40, deadline=None)
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


@settings(max_examples=40, deadline=None)
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
