"""Property tests: a block of n samples is the same stream as n single samples,
and the streaming state keeps its invariants over random shapes and decays."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinenorm.net import Mlp, TrainConfig
from onlinenorm.online import (
    InterleaveError,
    OnlineNorm,
    OnlineNormState,
    backward_sample,
    forward_inference,
    forward_sample,
    layer_scale_backward,
    layer_scale_forward,
)
from onlinenorm.selftest import emulation_deviation
from onlinenorm.tensor import make_rng

decays = st.floats(0.5, 0.9999)
seeds = st.integers(0, 2**32 - 1)
STATE_ARRAYS = ("mu", "var", "eps_y", "eps_1", "out_ms")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 64),
    features=st.integers(1, 16),
    spatial=st.integers(1, 4),
    alpha_f=decays,
    alpha_b=decays,
    output_rms=st.booleans(),
    split=st.integers(0, 64),
    seed=seeds,
)
def test_block_is_bit_identical_to_single_sample_calls(
    n, features, spatial, alpha_f, alpha_b, output_rms, split, seed
):
    rng = make_rng(seed)
    x = rng.normal(3.0, 2.0, size=(n, features, spatial))
    g = rng.normal(size=(n, features, spatial))

    def state():
        return OnlineNormState(features, alpha_f=alpha_f, alpha_b=alpha_b, scale_by_output_rms=output_rms)

    # Two blocks (the first possibly empty), each forward then backward.
    grouped = state()
    y_blocks, xg_blocks, sigma_blocks = [], [], []
    for part in (slice(0, split), slice(split, n)):
        if x[part].shape[0] == 0:
            continue
        y_blocks.append(forward_sample(grouped, x[part]))
        sigma_blocks.append(grouped.pending[1])
        xg_blocks.append(backward_sample(grouped, g[part]))

    streamed = state()
    y_rows, xg_rows, sigma_rows = [], [], []
    for t in range(n):
        y_rows.append(forward_sample(streamed, x[t : t + 1]))
        sigma_rows.append(streamed.pending[1])
        xg_rows.append(backward_sample(streamed, g[t : t + 1]))

    assert np.array_equal(np.concatenate(y_blocks), np.concatenate(y_rows))
    assert np.array_equal(np.concatenate(xg_blocks), np.concatenate(xg_rows))
    assert np.array_equal(np.concatenate(sigma_blocks), np.concatenate(sigma_rows))
    for name in STATE_ARRAYS:
        assert np.array_equal(getattr(grouped, name), getattr(streamed, name)), name


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    features=st.integers(1, 16),
    spatial=st.integers(1, 4),
    alpha_f=decays,
    alpha_b=decays,
    output_rms=st.booleans(),
    seed=seeds,
)
def test_state_invariants_and_handshake(blocks, features, spatial, alpha_f, alpha_b, output_rms, seed):
    rng = make_rng(seed)
    state = OnlineNormState(features, alpha_f=alpha_f, alpha_b=alpha_b, scale_by_output_rms=output_rms)
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
