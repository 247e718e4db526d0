"""Property tests: a block of n samples is the same stream as n single samples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinenorm.emulation import emulate_stream
from onlinenorm.net import Mlp, TrainConfig
from onlinenorm.online import (
    ForwardCache,
    OnlineNormState,
    backward_sample,
    forward_sample,
    layer_scale_backward,
    layer_scale_forward,
)
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
        y, cache = forward_sample(grouped, x[part])
        xg_blocks.append(backward_sample(grouped, g[part], cache))
        y_blocks.append(y)
        sigma_blocks.append(cache.sigma_used)

    streamed = state()
    y_rows, xg_rows, sigma_rows = [], [], []
    for t in range(n):
        y, cache = forward_sample(streamed, x[t : t + 1])
        xg_rows.append(backward_sample(streamed, g[t : t + 1], cache))
        y_rows.append(y)
        sigma_rows.append(cache.sigma_used)

    assert np.array_equal(np.concatenate(y_blocks), np.concatenate(y_rows))
    assert np.array_equal(np.concatenate(xg_blocks), np.concatenate(xg_rows))
    assert np.array_equal(np.concatenate(sigma_blocks), np.concatenate(sigma_rows))
    for name in STATE_ARRAYS:
        assert np.array_equal(getattr(grouped, name), getattr(streamed, name)), name


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
    cache = ForwardCache()
    z, zeta = layer_scale_forward(y, cache)
    back = layer_scale_backward(g, cache)
    for t in range(n):
        row_cache = ForwardCache()
        z_t, zeta_t = layer_scale_forward(y[t : t + 1], row_cache)
        assert np.array_equal(z_t, z[t : t + 1])
        assert np.array_equal(zeta_t, zeta[t : t + 1])
        assert np.array_equal(layer_scale_backward(g[t : t + 1], row_cache), back[t : t + 1])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), groups=st.integers(1, 4), alpha=decays, seed=seeds)
def test_closed_form_emulation_matches_streaming(n, groups, alpha, seed):
    xs = make_rng(seed).uniform(-2.0, 2.0, size=n * groups)
    mus, vars_ = emulate_stream(xs, n, alpha)
    state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    worst = 0.0
    for t, x in enumerate(xs.reshape(-1, 1, 1, 1)):
        forward_sample(state, x)
        worst = max(worst, abs(state.mu[0] - mus[t]), abs(state.var[0] - vars_[t]))
    assert worst <= 1e-10


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
