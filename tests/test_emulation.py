import numpy as np
import pytest

from onlinenorm.emulation import emulate_stream
from onlinenorm.online import OnlineNormState, forward_sample
from onlinenorm.selftest import group_deviation
from onlinenorm.tensor import ShapeError, make_rng


def streaming_trajectory(xs, alpha):
    """Oracle: the per-step streaming statistics."""
    state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    mus, vars_ = [], []
    for x in np.reshape(xs, (-1, 1, 1)):
        forward_sample(state, x)
        mus.append(state.mu[0])
        vars_.append(state.var[0])
    return np.array(mus), np.array(vars_)


def test_group_of_one_reduces_to_streaming_recurrence():
    alpha = 0.9
    rng = make_rng(50)
    xs = rng.uniform(-1, 1, size=32)
    mus, vars_ = emulate_stream(xs, 1, alpha)
    ref_mu, ref_var = streaming_trajectory(xs, alpha)
    assert np.array_equal(mus, ref_mu)
    assert np.abs(vars_ - ref_var).max() < 1e-15


def test_zero_input_stays_zero():
    mus, _ = emulate_stream(np.zeros(20), 4, 0.99)
    assert np.array_equal(mus, np.zeros(20))


def test_mean_matches_streaming_on_random_stream():
    alpha = 0.97
    rng = make_rng(51)
    xs = rng.normal(size=64)
    got, _ = emulate_stream(xs, 4, alpha)
    ref_mu, _ = streaming_trajectory(xs, alpha)
    assert np.abs(got - ref_mu).max() < 1e-12


def test_variance_constant_stream_decays_geometrically():
    alpha = 0.9
    xs = np.full(24, 1.3)
    _, vars_ = emulate_stream(xs, 4, alpha)
    _, ref_var = streaming_trajectory(xs, alpha)
    assert np.abs(vars_ - ref_var).max() < 1e-12
    assert vars_[-1] < vars_[4]  # decaying toward zero once mean settles


def test_variance_matches_streaming_on_random_stream():
    alpha = 0.95
    rng = make_rng(52)
    xs = rng.normal(size=128)
    _, got = emulate_stream(xs, 8, alpha)
    _, ref_var = streaming_trajectory(xs, alpha)
    assert np.abs(got - ref_var).max() < 1e-10


def test_emulation_deviation_reports_nan():
    # A NaN at the end of the stream poisons x' and eps_y; the grouped-run
    # gap must come back as NaN rather than the largest finite gap.
    x = make_rng(54).normal(size=(12, 1))
    g = make_rng(55).normal(size=(12, 1))
    g[-1] = np.nan
    assert np.isnan(group_deviation(x, g, 4, 0.9, 0.99))


def test_group_length_mismatch_errors():
    with pytest.raises(ShapeError):
        emulate_stream(np.zeros(3), 4, 0.9)
    with pytest.raises(ShapeError):
        emulate_stream(np.zeros(5), 4, 0.9)
    with pytest.raises(ShapeError):
        emulate_stream(np.zeros(10), 4, 0.9)


def test_invalid_construction():
    with pytest.raises(ValueError):
        emulate_stream(np.zeros(4), 0, 0.9)
    with pytest.raises(ValueError):
        emulate_stream(np.zeros(4), 4, 1.0)
