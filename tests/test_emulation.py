import numpy as np
import pytest

from onlinenorm import emulation
from onlinenorm.emulation import emulate_stream
from onlinenorm.online import OnlineNormState, forward_sample
from onlinenorm.selftest import emulation_deviation
from onlinenorm.tensor import ShapeError, make_rng


def streaming_trajectory(xs, alpha):
    """Oracle: the per-step streaming statistics."""
    state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    mus, vars_ = [], []
    for x in np.reshape(xs, (-1, 1, 1, 1)):
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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("alpha", [0.5, 0.99, 0.999])
def test_equivalence_grid(n, alpha):
    rng = make_rng(1000 * n + int(alpha * 1000))
    assert emulation_deviation(rng.uniform(-2, 2, size=10 * n), n, alpha) < 1e-10


def test_group_splitting_is_associative():
    alpha = 0.98
    k = 6
    rng = make_rng(53)
    xs = rng.normal(size=4 * k)
    assert emulation_deviation(xs, k, alpha) < 1e-10
    assert emulation_deviation(xs, 2 * k, alpha) < 1e-10


def test_emulation_deviation_reports_nan(monkeypatch):
    def nan_at_end(xs, n, alpha):
        mus, vars_ = emulate_stream(xs, n, alpha)
        mus[-1] = np.nan
        return mus, vars_

    monkeypatch.setattr(emulation, "emulate_stream", nan_at_end)
    assert np.isnan(emulation_deviation(make_rng(54).normal(size=12), 4, 0.9))


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
