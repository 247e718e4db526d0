import numpy as np
import pytest

from onlinenorm.online import (
    AffineParams,
    ForwardCache,
    InterleaveError,
    OnlineNorm,
    OnlineNormState,
    affine_backward,
    affine_forward,
    backward_sample,
    forward_sample,
    layer_scale_backward,
    layer_scale_forward,
    load_state,
    save_state,
)
from onlinenorm.tensor import ShapeError, make_rng


def scalar(x):
    """One sample with one feature: a (1, 1, 1) block."""
    return np.full((1, 1, 1), float(x))


def sample(values):
    """One sample as a (1, features, spatial) block; 1-D values mean spatial = 1."""
    a = np.asarray(values, dtype=np.float64)
    return a.reshape(1, a.shape[0], -1)


def run_forward(state, xs):
    ys = []
    for x in xs:
        y, _ = forward_sample(state, scalar(x))
        ys.append(y[0, 0, 0])
    return np.array(ys)


# ---------------------------------------------------------------- forward


def test_first_sample_after_reset():
    alpha = 0.9
    state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    y, cache = forward_sample(state, scalar(3.0))
    assert y[0, 0, 0] == 3.0
    assert state.mu[0] == pytest.approx((1 - alpha) * 3.0, abs=1e-15)
    assert state.var[0] == pytest.approx(alpha + alpha * (1 - alpha) * 9.0, abs=1e-15)
    assert cache.sigma_used[0, 0] == 1.0


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 0.999])
def test_mean_matches_decayed_sum_oracle(alpha):
    rng = make_rng(10)
    xs = rng.uniform(-2.0, 2.0, size=1000)
    state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    for t, x in enumerate(xs):
        forward_sample(state, scalar(x))
        if t % 97 == 0 or t == xs.size - 1:
            expect = (1 - alpha) * sum(alpha ** (t - j) * xs[j] for j in range(t + 1))
            assert abs(state.mu[0] - expect) < 1e-9


@pytest.mark.parametrize("alpha", [0.5, 0.99, 0.999])
def test_var_matches_unrolled_recurrence_oracle(alpha):
    rng = make_rng(11)
    xs = rng.uniform(-2.0, 2.0, size=400)
    state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    for x in xs:
        forward_sample(state, scalar(x))
    t = xs.size - 1

    def mu_closed(j):
        if j < 0:
            return 0.0
        return (1 - alpha) * sum(alpha ** (j - k) * xs[k] for k in range(j + 1))

    expect = alpha ** (t + 1) * 1.0 + alpha * (1 - alpha) * sum(
        alpha ** (t - j) * (xs[j] - mu_closed(j - 1)) ** 2 for j in range(t + 1)
    )
    assert abs(state.var[0] - expect) < 1e-9


def test_asymptotic_variance_near_inverse_alpha():
    alpha = 0.999
    rng = make_rng(20)
    state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    ys = run_forward(state, rng.normal(size=100_000))
    var = ys[50_000:].var()
    assert var == pytest.approx(1.0 / alpha, rel=0.03)


@pytest.mark.parametrize("alpha", [0.5, 0.99, 0.999])
def test_forward_mean_control_estimator_equivalence(alpha):
    rng = make_rng(12)
    state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    eps = 0.0
    for x in rng.uniform(-1.0, 1.0, size=2000):
        forward_sample(state, scalar(x))
        eps += x - (1 - alpha) * eps
        assert abs(state.mu[0] - (1 - alpha) * eps) < 1e-10


def test_accumulated_centered_output_bounded():
    alpha = 0.9
    rng = make_rng(13)
    state = OnlineNormState(1, alpha_f=alpha, alpha_b=0.99)
    total = 0.0
    bound = 1.0 / (1 - alpha)
    for x in rng.uniform(-1.0, 1.0, size=20_000):
        total += x - state.mu[0]
        forward_sample(state, scalar(x))
        assert abs(total) <= bound + 1e-9


def test_forward_spatial_uses_feature_statistics():
    state = OnlineNormState(2, alpha_f=0.9, alpha_b=0.9)
    x = sample([[1.0, 3.0], [10.0, 10.0]])
    y, _ = forward_sample(state, x)
    assert np.allclose(y, x)  # mu=0 sigma=1 at init
    # mean over spatial enters the running mean
    assert state.mu[0] == pytest.approx(0.1 * 2.0)
    assert state.mu[1] == pytest.approx(0.1 * 10.0)
    # per-sample variance enters the running variance
    assert state.var[0] == pytest.approx(0.9 + 0.1 * 1.0 + 0.09 * 4.0)


def test_forward_errors():
    state = OnlineNormState(2)
    with pytest.raises(ShapeError):
        forward_sample(state, sample([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        forward_sample(state, np.zeros((1, 2)))  # a block must be 3-D


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
    y = sample(rng.normal(size=(8, 4)))
    z, _ = layer_scale_forward(y)
    assert abs((z**2).mean() - 1.0) < 1e-12


def test_layer_scale_backward_parallel_gradient_annihilates():
    rng = make_rng(15)
    y = sample(rng.normal(size=(4, 2)))
    cache = ForwardCache()
    z, _ = layer_scale_forward(y, cache)
    g = 2.5 * z
    back = layer_scale_backward(g, cache)
    assert np.abs(back).max() < 1e-12


def test_layer_scale_backward_orthogonal_gradient_passthrough():
    cache = ForwardCache()
    z, zeta = layer_scale_forward(sample([2.0, -2.0]), cache)
    g = sample([1.0, 1.0])  # mean(z*g) = 0
    back = layer_scale_backward(g, cache)
    assert np.allclose(back, g / zeta[0], atol=1e-15)


def test_layer_scale_backward_matches_finite_differences():
    rng = make_rng(16)
    y = rng.normal(size=6)
    loss_w = rng.normal(size=6)

    def loss(v):
        return float(np.dot(loss_w, v / np.sqrt((v * v).mean())))

    cache = ForwardCache()
    layer_scale_forward(sample(y), cache)
    got = layer_scale_backward(sample(loss_w), cache).ravel()
    h = 1e-6
    fd = np.empty(6)
    for i in range(6):
        up, dn = y.copy(), y.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (loss(up) - loss(dn)) / (2 * h)
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

    cache = ForwardCache()
    layer_scale_forward(sample(y), cache)
    got = layer_scale_backward(sample(loss_w), cache).ravel()
    h = 1e-9
    fd = np.empty(2)
    for i in range(2):
        up, dn = y.copy(), y.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (loss(up) - loss(dn)) / (2 * h)
    assert np.abs(got - fd).max() / np.abs(fd).max() < 1e-7
    assert np.array_equal(got, loss_w / 1e-5)


def test_layer_scale_backward_zero_sample_gives_finite_gradient():
    cache = ForwardCache()
    layer_scale_forward(sample([0.0, 0.0, 0.0]), cache)
    g = sample([0.5, -2.0, 1.0])
    back = layer_scale_backward(g, cache)
    assert np.isfinite(back).all()
    assert np.array_equal(back, g / 1e-5)


# ---------------------------------------------------------------- backward


def test_first_backward_divides_by_initial_sigma():
    state = OnlineNormState(1, alpha_f=0.9, alpha_b=0.9)
    _, cache = forward_sample(state, scalar(3.0))
    xg = backward_sample(state, scalar(0.5), cache)
    assert xg[0, 0, 0] == 0.5  # sigma_0 = 1, accumulators zero


def test_backward_control_estimator_equivalence():
    alpha_b = 0.99
    rng = make_rng(17)
    state = OnlineNormState(1, alpha_f=0.99, alpha_b=alpha_b)
    mu_y = 0.0
    for _ in range(2000):
        y, cache = forward_sample(state, scalar(rng.uniform(-1, 1)))
        g = float(rng.uniform(-1, 1))
        backward_sample(state, scalar(g), cache)
        yv = y[0, 0, 0]
        mu_y = (1 - (1 - alpha_b) * yv * yv) * mu_y + (1 - alpha_b) * g * yv
        assert abs(mu_y - (1 - alpha_b) * state.eps_y[0]) < 1e-10


def test_accumulators_bounded_on_long_run():
    rng = make_rng(18)
    state = OnlineNormState(1, alpha_f=0.99, alpha_b=0.99)
    head = tail = 0.0
    for t in range(20_000):
        _, cache = forward_sample(state, scalar(rng.uniform(-1, 1)))
        backward_sample(state, scalar(rng.uniform(-1, 1)), cache)
        mag = max(abs(state.eps_y[0]), abs(state.eps_1[0]))
        if t < 1000:
            head = max(head, mag)
        else:
            tail = max(tail, mag)
    assert tail <= 10.0 * head


def test_backward_spatial_means_enter_accumulators():
    state = OnlineNormState(1, alpha_f=0.9, alpha_b=0.9)
    x = sample([[1.0, -1.0, 2.0]])
    y, cache = forward_sample(state, x)
    g = sample([[0.3, 0.6, -0.3]])
    xg = backward_sample(state, g, cache)
    # accumulators advance by within-sample means
    assert state.eps_y[0] == pytest.approx((g * y).mean(), abs=1e-15)
    assert state.eps_1[0] == pytest.approx(xg.mean(), abs=1e-15)


def test_interleave_handshake_errors():
    state = OnlineNormState(1)
    _, cache = forward_sample(state, scalar(1.0))
    backward_sample(state, scalar(1.0), cache)
    with pytest.raises(InterleaveError):
        backward_sample(state, scalar(1.0), cache)  # already consumed
    _, stale = forward_sample(state, scalar(1.0))
    forward_sample(state, scalar(2.0))
    with pytest.raises(InterleaveError):
        backward_sample(state, scalar(1.0), stale)  # not the latest forward
    fresh = OnlineNormState(1)
    with pytest.raises(InterleaveError):
        backward_sample(fresh, scalar(1.0), ForwardCache(y=scalar(1.0)))


def test_output_rms_rescaling_mode():
    rng = make_rng(19)
    state = OnlineNormState(1, alpha_f=0.99, alpha_b=0.99, scale_by_output_rms=True)
    mags = []
    for _ in range(3000):
        _, cache = forward_sample(state, scalar(rng.normal()))
        xg = backward_sample(state, scalar(rng.choice([-1.0, 1.0])), cache)
        mags.append(xg[0, 0, 0] ** 2)
    # the produced gradient is forced toward unit mean square
    assert np.mean(mags[1500:]) == pytest.approx(1.0, rel=0.15)


# ------------------------------------------------------------------ affine


def test_affine_identity_at_init():
    p = AffineParams(3)
    z = sample([1.0, -2.0, 0.5])
    assert np.array_equal(affine_forward(p, z), z)


def test_affine_direct_example():
    p = AffineParams(1)
    p.gain[:] = 2.0
    p.bias[:] = -1.0
    out = affine_forward(p, scalar(0.5))
    assert out[0, 0, 0] == 0.0


def test_affine_gradients_match_finite_differences():
    rng = make_rng(21)
    p = AffineParams(4)
    p.gain[:] = rng.normal(size=4)
    p.bias[:] = rng.normal(size=4)
    z = sample(rng.normal(size=(4, 3)))
    loss_w = sample(rng.normal(size=(4, 3)))

    def loss(gain, bias):
        return float((loss_w * (gain[:, None] * z + bias[:, None])).sum())

    zg = affine_backward(p, z, loss_w)
    h = 1e-6
    for i in range(4):
        for arr, grad in ((p.gain, p.d_gain), (p.bias, p.d_bias)):
            orig = arr[i]
            arr[i] = orig + h
            up = loss(p.gain, p.bias)
            arr[i] = orig - h
            dn = loss(p.gain, p.bias)
            arr[i] = orig
            assert grad[i] == pytest.approx((up - dn) / (2 * h), rel=1e-7, abs=1e-7)
    assert np.allclose(zg, p.gain[:, None] * loss_w)


# ----------------------------------------------------------- reset & state


def test_reset_restores_initial_state():
    state = OnlineNormState(2, alpha_f=0.9, alpha_b=0.9)
    rng = make_rng(22)
    for _ in range(5):
        _, cache = forward_sample(state, sample(rng.normal(size=2)))
        backward_sample(state, sample(rng.normal(size=2)), cache)
    state.reset()
    assert np.array_equal(state.mu, np.zeros(2))
    assert np.array_equal(state.var, np.ones(2))
    assert np.array_equal(state.eps_y, np.zeros(2))
    assert np.array_equal(state.eps_1, np.zeros(2))
    state.reset()  # idempotent
    assert np.array_equal(state.var, np.ones(2))
    y, _ = forward_sample(state, sample([3.0, -1.5]))
    assert np.array_equal(y.ravel(), np.array([3.0, -1.5]))


def test_invalid_construction():
    with pytest.raises(ValueError):
        OnlineNormState(0)
    with pytest.raises(ValueError):
        OnlineNormState(1, alpha_f=1.0)
    with pytest.raises(ValueError):
        OnlineNormState(1, alpha_b=0.0)


def test_var_stays_nonnegative():
    rng = make_rng(23)
    state = OnlineNormState(3, alpha_f=0.5, alpha_b=0.5)
    for _ in range(500):
        forward_sample(state, sample(rng.normal(size=(3, 2))))
        assert (state.var >= 0.0).all()


def test_serialization_roundtrip_and_continuation():
    rng = make_rng(24)
    state = OnlineNormState(4, alpha_f=0.97, alpha_b=0.9)
    for _ in range(100):
        _, cache = forward_sample(state, sample(rng.normal(size=(4, 2))))
        backward_sample(state, sample(rng.normal(size=(4, 2))), cache)
    clone = load_state(save_state(state))
    for name in ("mu", "var", "eps_y", "eps_1"):
        assert np.array_equal(getattr(clone, name), getattr(state, name))
    assert clone.alpha_f == state.alpha_f and clone.alpha_b == state.alpha_b
    # both continue identically on the same stream
    xs = rng.normal(size=(10, 4, 2))
    for x in xs:
        a, _ = forward_sample(state, sample(x))
        b, _ = forward_sample(clone, sample(x))
        assert np.array_equal(a, b)


def test_serialization_rejects_bad_blobs():
    state = OnlineNormState(3)
    blob = save_state(state)
    with pytest.raises(ValueError):
        load_state(blob[:10])
    with pytest.raises(ValueError):
        load_state(blob + b"\x00" * 8)


def test_state_trajectory_bit_identical_for_same_stream():
    xs = make_rng(25).normal(size=500)
    a = OnlineNormState(1, alpha_f=0.99, alpha_b=0.99)
    b = OnlineNormState(1, alpha_f=0.99, alpha_b=0.99)
    ya = run_forward(a, xs)
    yb = run_forward(b, xs)
    assert np.array_equal(ya, yb)
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.var, b.var)


def test_composed_layer_pipeline_and_backward_runs():
    rng = make_rng(26)
    layer = OnlineNorm(5, alpha_f=0.99, alpha_b=0.99)
    for _ in range(50):
        out = layer.forward(rng.normal(size=(1, 5)))
        assert abs((out**2).mean() - 1.0) < 1e-12  # layer scaling pins RMS
        back = layer.backward(rng.normal(size=(1, 5)))
        assert np.isfinite(back).all()
