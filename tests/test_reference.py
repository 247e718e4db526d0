import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onlinenorm.reference import (
    BatchNorm,
    DegenerateBatchError,
    LayerNorm,
    PopulationNorm,
    exact_backward,
    exact_normalize,
    jacobian_dense,
)
from onlinenorm import reference
from onlinenorm.selftest import central_differences, exact_backward_errors
from onlinenorm.tensor import SIGMA_FLOOR, ShapeError, make_rng


def linear_loss_fd(x, loss_w, h=1e-5):
    """Central finite differences of loss_w . exact_normalize(x)."""
    return central_differences(lambda v: np.dot(loss_w, exact_normalize(v)[0]), x, h)


# ------------------------------------------------------------------ forward


def test_two_sample_normalization():
    y, mu, sigma = exact_normalize([0.3, 0.7])
    assert np.array_equal(y, np.array([-1.0, 1.0]))
    assert mu == pytest.approx(0.5)
    assert sigma == pytest.approx(0.2)


def test_already_normalized_input_is_fixed_point():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    y, mu, sigma = exact_normalize(x)
    assert np.allclose(y, x, atol=1e-15)
    assert mu == pytest.approx(0.0, abs=1e-15)
    assert sigma == pytest.approx(1.0, rel=1e-15)


def test_output_constraints_random_population():
    rng = make_rng(30)
    x = rng.normal(2.0, 3.0, size=50)
    y, _, _ = exact_normalize(x)
    assert abs(y.sum()) < 1e-9
    assert abs((y * y).sum() - 50) < 1e-9


def test_norm_squared_equals_population_size():
    rng = make_rng(31)
    for n in (2, 5, 33):
        y, _, _ = exact_normalize(rng.normal(size=n))
        assert np.dot(y, y) == pytest.approx(n, abs=1e-9)


def test_degenerate_and_short_populations_error():
    with pytest.raises(DegenerateBatchError):
        exact_normalize([2.0, 2.0, 2.0])
    with pytest.raises(ShapeError):
        exact_normalize([1.0])


# ----------------------------------------------------------------- backward


def test_gradient_parallel_to_output_annihilated():
    rng = make_rng(32)
    y, _, sigma = exact_normalize(rng.normal(size=10))
    xg = exact_backward(y, 3.0 * y, sigma)
    assert np.abs(xg).max() < 1e-12


def test_gradient_parallel_to_ones_annihilated():
    rng = make_rng(33)
    y, _, sigma = exact_normalize(rng.normal(size=10))
    xg = exact_backward(y, 4.0 * np.ones(10), sigma)
    assert np.abs(xg).max() < 1e-12


def test_backward_matches_finite_differences():
    rng = make_rng(34)
    x = rng.normal(size=20)
    loss_w = rng.normal(size=20)
    y, _, sigma = exact_normalize(x)
    got = exact_backward(y, loss_w, sigma)
    fd = linear_loss_fd(x, loss_w)
    assert np.abs(got - fd).max() / np.abs(fd).max() < 1e-7


def test_backward_orthogonality():
    rng = make_rng(35)
    for _ in range(20):
        x = rng.normal(size=15)
        g = rng.normal(size=15)
        y, _, sigma = exact_normalize(x)
        xg = exact_backward(y, g, sigma)
        ones = np.ones(15)
        assert abs(np.dot(xg, ones)) <= 1e-9 * np.linalg.norm(xg) * np.linalg.norm(ones)
        assert abs(np.dot(xg, y)) <= 1e-9 * np.linalg.norm(xg) * np.linalg.norm(y)


def test_exact_backward_errors_report_nan(monkeypatch):
    # A NaN gradient must come back as NaN in both figures, not be skipped
    # by the nonzero-gradient guard or dropped by the running maximum.
    monkeypatch.setattr(reference, "exact_backward", lambda y, g, sigma: np.full(y.shape, np.nan))
    fd_err, cosine = exact_backward_errors(9, 1, sizes=(5,))
    assert np.isnan(fd_err) and np.isnan(cosine)


def test_projection_factorization_identity():
    rng = make_rng(36)
    y, _, _ = exact_normalize(rng.normal(size=12))
    n = 12
    for _ in range(10):
        v = rng.normal(size=n)
        step1 = v - (np.dot(v, y) / n) * y
        sequential = step1 - step1.mean()
        fused = v - v.mean() - (np.dot(v, y) / n) * y
        assert np.abs(sequential - fused).max() < 1e-10


def test_backward_length_mismatch_errors():
    y, _, sigma = exact_normalize([0.0, 1.0, 2.0])
    with pytest.raises(ShapeError):
        exact_backward(y, np.zeros(4), sigma)


# ----------------------------------------------------------------- Jacobian


def test_jacobian_rows_sum_to_zero():
    rng = make_rng(37)
    j = jacobian_dense(rng.normal(size=9))
    assert np.abs(j @ np.ones(9)).max() < 1e-12
    j2 = jacobian_dense(rng.normal(size=2))
    assert np.abs(j2.sum(axis=1)).max() < 1e-12


def test_jacobian_transpose_reproduces_backward():
    rng = make_rng(38)
    x = rng.normal(size=11)
    y, _, sigma = exact_normalize(x)
    j = jacobian_dense(x)
    for _ in range(5):
        g = rng.normal(size=11)
        assert np.abs(j.T @ g - exact_backward(y, g, sigma)).max() < 1e-10


def test_jacobian_matches_numerical_jacobian():
    rng = make_rng(39)
    x = rng.normal(size=7)
    j = jacobian_dense(x)
    num = np.array([central_differences(lambda v: exact_normalize(v)[0][k], x, 1e-6) for k in range(7)])
    assert np.abs(j - num).max() < 1e-6


# --------------------------------------------------------------- batch norm


def test_batch_two_outputs_are_exactly_unit():
    rng = make_rng(40)
    bn = BatchNorm(1)
    for _ in range(100):
        pair = rng.normal(0.0, 2.0, size=(2, 1))
        y = bn.forward(pair, training=True)
        assert sorted(np.abs(y.ravel()).tolist()) == [1.0, 1.0]
        assert y[0, 0] == -y[1, 0]


def test_batch_two_gradient_identically_zero():
    rng = make_rng(41)
    bn = BatchNorm(1)
    for _ in range(100):
        bn.forward(rng.normal(size=(2, 1)), training=True)
        g = bn.backward(rng.normal(size=(2, 1)))
        assert g[0, 0] == 0.0 and g[1, 0] == 0.0


def test_batch_norm_backward_orthogonality_per_feature():
    rng = make_rng(42)
    bn = BatchNorm(3)
    x = rng.normal(size=(8, 3))
    y = bn.forward(x, training=True)
    g = bn.backward(rng.normal(size=(8, 3)))
    for f in range(3):
        gf, yf = g[:, f], y[:, f]
        ones = np.ones(8)
        assert abs(np.dot(gf, ones)) <= 1e-9 * np.linalg.norm(gf) * np.linalg.norm(ones)
        assert abs(np.dot(gf, yf)) <= 1e-9 * np.linalg.norm(gf) * np.linalg.norm(yf)


def test_batch_norm_backward_matches_finite_differences():
    rng = make_rng(43)
    x = rng.normal(size=(4, 2))
    loss_w = rng.normal(size=(4, 2))

    def loss(v):
        return float((BatchNorm(2).forward(v, training=True) * loss_w).sum())

    bn = BatchNorm(2)
    bn.forward(x, training=True)
    got = bn.backward(loss_w)
    fd = central_differences(loss, x, 1e-5)
    assert np.abs(got - fd).max() / np.abs(fd).max() < 1e-7


def test_batch_norm_spatial_extent_pools_into_statistics():
    rng = make_rng(44)
    bn = BatchNorm(2)
    x = rng.normal(size=(3, 2, 5))
    y = bn.forward(x, training=True)
    for f in range(2):
        vals = y[:, f, :].ravel()
        assert abs(vals.mean()) < 1e-12
        assert vals.var() == pytest.approx(1.0, rel=1e-9)


def test_batch_norm_rejects_batch_of_one():
    bn = BatchNorm(2)
    with pytest.raises(ShapeError):
        bn.forward(np.zeros((1, 2)), training=True)


def test_batch_norm_running_statistics_drive_inference():
    rng = make_rng(45)
    bn = BatchNorm(1)
    for _ in range(500):
        bn.forward(rng.normal(5.0, 2.0, size=(16, 1)), training=True)
    assert bn.running_mu[0] == pytest.approx(5.0, abs=0.5)
    assert bn.running_var[0] == pytest.approx(4.0, rel=0.3)
    out = bn.forward(np.array([[5.0]]), training=False)
    assert abs(out[0, 0]) < 0.3


# --------------------------------------------------------------- layer norm


def test_layer_norm_two_features():
    y = LayerNorm(2).forward(np.array([[1.0, 3.0]]))
    assert np.array_equal(y, np.array([[-1.0, 1.0]]))


def test_layer_norm_gradient_orthogonality():
    rng = make_rng(46)
    x = rng.normal(size=9)
    ln = LayerNorm(9)
    y = ln.forward(x[None, :])[0]
    g = ln.backward(rng.normal(size=(1, 9)))[0]
    assert abs(np.dot(g, np.ones(9))) <= 1e-9 * np.linalg.norm(g) * 3.0
    assert abs(np.dot(g, y)) <= 1e-9 * np.linalg.norm(g) * np.linalg.norm(y)


def test_layer_norm_matches_finite_differences():
    rng = make_rng(47)
    x = rng.normal(size=8)
    loss_w = rng.normal(size=8)
    ln = LayerNorm(8)
    ln.forward(x[None, :])
    got = ln.backward(loss_w[None, :])[0]
    fd = linear_loss_fd(x, loss_w)
    assert np.abs(got - fd).max() / np.abs(fd).max() < 1e-7


def test_layer_norm_short_sample_errors():
    with pytest.raises(ShapeError):
        LayerNorm(1).forward(np.array([[1.0]]))


def test_layer_norm_batched_adapter_matches_rowwise():
    rng = make_rng(48)
    ln = LayerNorm(6)
    x = rng.normal(size=(5, 6))
    y = ln.forward(x, training=True)
    for i in range(5):
        expect, _, _ = exact_normalize(x[i])
        assert np.allclose(y[i], expect, atol=1e-14)


# ------------------------------------------------- every exact normalizer

NORMALIZERS = {"batch": BatchNorm, "population": PopulationNorm, "layer": LayerNorm}


def _run(kind, x, g):
    """Training-mode output of a fresh normalizer of the kind, and its gradient for g."""
    if kind == "exact":
        y, _, sigma = exact_normalize(x)
        return y, exact_backward(y, g, sigma)
    norm = NORMALIZERS[kind](x.shape[1])
    y = norm.forward(x, training=True)
    return y, norm.backward(g)


def _groups(kind, v):
    """One row per set of values the kind normalizes together."""
    if kind == "exact":
        return v.reshape(1, -1)
    if kind == "layer":
        return v
    block = v if v.ndim == 3 else v[:, :, None]
    return block.transpose(1, 0, 2).reshape(block.shape[1], -1)


@settings(max_examples=150)
@given(
    kind=st.sampled_from(("exact", *NORMALIZERS)),
    n=st.integers(2, 12),
    features=st.integers(1, 5),
    spatial=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_is_projected_and_matches_central_differences(kind, n, features, spatial, seed):
    # x' = (1/sigma)(I - P_1)(I - P_y) y' along the normalized axes: in each
    # group the gradient is orthogonal to 1 and to y, and it is the
    # derivative of the linear loss g . y. The difference step and the error
    # scale follow each group's spread sigma; |g| / sigma is the size of the
    # gradient before the projections, which may cancel most of it.
    assume(kind != "layer" or features >= 2)
    if kind == "exact":
        shape = (n,)
    elif kind == "layer" or spatial == 1:
        shape = (n, features)
    else:
        shape = (n, features, spatial)
    rng = make_rng(seed)
    x = rng.normal(3.0, 2.0, size=shape)
    g = rng.normal(size=shape)
    y, got = _run(kind, x, g)
    rows, ys = _groups(kind, got), _groups(kind, y)
    size = np.linalg.norm(rows, axis=1)
    assert np.all(np.abs(rows.sum(axis=1)) <= 1e-9 * size * np.sqrt(rows.shape[1]))
    assert np.all(np.abs((rows * ys).sum(axis=1)) <= 1e-9 * size * np.linalg.norm(ys, axis=1))
    sigma = _groups(kind, x).std(axis=1)
    fd = central_differences(lambda v: float((_run(kind, v, g)[0] * g).sum()), x, 1e-5 * sigma.min())
    assert np.abs(got - fd).max() <= 1e-7 * (np.abs(_groups(kind, g)) / sigma[:, None]).max()


@pytest.mark.parametrize("shape", [(6, 2), (6, 2, 3)], ids=["2d", "3d"])
def test_population_norm_evaluates_over_the_training_axes(shape):
    x = make_rng(49).normal(size=shape)
    norm = PopulationNorm(2)
    y = norm.forward(x, training=True)
    assert np.array_equal(norm.forward(x, training=False), y)
    for bad in (np.zeros((6, 3)), np.zeros(6)):
        with pytest.raises(ShapeError):
            norm.forward(bad, training=False)


@pytest.mark.parametrize(
    "kind, shape", [("batch", (8, 2)), ("batch", (4, 2, 3)), ("layer", (2, 6))], ids=["batch-2d", "batch-3d", "layer"]
)
def test_gradient_where_sigma_is_floored_matches_central_differences(kind, shape):
    # The first group's spread is far below SIGMA_FLOOR, so the forward
    # divides it by the floor, a constant: its gradient is (I - P_1) g / floor
    # with no y projection. The second group is ordinary. A step of h moves a
    # group's sigma by at most h, so every perturbed input stays floored.
    axis = 0 if kind == "layer" else 1
    spread = np.array([1e-6, 2.0]).reshape([2 if a == axis else 1 for a in range(len(shape))])
    rng = make_rng(50)
    x = 0.5 + spread * rng.normal(size=shape)
    g = rng.normal(size=shape)
    h = 1e-7
    sigma = _groups(kind, x).std(axis=1)
    assert sigma[0] + h < SIGMA_FLOOR < sigma[1]
    _, got = _run(kind, x, g)
    fd = central_differences(lambda v: float((_run(kind, v, g)[0] * g).sum()), x, h)
    assert np.abs(got - fd).max() <= 1e-7 * np.abs(fd).max()
