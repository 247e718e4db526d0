import numpy as np
import pytest

from onlinenorm.tensor import (
    FeatureMap,
    ShapeError,
    make_rng,
    relu,
    relu_backward,
    spatial_mean,
)


# spatial_mean is the per-feature mean over spatial values that the online
# layer's statistics are built from.


def test_feature_mean_single_feature():
    assert spatial_mean(np.array([[1.0, 2.0, 3.0, 4.0]]))[0] == pytest.approx(2.5, abs=0)


def test_feature_mean_fully_connected_is_identity():
    assert np.array_equal(spatial_mean(np.array([[0.7], [-1.3]])), np.array([0.7, -1.3]))


def test_feature_mean_matches_summation_oracle():
    rng = make_rng(0)
    data = rng.normal(size=(2, 3))
    # brute-force summation, one value at a time
    expect = np.array([sum(float(v) for v in row) / 3.0 for row in data])
    assert np.abs(spatial_mean(data) - expect).max() < 1e-12


def test_var_equals_second_moment_identity():
    rng = make_rng(2)
    for _ in range(20):
        data = rng.uniform(-10.0, 10.0, size=(3, 5))
        mean = spatial_mean(data)
        d = data - mean[:, None]
        lhs = spatial_mean(d * d)
        rhs = spatial_mean(data * data) - mean**2
        assert np.abs(lhs - rhs).max() < 1e-10


def test_relu_definition():
    assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0]))


def test_relu_backward_masks_nonpositive():
    pre = np.array([-1.0, 0.0, 2.0])
    g = np.array([5.0, 5.0, 5.0])
    assert np.array_equal(relu_backward(g, pre), np.array([0.0, 0.0, 5.0]))


def test_shape_mismatch_errors():
    with pytest.raises(ShapeError):
        relu_backward(np.zeros(3), np.zeros(4))


def test_featuremap_invariants():
    with pytest.raises(ShapeError):
        FeatureMap([1.0, 2.0, 3.0], spatial=2)
    with pytest.raises(ValueError):
        FeatureMap([1.0, np.nan])
    with pytest.raises(ValueError):
        FeatureMap([np.inf, 0.0])
    m = FeatureMap([1.0, 2.0, 3.0, 4.0], spatial=2)
    assert m.features == 2 and m.spatial == 2
    assert m.data.size == m.features * m.spatial


def test_reductions_bit_identical_across_calls():
    rng = make_rng(5)
    block = rng.normal(size=(4, 6, 11))
    assert np.array_equal(spatial_mean(block), spatial_mean(block))


def test_rng_seed_determinism():
    a = make_rng(123).normal(size=10)
    b = make_rng(123).normal(size=10)
    assert np.array_equal(a, b)
