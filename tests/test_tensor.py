import numpy as np
import pytest

from onlinenorm.tensor import (
    FeatureMap,
    ShapeError,
    feature_mean,
    feature_var,
    make_rng,
    relu,
    relu_backward,
)


def test_feature_mean_single_feature():
    m = FeatureMap([1.0, 2.0, 3.0, 4.0], spatial=4)
    assert feature_mean(m)[0] == pytest.approx(2.5, abs=0)


def test_feature_mean_fully_connected_is_identity():
    m = FeatureMap([0.7, -1.3])
    assert np.array_equal(feature_mean(m), np.array([0.7, -1.3]))


def test_feature_mean_matches_summation_oracle():
    rng = make_rng(0)
    data = rng.normal(size=(2, 3))
    m = FeatureMap(data)
    # brute-force summation, one value at a time
    expect = np.array([sum(float(v) for v in row) / 3.0 for row in data])
    assert np.abs(feature_mean(m) - expect).max() < 1e-12


def test_feature_var_spatial_one_is_zero():
    m = FeatureMap([5.0, -2.0, 0.25])
    assert np.array_equal(feature_var(m), np.zeros(3))


def test_feature_var_constant_is_zero():
    m = FeatureMap([1.0, 1.0, 1.0, 1.0], spatial=4)
    assert feature_var(m)[0] == 0.0


def test_feature_var_matches_two_pass_oracle():
    rng = make_rng(1)
    data = rng.normal(size=(4, 7))
    m = FeatureMap(data)
    expect = []
    for row in data:
        mu = sum(float(v) for v in row) / row.size
        expect.append(sum((float(v) - mu) ** 2 for v in row) / row.size)
    assert np.abs(feature_var(m) - np.array(expect)).max() < 1e-12


def test_var_equals_second_moment_identity():
    rng = make_rng(2)
    for _ in range(20):
        data = rng.uniform(-10.0, 10.0, size=(3, 5))
        m = FeatureMap(data)
        msq = FeatureMap(data * data)
        lhs = feature_var(m)
        rhs = feature_mean(msq) - feature_mean(m) ** 2
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
    m = FeatureMap(rng.normal(size=(6, 11)))
    a = feature_mean(m)
    b = feature_mean(m)
    assert np.array_equal(a, b)
    assert np.array_equal(feature_var(m), feature_var(m))


def test_rng_seed_determinism():
    a = make_rng(123).normal(size=10)
    b = make_rng(123).normal(size=10)
    assert np.array_equal(a, b)
