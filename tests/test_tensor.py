import numpy as np
import pytest

from onlinenorm.tensor import (
    FeatureMap,
    ShapeError,
    make_rng,
    relu,
    relu_backward,
)


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


def test_rng_seed_determinism():
    a = make_rng(123).normal(size=10)
    b = make_rng(123).normal(size=10)
    assert np.array_equal(a, b)
