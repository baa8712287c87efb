"""Unit tests for the FeatureMap container."""

import numpy as np
import pytest

from repro.nn.tensor import FeatureMap


def test_shape_properties():
    fm = FeatureMap(np.zeros((3, 10, 20)))
    assert fm.channels == 3
    assert fm.height == 10
    assert fm.width == 20
    assert fm.shape == (3, 10, 20)
    assert fm.num_values == 600


def test_rejects_non_3d_data():
    with pytest.raises(ValueError):
        FeatureMap(np.zeros((10, 20)))
    with pytest.raises(ValueError):
        FeatureMap(np.zeros((1, 3, 10, 20)))


def test_crop_extracts_expected_region():
    data = np.arange(2 * 6 * 8).reshape(2, 6, 8).astype(float)
    fm = FeatureMap(data)
    crop = fm.crop(1, 2, 3, 4)
    assert crop.shape == (2, 3, 4)
    assert np.array_equal(crop.data, data[:, 1:4, 2:6])


def test_crop_out_of_bounds_raises():
    fm = FeatureMap(np.zeros((1, 4, 4)))
    with pytest.raises(ValueError):
        fm.crop(0, 0, 5, 4)
    with pytest.raises(ValueError):
        fm.crop(-1, 0, 2, 2)


def test_bytes_at_rounds_up_to_whole_bytes():
    fm = FeatureMap(np.zeros((1, 3, 3)))
    assert fm.bytes_at(8) == 9
    assert fm.bytes_at(16) == 18
    # 9 values at 1 bit -> 2 bytes
    assert fm.bytes_at(1) == 2


def test_bytes_at_rejects_non_positive_bits():
    fm = FeatureMap(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        fm.bytes_at(0)


def test_from_image_and_to_image_round_trip():
    image = np.random.default_rng(0).random((5, 7, 3))
    fm = FeatureMap.from_image(image)
    assert fm.shape == (3, 5, 7)
    assert np.allclose(fm.to_image(), image)


def test_from_image_grayscale():
    image = np.zeros((5, 7))
    fm = FeatureMap.from_image(image)
    assert fm.shape == (1, 5, 7)


def test_allclose():
    a = FeatureMap(np.zeros((1, 2, 2)))
    b = FeatureMap(np.full((1, 2, 2), 1e-12))
    c = FeatureMap(np.ones((1, 2, 2)))
    assert a.allclose(b)
    assert not a.allclose(c)
    assert not a.allclose(FeatureMap(np.zeros((1, 3, 2))))
