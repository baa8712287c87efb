"""Unit tests for convolution, activation and residual layers."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import layers as nn_layers
from repro.nn.layers import AddBias, ClippedReLU, Conv2d, ReLU, Residual
from repro.nn.tensor import FeatureMap


def _reference_conv3x3_valid(data, weights, bias):
    """Direct tap-by-tap convolution, the reference for every lowering of the kernel."""
    out_ch = weights.shape[0]
    _, h, w = data.shape
    out = np.zeros((out_ch, h - 2, w - 2)) + bias[:, None, None]
    for dy in range(3):
        for dx in range(3):
            window = data[:, dy : dy + h - 2, dx : dx + w - 2]
            out += np.einsum("oc,chw->ohw", weights[:, :, dy, dx], window)
    return out


def _gemm_widths(monkeypatch, conv, data):
    """Run ``conv`` on ``data`` and return the N of every gemm it issued."""
    widths = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        widths.append(b.shape[-1])
        return matmul(a, b, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", spy)
        result = conv.forward(FeatureMap(data))
    return result, widths


def test_conv3x3_valid_matches_naive_reference(rng):
    conv = Conv2d(2, 3, 3, seed=11)
    data = rng.normal(size=(2, 7, 9))
    expected = _reference_conv3x3_valid(data, conv.weights, conv.bias)
    result = conv.forward(FeatureMap(data))
    assert result.shape == (3, 5, 7)
    assert np.allclose(result.data, expected)


def test_conv1x1_is_channel_mixing(rng):
    conv = Conv2d(4, 2, 1, seed=3)
    data = rng.normal(size=(4, 5, 6))
    result = conv.forward(FeatureMap(data))
    w = conv.weights.reshape(2, 4)
    expected = np.einsum("oc,chw->ohw", w, data) + conv.bias[:, None, None]
    assert np.allclose(result.data, expected)
    assert result.shape == (2, 5, 6)


def test_conv_zero_padding_preserves_size(rng):
    conv = Conv2d(3, 3, 3, padding="zero", seed=1)
    data = rng.normal(size=(3, 6, 6))
    result = conv.forward(FeatureMap(data))
    assert result.shape == (3, 6, 6)
    # Zero padding matches valid convolution on a zero-padded input.
    padded = np.pad(data, ((0, 0), (1, 1), (1, 1)))
    valid = Conv2d(3, 3, 3, weights=conv.weights, bias=conv.bias)
    assert np.allclose(result.data, valid.forward(FeatureMap(padded)).data)


def test_conv_margin_and_parameters():
    conv3 = Conv2d(8, 16, 3)
    conv1 = Conv2d(16, 8, 1)
    padded = Conv2d(8, 8, 3, padding="zero")
    assert conv3.margin == 1
    assert conv1.margin == 0
    assert padded.margin == 0
    assert conv3.num_parameters == 8 * 16 * 9 + 16
    assert conv1.macs_per_output_pixel() == 16 * 8
    assert conv3.macs_per_output_pixel() == 8 * 16 * 9


def test_conv_rejects_invalid_configuration():
    with pytest.raises(ValueError):
        Conv2d(3, 3, 5)
    with pytest.raises(ValueError):
        Conv2d(3, 3, 3, padding="same")
    with pytest.raises(ValueError):
        Conv2d(0, 3, 3)
    with pytest.raises(ValueError):
        Conv2d(3, 3, 3, weights=np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        Conv2d(3, 3, 3, bias=np.zeros(4))


def test_conv_rejects_wrong_channel_count(rng):
    conv = Conv2d(3, 4, 3)
    with pytest.raises(ValueError):
        conv.forward(FeatureMap(rng.normal(size=(2, 8, 8))))
    with pytest.raises(ValueError):
        conv.output_shape(2, 8, 8)


def _tile_geometry(lowering, kernel, width):
    """``(extra_rows, columns)``: a tile's gemm N is (tile rows + extra_rows) * columns.

    The folds read K - 1 input rows past the tile, the tap fold whole
    input rows; the gather reads exactly the tile's output pixels.
    """
    extra_rows = 0 if lowering is nn_layers._conv_gather else kernel - 1
    columns = width if lowering is nn_layers._conv_taps else width - kernel + 1
    return extra_rows, columns


@pytest.mark.parametrize(
    "in_channels, out_channels, height, width, lowering, several_tiles",
    [
        (4, 6, 20, 30, nn_layers._conv_gather, False),
        (32, 8, 150, 150, nn_layers._conv_taps, True),
        (32, 32, 150, 150, nn_layers._conv_rows, True),
        (16, 32, 100, 100, nn_layers._conv_gather, True),
    ],
    ids=["one-tile", "partial-last-tile", "row-fold-partial-last-tile", "gather-partial-last-tile"],
)
def test_conv3x3_row_tiles_match_reference(
    rng, monkeypatch, in_channels, out_channels, height, width, lowering, several_tiles
):
    conv = Conv2d(in_channels, out_channels, 3, seed=5)
    data = rng.normal(size=(in_channels, height, width))
    assert nn_layers._lowering(data.shape, conv.weights.shape) is lowering
    result, widths = _gemm_widths(monkeypatch, conv, data)
    # One gemm per row tile, each over the input rows its path reads.
    extra_rows, columns = _tile_geometry(lowering, 3, width)
    assert all(n % columns == 0 for n in widths)
    tiles = [n // columns - extra_rows for n in widths]
    assert sum(tiles) == height - 2
    if several_tiles:
        # Equal row tiles, then a narrower partial last tile.
        assert len(tiles) > 2
        assert len(set(tiles[:-1])) == 1 and tiles[-1] < tiles[0]
    else:
        assert len(tiles) == 1
    expected = _reference_conv3x3_valid(data, conv.weights, conv.bias)
    assert np.allclose(result.data, expected, rtol=1e-12, atol=1e-12)


def test_conv_zero_padding_matches_reference(rng):
    conv = Conv2d(8, 5, 3, padding="zero", seed=6)
    data = rng.normal(size=(8, 100, 70))
    result = conv.forward(FeatureMap(data))
    padded = np.pad(data, ((0, 0), (1, 1), (1, 1)))
    expected = _reference_conv3x3_valid(padded, conv.weights, conv.bias)
    assert result.shape == (5, 100, 70)
    assert np.allclose(result.data, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kernel", [1, 3])
def test_conv_pixels_depend_on_input_only(rng, kernel):
    conv = Conv2d(32, 8, kernel, seed=5)
    a = rng.normal(size=(32, 150, 150))
    b = rng.normal(size=(32, 40, 300))
    first = conv.forward(FeatureMap(a)).data.tobytes()
    assert conv.forward(FeatureMap(a)).data.tobytes() == first
    conv.forward(FeatureMap(b))
    assert conv.forward(FeatureMap(a)).data.tobytes() == first


def test_conv3x3_peak_memory_is_bounded():
    """Patches and folded results are held a row tile at a time, never for the whole map."""
    rng = np.random.default_rng(0)
    # A row fold holds K column shifts and K*O result rows per tile, a tap
    # fold K*K*O result rows, and the gather K*K*C patch rows.
    for in_channels, out_channels, lowering in (
        (32, 32, nn_layers._conv_rows),
        (128, 3, nn_layers._conv_taps),
        (16, 32, nn_layers._conv_gather),
    ):
        conv = Conv2d(in_channels, out_channels, 3, seed=1)
        fm = FeatureMap(rng.normal(size=(in_channels, 256, 256)))
        assert nn_layers._lowering(fm.data.shape, conv.weights.shape) is lowering
        out_bytes = out_channels * 254 * 254 * 8
        tracemalloc.start()
        try:
            conv.forward(fm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out_bytes + 16 * 2**20, lowering.__name__


def test_conv_too_small_input_raises():
    conv = Conv2d(1, 1, 3)
    with pytest.raises(ValueError):
        conv.forward(FeatureMap(np.zeros((1, 2, 2))))


def test_relu_and_clipped_relu():
    data = np.array([[[-1.0, 0.5], [2.0, 7.0]]])
    assert np.array_equal(
        ReLU().forward(FeatureMap(data)).data, [[[0.0, 0.5], [2.0, 7.0]]]
    )
    assert np.array_equal(
        ClippedReLU(2.0).forward(FeatureMap(data)).data, [[[0.0, 0.5], [2.0, 2.0]]]
    )
    with pytest.raises(ValueError):
        ClippedReLU(0.0)


def test_add_bias():
    layer = AddBias([1.0, -1.0])
    data = np.zeros((2, 2, 2))
    out = layer.forward(FeatureMap(data))
    assert np.allclose(out.data[0], 1.0)
    assert np.allclose(out.data[1], -1.0)
    with pytest.raises(ValueError):
        layer.forward(FeatureMap(np.zeros((3, 2, 2))))


def test_residual_adds_center_cropped_skip(rng):
    body = [Conv2d(4, 4, 3, seed=2)]
    res = Residual(body)
    data = rng.normal(size=(4, 8, 8))
    out = res.forward(FeatureMap(data))
    body_out = body[0].forward(FeatureMap(data))
    assert out.shape == (4, 6, 6)
    assert np.allclose(out.data, body_out.data + data[:, 1:7, 1:7])


def test_residual_margin_accumulates():
    res = Residual([Conv2d(4, 8, 3), ReLU(), Conv2d(8, 4, 3)])
    assert res.margin == 2
    assert res.output_shape(4, 10, 10) == (4, 6, 6)


def test_residual_rejects_channel_change():
    res = Residual([Conv2d(4, 8, 3)])
    with pytest.raises(ValueError):
        res.output_shape(4, 10, 10)
    with pytest.raises(ValueError):
        res.forward(FeatureMap(np.zeros((4, 10, 10))))


def test_residual_requires_body():
    with pytest.raises(ValueError):
        Residual([])
