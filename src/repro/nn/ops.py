"""Spatial rearrangement and pooling operators.

These implement the non-convolutional opcodes FBISA supports: pixel shuffle
(UPX2 upsampling), pixel unshuffle (the DnERNet-12ch input packing of
Appendix A), strided pooling and max pooling (DNX2 downsampling), and the
zero padding / channel padding helpers used at network inputs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer
from repro.nn.tensor import FeatureMap


class PixelShuffle(Layer):
    """Rearrange channels into space: (C*r^2, H, W) -> (C, H*r, W*r)."""

    kind = "pixel_shuffle"

    def __init__(self, factor: int = 2) -> None:
        if factor < 2:
            raise ValueError("upsample factor must be >= 2")
        self.factor = factor

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        r2 = self.factor * self.factor
        if channels % r2:
            raise ValueError(
                f"pixel shuffle by {self.factor} needs channels divisible by {r2}, got {channels}"
            )
        return channels // r2, height * self.factor, width * self.factor

    def forward(self, fm: FeatureMap) -> FeatureMap:
        r = self.factor
        c_out, h_out, w_out = self.output_shape(fm.channels, fm.height, fm.width)
        data = fm.data.reshape(c_out, r, r, fm.height, fm.width)
        data = np.transpose(data, (0, 3, 1, 4, 2))
        return fm.with_data(data.reshape(c_out, h_out, w_out))


class PixelUnshuffle(Layer):
    """Rearrange space into channels: (C, H*r, W*r) -> (C*r^2, H, W)."""

    kind = "pixel_unshuffle"

    def __init__(self, factor: int = 2) -> None:
        if factor < 2:
            raise ValueError("downsample factor must be >= 2")
        self.factor = factor

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        r = self.factor
        if height % r or width % r:
            raise ValueError(
                f"pixel unshuffle by {r} needs spatial size divisible by {r}, "
                f"got {height}x{width}"
            )
        return channels * r * r, height // r, width // r

    def forward(self, fm: FeatureMap) -> FeatureMap:
        r = self.factor
        c_out, h_out, w_out = self.output_shape(fm.channels, fm.height, fm.width)
        data = fm.data.reshape(fm.channels, h_out, r, w_out, r)
        data = np.transpose(data, (0, 2, 4, 1, 3))
        return fm.with_data(data.reshape(c_out, h_out, w_out))


class StridedPool2x2(Layer):
    """Strided 2x2 "pooling" that keeps the top-left sample of each 2x2 tile."""

    kind = "strided_pool"

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        if height % 2 or width % 2:
            raise ValueError(f"strided pooling needs even spatial size, got {height}x{width}")
        return channels, height // 2, width // 2

    def forward(self, fm: FeatureMap) -> FeatureMap:
        self.output_shape(fm.channels, fm.height, fm.width)
        return fm.with_data(fm.data[:, ::2, ::2].copy())


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2."""

    kind = "max_pool"

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        if height % 2 or width % 2:
            raise ValueError(f"max pooling needs even spatial size, got {height}x{width}")
        return channels, height // 2, width // 2

    def forward(self, fm: FeatureMap) -> FeatureMap:
        c, h, w = self.output_shape(fm.channels, fm.height, fm.width)
        data = fm.data.reshape(c, h, 2, w, 2)
        return fm.with_data(data.max(axis=(2, 4)))


class ZeroPad(Layer):
    """Pad the spatial borders with zeros (used to prepare valid-mode inputs)."""

    kind = "zero_pad"

    def __init__(self, pad: int) -> None:
        if pad < 0:
            raise ValueError("pad must be non-negative")
        self.pad = pad

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        return channels, height + 2 * self.pad, width + 2 * self.pad

    def forward(self, fm: FeatureMap) -> FeatureMap:
        if self.pad == 0:
            return fm
        data = np.pad(fm.data, ((0, 0), (self.pad, self.pad), (self.pad, self.pad)))
        return fm.with_data(data)


def pad_channels(fm: FeatureMap, target_channels: int) -> FeatureMap:
    """Pad a feature map with zero-valued channels up to ``target_channels``.

    The paper pads RGB inputs with 29 zero channels to form the 32-channel
    inputs the eCNN leaf-modules operate on (Section 7.1).
    """
    if target_channels < fm.channels:
        raise ValueError(
            f"cannot pad {fm.channels} channels down to {target_channels}"
        )
    if target_channels == fm.channels:
        return fm
    extra = np.zeros((target_channels - fm.channels, fm.height, fm.width), dtype=fm.data.dtype)
    return fm.with_data(np.concatenate([fm.data, extra], axis=0))


def crop_channels(fm: FeatureMap, channels: int, offset: int = 0) -> FeatureMap:
    """Keep ``channels`` channels starting at ``offset`` (inverse of padding)."""
    if offset < 0 or offset + channels > fm.channels:
        raise ValueError(
            f"cannot crop channels [{offset}, {offset + channels}) from {fm.channels}"
        )
    return fm.with_data(fm.data[offset : offset + channels].copy())
