"""Feature-map containers used throughout the reproduction.

Feature maps are stored channel-first (``C, H, W``).  Float networks
carry float64 values; a fixed-point program
(:func:`repro.quant.fixed.fixed_point_network`) carries 8-bit Q-format
codes held in float32 or float64 arrays, and its layers know their formats.

The block flow runs one truncated-pyramid block at a time through this
3-D container; the blocks are independent, so stitching their outputs
reproduces the frame flow without a batched ``(N, C, H, W)`` twin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeatureMap:
    """A channel-first (C, H, W) feature map.

    Parameters
    ----------
    data:
        Array of shape ``(channels, height, width)``.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ValueError(
                f"FeatureMap expects a (C, H, W) array, got shape {self.data.shape}"
            )

    @property
    def channels(self) -> int:
        return int(self.data.shape[0])

    @property
    def height(self) -> int:
        return int(self.data.shape[1])

    @property
    def width(self) -> int:
        return int(self.data.shape[2])

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(int(s) for s in self.data.shape)  # type: ignore[return-value]

    @property
    def num_values(self) -> int:
        return int(self.data.size)

    def with_data(self, data: np.ndarray) -> "FeatureMap":
        """Return a new map with replaced data."""
        return FeatureMap(data=data)

    def crop(self, top: int, left: int, height: int, width: int) -> "FeatureMap":
        """Return a spatial crop of the feature map."""
        if top < 0 or left < 0:
            raise ValueError("crop offsets must be non-negative")
        if top + height > self.height or left + width > self.width:
            raise ValueError(
                f"crop ({top},{left},{height},{width}) exceeds map {self.height}x{self.width}"
            )
        return self.with_data(self.data[:, top : top + height, left : left + width])

    def bytes_at(self, bits_per_value: int) -> int:
        """Storage footprint in bytes at the given per-value bit width."""
        if bits_per_value <= 0:
            raise ValueError("bits_per_value must be positive")
        return (self.num_values * bits_per_value + 7) // 8

    @staticmethod
    def from_image(image: np.ndarray) -> "FeatureMap":
        """Build a feature map from an ``(H, W)`` or ``(H, W, C)`` image array."""
        if image.ndim == 2:
            data = image[np.newaxis, :, :]
        elif image.ndim == 3:
            data = np.transpose(image, (2, 0, 1))
        else:
            raise ValueError(f"expected a 2D or 3D image, got shape {image.shape}")
        return FeatureMap(data=np.asarray(data, dtype=np.float64))

    def to_image(self) -> np.ndarray:
        """Return an ``(H, W, C)`` view of the feature map."""
        return np.transpose(self.data, (1, 2, 0))

    def allclose(self, other: "FeatureMap", atol: float = 1e-9) -> bool:
        """Whether two feature maps have identical shape and near-equal values."""
        return self.shape == other.shape and bool(
            np.allclose(self.data, other.data, atol=atol)
        )
