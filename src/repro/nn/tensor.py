"""Feature-map containers used throughout the reproduction.

Feature maps are stored channel-first (``C, H, W``) as float64 or integer
arrays.  The container also carries an optional fixed-point format so the
quantized execution path can track per-layer Q-formats the way the eCNN
hardware does (Section 4.3 of the paper).

The block flow runs one truncated-pyramid block at a time through this
3-D container; the blocks are independent, so stitching their outputs
reproduces the frame flow without a batched ``(N, C, H, W)`` twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class FeatureMap:
    """A channel-first (C, H, W) feature map with optional Q-format metadata.

    Parameters
    ----------
    data:
        Array of shape ``(channels, height, width)``.
    qformat:
        Optional name of the fixed-point format the values are expressed in
        (e.g. ``"Q6"`` or ``"UQ8"``).  ``None`` means floating point.
    """

    data: np.ndarray
    qformat: Optional[str] = None

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

    def with_data(self, data: np.ndarray, qformat: Optional[str] = None) -> "FeatureMap":
        """Return a new map with replaced data (and optionally Q-format)."""
        return FeatureMap(data=data, qformat=qformat if qformat is not None else self.qformat)

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
