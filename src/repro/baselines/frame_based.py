"""The conventional frame-based inference flow (Section 2, Eq. 1).

A frame-based accelerator runs the network layer by layer over whole frames,
streaming every intermediate feature map to DRAM and back.  For
computational-imaging networks — whose feature maps stay at (near) full
resolution — this is what makes high-resolution real-time inference
infeasible on low-end DRAM, and it is the baseline the block-based flow is
designed to eliminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.models.complexity import kop_per_pixel
from repro.nn.layers import Conv2d
from repro.nn.network import Sequential, flatten_layers, iter_conv_layers
from repro.nn.receptive_field import layer_geometry
from repro.specs import RealTimeSpec


def frame_based_feature_bandwidth(
    depth: int,
    channels: int,
    spec: RealTimeSpec,
    *,
    feature_bits: int = 16,
) -> float:
    """Eq. (1): DRAM bandwidth (GB/s) for intermediate feature maps.

    ``H x W x C x (D - 1) x fR x L x 2`` bits per second — every per-layer
    feature map is written once and read once.  Input and output images are
    excluded, as in the paper.
    """
    if depth < 2:
        raise ValueError("a layer-by-layer flow needs at least two layers")
    if channels < 1:
        raise ValueError("channels must be positive")
    bits_per_second = (
        spec.pixels_per_frame * channels * (depth - 1) * spec.fps * feature_bits * 2
    )
    return bits_per_second / 8.0 / 1e9


@dataclass(frozen=True)
class FrameBasedReport:
    """Frame-based execution requirements of one network at one specification."""

    model_name: str
    spec_name: str
    feature_bandwidth_gb_s: float
    image_bandwidth_gb_s: float
    required_tops: float

    @property
    def total_bandwidth_gb_s(self) -> float:
        return self.feature_bandwidth_gb_s + self.image_bandwidth_gb_s

    def bandwidth_overhead_versus_images(self) -> float:
        """How many times the feature traffic exceeds the image traffic.

        For the plain network this is the paper's ``2C(D-1)/3`` factor
        (e.g. ~811x for VDSR with 16-bit features).
        """
        return self.feature_bandwidth_gb_s / self.image_bandwidth_gb_s


def frame_based_report(
    network: Sequential,
    spec: RealTimeSpec,
    *,
    feature_bits: int = 16,
    image_bits: int = 8,
) -> FrameBasedReport:
    """Per-layer frame-based DRAM traffic for an actual network.

    Walks the network accumulating each intermediate feature map's size at its
    own resolution (SR heads run at 1/scale resolution), counting one write
    and one read per map, and adds the input/output image traffic.
    """
    convs = [layer for layer in iter_conv_layers(network) if isinstance(layer, Conv2d)]
    if not convs:
        raise ValueError("network has no convolution layers")

    # Walk the flattened network tracking the relative resolution.
    total_feature_bits = 0.0
    scale = 1.0  # relative to the *input* image resolution
    flat = list(flatten_layers(network))
    upscale = getattr(network, "upscale", 1)
    input_pixels = spec.pixels_per_frame / (upscale * upscale)
    for index, layer in enumerate(flat):
        geom = layer_geometry(layer)
        scale *= geom.scale
        if isinstance(layer, Conv2d) and index < len(flat) - 1:
            pixels = input_pixels * scale * scale
            total_feature_bits += pixels * layer.out_channels * feature_bits * 2

    feature_gb_s = total_feature_bits * spec.fps / 8.0 / 1e9
    image_bits_per_frame = (input_pixels + spec.pixels_per_frame) * 3 * image_bits
    image_gb_s = image_bits_per_frame * spec.fps / 8.0 / 1e9
    tops = kop_per_pixel(network) * 1e3 * spec.pixel_rate / 1e12
    return FrameBasedReport(
        model_name=getattr(network, "name", "network"),
        spec_name=spec.name,
        feature_bandwidth_gb_s=feature_gb_s,
        image_bandwidth_gb_s=image_gb_s,
        required_tops=tops,
    )

