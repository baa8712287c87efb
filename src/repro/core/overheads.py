"""Analytical bandwidth and computation overheads of the block-based flow.

Implements Eqs. (2) and (3) of the paper (NBR and NCR for the plain
CONV3x3-only network of Fig. 4) and generalises both ratios to arbitrary
layer stacks by explicit per-layer pyramid accounting, which is what the
model-scanning procedure (Section 4.2) and the hardware profiling (Fig. 19)
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.nn.layers import Conv2d, Layer
from repro.nn.network import Sequential, flatten_layers
from repro.nn.receptive_field import layer_geometry


def normalized_bandwidth_ratio(beta: float) -> float:
    """NBR of Eq. (2): bandwidth of all input+output blocks over the output image.

    ``beta`` is the depth-input ratio ``D / x_i`` of the plain network.
    """
    _check_beta(beta)
    return 1.0 + 1.0 / (1.0 - 2.0 * beta) ** 2


def normalized_computation_ratio(beta: float) -> float:
    """NCR of Eq. (3): truncated-pyramid volume over the centre cuboid volume."""
    _check_beta(beta)
    return 1.0 / 3.0 + (2.0 / 3.0) * (1.0 - beta) / (1.0 - 2.0 * beta) ** 2


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta < 0.5:
        raise ValueError(
            f"depth-input ratio must be in [0, 0.5) for a non-empty output, got {beta}"
        )


def pyramid_volume(depth: int, input_size: int) -> float:
    """Feature volume of a depth-``depth`` truncated pyramid on an ``input_size`` block.

    Counts the per-layer input areas of a plain 3x3 network: layer ``d`` sees a
    block of side ``input_size - 2*d``.  Used to cross-check Eq. (3) against
    brute-force counting in the tests.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if input_size <= 2 * depth:
        raise ValueError("block fully consumed; input_size must exceed 2*depth")
    return float(sum((input_size - 2 * d) ** 2 for d in range(depth)))


def block_buffer_bytes(channels: int, block_size: int, bits_per_value: int = 8) -> int:
    """On-chip block buffer footprint ``C * L * x_i^2`` in bytes."""
    if channels <= 0 or block_size <= 0 or bits_per_value <= 0:
        raise ValueError("channels, block_size and bits_per_value must be positive")
    return (channels * block_size * block_size * bits_per_value + 7) // 8


def block_size_for_buffer(buffer_bytes: int, channels: int, bits_per_value: int = 8) -> int:
    """Largest square block side that fits in ``buffer_bytes`` of block buffer."""
    if buffer_bytes <= 0:
        raise ValueError("buffer_bytes must be positive")
    values = buffer_bytes * 8 // bits_per_value
    side = int((values / channels) ** 0.5)
    while block_buffer_bytes(channels, side + 1, bits_per_value) <= buffer_bytes:
        side += 1
    while side > 0 and block_buffer_bytes(channels, side, bits_per_value) > buffer_bytes:
        side -= 1
    if side == 0:
        raise ValueError("buffer too small to hold even a 1x1 block")
    return side


def general_ncr(layers: Sequence[Layer], input_block: int) -> float:
    """NCR of an arbitrary layer stack for a given (square) input block size.

    The numerator counts the MACs actually executed on the truncated pyramid
    (every layer runs on its shrunken per-block area); the denominator counts
    the intrinsic MACs — the per-output-pixel MAC cost times the number of
    output pixels the block produces.
    """
    block_macs, out_size, intrinsic_per_pixel = _pyramid_macs(layers, input_block)
    if out_size <= 0:
        raise ValueError("input block fully consumed by the network")
    intrinsic = intrinsic_per_pixel * out_size * out_size
    if intrinsic == 0:
        raise ValueError("layer stack contains no convolutions")
    return block_macs / intrinsic


def general_nbr(
    layers: Sequence[Layer],
    input_block: int,
    *,
    in_channels: int = 3,
    out_channels: int = 3,
    in_bits: int = 8,
    out_bits: int = 8,
) -> float:
    """NBR of an arbitrary layer stack for a given input block size.

    The ratio of per-block input+output traffic to output-image traffic, in
    bits, matching Eq. (2) when input and output use the same channel count
    and precision.
    """
    out_size = _output_size(layers, input_block)
    in_traffic = input_block * input_block * in_channels * in_bits
    out_traffic = out_size * out_size * out_channels * out_bits
    return (in_traffic + out_traffic) / out_traffic


def intrinsic_macs_per_output_pixel(layers: Sequence[Layer]) -> float:
    """MACs each *final* output pixel costs when no recomputation happens."""
    _, _, per_pixel = _pyramid_macs(layers, _probe_block(layers))
    return per_pixel


def _probe_block(layers: Sequence[Layer]) -> int:
    """A safely large probe block for intrinsic accounting."""
    margin = sum(layer_geometry(layer).margin for layer in flatten_layers(layers))
    return 4 * margin + 64


def _output_size(layers: Sequence[Layer], input_block: int) -> int:
    size = float(input_block)
    for layer in flatten_layers(layers):
        geom = layer_geometry(layer)
        size -= 2 * geom.margin
        if size <= 0:
            raise ValueError("input block fully consumed by the network")
        size *= geom.scale
    return int(size)


def _pyramid_macs(layers: Sequence[Layer], input_block: int) -> tuple[float, int, float]:
    """Return (block MACs, output size, intrinsic MACs per output pixel)."""
    size = float(input_block)
    block_macs = 0.0
    relative_area = 1.0  # output pixels of the final image per pixel at this layer
    intrinsic_per_pixel = 0.0
    flat = list(flatten_layers(layers))

    # Net scale from each layer position to the output determines how many
    # final output pixels each current-resolution pixel corresponds to.
    scales_after = [1.0] * (len(flat) + 1)
    for i in range(len(flat) - 1, -1, -1):
        scales_after[i] = scales_after[i + 1] * layer_geometry(flat[i]).scale

    for i, layer in enumerate(flat):
        geom = layer_geometry(layer)
        out_side = size - 2 * geom.margin
        if out_side <= 0:
            raise ValueError("input block fully consumed by the network")
        if isinstance(layer, Conv2d):
            macs = layer.macs_per_output_pixel()
            block_macs += macs * out_side * out_side
            # One pixel at this layer's output maps to scales_after[i+1]^2
            # pixels of the final output.
            per_final_pixel = macs / (scales_after[i + 1] ** 2)
            intrinsic_per_pixel += per_final_pixel
        size = out_side * geom.scale
        relative_area *= geom.scale * geom.scale

    return block_macs, int(size), intrinsic_per_pixel


@dataclass(frozen=True)
class OverheadReport:
    """Summary of block-based overheads for one model and block size."""

    model_name: str
    input_block: int
    output_block: int
    nbr: float
    ncr: float
    intrinsic_kop_per_pixel: float
    effective_kop_per_pixel: float
    block_buffer_bytes: int

    def describe(self) -> str:
        return (
            f"{self.model_name}: xi={self.input_block} xo={self.output_block} "
            f"NBR={self.nbr:.2f} NCR={self.ncr:.2f} "
            f"intrinsic={self.intrinsic_kop_per_pixel:.0f} KOP/px "
            f"effective={self.effective_kop_per_pixel:.0f} KOP/px "
            f"BB={self.block_buffer_bytes / 1024:.0f} KB"
        )


def overhead_report(
    network: Sequential,
    input_block: int,
    *,
    buffer_channels: Optional[int] = None,
    feature_bits: int = 8,
) -> OverheadReport:
    """Build the full overhead report used by Figs. 5, 8 and 19.

    ``buffer_channels`` defaults to the widest feature map the network keeps
    in block buffers (the nominal model width).
    """
    layers = network.layers
    ncr = general_ncr(layers, input_block)
    nbr = general_nbr(layers, input_block)
    out_block = _output_size(layers, input_block)
    intrinsic = intrinsic_macs_per_output_pixel(layers)
    # Operations are counted as 2 x MACs (multiply + add), the convention the
    # paper uses for TOPS and KOP/pixel.
    intrinsic_kop = intrinsic * 2.0 / 1000.0
    effective_kop = intrinsic_kop * ncr
    channels = buffer_channels
    if channels is None:
        # Block buffers hold the model-width feature maps; ERModule expansions
        # stay inside the datapath.  Prefer the network's declared width and
        # fall back to the widest convolution output.
        metadata = getattr(network, "metadata", {}) or {}
        channels = metadata.get("channels")
    if channels is None:
        channels = max(
            (layer.out_channels for layer in flatten_layers(layers) if isinstance(layer, Conv2d)),
            default=3,
        )
    return OverheadReport(
        model_name=getattr(network, "name", "network"),
        input_block=input_block,
        output_block=out_block,
        nbr=nbr,
        ncr=ncr,
        intrinsic_kop_per_pixel=intrinsic_kop,
        effective_kop_per_pixel=effective_kop,
        block_buffer_bytes=block_buffer_bytes(channels, input_block, feature_bits),
    )
