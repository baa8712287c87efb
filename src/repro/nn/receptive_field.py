"""Receptive-field and truncated-pyramid geometry helpers.

The block-based inference flow (Section 3 of the paper) relies on the fact
that a depth-``D`` stack of valid 3x3 convolutions turns an ``xi``-pixel input
block into an ``xo = xi - 2*D`` output block.  These helpers compute the
margin (border pixels consumed per side), output sizes and receptive fields
for arbitrary layer stacks, including upsampling/downsampling stages where the
margin accounting has to be expressed in input-resolution pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.nn.layers import Conv2d, Layer, Residual
from repro.nn.network import Sequential
from repro.nn.ops import MaxPool2x2, PixelShuffle, PixelUnshuffle, StridedPool2x2


@dataclass(frozen=True)
class LayerGeometry:
    """Spatial geometry of a single layer in a stack.

    Attributes
    ----------
    margin:
        Border pixels consumed per side, at the layer's *own* resolution.
    scale:
        Spatial scaling factor the layer applies (2 for pixel shuffle,
        0.5 for 2x2 pooling / unshuffle, 1 otherwise).
    """

    margin: int
    scale: float


def layer_geometry(layer: Layer) -> LayerGeometry:
    """Return the spatial geometry contribution of one layer.

    A :class:`LayerGeometry` stands for itself, so a stack's geometries,
    computed once, can replace its layers in every geometry walk.
    """
    if isinstance(layer, LayerGeometry):
        return layer
    if isinstance(layer, Conv2d):
        return LayerGeometry(margin=layer.margin, scale=1.0)
    if isinstance(layer, Residual):
        margin = sum(layer_geometry(inner).margin for inner in layer.body)
        return LayerGeometry(margin=margin, scale=1.0)
    if isinstance(layer, Sequential):
        total = 0
        scale = 1.0
        for inner in layer.layers:
            geom = layer_geometry(inner)
            total += geom.margin
            scale *= geom.scale
        return LayerGeometry(margin=total, scale=scale)
    if isinstance(layer, PixelShuffle):
        return LayerGeometry(margin=0, scale=float(layer.factor))
    if isinstance(layer, PixelUnshuffle):
        return LayerGeometry(margin=0, scale=1.0 / layer.factor)
    if isinstance(layer, (MaxPool2x2, StridedPool2x2)):
        return LayerGeometry(margin=0, scale=0.5)
    return LayerGeometry(margin=layer.margin, scale=1.0)


def output_size_valid(input_size: int, layers: Sequence[Layer]) -> int:
    """Output spatial size of a square ``input_size`` block through ``layers``.

    Raises ``ValueError`` if the block is consumed entirely (no valid output),
    which corresponds to the paper's beta -> 0.5 degenerate case.
    """
    size = float(input_size)
    for layer in layers:
        geom = layer_geometry(layer)
        size -= 2 * geom.margin
        if size <= 0:
            raise ValueError(
                f"input block of {input_size} pixels is fully consumed by the network"
            )
        size *= geom.scale
        if size != int(size):
            raise ValueError(
                f"block size becomes fractional ({size}) — choose a block size "
                "compatible with the model's scaling factors"
            )
    return int(size)


def required_input_size(output_size: int, layers: Sequence[Layer]) -> int:
    """Inverse of :func:`output_size_valid`: input block needed for an output."""
    size = float(output_size)
    for layer in reversed(list(layers)):
        geom = layer_geometry(layer)
        size /= geom.scale
        if size != int(size):
            raise ValueError(
                f"output size {output_size} is not reachable with integer blocks"
            )
        size += 2 * geom.margin
    return int(size)


def receptive_field(layers: Sequence[Layer]) -> int:
    """Receptive field (in input pixels) of one output pixel of the stack."""
    field = 1.0
    for layer in reversed(list(layers)):
        geom = layer_geometry(layer)
        field /= geom.scale
        field += 2 * geom.margin
    return int(field)


def network_receptive_field(network: Sequential) -> int:
    """Receptive field of a whole network."""
    return receptive_field(network.layers)


def per_layer_sizes(input_size: int, layers: Sequence[Layer]) -> List[int]:
    """Spatial size after each layer, starting with the input size.

    This is the discrete profile of the truncated pyramid in Fig. 4: the
    returned list has ``len(layers) + 1`` entries.
    """
    sizes = [input_size]
    size = float(input_size)
    for layer in layers:
        geom = layer_geometry(layer)
        size -= 2 * geom.margin
        if size <= 0:
            raise ValueError("block fully consumed; increase the input block size")
        size *= geom.scale
        sizes.append(int(size))
    return sizes
