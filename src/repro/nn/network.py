"""Network containers.

A :class:`Sequential` network is an ordered list of layers; a
:class:`Network` adds model-level metadata (name, scale factor, nominal
channel width) used by the complexity accounting and the FBISA compiler.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

from repro.nn.layers import Layer
from repro.nn.tensor import FeatureMap


class Sequential(Layer):
    """An ordered pipeline of layers executed one after another."""

    kind = "sequential"

    def __init__(self, layers: Sequence[Layer], name: str = "sequential") -> None:
        self.layers: List[Layer] = list(layers)
        self.name = name
        if not self.layers:
            raise ValueError("a Sequential needs at least one layer")

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def margin(self) -> int:
        return sum(layer.margin for layer in self.layers)

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.layers)

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        c, h, w = channels, height, width
        for layer in self.layers:
            c, h, w = layer.output_shape(c, h, w)
        return c, h, w

    def forward(self, fm: FeatureMap) -> FeatureMap:
        out = fm
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def forward_trace(self, fm: FeatureMap) -> List[FeatureMap]:
        """Run the network returning every intermediate feature map.

        Useful for collecting per-layer value distributions during the
        quantization precision search (Section 4.3).
        """
        trace: List[FeatureMap] = [fm]
        out = fm
        for layer in self.layers:
            out = layer.forward(out)
            trace.append(out)
        return trace


class Network(Sequential):
    """A named model with input/output metadata.

    Parameters
    ----------
    layers:
        The layer pipeline.
    name:
        Model name, e.g. ``"SR4ERNet-B17R3N1"``.
    in_channels / out_channels:
        Image-level channel counts (3 for RGB; 12 for DnERNet-12ch packing).
    upscale:
        Net spatial upscaling factor of the whole model (4 for SR4ERNet,
        2 for SR2ERNet, 1 for denoising).
    """

    kind = "network"

    def __init__(
        self,
        layers: Sequence[Layer],
        name: str,
        *,
        in_channels: int = 3,
        out_channels: int = 3,
        upscale: int = 1,
        metadata: Optional[dict] = None,
    ) -> None:
        super().__init__(layers, name=name)
        if upscale < 1:
            raise ValueError("upscale must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.upscale = upscale
        self.metadata = dict(metadata or {})

    def describe(self) -> str:
        """A short human readable summary of the model."""
        return (
            f"{self.name}: {len(self.layers)} layers, "
            f"{self.num_parameters} parameters, upscale x{self.upscale}"
        )


def iter_conv_layers(layer: Layer) -> Iterable[Layer]:
    """Yield every convolution layer nested anywhere inside ``layer``."""
    from repro.nn.layers import Conv2d, Residual  # local import to avoid cycle

    if isinstance(layer, Conv2d):
        yield layer
    elif isinstance(layer, Residual):
        for inner in layer.body:
            yield from iter_conv_layers(inner)
    elif isinstance(layer, Sequential):
        for inner in layer.layers:
            yield from iter_conv_layers(inner)
