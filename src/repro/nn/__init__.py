"""Numpy CNN inference substrate.

This subpackage provides the functional foundation the rest of the
reproduction builds on: a small, explicit convolutional-network engine
implemented with numpy.  It supports exactly the operator vocabulary used by
the eCNN paper's networks (3x3 and 1x1 convolution, ReLU, residual
connections, pixel shuffle/unshuffle, strided and max pooling) in both
``valid`` padding (the mode the block-based truncated-pyramid flow relies on)
and ``zero`` padding (the mode frame-based baselines use at image borders).

The engine favours clarity over raw speed.  Every layer has exactly one
execution path, ``forward`` on a 3-D :class:`FeatureMap`; the block flow
calls it once per truncated-pyramid block.
"""

from repro.nn.tensor import FeatureMap
from repro.nn.layers import (
    AddBias,
    ClippedReLU,
    Conv2d,
    Layer,
    ReLU,
    Residual,
)
from repro.nn.ops import (
    MaxPool2x2,
    PixelShuffle,
    PixelUnshuffle,
    StridedPool2x2,
    ZeroPad,
    pad_channels,
)
from repro.nn.network import Network, Sequential
from repro.nn.receptive_field import (
    LayerGeometry,
    network_receptive_field,
    output_size_valid,
    receptive_field,
)
from repro.nn.initializers import he_laplace, he_normal, lecun_uniform, seeded_rng

__all__ = [
    "AddBias",
    "ClippedReLU",
    "Conv2d",
    "FeatureMap",
    "Layer",
    "LayerGeometry",
    "MaxPool2x2",
    "Network",
    "PixelShuffle",
    "PixelUnshuffle",
    "ReLU",
    "Residual",
    "Sequential",
    "StridedPool2x2",
    "ZeroPad",
    "he_laplace",
    "he_normal",
    "lecun_uniform",
    "network_receptive_field",
    "output_size_valid",
    "pad_channels",
    "receptive_field",
    "seeded_rng",
]
