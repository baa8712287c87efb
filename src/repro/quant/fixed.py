"""Fixed-point programs: a network's arithmetic on 8-bit Q-format codes.

:func:`fixed_point_network` turns a float network into the program the eCNN
datapath runs (Section 4.3).  Every convolution becomes a
:class:`~repro.nn.layers.FixedConv2d` computing on 8-bit codes: its weights
are the codes the FBISA compiler packs (:func:`~repro.quant.quantize.conv_codes`
at each layer's Eq. 4 weight format), and its output format is chosen by
Eq. 4 once, on one small seeded calibration window run through the
fixed-point layers themselves.  Every residual becomes a
:class:`~repro.nn.layers.FixedResidual` whose skip joins the closing
convolution's accumulator, as srcS does.  ReLU, pooling and pixel
(un)shuffle act on codes unchanged.

The program mirrors the float network layer for layer — same geometry,
margins, stages and parameter counts — so every analytic model reads it
as it reads the float network.  Its first convolution rounds raw pixels to
codes and its last returns the values its codes stand for (exact in its
float32 or float64 dtype), so it maps frames to frames like the float
network, which stays the PSNR reference.  The calibration window holds
pixels in [0, 1), so the input format (UQ8 for three-channel frames)
clips brighter pixels.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.check.verifier import accumulator_dtype
from repro.nn.layers import Conv2d, FixedConv2d, FixedResidual, Layer, ReLU, Residual
from repro.nn.network import Network, Sequential, iter_conv_layers
from repro.nn.ops import MaxPool2x2, PixelShuffle, PixelUnshuffle, StridedPool2x2
from repro.nn.receptive_field import layer_geometry
from repro.nn.tensor import FeatureMap
from repro.quant.qformat import QFormat
from repro.quant.quantize import conv_codes, optimal_fraction_bits

#: Seed of the calibration window's uniform [0, 1) pixels.
CALIBRATION_SEED = 0
#: Calibration window pixels per side at the network's coarsest resolution
#: (after its downsamplers), and the fewest at its input.  Calibration pads
#: every valid convolution back to its input size, so every layer sees the
#: whole window however deep the network is.
CALIBRATION_COARSEST = 4
CALIBRATION_MIN_SIDE = 8
#: Eq. 4 sees at most about this many of a layer's values (an even stride).
CALIBRATION_SAMPLES = 2048
#: Formats Eq. 4 compares, finest-that-holds-the-largest-value first.  Each
#: further one clips twice as much of the range; across the catalogue the
#: search picks the first or the second.
SEARCH_SPAN = 4

#: Layers that move or select codes without arithmetic: their output keeps
#: their input's format.
_FORMAT_PRESERVING = (ReLU, PixelShuffle, PixelUnshuffle, StridedPool2x2, MaxPool2x2)


def _eq4_format(values: np.ndarray, signed: Optional[bool] = None) -> QFormat:
    """Eq. 4's 8-bit format for a sample, by default unsigned when nothing is negative.

    The search starts at the finest format whose range reaches the largest
    magnitude to within one step (coarser ones only add rounding error)
    and spans :data:`SEARCH_SPAN` formats.
    """
    flat = values.ravel()
    low, high = float(flat.min()), float(flat.max())
    if signed is None:
        signed = low < 0
    largest = max(-low, high)
    if largest == 0:
        return QFormat(0, signed=signed)  # every format holds zeros exactly
    fits = 8 - int(signed) - int(np.ceil(np.log2(largest)))
    sample = flat[:: max(1, flat.size // CALIBRATION_SAMPLES)]
    return optimal_fraction_bits(
        sample, bits=8, signed=signed, search_range=range(fits, fits + SEARCH_SPAN)
    )


class _Calibration:
    """Build fixed-point layers in order while a calibration window runs through them."""

    def __init__(self, network: Network) -> None:
        convs = list(iter_conv_layers(network))
        if not convs:
            raise ValueError("network contains no convolution to quantize")
        self.first, self.last = convs[0], convs[-1]

    def layer(
        self, layer: Layer, x: np.ndarray, fmt: Optional[QFormat]
    ) -> Tuple[Layer, np.ndarray, Optional[QFormat]]:
        """(fixed-point layer, its calibration output, that output's format).

        ``x`` holds codes at ``fmt``, or raw pixels while ``fmt`` is None.
        """
        if isinstance(layer, Conv2d):
            return self.conv(layer, x, fmt)
        if isinstance(layer, Residual):
            if fmt is None:
                raise ValueError(f"residual {layer.name} reads raw pixels; no fixed-point form")
            closing = layer.body[-1]
            if not isinstance(closing, Conv2d):
                raise ValueError(f"residual {layer.name} must end with a convolution")
            body, y, inner_fmt = self.layers(layer.body[:-1], x, fmt)
            fixed, y, out_fmt = self.conv(closing, y, inner_fmt, skip=(x, fmt))
            return FixedResidual(body + [fixed], name=layer.name), y, out_fmt
        if isinstance(layer, Sequential):
            body, y, out_fmt = self.layers(layer.layers, x, fmt)
            return Sequential(body, name=layer.name), y, out_fmt
        if isinstance(layer, _FORMAT_PRESERVING):
            return layer, layer.forward(FeatureMap(data=x)).data, fmt
        raise ValueError(f"layer kind {type(layer).__name__} has no fixed-point form")

    def layers(self, layers, x: np.ndarray, fmt: Optional[QFormat]):
        fixed = []
        for layer in layers:
            built, x, fmt = self.layer(layer, x, fmt)
            fixed.append(built)
        return fixed, x, fmt

    def conv(
        self,
        conv: Conv2d,
        x: np.ndarray,
        fmt: Optional[QFormat],
        skip: Optional[Tuple[np.ndarray, QFormat]] = None,
    ) -> Tuple[FixedConv2d, np.ndarray, QFormat]:
        weight_format = _eq4_format(conv.weights, signed=True)
        bias_format = _eq4_format(conv.bias, signed=True)
        codes, bias_codes = conv_codes(conv, weight_format, bias_format)
        skip_codes, skip_format = skip if skip is not None else (None, None)
        # In Q0 output-code units are real units: the probe's sums are the
        # exact real-valued accumulators Eq. 4 chooses the output format on.
        probe = FixedConv2d(
            codes,
            bias_codes,
            weight_format=weight_format,
            bias_format=bias_format,
            in_format=fmt if fmt is not None else _eq4_format(x),
            out_format=QFormat(0),
            skip_format=skip_format,
            quantize_input=fmt is None,
            dequantize_output=conv is self.last,
            padding=conv.padding,
            name=conv.name,
        )
        probe = probe.replace(dtype=accumulator_dtype(probe.accumulator_bound))
        pad = conv.margin
        window = x
        if pad:
            window = np.zeros((x.shape[0], x.shape[1] + 2 * pad, x.shape[2] + 2 * pad), x.dtype)
            window[:, pad:-pad, pad:-pad] = x
        sums = probe.accumulate(FeatureMap(data=window), skip_codes)
        out_format = _eq4_format(sums)
        # What the layer's forward returns for this window: exact sums
        # scaled by a power of two, rounded and clipped.
        codes_out = sums * 2.0**out_format.frac
        np.rint(codes_out, out=codes_out)
        np.clip(codes_out, out_format.min_code, out_format.max_code, out=codes_out)
        return probe.replace(out_format=out_format), codes_out, out_format


def fixed_point_network(network: Sequential) -> Network:
    """The fixed-point program of ``network`` (see the module docstring).

    Deterministic for a network: the calibration window is seeded and its
    sums are exact, so the chosen formats do not depend on BLAS threads,
    tile sizes or the process that builds them.
    """
    calibration = _Calibration(network)
    scale = coarsest = 1.0
    for layer in network.layers:
        scale *= layer_geometry(layer).scale
        coarsest = min(coarsest, scale)
    side = max(CALIBRATION_MIN_SIDE, round(CALIBRATION_COARSEST / coarsest))
    # A bare Sequential names no image channels: its first convolution's.
    in_channels = getattr(network, "in_channels", calibration.first.in_channels)
    window = np.random.default_rng(CALIBRATION_SEED).random((in_channels, side, side))
    layers, _, _ = calibration.layers(network.layers, window, None)
    return Network(
        layers,
        network.name,
        in_channels=in_channels,
        out_channels=getattr(network, "out_channels", calibration.last.out_channels),
        upscale=getattr(network, "upscale", 1),
        metadata=dict(getattr(network, "metadata", {})),
    )


def fixed_point_formats(network: Sequential) -> Tuple[str, ...]:
    """One ``name:in*weight->out/dtype`` entry per fixed-point convolution."""
    return tuple(
        f"{layer.name}:{layer.in_format.name}*{layer.weight_format.name}"
        f"->{layer.out_format.name}/{layer.dtype.name}"
        for layer in iter_conv_layers(network)
        if isinstance(layer, FixedConv2d)
    )
