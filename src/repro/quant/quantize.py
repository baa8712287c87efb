"""Quantization plan construction (Eq. (4) of the paper).

The quantization stage picks, for every parameter/feature group, the
fractional precision ``n`` minimising the L1 or L2 error between the
floating-point values and their clipped-and-rounded fixed-point images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Literal, Optional

import numpy as np

from repro.nn.layers import Conv2d
from repro.nn.network import Sequential, iter_conv_layers
from repro.nn.tensor import FeatureMap
from repro.quant.qformat import QFormat

Norm = Literal["l1", "l2"]


def quantize(values: np.ndarray, qformat: QFormat) -> np.ndarray:
    """Clip and round ``values`` to ``qformat`` and return the real values."""
    return qformat.quantize(values)


def dequantize(codes: np.ndarray, qformat: QFormat) -> np.ndarray:
    """Convert integer codes of ``qformat`` back to real values."""
    return qformat.codes_to_values(codes)


def quantization_error(values: np.ndarray, qformat: QFormat, norm: Norm = "l2") -> float:
    """Total L1 or L2 quantization error of ``values`` under ``qformat``."""
    values = np.asarray(values, dtype=np.float64)
    err = values - qformat.quantize(values)
    if norm == "l1":
        return float(np.abs(err).sum())
    if norm == "l2":
        return float((err * err).sum())
    raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")


def _optimal_fraction_bits_scalar(
    values: np.ndarray,
    *,
    bits: int = 8,
    signed: bool = True,
    norm: Norm = "l2",
    search_range: Iterable[int] = range(-4, 16),
) -> QFormat:
    """Reference one-candidate-at-a-time search (kept for parity testing)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot choose a Q-format for an empty value collection")
    best: Optional[QFormat] = None
    best_err = np.inf
    for frac in search_range:
        candidate = QFormat(frac=frac, bits=bits, signed=signed)
        err = quantization_error(values, candidate, norm=norm)
        # The first candidate always seeds the search: with the historical
        # ``err < best_err`` guard alone, an all-infinite-error input (every
        # candidate ties at +inf — e.g. an inf-valued sample, or an l2 sum
        # overflowing for every frac) never accepted any candidate and the
        # search crashed, while the vectorized path happily returned the
        # largest tied frac.  Seeding first and breaking ties toward the
        # larger frac makes both searches agree on every tie shape.
        if best is None or err < best_err or (err == best_err and frac > best.frac):
            best = candidate
            best_err = err
    if best is None:
        raise ValueError("search_range must contain at least one candidate")
    return best


def optimal_fraction_bits(
    values: np.ndarray,
    *,
    bits: int = 8,
    signed: bool = True,
    norm: Norm = "l2",
    search_range: Iterable[int] = range(-4, 16),
) -> QFormat:
    """Search the fractional precision minimising the quantization error.

    Implements Eq. (4): ``argmin_n sum |x - Q_n(x)|^l`` over a search range of
    fraction-bit positions.  Ties are broken toward the larger fraction (finer
    resolution), matching the paper's preference for preserving small values.

    The search is vectorized: every candidate's clip-and-round error is
    evaluated against the sample tensor in one ``(candidates, values)`` numpy
    pass.  Per-candidate arithmetic and summation order match the scalar
    reference search exactly, so the chosen format is identical.
    """
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot choose a Q-format for an empty value collection")
    fracs = np.fromiter(search_range, dtype=np.int64)
    if fracs.size == 0:
        raise ValueError("search_range must contain at least one candidate")
    probe = QFormat(frac=0, bits=bits, signed=signed)  # validates bits
    steps = (2.0 ** (-fracs.astype(np.float64)))[:, np.newaxis]  # (F, 1) LSBs
    # One (candidates, values) pass, reusing a single working buffer: round
    # to codes, clip to the format's range, back to real values, subtract.
    work = values[np.newaxis, :] / steps
    np.rint(work, out=work)
    np.clip(work, probe.min_code, probe.max_code, out=work)
    work *= steps
    np.subtract(values[np.newaxis, :], work, out=work)
    if norm == "l1":
        np.abs(work, out=work)
    else:
        np.multiply(work, work, out=work)
    errors = work.sum(axis=1)
    best_frac = fracs[errors == errors.min()].max()
    return QFormat(frac=int(best_frac), bits=bits, signed=signed)


def conv_codes(
    conv: Conv2d, weight_format: QFormat, bias_format: QFormat
) -> tuple[np.ndarray, np.ndarray]:
    """A convolution's 8-bit weight and bias codes at the given formats.

    The one rounding rule for parameters: the FBISA compiler packs these
    codes and the fixed-point program computes on them.
    """
    return weight_format.quantize_to_codes(conv.weights), bias_format.quantize_to_codes(conv.bias)


@dataclass(frozen=True)
class LayerQuantization:
    """Chosen Q-formats for one convolution layer."""

    layer_name: str
    weight_format: QFormat
    bias_format: QFormat
    output_format: QFormat
    weight_error: float
    bias_error: float


@dataclass
class QuantizationPlan:
    """Per-layer Q-formats for a whole network plus summary statistics."""

    model_name: str
    norm: Norm
    layers: List[LayerQuantization] = field(default_factory=list)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def formats_by_layer(self) -> Dict[str, LayerQuantization]:
        return {lq.layer_name: lq for lq in self.layers}

    @property
    def total_weight_error(self) -> float:
        return sum(lq.weight_error for lq in self.layers)

    def describe(self) -> str:
        lines = [f"quantization plan for {self.model_name} ({self.norm}-norm)"]
        for lq in self.layers:
            lines.append(
                f"  {lq.layer_name:24s} weights={lq.weight_format.name:5s} "
                f"bias={lq.bias_format.name:5s} out={lq.output_format.name:5s}"
            )
        return "\n".join(lines)


def quantize_network(
    network: Sequential,
    *,
    calibration_inputs: Optional[Iterable[FeatureMap]] = None,
    bits: int = 8,
    norm: Norm = "l2",
    feature_bits: int = 8,
) -> QuantizationPlan:
    """Build a per-layer quantization plan for ``network``.

    Weight and bias formats are derived directly from the parameter values;
    feature-output formats are derived from activations collected by running
    the network on ``calibration_inputs`` (the paper inferences on the training
    set for this purpose).  When no calibration inputs are given, a generic
    activation range of [-2, 2) is assumed, which corresponds to Q6 at 8 bits.
    """
    convs = [layer for layer in iter_conv_layers(network) if isinstance(layer, Conv2d)]
    if not convs:
        raise ValueError("network contains no convolution layers to quantize")

    activation_samples: Dict[int, List[np.ndarray]] = {i: [] for i in range(len(convs))}
    if calibration_inputs is not None:
        for fm in calibration_inputs:
            _collect_activations(network, fm, convs, activation_samples)

    name = getattr(network, "name", "network")
    plan = QuantizationPlan(model_name=name, norm=norm)
    seen: Dict[str, int] = {}
    for index, conv in enumerate(convs):
        layer_name = conv.name
        if layer_name in seen:
            seen[layer_name] += 1
            layer_name = f"{layer_name}#{seen[conv.name]}"
        else:
            seen[layer_name] = 0

        wfmt = optimal_fraction_bits(conv.weights, bits=bits, signed=True, norm=norm)
        bias_values = conv.bias if np.any(conv.bias) else np.asarray([0.0, conv.weights.std()])
        bfmt = optimal_fraction_bits(bias_values, bits=bits, signed=True, norm=norm)

        samples = activation_samples[index]
        if samples:
            acts = np.concatenate([s.ravel() for s in samples])
            signed_out = bool((acts < 0).any())
            ofmt = optimal_fraction_bits(acts, bits=feature_bits, signed=signed_out, norm=norm)
        else:
            ofmt = QFormat(frac=feature_bits - 2, bits=feature_bits, signed=True)

        plan.layers.append(
            LayerQuantization(
                layer_name=layer_name,
                weight_format=wfmt,
                bias_format=bfmt,
                output_format=ofmt,
                weight_error=quantization_error(conv.weights, wfmt, norm=norm),
                bias_error=quantization_error(conv.bias, bfmt, norm=norm),
            )
        )
    return plan


def _collect_activations(
    network: Sequential,
    fm: FeatureMap,
    convs: List[Conv2d],
    samples: Dict[int, List[np.ndarray]],
) -> None:
    """Run ``network`` on ``fm`` collecting each conv layer's output values."""
    conv_index = 0

    def run(layer, x: FeatureMap) -> FeatureMap:
        nonlocal conv_index
        from repro.nn.layers import Residual
        from repro.nn.network import Sequential as Seq

        if isinstance(layer, Conv2d):
            out = layer.forward(x)
            samples[conv_index].append(out.data)
            conv_index += 1
            return out
        if isinstance(layer, Residual):
            out = x
            for inner in layer.body:
                out = run(inner, out)
            crop_h = (x.height - out.height) // 2
            crop_w = (x.width - out.width) // 2
            skip = x.data[
                :,
                crop_h : x.height - crop_h,
                crop_w : x.width - crop_w,
            ]
            return out.with_data(out.data + skip)
        if isinstance(layer, Seq):
            out = x
            for inner in layer.layers:
                out = run(inner, out)
            return out
        return layer.forward(x)

    out = fm
    for layer in network.layers:
        out = run(layer, out)
