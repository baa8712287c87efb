"""Clip-and-round quantization and the Eq. (4) precision search.

The quantization stage picks, for every parameter/feature group, the
fractional precision ``n`` minimising the L1 or L2 error between the
floating-point values and their clipped-and-rounded fixed-point images.
:mod:`repro.quant.fixed` applies the search to whole networks.
"""

from __future__ import annotations

from typing import Iterable, Literal, Optional

import numpy as np

from repro.nn.layers import Conv2d
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
