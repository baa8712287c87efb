"""The ``numpy`` reference kernel set: the bit-exact parity oracle.

Every function here is a verbatim extraction of the historical hot-path
arithmetic (``Conv2d.forward`` in :mod:`repro.nn.layers`,
``QFormat.quantize_to_codes`` in :mod:`repro.quant.qformat` and the
vectorized Eq. (4) search in :mod:`repro.quant.quantize`) — same operations,
same order, same BLAS calls — so routing the layers through this set changes
no output bit anywhere in the stack.  That is what makes it the oracle the
parity sweep compares every other kernel set against.

This module also owns the repository's single im2col patch extraction
(:func:`_im2col`).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import register_kernel


def _im2col(data: np.ndarray, kernel: int):
    """Return ``(C*K*K, H_out*W_out)`` patches of a ``(C, H, W)`` map for valid convolution."""
    channels, height, width = data.shape
    out_h = height - kernel + 1
    out_w = width - kernel + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"input {height}x{width} too small for valid {kernel}x{kernel} convolution"
        )
    cols = np.empty((channels, kernel, kernel, out_h, out_w), dtype=data.dtype)
    for dy in range(kernel):
        for dx in range(kernel):
            cols[:, dy, dx] = data[:, dy : dy + out_h, dx : dx + out_w]
    return cols.reshape(channels * kernel * kernel, out_h * out_w), out_h, out_w


@register_kernel
class NumpyKernelSet:
    """Pure-numpy kernels, bit-exact to the pre-registry code paths."""

    name = "numpy"
    description = (
        "pure-numpy reference kernels: im2col + BLAS gemm "
        "convolution and vectorized Q-format passes (bit-exact oracle)"
    )
    #: The oracle compares against itself: zero tolerance, bit-identical.
    tolerance = 0.0

    def __init__(self) -> None:
        self._warm = None

    def available(self) -> bool:
        return True

    def warmup(self):
        """Nothing to compile; returns a memoized marker bundle."""
        if self._warm is None:
            self._warm = {"set": self.name, "compiled": ()}
        return self._warm

    # ------------------------------------------------------------ convolution
    def conv2d(self, data: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """One ``(C, H, W)`` map, valid mode (padding is the caller's job)."""
        out_channels, in_channels, kernel, _ = weights.shape
        if kernel == 1:
            channels, height, width = data.shape
            flat = data.reshape(channels, height * width)
            out = weights.reshape(out_channels, in_channels) @ flat
            out = out + bias[:, np.newaxis]
            return out.reshape(out_channels, height, width)
        cols, out_h, out_w = _im2col(data, kernel)
        w2d = weights.reshape(out_channels, -1)
        out = w2d @ cols + bias[:, np.newaxis]
        return out.reshape(out_channels, out_h, out_w)

    # ----------------------------------------------------------- quantization
    def quantize_to_codes(
        self, values: np.ndarray, step: float, min_code: int, max_code: int
    ) -> np.ndarray:
        codes = np.rint(values / step)
        return np.clip(codes, min_code, max_code).astype(np.int64)

    def fraction_search(
        self,
        values: np.ndarray,
        fracs: np.ndarray,
        min_code: int,
        max_code: int,
        norm: str,
    ) -> int:
        steps = (2.0 ** (-fracs.astype(np.float64)))[:, np.newaxis]  # (F, 1) LSBs
        # One (candidates, values) pass, reusing a single working buffer:
        # round to codes, clip to the format's range, back to real values,
        # subtract — the same per-candidate arithmetic (and summation order)
        # as the scalar reference, so the selected format is bit-for-bit
        # identical.
        work = values[np.newaxis, :] / steps
        np.rint(work, out=work)
        np.clip(work, min_code, max_code, out=work)
        work *= steps
        np.subtract(values[np.newaxis, :], work, out=work)
        if norm == "l1":
            np.abs(work, out=work)
        else:
            np.multiply(work, work, out=work)
        errors = work.sum(axis=1)
        return int(fracs[errors == errors.min()].max())
