#!/usr/bin/env python3
"""Time the three lowerings of the convolution kernel on the catalogue's shapes.

``repro.nn.layers._conv2d_valid`` lowers a KxK convolution one of three
ways, picked from its shapes: tap fold (``_conv_taps``), row fold
(``_conv_rows``) or im2col gather (``_conv_gather``).  This script runs all
three on every distinct KxK layer shape of the served catalogue
programs, at square inputs of several sides, and prints one table row per
(layer shape, side):

* the achieved GMAC/s of each path (useful MACs over the median wall
  time), and in brackets its share of a bare float32 gemm peak measured
  in the same process;
* the im2col bytes each path gathers for the whole map (tap fold: none);
* the path ``_conv2d_valid`` picks, and ``!`` when another path ran more
  than 10% faster, i.e. when a crossover has moved.

BLAS threads are whatever the process gets; pin them to compare::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/conv_paths.py
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tools/conv_paths.py

The exit code is always 0.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.api import Session
from repro.nn import layers
from repro.nn.network import iter_conv_layers
from repro.runtime.cache import ResultCache

PATHS = {"gather": layers._conv_gather, "rows": layers._conv_rows, "taps": layers._conv_taps}
#: Square input sides timed per layer shape, and timed runs per path (median).
SIDES = (8, 12, 16, 24, 32, 48, 72, 128)
REPEATS = 7


def catalogue_layers() -> dict:
    """One served KxK layer per distinct ``(C, O, K, dtype)``, keyed by that tuple."""
    session = Session(cache=ResultCache())
    found = {}
    for workload in ("denoise", "super_resolution", "style_transfer"):
        for conv in iter_conv_layers(session.compile(workload).network):
            if conv.kernel > 1:
                key = (conv.in_channels, conv.out_channels, conv.kernel, conv.dtype.name)
                found.setdefault(key, conv)
    return dict(sorted(found.items()))


def _median_seconds(fn, repeats: int) -> float:
    fn()  # warm the buffers and BLAS threads
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def gemm_peak(repeats: int) -> float:
    """GMAC/s of a large float32 gemm, the peak each path's share is of."""
    rng = np.random.default_rng(0)
    a = rng.integers(-127, 128, size=(256, 512)).astype(np.float32)
    b = rng.integers(-127, 128, size=(512, 8192)).astype(np.float32)
    return a.shape[0] * a.shape[1] * b.shape[1] / _median_seconds(lambda: a @ b, repeats) / 1e9


def gathered_bytes(fn, data, weights, bias) -> int:
    """Gemm operand bytes ``fn`` copies out of ``data`` (rows read in place count 0)."""
    total = 0
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        nonlocal total
        if not np.may_share_memory(b, data):
            total += b.nbytes
        return matmul(a, b, *args, **kwargs)

    np.matmul = spy
    try:
        fn(data, weights, bias, None, (-128, 127))
    finally:
        np.matmul = matmul
    return total


def main() -> int:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    peak = gemm_peak(REPEATS)
    print(f"BLAS threads: {threads}; float32 gemm peak (256x512 @ 512x8192): {peak:.1f} GMAC/s")
    print("| C->O KxK dtype | side | gather GMAC/s | rows GMAC/s | taps GMAC/s "
          "| gathered MB (gather / rows) | picked |")
    print("|---|---|---|---|---|---|---|")
    rng = np.random.default_rng(0)
    moved = shapes = 0
    for (c, o, k, dtype), conv in catalogue_layers().items():
        weights, bias = conv.weights, conv.bias
        for side in SIDES:
            if side < k:
                continue
            data = rng.integers(-128, 128, size=(c, side, side)).astype(dtype)
            macs = c * o * k * k * (side - k + 1) ** 2
            rates = {
                name: macs / _median_seconds(
                    lambda fn=fn: fn(data, weights, bias, None, (-128, 127)), REPEATS
                ) / 1e9
                for name, fn in PATHS.items()
            }
            picked = layers._lowering(data.shape, weights.shape).__name__.removeprefix("_conv_")
            flag = " !" if max(rates.values()) > 1.1 * rates[picked] else ""
            moved += bool(flag)
            shapes += 1
            cells = " | ".join(f"{rates[n]:.1f} ({rates[n] / peak:.0%})" for n in PATHS)
            mb = " / ".join(
                f"{gathered_bytes(PATHS[n], data, weights, bias) / 1e6:.2f}" for n in ("gather", "rows")
            )
            print(f"| {c}->{o} {k}x{k} {dtype} | {side} | {cells} | {mb} | {picked}{flag} |")
    print(f"picked lowering more than 10% slower than another on {moved} of {shapes} shapes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
