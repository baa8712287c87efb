"""Workload generation, parameter sweeps and report formatting.

These utilities back the paper-figure benchmark suite (``benchmarks/``):
deterministic synthetic images
with natural-image-like statistics (DESIGN.md substitution for the paper's
datasets), sweep helpers for figures that plot a quantity against a range
(serial, or fanned across processes via the runtime's
:class:`~repro.runtime.sweep.ParallelSweep`), and plain-text table
formatting that prints rows in the paper's layout.
"""

from repro.analysis.workloads import (
    add_gaussian_noise,
    bicubic_like_downsample,
    synthetic_image,
)
from repro.analysis.sweeps import parallel_sweep, sweep
from repro.analysis.report import Table, format_table

__all__ = [
    "Table",
    "add_gaussian_noise",
    "bicubic_like_downsample",
    "format_table",
    "parallel_sweep",
    "sweep",
    "synthetic_image",
]
