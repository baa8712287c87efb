"""repro — a Python reproduction of eCNN (MICRO 2019).

eCNN: A Block-Based and Highly-Parallel CNN Accelerator for Edge Inference,
Huang et al., MICRO-52, 2019.

Subpackages
-----------
``repro.nn``
    Numpy CNN inference substrate (convolutions, shuffles, networks).
``repro.quant``
    Dynamic fixed-point quantization (Q-formats, L1/L2 precision search).
``repro.core``
    Block-based truncated-pyramid inference flow and its overhead analytics.
``repro.models``
    The ERNet model family, baseline networks and the model-scanning /
    quality machinery.
``repro.fbisa``
    The FBISA coarse-grained instruction set, compiler and parameter
    bitstream coding.
``repro.hw``
    The eCNN processor model: timing, area, power and DRAM.
``repro.baselines``
    Comparator systems: frame-based flow, fused-layer flow, Diffy, IDEAL,
    Eyeriss and a SCALE-Sim-style systolic array.
``repro.analysis``
    Workload generators, sweeps and report formatting used by the
    paper-figure benchmark suite (``benchmarks/``).
``repro.runtime``
    Multi-scenario serving layer: request batching across simulated
    accelerator instances, a content-addressed analytic-result cache, the
    sharded multi-worker :class:`~repro.runtime.cluster.ServingCluster`,
    process-parallel design-space sweeps and the ``python -m repro.runtime``
    traffic CLI.
``repro.api``
    The typed public surface: the :class:`~repro.api.backend.AcceleratorBackend`
    protocol and registry (eCNN plus every baseline as a pluggable backend),
    the :class:`~repro.api.session.Session` owning backend/cache/workload
    selection, and the frozen :class:`~repro.api.results.PerfProfile` /
    :class:`~repro.api.results.CostReport` result types.  (The old
    direct-module entry points ``analyze_performance`` / ``analyze_area``
    survive only as ``DeprecationWarning`` shims pointing here.)
``repro.soak``
    The soak & chaos tier: streaming (O(1)-memory) Poisson/bursty/diurnal
    trace generators, a chaos controller driving the cluster's
    fault-injection surface, exactly-once request accounting with
    post-chaos pixel parity, ``repro-soak/1`` capacity reports and the
    ``repro-soak`` CLI.
"""

__version__ = "1.3.0"

__all__ = ["__version__"]
