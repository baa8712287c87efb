"""Multi-scenario serving runtime on top of the eCNN simulator.

The paper's processor sustains real-time rates on single workloads; this
subpackage turns the repository's analytic models into a serving engine that
handles many streams at once — the deployment the edge box actually faces.

Modules
-------
* :mod:`repro.runtime.cache` — content-addressed result cache for analytic
  queries (keyed on network spec + hardware config + input geometry);
* :mod:`repro.runtime.workloads` — the serving catalogue: denoise, 4x
  super-resolution, style transfer and recognition (what each costs per
  frame is :meth:`repro.api.Session.profile`, the one profile path);
* :mod:`repro.runtime.scheduler` — request queue, deterministic batching and
  placement across simulated eCNN instances with per-stream FPS accounting;
* :mod:`repro.runtime.trace` — replayable traffic traces (``demo``,
  ``burst``, ``steady``);
* :mod:`repro.runtime.engine` — the :class:`~repro.runtime.engine.ServingEngine`
  front door tying queue, scheduler and cache together, serving through a
  :class:`repro.api.Session` so any registered accelerator backend
  (``ecnn``, ``eyeriss``, ``diffy``, ``ideal``, ``frame_based``,
  ``scale_sim``) can stand in for the eCNN processor;
* :mod:`repro.runtime.cluster` — the scale-out tier:
  :class:`~repro.runtime.cluster.ServingCluster` shards streams and
  workloads across a pool of worker processes (one pinned session per
  worker) with bounded per-shard queues, one failover loop, aggregated
  :class:`~repro.runtime.cluster.ClusterStats`, and the fault-injection
  primitives ``kill_worker`` (which the :mod:`repro.soak` tier fires
  mid-run) and ``evict_frame_caches``, plus the ``fault_hook`` callback;
* :mod:`repro.runtime.video` — video-stream serving:
  :class:`~repro.runtime.video.VideoStream` diffs ordered frames at
  execution-block granularity (SAD/MAE residual per input window),
  motion-compensates camera pans, and re-runs inference only where the
  changed pixels reach, serving the rest from the predecessor's output —
  bit-identical to full re-inference in exact-reuse mode (threshold 0);
* :mod:`repro.runtime.sweep` — process-parallel design-space sweeps,
  bit-identical to :func:`repro.analysis.sweeps.sweep`;
* :mod:`repro.runtime.cli` — ``python -m repro.runtime --trace demo
  [--backend eyeriss] [--workers 4]``.
"""

from repro.runtime.cache import CacheStats, DEFAULT_CACHE, ResultCache, fingerprint
from repro.runtime.cluster import (
    ClusterBackpressure,
    ClusterError,
    ClusterReport,
    ClusterStats,
    ClusterWorkerError,
    ServingCluster,
    ShardStats,
)
from repro.runtime.engine import ServingEngine, ServingReport, WorkloadAnalytics
from repro.runtime.scheduler import (
    POLICIES,
    Batch,
    InferenceRequest,
    QueueFull,
    RequestQueue,
    RequestRecord,
    ScheduleResult,
    Scheduler,
    StreamStats,
    form_batches,
    policy_key,
)
from repro.runtime.sweep import ParallelSweep
from repro.runtime.trace import TRACES, TraceEvent, TrafficTrace, trace
from repro.runtime.video import (
    RESIDUAL_HISTOGRAM_EDGES,
    StagedPlanStreamError,
    StreamFrameResult,
    VideoStream,
    VideoStreamStats,
)
from repro.runtime.workloads import (
    WORKLOADS,
    RuntimeWorkload,
    register_workload,
    workload,
)

__all__ = [
    "Batch",
    "POLICIES",
    "CacheStats",
    "ClusterBackpressure",
    "ClusterError",
    "ClusterReport",
    "ClusterStats",
    "ClusterWorkerError",
    "DEFAULT_CACHE",
    "InferenceRequest",
    "ParallelSweep",
    "QueueFull",
    "policy_key",
    "RESIDUAL_HISTOGRAM_EDGES",
    "RequestQueue",
    "RequestRecord",
    "ResultCache",
    "RuntimeWorkload",
    "ScheduleResult",
    "Scheduler",
    "ServingCluster",
    "ServingEngine",
    "ServingReport",
    "ShardStats",
    "StagedPlanStreamError",
    "StreamFrameResult",
    "StreamStats",
    "TRACES",
    "TraceEvent",
    "TrafficTrace",
    "VideoStream",
    "VideoStreamStats",
    "WORKLOADS",
    "WorkloadAnalytics",
    "fingerprint",
    "form_batches",
    "register_workload",
    "trace",
    "workload",
]
