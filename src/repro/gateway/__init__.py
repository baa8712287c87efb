"""SLO-aware admission gateway in front of the serving cluster.

The gateway (:class:`~repro.gateway.gateway.SLOGateway`) sits in front of a
:class:`~repro.runtime.cluster.ServingCluster` and turns best-effort FIFO
serving into deadline-aware serving: every request's workload maps to an
SLO class (:mod:`repro.gateway.slo`), carries an absolute deadline and a
priority into the EDF scheduling policy, and is admitted only when a
calibrated cost model says the owning shard can meet the deadline —
otherwise the request is degraded (the ``frame_based`` fallback engine,
fewer frames, or cache-only) or shed with a typed
:class:`AdmissionRejected` carrying a retry-after hint.
"""

from repro.gateway.gateway import (
    AdmissionRejected,
    AdmissionTicket,
    CostModel,
    DegradeDecision,
    FALLBACK_BACKEND,
    FALLBACK_SHARD,
    GatewayReport,
    SLOGateway,
)
from repro.gateway.slo import (
    DEFAULT_CLASS,
    DEFAULT_SLO_CLASSES,
    DEFAULT_WORKLOAD_SLO,
    SLOClass,
    slo_class,
)
from repro.core.stats import LatencyHistogram
from repro.gateway.stats import GatewayStats

__all__ = [
    "AdmissionRejected",
    "AdmissionTicket",
    "CostModel",
    "DEFAULT_CLASS",
    "DEFAULT_SLO_CLASSES",
    "DEFAULT_WORKLOAD_SLO",
    "DegradeDecision",
    "FALLBACK_BACKEND",
    "FALLBACK_SHARD",
    "GatewayReport",
    "GatewayStats",
    "LatencyHistogram",
    "SLOClass",
    "SLOGateway",
    "slo_class",
]
