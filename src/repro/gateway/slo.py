"""SLO classes: the deadline/priority contract a stream serves under.

A stream's SLO class fixes two plain numbers — a *relative* completion
deadline (admission-to-completion budget, seconds of simulated time) and a
priority for tie-breaking between equal deadlines under the EDF policy —
plus whether the class tolerates graceful degradation.  The defaults mirror
the paper's serving story: recognition answers an interactive UI (tight
deadline, 30 fps-class), the video-enhancement pipelines run as standard
streaming traffic, and style transfer is batch work that would rather wait
than be degraded.

Both numbers stay plain ``int``/``float`` so requests remain picklable
across the cluster's process boundary (lint rule ECNN206).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class SLOClass:
    """One service-level objective: a relative deadline and a priority."""

    name: str
    #: Relative deadline: seconds between arrival and required completion.
    deadline_s: float
    #: Tie-break between equal absolute deadlines (higher wins) under EDF.
    priority: int
    #: Whether the gateway may degrade (cheaper backend / fewer frames /
    #: cache-only) instead of shedding when the deadline cannot be met.
    degradable: bool = True

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError("an SLO deadline must be positive")


#: The default SLO catalogue, keyed by class name.
DEFAULT_SLO_CLASSES: Dict[str, SLOClass] = {
    "interactive": SLOClass("interactive", deadline_s=0.25, priority=2),
    "standard": SLOClass("standard", deadline_s=1.0, priority=1),
    "batch": SLOClass("batch", deadline_s=10.0, priority=0, degradable=False),
}

#: Default workload -> SLO class mapping over the serving catalogue.
DEFAULT_WORKLOAD_SLO: Dict[str, str] = {
    "recognition": "interactive",
    "denoise": "standard",
    "super_resolution": "standard",
    "style_transfer": "batch",
}

#: Class assigned to workloads absent from the mapping.
DEFAULT_CLASS = "standard"


def slo_class(workload: str) -> SLOClass:
    """The SLO class a workload's requests serve under."""
    return DEFAULT_SLO_CLASSES[DEFAULT_WORKLOAD_SLO.get(workload, DEFAULT_CLASS)]


__all__ = [
    "DEFAULT_CLASS",
    "DEFAULT_SLO_CLASSES",
    "DEFAULT_WORKLOAD_SLO",
    "SLOClass",
    "slo_class",
]
