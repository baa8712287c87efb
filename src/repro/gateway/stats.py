"""Gateway admission and serving counters.

The gateway's latency percentiles come from the shared
:class:`repro.core.stats.LatencyHistogram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class GatewayStats:
    """Mutable admission/serving counters of one :class:`SLOGateway`."""

    #: Requests admitted un-degraded onto the primary target.
    admitted: int = 0
    #: Degraded admissions (any rung of the ladder), included in neither
    #: ``admitted`` nor ``shed``.
    degraded: int = 0
    #: Requests rejected with :class:`AdmissionRejected`.
    shed: int = 0
    #: Requests whose serving record came back from a drain.
    served: int = 0
    deadline_requests: int = 0
    deadline_misses: int = 0
    #: Degraded admissions per ladder action name.
    by_action: Dict[str, int] = field(default_factory=dict)
    #: Admissions (including degraded) per SLO class name.
    by_class: Dict[str, int] = field(default_factory=dict)

    @property
    def deadline_miss_rate(self) -> float:
        carrying = self.deadline_requests
        return self.deadline_misses / carrying if carrying else 0.0

    def snapshot(self) -> "GatewayStats":
        return GatewayStats(
            admitted=self.admitted,
            degraded=self.degraded,
            shed=self.shed,
            served=self.served,
            deadline_requests=self.deadline_requests,
            deadline_misses=self.deadline_misses,
            by_action=dict(self.by_action),
            by_class=dict(self.by_class),
        )


__all__ = ["GatewayStats"]
