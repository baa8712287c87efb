"""Deterministic traffic traces for the serving runtime.

A trace is a list of timed submissions — which stream asks for how many
frames of which workload, when.  The built-in traces model the mixed edge
deployments the paper motivates (a denoising camera, a 4K TV upscaler, a
style-transfer app and a recognition gate sharing one box) and are generated
arithmetically, so replaying a trace always produces the same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """One timed submission of a traffic trace."""

    time_s: float
    stream_id: str
    workload: str
    frames: int = 1


@dataclass(frozen=True)
class TrafficTrace:
    """A named, replayable sequence of serving requests."""

    name: str
    description: str
    events: Tuple[TraceEvent, ...]

    @property
    def total_frames(self) -> int:
        return sum(event.frames for event in self.events)

    @property
    def streams(self) -> Tuple[str, ...]:
        return tuple(sorted({event.stream_id for event in self.events}))


def demo_trace() -> TrafficTrace:
    """The mixed four-workload demo: one second of interleaved edge traffic.

    Four streams share the box: a 4K denoising camera and a 4K SR upscaler
    each deliver video in 3-frame requests, a style-transfer app asks for
    single frames, and a recognition gate fires bursts of 4 images.
    """
    events = []
    for tick in range(8):
        t = tick * 0.125
        events.append(TraceEvent(t, "cam0", "denoise", frames=3))
        events.append(TraceEvent(t + 0.010, "tv0", "super_resolution", frames=3))
        if tick % 2 == 0:
            events.append(TraceEvent(t + 0.020, "art0", "style_transfer", frames=1))
        if tick % 4 == 1:
            events.append(TraceEvent(t + 0.030, "gate0", "recognition", frames=4))
    return TrafficTrace(
        name="demo",
        description="mixed 4-workload edge traffic: camera, TV, app, gate",
        events=tuple(events),
    )


def burst_trace() -> TrafficTrace:
    """Everything arrives at once — stresses batching and instance placement."""
    events = [
        TraceEvent(0.0, f"cam{i}", "denoise", frames=4) for i in range(3)
    ] + [
        TraceEvent(0.0, f"tv{i}", "super_resolution", frames=4) for i in range(3)
    ] + [
        TraceEvent(0.0, "gate0", "recognition", frames=8),
    ]
    return TrafficTrace(
        name="burst",
        description="simultaneous arrival burst across 7 streams",
        events=tuple(events),
    )


def steady_trace() -> TrafficTrace:
    """Two video streams pacing at their real-time cadence for two seconds."""
    events = []
    for tick in range(60):
        t = tick / 30.0
        events.append(TraceEvent(t, "cam0", "denoise", frames=1))
        events.append(TraceEvent(t + 0.005, "tv0", "super_resolution", frames=1))
    return TrafficTrace(
        name="steady",
        description="two 30 fps video streams paced over two seconds",
        events=tuple(events),
    )


#: Built-in traces, by name (the CLI's ``--trace`` choices).
TRACES: Dict[str, Callable[[], TrafficTrace]] = {
    "demo": demo_trace,
    "burst": burst_trace,
    "steady": steady_trace,
}


def trace(name: str) -> TrafficTrace:
    """Build a named trace."""
    try:
        return TRACES[name]()
    except KeyError as exc:
        raise KeyError(f"unknown trace {name!r}; expected one of {sorted(TRACES)}") from exc
