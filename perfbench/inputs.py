"""Seeded input generators for the four benchmark workloads.

Every input the benchmark feeds the program is made here from ``--seed``
alone, so one seed always yields byte-identical inputs.  Each workload's
``*_digest`` function hashes a fixed prefix of what its generator makes;
the benchmark prints it so two runs can prove they saw the same inputs.
Nothing here imports the program under test.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np

#: Stills served round-robin by ``stills_fresh``: (workload, square input
#: side).  Sizes are chosen so each network costs about the same per request
#: on the reference host, so no single network dominates the wall time.
STILLS: Tuple[Tuple[str, int], ...] = (
    ("denoise", 192),
    ("super_resolution", 48),
    ("style_transfer", 48),
)

#: Camera streams of ``camera_streams``: (stream id, workload, input side,
#: frames per object step).  The super-resolution camera is one block, so
#: its object moves every other frame and half its frames are fully reused.
CAMERAS: Tuple[Tuple[str, str, int, int], ...] = (
    ("cam-dn", "denoise", 348, 1),
    ("cam-sr", "super_resolution", 64, 2),
)
#: Order in which the client serves the cameras' frames: three denoise
#: frames per super-resolution frame (a super-resolution frame costs about
#: three denoise delta frames).
CAMERA_SCHEDULE: Tuple[int, ...] = (0, 0, 0, 1)

#: Content catalogue of ``popular_cluster``: distinct frames of one
#: workload.  Denoise misses are cheap and frequent, so a run holds hundreds
#: of them; a super-resolution miss costs as much as a hundred hits, and the
#: few per run would decide the throughput.
CATALOGUE_WORKLOAD = "denoise"
CATALOGUE_SIDE = 64
CATALOGUE_ITEMS = 96


def _sha(*arrays: np.ndarray) -> "hashlib._Hash":
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest


# ----------------------------------------------------------------- stills
def still(seed: int, index: int) -> Tuple[str, np.ndarray]:
    """The ``index``-th still: (workload, (3, H, W) float64 pixels in [0, 1))."""
    workload, side = STILLS[index % len(STILLS)]
    rng = np.random.default_rng([seed, 1, index])
    return workload, rng.random((3, side, side))


def stills_digest(seed: int) -> str:
    """Digest of the first four round-robin cycles of stills."""
    return _sha(*(still(seed, index)[1] for index in range(4 * len(STILLS)))).hexdigest()


# ----------------------------------------------------------------- cameras
class CameraScript:
    """A seeded camera: static background, one small moving object, and a
    fixed 12-frame cycle with a one-frame pan (phase 6) and a scene cut
    (phase 0).  The seed picks the textures and the pan direction.  The
    object bounces inside the central region of the frame on a path that
    restarts at every cut and is the same for every seed, so which blocks
    change in which frame does not depend on the seed; on the denoise
    camera the region lies inside one block's input window, so a delta
    frame recomputes one block of nine.
    """

    PERIOD = 12
    PAN_PHASES = range(6, 7)
    PAN_STEP = 6
    OBJECT = 12

    def __init__(self, seed: int, stream_index: int, side: int, move_every: int) -> None:
        self.side = side
        self._move_every = move_every
        self._low = int(side * 0.36)
        self._high = int(side * 0.62) - self.OBJECT
        self._rng = np.random.default_rng([seed, 2, stream_index])
        self._frame = 0
        self._new_scene()

    def _new_scene(self) -> None:
        rng = self._rng
        margin = self.PAN_STEP * len(self.PAN_PHASES)
        canvas = self.side + 2 * margin
        coarse = rng.random((3, canvas // 8 + 1, canvas // 8 + 1))
        smooth = np.repeat(np.repeat(coarse, 8, axis=1), 8, axis=2)[:, :canvas, :canvas]
        self._canvas = 0.8 * smooth + 0.2 * rng.random((3, canvas, canvas))
        self._view = np.array([margin, margin])
        self._pan = rng.choice([-1, 1], size=2) * self.PAN_STEP // 2
        self._patch = rng.random((3, self.OBJECT, self.OBJECT))
        self._pos = np.array([self._low, self._low + 20])
        self._vel = np.array([2, 3])

    def next_frame(self) -> np.ndarray:
        phase = self._frame % self.PERIOD
        if phase == 0 and self._frame:
            self._new_scene()
        elif phase in self.PAN_PHASES:
            self._view = self._view + self._pan
        if self._frame % self._move_every == 0:
            self._pos = self._pos + self._vel
        for axis in range(2):
            if not self._low <= self._pos[axis] <= self._high:
                self._vel[axis] = -self._vel[axis]
                self._pos[axis] = min(max(self._pos[axis], self._low), self._high)
        row, col = self._view
        frame = self._canvas[:, row : row + self.side, col : col + self.side].copy()
        top, left = self._pos
        frame[:, top : top + self.OBJECT, left : left + self.OBJECT] = self._patch
        self._frame += 1
        return frame


def cameras_digest(seed: int) -> str:
    """Digest of the first two cycles of every camera."""
    digest = hashlib.sha256()
    for index, (_, _, side, move_every) in enumerate(CAMERAS):
        script = CameraScript(seed, index, side, move_every)
        for _ in range(2 * CameraScript.PERIOD):
            digest.update(script.next_frame().tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------- catalogue
def catalogue(seed: int) -> List[np.ndarray]:
    """The finite list of distinct frames requests draw from."""
    shape = (3, CATALOGUE_SIDE, CATALOGUE_SIDE)
    return [np.random.default_rng([seed, 3, item]).random(shape) for item in range(CATALOGUE_ITEMS)]


class PopularRequests:
    """Seeded Zipf(0.8) draws over the catalogue.

    The skew leaves about three operations in ten all hits, so the median
    request is a miss: a hit's latency is a pipe round trip whose wake-up
    jitter on a shared host swings it twofold between runs, while a miss is
    dominated by compute.

    Each operation is a single frame (3 in 4) or a burst of four frames
    (1 in 4), each frame drawn by Zipf popularity over a seeded ranking of
    the catalogue.
    """

    ZIPF_S = 0.8
    BURST = 4

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 4])
        weights = 1.0 / np.arange(1, CATALOGUE_ITEMS + 1) ** self.ZIPF_S
        order = np.random.default_rng([seed, 5]).permutation(CATALOGUE_ITEMS)
        self._popularity = np.empty(CATALOGUE_ITEMS)
        self._popularity[order] = weights / weights.sum()

    def next_op(self) -> Tuple[int, ...]:
        """Catalogue indices of the next operation's frames."""
        count = self.BURST if self._rng.random() < 1 / 4 else 1
        items = self._rng.choice(CATALOGUE_ITEMS, size=count, p=self._popularity)
        return tuple(int(item) for item in items)


def popular_digest(seed: int) -> str:
    """Digest of the catalogue and the first 2000 operations."""
    digest = _sha(*catalogue(seed))
    requests = PopularRequests(seed)
    for _ in range(2000):
        digest.update(repr(requests.next_op()).encode())
    return digest.hexdigest()


# ------------------------------------------------------------------ gateway
#: The bursty overload trace: streams cycle through these workloads.
GATEWAY_WORKLOADS: Tuple[str, ...] = (
    "denoise",
    "super_resolution",
    "style_transfer",
    "recognition",
)
GATEWAY_STREAMS = 24
#: Requests per trace pass; arrivals are Poisson at ``GATEWAY_BASE_RATE``
#: requests/s, rising to ``GATEWAY_BURST_RATE`` for the first
#: ``GATEWAY_BURST_S`` of every ``GATEWAY_CYCLE_S`` of simulated time.
GATEWAY_REQUESTS = 24000
GATEWAY_BASE_RATE = 16.0
GATEWAY_BURST_RATE = 90.0
GATEWAY_CYCLE_S = 10.0
GATEWAY_BURST_S = 2.0


def gateway_stream(index: int) -> str:
    return f"gw-{index:02d}"


def gateway_trace(seed: int) -> List[Tuple[str, str, int, float]]:
    """A seeded bursty trace in simulated time: (stream, workload, frames, arrival_s).

    The bursts overload the two simulated accelerator instances behind the
    gateway.  Each request asks for one to four frames.
    """
    rng = np.random.default_rng([seed, 6])
    trace: List[Tuple[str, str, int, float]] = []
    now = 0.0
    while len(trace) < GATEWAY_REQUESTS:
        in_burst = now % GATEWAY_CYCLE_S < GATEWAY_BURST_S
        rate = GATEWAY_BURST_RATE if in_burst else GATEWAY_BASE_RATE
        now += float(rng.exponential(1.0 / rate))
        stream = int(rng.integers(GATEWAY_STREAMS))
        frames = int(rng.integers(1, 5))
        workload = GATEWAY_WORKLOADS[stream % len(GATEWAY_WORKLOADS)]
        trace.append((gateway_stream(stream), workload, frames, round(now, 6)))
    return trace


def gateway_windows(
    trace: Sequence[Tuple[str, str, int, float]], size: int
) -> List[Sequence[Tuple[str, str, int, float]]]:
    """Split a trace into consecutive drain windows of ``size`` requests."""
    return [trace[start : start + size] for start in range(0, len(trace), size)]


def gateway_digest(seed: int) -> str:
    return hashlib.sha256(repr(gateway_trace(seed)).encode()).hexdigest()
