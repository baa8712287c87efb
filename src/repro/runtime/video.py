"""Video-stream serving with delta-aware block reuse.

The paper's whole premise is block-based CNN inference over *video*, yet
plain frame serving treats every frame as independent: the session's frame
cache only hits on byte-identical whole frames.  :class:`VideoStream`
closes that gap the way block-matching video codecs do — at execution-block
granularity:

* every submitted frame is compared with its predecessor, which marks the
  changed samples of the padded frame;
* a block whose input window (margin included) holds no changed sample is
  reused: it is served from the predecessor's stitched output, which the
  stream keeps;
* any other block re-runs only the outputs its changed samples can reach
  (:func:`repro.core.blockflow.reach_blocks`: one rectangle, several where
  the changed samples form an L, or the whole block), patched into the
  predecessor's output through the block flow's one selective runner
  (:func:`repro.core.blockflow.run_selected_blocks`);
* a camera pan is motion compensated: the frame is compared with the
  predecessor *moved* by the pan, and only what that comparison finds
  changed re-runs (below).

A block's output is a pure function of its input window, so **every
delta-served frame is bit-identical to full re-inference**, by
construction: reuse changes cost, never values.  A sub-block is a block of
a finer partition, and the served program is fixed-point, whose sums are
exact in any order, so the pixels do not depend on the block geometry:
whole blocks, patched sub-blocks or a custom ``output_block`` all equal
``Session.execute`` bit for bit.

Motion compensation
-------------------
The served program is fixed-point, so an output pixel is a pure function
of the contents of its input window, not of where the window sits.  If
the frame's padded input at ``p`` equals the predecessor's at ``p - s``
for every sample of output ``o``'s window, output ``o`` equals the
predecessor's output at ``o - s * scale`` exactly.  So a pan by ``s``
input pixels (``s`` times the network's scale at the output) needs to
re-run only the outputs whose windows hold a sample that differs from
the moved predecessor.  Those are the exposed strip (samples moved in
from outside the old frame always count as changed), a band one margin
wide along the frame border whose windows see the zero padding move, and
anything that moved on its own.

Shift rule.  Every frame first scores shift 0: the share of pixels that
differ from the predecessor on a row subsample (:data:`SHIFT_SAMPLE_STEP`).
Only a score above :data:`SHIFT_WIDESPREAD` makes the stream try the shift
its previous frame was served at, then every shift within
:data:`SHIFT_SEARCH_RADIUS` pixels per axis; the best one is accepted if
its score is at most :data:`SHIFT_WIDESPREAD`.

Fallbacks.  The stream serves shift 0 as before when the search accepts
no shift (a cut), when a pooling stage would divide the shift unevenly
(:func:`repro.core.blockflow.output_shift`), and when the moved comparison
would re-run at least as many output pixels as shift 0.  The last rule
keeps the 64x64 super-resolution camera, whose 21-px margin makes the
border band the whole frame, on the shift-0 path.

Only single-stage plans stream: a block's output is a pure function of its
input window only when one block-flow pass maps frame to output.  A
sub-model split (style transfer) routes every pixel through an intermediate
feature map, so :class:`VideoStream` refuses it with
:class:`StagedPlanStreamError` before any stream state exists.

Streams are shard-local state: the cluster's sticky stream routing keeps a
stream id on one shard, so its previous frame and output live next to the
inference that feeds them.  :meth:`VideoStream.invalidate` drops the
predecessor frame and output — it is wired into
``Session.evict_pixel_caches`` so the cluster's ``evict_frame_caches``
primitive clears the whole-frame cache and every delta cache through one
path (a stream that survives an eviction recomputes its next frame in full
instead of trusting possibly-stale blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.blockflow import (
    BlockGrid,
    BlockSpec,
    _moved,
    _stitch,
    block_window_residuals,
    output_shift,
    partition_image,
    reach_blocks,
    run_selected_blocks,
    total_input_margin,
)
from repro.nn.network import Sequential
from repro.nn.receptive_field import layer_geometry, output_size_valid
from repro.nn.tensor import FeatureMap

if TYPE_CHECKING:  # repro.api.session imports this module lazily
    from repro.api.results import CompiledPlan
    from repro.api.session import Session


class StagedPlanStreamError(ValueError):
    """A video stream was asked to serve a multi-stage (sub-model split) plan."""


def _stream_block(plan: "CompiledPlan") -> int:
    """Input block of a plan's single stage; multi-stage plans do not stream."""
    if len(plan.stages) != 1:
        raise StagedPlanStreamError(
            f"{plan.model_name} runs as {len(plan.stages)} stages; video delta "
            "reuse needs a single-stage plan"
        )
    return plan.stages[0].input_block


#: Motion search.  A shift ``(dy, dx)`` says the content moved down and
#: right by that many input pixels.  A candidate is scored by the share of
#: pixels that differ from the predecessor moved by it, over the two
#: frames' overlap on every ``SHIFT_SAMPLE_STEP``-th row.  Measured on the
#: seed-1 ``camera_streams`` denoise camera (348x348, 3-px pans per axis, a
#: shared 2-vCPU host): the shift-0 score costs 0.03-0.05 ms and reads at
#: most 0.002 on a delta frame and 1.0 on a pan or a cut; at a pan, the
#: true shift reads 0.0016 (the moving object) and every other candidate
#: above 0.99.  A search over the whole window costs 3-4.5 ms, about 1% of
#: the cut that pays it; sampling every 8th row doubled that.
SHIFT_SAMPLE_STEP = 16
#: Score above which shift 0 counts as widespread change and the stream
#: searches, and at or below which a searched shift is accepted: far from
#: both the delta frames' and the mismatched shifts' scores above.
SHIFT_WIDESPREAD = 0.25
#: The search window: every shift up to this many input pixels per axis.
SHIFT_SEARCH_RADIUS = 4
_SHIFT_CANDIDATES: Tuple[Tuple[int, int], ...] = tuple(
    sorted(
        (
            (dy, dx)
            for dy in range(-SHIFT_SEARCH_RADIUS, SHIFT_SEARCH_RADIUS + 1)
            for dx in range(-SHIFT_SEARCH_RADIUS, SHIFT_SEARCH_RADIUS + 1)
            if (dy, dx) != (0, 0)
        ),
        key=lambda shift: (abs(shift[0]) + abs(shift[1]), shift),
    )
)


def _sampled_change(prev: np.ndarray, cur: np.ndarray, shift: Tuple[int, int]) -> float:
    """Share of sampled pixels of ``cur`` that differ from ``prev`` moved by ``shift``."""
    (dy, dx), (height, width) = shift, cur.shape[1:]
    rows = slice(max(dy, 0), height + min(dy, 0), SHIFT_SAMPLE_STEP)
    cols = slice(max(dx, 0), width + min(dx, 0))
    moved = prev[
        :,
        rows.start - dy : rows.stop - dy : SHIFT_SAMPLE_STEP,
        cols.start - dx : cols.stop - dx,
    ]
    changed = (cur[:, rows, cols] != moved).any(axis=0)
    return float(changed.mean()) if changed.size else 1.0


def _search_shift(
    prev: np.ndarray, cur: np.ndarray, previous: Tuple[int, int]
) -> Tuple[int, int]:
    """The content shift from frame ``prev`` to frame ``cur``.

    Shift 0 unless its score shows widespread change.  Then the shift the
    previous frame was served at, if its score is low, else the lowest
    scoring shift of the search window (the smaller shift on a tie), if
    its score is low; otherwise shift 0 (a cut).
    """
    if _sampled_change(prev, cur, (0, 0)) <= SHIFT_WIDESPREAD:
        return (0, 0)
    if previous != (0, 0) and _sampled_change(prev, cur, previous) <= SHIFT_WIDESPREAD:
        return previous
    best, best_score = (0, 0), SHIFT_WIDESPREAD
    for shift in _SHIFT_CANDIDATES:
        score = _sampled_change(prev, cur, shift)
        if score < best_score:
            best, best_score = shift, score
    return best


class _FrameGeometry:
    """What a stream's frame shape and compiled network fix.

    The partition grid, the network's layer geometries and total input
    margin, and two padded frame buffers the stream fills in turn; rebuilt
    only when the frame's shape or dtype, or the plan's network, changes.
    """

    def __init__(self, network: Sequential, frame: FeatureMap, output_block: int) -> None:
        self.network = network
        self.frame_key = (frame.shape, frame.data.dtype.str)
        self.grid = partition_image(frame.height, frame.width, network, output_block)
        self.layers = tuple(layer_geometry(layer) for layer in network.layers)
        self.margin = total_input_margin(self.layers)
        margin = self.margin
        shape = (frame.channels, frame.height + 2 * margin, frame.width + 2 * margin)
        self._buffers = tuple(np.zeros(shape, dtype=frame.data.dtype) for _ in range(2))

    def pad(self, frame: FeatureMap, busy: Optional[np.ndarray]) -> np.ndarray:
        """``frame`` zero-padded as by ``pad_frame``, in the buffer that is not ``busy``."""
        padded = self._buffers[1] if self._buffers[0] is busy else self._buffers[0]
        margin = self.margin
        padded[:, margin : margin + frame.height, margin : margin + frame.width] = frame.data
        return padded

    def interior(self, padded: np.ndarray) -> np.ndarray:
        """The frame inside a padded buffer."""
        margin = self.margin
        return padded[:, margin : padded.shape[1] - margin, margin : padded.shape[2] - margin]


class _FramePlan(NamedTuple):
    """How one frame is served: which blocks reuse and what re-runs.

    ``specs`` holds, per recomputed block, the blocks of finer partitions
    that re-run inside it.  Shift ``(0, 0)`` patches the predecessor's
    output; any other shift patches it moved by ``out_shift``.
    """

    shift: Tuple[int, int]
    out_shift: Tuple[int, int]
    reused: List[int]
    recomputed: List[int]
    specs: List[List[BlockSpec]]

    @property
    def pixels(self) -> int:
        """Output pixels the plan recomputes."""
        return sum(spec.output_pixels for specs in self.specs for spec in specs)


@dataclass(frozen=True)
class VideoStreamStats:
    """Lifetime counters of one :class:`VideoStream`.

    ``blocks_total`` always equals ``blocks_reused + blocks_recomputed``.
    A block patched by a sub-block counts as recomputed; a block with no
    output to re-run counts as reused.  ``bytes_saved`` counts the
    input-window and output bytes the reused blocks did not move.
    ``motion_compensated_frames`` counts the frames served from the
    predecessor's moved output (nonzero :attr:`StreamFrameResult.shift`).
    """

    stream_id: str
    workload: str
    frames: int
    blocks_total: int
    blocks_reused: int
    blocks_recomputed: int
    bytes_saved: int
    motion_compensated_frames: int = 0

    @property
    def cache_evictions(self) -> int:
        """Always 0: a stream keeps its whole predecessor output, so no
        block is evicted.  perfbench's ``video.evictions`` metric reads it."""
        return 0

    @property
    def reuse_rate(self) -> float:
        return self.blocks_reused / self.blocks_total if self.blocks_total else 0.0

    def describe(self) -> str:
        return (
            f"stream {self.stream_id}/{self.workload}: {self.frames} frames, "
            f"{self.blocks_reused}/{self.blocks_total} blocks reused "
            f"({self.reuse_rate:.0%}), "
            f"{self.motion_compensated_frames} motion-compensated frames, "
            f"{self.bytes_saved} bytes saved"
        )


@dataclass(frozen=True)
class StreamFrameResult:
    """One frame served through a :class:`VideoStream`.

    ``shift`` is the ``(dy, dx)`` input pixels the content moved down and
    right since the predecessor, ``(0, 0)`` unless the frame was motion
    compensated.  ``output`` is read-only: the stream keeps it as the
    predecessor of its next frame.
    """

    output: FeatureMap
    blocks_reused: int
    blocks_recomputed: int
    #: Grid indices of the blocks that re-ran inference this frame.
    recomputed_blocks: Tuple[int, ...]
    shift: Tuple[int, int] = (0, 0)

    @property
    def blocks_total(self) -> int:
        return self.blocks_reused + self.blocks_recomputed


class VideoStream:
    """Ordered frames of one (stream id, workload), served by block deltas.

    Every served frame is bit-identical to ``Session.execute`` on it.

    Parameters
    ----------
    session:
        The owning :class:`repro.api.Session`; supplies the compiled plan
        (network + block geometry) and the backend identity.
    stream_id / workload_name:
        Identity of the stream.  Only block-flow workloads stream
        (recognition serves single zero-padded blocks).
    output_block:
        Output-resolution block size of the delta grid; defaults to the
        compiled plan's geometry.  Smaller blocks localize change detection
        at the price of more margin recomputation; outputs stay
        bit-identical to ``Session.execute``, whose fixed-point arithmetic
        is exact at any block size.
    """

    def __init__(
        self,
        session: "Session",
        *,
        stream_id: str,
        workload_name: str,
        output_block: Optional[int] = None,
    ) -> None:
        entry = session.workload(workload_name)
        if entry.kind == "recognition":
            raise ValueError(
                "recognition serves single zero-padded blocks, not video streams"
            )
        if output_block is not None and output_block < 1:
            raise ValueError("output_block must be positive (or None for the plan's)")
        _stream_block(session.compile(workload_name))
        self.session = session
        self.stream_id = str(stream_id)
        self.workload = workload_name
        self._output_block = output_block
        self._geometry: Optional[_FrameGeometry] = None
        #: The predecessor's padded frame, its stitched output and the shift
        #: it was served at; ``None`` while there is no predecessor.
        self._prev_padded: Optional[np.ndarray] = None
        self._prev_output: Optional[np.ndarray] = None
        self._prev_shift: Tuple[int, int] = (0, 0)
        self._frames = 0
        self._blocks_reused = 0
        self._blocks_recomputed = 0
        self._bytes_saved = 0
        self._motion_compensated = 0

    def _frame_geometry(self, frame: FeatureMap) -> _FrameGeometry:
        """This frame's geometry; a new one forgets the predecessor."""
        plan = self.session.compile(self.workload)
        network = plan.network
        geometry = self._geometry
        if (
            geometry is None
            or geometry.network is not network
            or geometry.frame_key != (frame.shape, frame.data.dtype.str)
        ):
            output_block = (
                self._output_block
                if self._output_block is not None
                else output_size_valid(_stream_block(plan), network.layers)
            )
            geometry = self._geometry = _FrameGeometry(network, frame, output_block)
            self._prev_padded = None
        return geometry

    # ----------------------------------------------------------------- serving
    def submit(self, frame: FeatureMap) -> StreamFrameResult:
        """Serve the stream's next frame, reusing unchanged blocks.

        A block whose input window holds no sample that differs from the
        predecessor is served from the predecessor's output; any other
        block re-runs only the outputs its changed input samples can reach
        (:func:`repro.core.blockflow.reach_blocks`).

        When shift 0 shows widespread change, the stream searches for the
        shift the content moved by (a camera pan), compares the frame with
        the predecessor moved by it, and re-runs only the outputs the
        changed samples reach — the newly exposed strip, the band along the
        frame border whose windows see the zero padding move, and anything
        that moved on its own — patched into the predecessor's output moved
        by the output shift.  It serves that frame so only when it re-runs
        fewer output pixels than shift 0 would.  The first frame, a frame
        after a resolution/dtype or plan change, and the frame after an
        :meth:`invalidate` recompute in full.
        """
        geometry = self._frame_geometry(frame)
        grid = geometry.grid
        padded = geometry.pad(frame, self._prev_padded)
        full = self._prev_padded is None
        if full:
            plan = _FramePlan(
                (0, 0), (0, 0), [], list(range(grid.num_blocks)),
                [[block] for block in grid.blocks],
            )
        else:
            plan = self._plan(geometry, padded, (0, 0))
            shift = _search_shift(
                geometry.interior(self._prev_padded),
                geometry.interior(padded),
                self._prev_shift,
            )
            if shift != (0, 0):
                moved = self._plan(geometry, padded, shift)
                if moved is not None and moved.pixels < plan.pixels:
                    plan = moved

        specs = [spec for block_specs in plan.specs for spec in block_specs]
        fresh = run_selected_blocks(geometry.network, padded, specs)
        if full:
            output = _stitch(zip(specs, fresh), grid.output_height, grid.output_width)
            assert output is not None
        else:
            assert self._prev_output is not None
            output = (
                self._prev_output.copy()
                if plan.shift == (0, 0)
                else _moved(self._prev_output, plan.out_shift)[0]
            )
            for spec, result in zip(specs, fresh):
                output[
                    :,
                    spec.out_row : spec.out_row + spec.out_height,
                    spec.out_col : spec.out_col + spec.out_width,
                ] = result.data
        output.flags.writeable = False
        self._account(plan, grid, frame, output)
        self._prev_padded = padded
        self._prev_output = output
        self._prev_shift = plan.shift
        return StreamFrameResult(
            output=FeatureMap(data=output),
            blocks_reused=len(plan.reused),
            blocks_recomputed=len(plan.recomputed),
            recomputed_blocks=tuple(plan.recomputed),
            shift=plan.shift,
        )

    def _plan(
        self, geometry: _FrameGeometry, padded: np.ndarray, shift: Tuple[int, int]
    ) -> Optional[_FramePlan]:
        """Serve against the predecessor moved by ``shift`` (``None``: cannot).

        A block is reused when none of its outputs sees a changed sample,
        and re-runs the outputs that do otherwise.
        """
        out_rows, out_cols = (output_shift(s, geometry.layers) for s in shift)
        if out_rows is None or out_cols is None:
            return None
        assert self._prev_padded is not None
        grid, layers, margin = geometry.grid, geometry.layers, geometry.margin
        changed = block_window_residuals(self._prev_padded, padded, shift=shift)
        reused: List[int] = []
        recomputed: List[int] = []
        specs: List[List[BlockSpec]] = []
        for index, block in enumerate(grid.blocks):
            block_specs = reach_blocks(changed, block, grid, layers, margin)
            if block_specs:
                recomputed.append(index)
                specs.append(block_specs)
            else:
                reused.append(index)
        return _FramePlan(shift, (out_rows, out_cols), reused, recomputed, specs)

    def _account(
        self, plan: _FramePlan, grid: BlockGrid, frame: FeatureMap, output: np.ndarray
    ) -> None:
        """Update the lifetime counters for a served frame."""
        for index in plan.reused:
            block = grid.blocks[index]
            self._bytes_saved += (
                block.input_pixels * frame.channels * frame.data.dtype.itemsize
                + block.output_pixels * output.shape[0] * output.dtype.itemsize
            )
        self._frames += 1
        self._blocks_reused += len(plan.reused)
        self._blocks_recomputed += len(plan.recomputed)
        self._motion_compensated += plan.shift != (0, 0)

    # ------------------------------------------------------------- invalidation
    def invalidate(self) -> int:
        """Drop the predecessor frame and output; returns the grid blocks it held.

        0 when there is no predecessor.  After an invalidation the next
        frame recomputes in full — the stream never diffs against a frame it
        no longer holds, so a chaos eviction can never leave a stale block
        servable.
        """
        dropped = 0 if self._prev_padded is None else self._geometry.grid.num_blocks
        self._prev_padded = None
        self._prev_output = None
        return dropped

    # ------------------------------------------------------------------- stats
    @property
    def stats(self) -> VideoStreamStats:
        return VideoStreamStats(
            stream_id=self.stream_id,
            workload=self.workload,
            frames=self._frames,
            blocks_total=self._blocks_reused + self._blocks_recomputed,
            blocks_reused=self._blocks_reused,
            blocks_recomputed=self._blocks_recomputed,
            bytes_saved=self._bytes_saved,
            motion_compensated_frames=self._motion_compensated,
        )
