"""Video-stream serving with delta-aware block reuse.

The paper's whole premise is block-based CNN inference over *video*, yet
plain frame serving treats every frame as independent: the session's frame
cache only hits on byte-identical whole frames.  :class:`VideoStream`
closes that gap the way block-matching video codecs do — at execution-block
granularity:

* every submitted frame is diffed against its predecessor over each
  block's *input window* (margin included), using a SAD or MAE residual;
  the same comparison gives the bounding box of the window's changed
  pixels;
* a cached block is reused while its *drift* — the sum of the residuals
  it was reused at since it was computed — plus this frame's residual
  stays within the stream's threshold;
* a block that must recompute, and whose cached output is exact for the
  predecessor's window (drift 0), recomputes only the output rectangle its
  changed pixels can reach (:func:`repro.core.blockflow.output_reach`,
  clipped to the block) and patches it into a copy of the cached output;
  any other block recomputes whole.  Both run through the block flow's
  one selective runner (:func:`repro.core.blockflow.run_selected_blocks`);
* reused blocks are stitched from a bounded per-stream LRU block cache.

Because the residual covers the entire input window and a block's output is
a pure function of that window, **threshold 0 is exact-reuse mode**: the
delta-served frame is bit-identical to full re-inference, by construction.
A sub-block is a block of a finer partition, and the served program is
fixed-point, whose sums are exact in any order, so the pixels do not
depend on the block geometry: whole blocks, patched sub-blocks or a custom
``output_block`` all equal ``Session.execute`` bit for bit.
A positive threshold trades bounded pixel error for more reuse.  MAE and
SAD obey the triangle inequality, so the drift bounds the distance from
the served block's own source window to the current one — a slow fade
cannot creep past the threshold one small residual at a time, and
tightening the threshold also recomputes blocks already reused beyond it.
The stream records the largest drift it ever served
(:attr:`VideoStreamStats.max_reused_residual`) so the error stays a
*measured* quantity, and the video parity tests measure the actual pixel
error against full re-inference.

Only single-stage plans stream: a block's output is a pure function of its
input window only when one block-flow pass maps frame to output.  A
sub-model split (style transfer) routes every pixel through an intermediate
feature map, so :class:`VideoStream` refuses it with
:class:`StagedPlanStreamError` before any stream state exists.

Streams are shard-local state: the cluster's sticky stream routing keeps a
stream id on one shard, so its previous frame and block cache live next to
the inference that feeds them.  :meth:`VideoStream.invalidate` drops both
the block cache and the predecessor frame — it is wired into
``Session.evict_pixel_caches`` so the cluster's ``evict_frame_caches``
primitive clears the whole-frame cache and every delta cache through one
path (a stream that survives an eviction recomputes its next frame in full
instead of trusting possibly-stale blocks).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.core.blockflow import (
    RESIDUAL_METRICS,
    BlockGrid,
    BlockSpec,
    ChangedBox,
    _region_grid,
    _stitch,
    block_window_residuals,
    output_reach,
    pad_frame,
    partition_image,
    run_selected_blocks,
)
from repro.nn.layers import Layer
from repro.nn.receptive_field import output_size_valid
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


def _reach_block(
    block: BlockSpec, box: ChangedBox, grid: BlockGrid, layers: Sequence[Layer]
) -> BlockSpec:
    """The part of ``block`` its changed input pixels ``box`` can reach.

    The output rectangle those pixels reach, clipped to the block's owned
    output, as the one block of a finer partition; ``block`` itself when
    the rectangle is the whole block.
    """
    (in_rows, in_cols) = box

    def clip(interval: Tuple[int, int], start: int, size: int) -> Tuple[int, int]:
        return max(interval[0], start), min(interval[1], start + size)

    rows = clip(output_reach(*in_rows, layers), block.out_row, block.out_height)
    cols = clip(output_reach(*in_cols, layers), block.out_col, block.out_width)
    height, width = rows[1] - rows[0], cols[1] - cols[0]
    if (height, width) == (block.out_height, block.out_width):
        return block
    return _region_grid(
        grid.image_height, grid.image_width, rows, cols, layers, max(height, width)
    ).blocks[0]


#: Residual histogram bucket edges.  Bucket 0 counts exact matches
#: (residual == 0); bucket ``i`` counts residuals in
#: ``(EDGES[i-1], EDGES[i]]``; the last bucket counts everything above the
#: final edge (scene cuts land there).
RESIDUAL_HISTOGRAM_EDGES: Tuple[float, ...] = (0.0, 1e-6, 1e-4, 1e-2, 1.0)

#: Default residency bound of the per-stream block cache (cached block
#: outputs carry pixels, so the bound is deliberately modest).
DEFAULT_MAX_CACHED_BLOCKS = 256


def _histogram_bucket(residual: float) -> int:
    for index, edge in enumerate(RESIDUAL_HISTOGRAM_EDGES):
        if residual <= edge:
            return index
    return len(RESIDUAL_HISTOGRAM_EDGES)


@dataclass(frozen=True)
class VideoStreamStats:
    """Lifetime counters of one :class:`VideoStream`.

    ``blocks_total`` always equals ``blocks_reused + blocks_recomputed``,
    and the residual histogram sums to the number of blocks that were
    actually diffed (first frames and resolution changes recompute without
    residuals).  A block patched by a sub-block counts as recomputed.
    ``bytes_saved`` counts the input-window and output bytes the reused
    blocks did not move; ``max_reused_residual`` is the largest drift (sum
    of the residuals a block was reused at since it was computed) ever
    served from cache — 0.0 in exact-reuse mode, and the measured
    input-side error bound against the block's source window in
    thresholded mode.
    """

    stream_id: str
    workload: str
    threshold: float
    metric: str
    frames: int
    blocks_total: int
    blocks_reused: int
    blocks_recomputed: int
    residual_histogram: Tuple[int, ...]
    bytes_saved: int
    max_reused_residual: float
    cache_entries: int
    cache_evictions: int
    max_cached_blocks: Optional[int]

    @property
    def reuse_rate(self) -> float:
        return self.blocks_reused / self.blocks_total if self.blocks_total else 0.0

    def describe(self) -> str:
        return (
            f"stream {self.stream_id}/{self.workload}: {self.frames} frames, "
            f"{self.blocks_reused}/{self.blocks_total} blocks reused "
            f"({self.reuse_rate:.0%}, {self.metric} threshold {self.threshold:g}), "
            f"{self.bytes_saved} bytes saved, "
            f"{self.cache_entries} cached blocks ({self.cache_evictions} evicted)"
        )


@dataclass(frozen=True)
class StreamFrameResult:
    """One frame served through a :class:`VideoStream`.

    ``residuals`` is ``None`` when the frame was recomputed in full without
    diffing (the stream's first frame, a resolution/dtype change, or the
    frame after an invalidation); otherwise it carries one residual per
    block of the partition grid.
    """

    output: FeatureMap
    blocks_reused: int
    blocks_recomputed: int
    #: Grid indices of the blocks that re-ran inference this frame.
    recomputed_blocks: Tuple[int, ...]
    residuals: Optional[Tuple[float, ...]] = None

    @property
    def blocks_total(self) -> int:
        return self.blocks_reused + self.blocks_recomputed


class VideoStream:
    """Ordered frames of one (stream id, workload), served by block deltas.

    Parameters
    ----------
    session:
        The owning :class:`repro.api.Session`; supplies the compiled plan
        (network + block geometry) and the backend identity.
    stream_id / workload_name:
        Identity of the stream.  Only block-flow workloads stream
        (recognition serves single zero-padded blocks).
    threshold:
        Bound on a cached block's drift plus this frame's residual, at or
        below which the block is served from the cache.  ``0.0`` (the
        default) is exact-reuse mode: a block reuses only when its input
        window is bit-identical to the one it was computed from, so the
        stitched frame equals full re-inference exactly.
    metric:
        ``"mae"`` or ``"sad"`` (see
        :func:`repro.core.blockflow.block_window_residuals`).
    max_cached_blocks:
        Residency bound of the per-stream block-output cache (LRU);
        ``None`` for unbounded.  A block evicted under pressure simply
        recomputes on its next frame — eviction never affects pixels.
    output_block:
        Output-resolution block size of the delta grid; defaults to the
        compiled plan's geometry (making exact-reuse mode bit-identical to
        ``Session.execute``).  Smaller blocks localize change detection at
        the price of more margin recomputation; exact-reuse outputs stay
        bit-identical to ``Session.execute``, whose fixed-point arithmetic
        is exact at any block size.
    """

    def __init__(
        self,
        session: "Session",
        *,
        stream_id: str,
        workload_name: str,
        threshold: float = 0.0,
        metric: str = "mae",
        max_cached_blocks: Optional[int] = DEFAULT_MAX_CACHED_BLOCKS,
        output_block: Optional[int] = None,
    ) -> None:
        entry = session.workload(workload_name)
        if entry.kind == "recognition":
            raise ValueError(
                "recognition serves single zero-padded blocks, not video streams"
            )
        if metric not in RESIDUAL_METRICS:
            raise ValueError(
                f"unknown residual metric {metric!r}; expected one of {RESIDUAL_METRICS}"
            )
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if max_cached_blocks is not None and max_cached_blocks < 1:
            raise ValueError("max_cached_blocks must be positive (or None)")
        if output_block is not None and output_block < 1:
            raise ValueError("output_block must be positive (or None for the plan's)")
        _stream_block(session.compile(workload_name))
        self.session = session
        self.stream_id = str(stream_id)
        self.workload = workload_name
        self.threshold = float(threshold)
        self.metric = metric
        self.max_cached_blocks = max_cached_blocks
        self._output_block = output_block
        self._prev_padded: Optional[np.ndarray] = None
        self._prev_key: Optional[Tuple] = None
        #: Grid index -> (block output, drift): the sum of the residuals the
        #: output was reused at since it was computed.
        self._cache: "OrderedDict[int, Tuple[FeatureMap, float]]" = OrderedDict()
        self._frames = 0
        self._blocks_reused = 0
        self._blocks_recomputed = 0
        self._histogram = [0] * (len(RESIDUAL_HISTOGRAM_EDGES) + 1)
        self._bytes_saved = 0
        self._max_reused_residual = 0.0
        self._evictions = 0

    # ------------------------------------------------------------ configuration
    def reconfigure(self, *, threshold: float, metric: str) -> None:
        """Adopt a new threshold/metric for subsequent frames.

        Each cached block carries its drift — the sum of the residuals it
        was reused at since it was computed — and the next frame reuses it
        only if that drift plus the frame's residual is within the *new*
        threshold.  Tightening the threshold therefore also recomputes
        blocks already reused beyond it: at threshold 0 only blocks with no
        drift are reused, exactly.  A drift is measured in its metric, so a
        metric change drops every cached block that has drifted; blocks
        with no drift stay valid under either metric.
        """
        if metric not in RESIDUAL_METRICS:
            raise ValueError(
                f"unknown residual metric {metric!r}; expected one of {RESIDUAL_METRICS}"
            )
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if metric != self.metric:
            for index in [i for i, (_, drift) in self._cache.items() if drift > 0.0]:
                del self._cache[index]
        self.threshold = float(threshold)
        self.metric = metric

    def _geometry(self):
        """(network, output block) of this stream's compiled plan."""
        plan = self.session.compile(self.workload)
        block = _stream_block(plan)
        output_block = (
            self._output_block
            if self._output_block is not None
            else output_size_valid(block, plan.network.layers)
        )
        return plan.network, output_block

    # ----------------------------------------------------------------- serving
    def submit(self, frame: FeatureMap) -> StreamFrameResult:
        """Serve the stream's next frame, reusing unchanged blocks.

        A cached block is stitched from the cache while the residuals it
        was reused at since it was computed, plus this frame's residual
        against the predecessor, sum to at most the threshold.  A block
        that must recompute and whose cached output is exact for the
        predecessor's window (drift 0) re-runs only the output rectangle
        its changed input pixels can reach, patched into a copy of the
        cached output; the rest re-run whole.  The first frame, a frame
        after a resolution/dtype change, and the frame after an
        :meth:`invalidate` recompute in full.
        """
        network, output_block = self._geometry()
        layers = network.layers
        grid = partition_image(frame.height, frame.width, network, output_block)
        padded = pad_frame(frame, layers)
        key = (frame.shape, frame.data.dtype.str)

        residuals: Optional[np.ndarray] = None
        reused: list[int] = []
        recomputed: list[int] = []
        specs: list[BlockSpec] = []
        # Per recomputed block, the cached output its sub-block patches.
        bases: list[Optional[FeatureMap]] = []
        if self._prev_padded is None or key != self._prev_key:
            # Nothing trustworthy to diff against: full recompute, and the
            # cache is dropped because its indices describe the old grid.
            self._cache.clear()
            recomputed = list(range(grid.num_blocks))
            specs = list(grid.blocks)
            bases = [None] * grid.num_blocks
        else:
            residuals, boxes = block_window_residuals(
                self._prev_padded, padded, grid, layers, metric=self.metric
            )
            for index, (block, residual, box) in enumerate(zip(grid.blocks, residuals, boxes)):
                self._histogram[_histogram_bucket(float(residual))] += 1
                cached = self._cache.get(index)
                if cached is not None and cached[1] + residual <= self.threshold:
                    reused.append(index)
                    continue
                recomputed.append(index)
                if cached is not None and cached[1] == 0.0:
                    # Exact for the predecessor's window, which this one
                    # differs from (or it would be reused): patch only what
                    # the changed box reaches.
                    spec = _reach_block(block, box, grid, layers)
                else:
                    spec = block
                specs.append(spec)
                bases.append(cached[0] if spec is not block else None)

        fresh = run_selected_blocks(network, padded, specs)
        pieces: list[tuple[BlockSpec, FeatureMap]] = []
        window_itemsize = frame.data.dtype.itemsize
        for index in reused:
            output, drift = self._cache[index]
            drift += float(residuals[index])
            self._cache[index] = (output, drift)
            self._cache.move_to_end(index)
            block = grid.blocks[index]
            pieces.append((block, output))
            self._bytes_saved += (
                block.input_pixels * frame.channels * window_itemsize
                + output.data.nbytes
            )
            self._max_reused_residual = max(self._max_reused_residual, drift)
        for index, spec, base, result in zip(recomputed, specs, bases, fresh):
            block = grid.blocks[index]
            if base is not None:
                patched = base.data.copy()
                row = spec.out_row - block.out_row
                col = spec.out_col - block.out_col
                patched[:, row : row + spec.out_height, col : col + spec.out_width] = result.data
                result = FeatureMap(data=patched)
            pieces.append((block, result))
            self._cache[index] = (result, 0.0)
            self._cache.move_to_end(index)
            if self.max_cached_blocks is not None:
                while len(self._cache) > self.max_cached_blocks:
                    self._cache.popitem(last=False)
                    self._evictions += 1

        self._prev_padded = padded
        self._prev_key = key
        self._frames += 1
        self._blocks_reused += len(reused)
        self._blocks_recomputed += len(recomputed)
        output = _stitch(pieces, grid.output_height, grid.output_width)
        assert output is not None
        return StreamFrameResult(
            output=FeatureMap(data=output),
            blocks_reused=len(reused),
            blocks_recomputed=len(recomputed),
            recomputed_blocks=tuple(recomputed),
            residuals=(
                tuple(float(r) for r in residuals) if residuals is not None else None
            ),
        )

    # ------------------------------------------------------------- invalidation
    def invalidate(self) -> int:
        """Drop the block cache *and* the predecessor frame; returns entries dropped.

        After an invalidation the next frame recomputes in full — the
        stream never diffs against a frame it no longer holds, so a chaos
        eviction can never leave a stale block servable.
        """
        dropped = len(self._cache)
        self._cache.clear()
        self._prev_padded = None
        self._prev_key = None
        return dropped

    # ------------------------------------------------------------------- stats
    @property
    def stats(self) -> VideoStreamStats:
        return VideoStreamStats(
            stream_id=self.stream_id,
            workload=self.workload,
            threshold=self.threshold,
            metric=self.metric,
            frames=self._frames,
            blocks_total=self._blocks_reused + self._blocks_recomputed,
            blocks_reused=self._blocks_reused,
            blocks_recomputed=self._blocks_recomputed,
            residual_histogram=tuple(self._histogram),
            bytes_saved=self._bytes_saved,
            max_reused_residual=self._max_reused_residual,
            cache_entries=len(self._cache),
            cache_evictions=self._evictions,
            max_cached_blocks=self.max_cached_blocks,
        )
