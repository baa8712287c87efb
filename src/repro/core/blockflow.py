"""Block partitioning, truncated-pyramid execution and stitching.

Frame-based reference
---------------------
The reproduction defines the frame-based reference as: pad the input image
once by the network's total (input-resolution) margin and run the valid-mode
network over the whole padded frame.  The block-based flow draws every block's
input window from that same padded frame, so the stitched output is *exactly*
equal to the frame-based output — this is the core functional invariant the
eCNN hardware relies on (recomputation changes cost, never values).

Geometry
--------
Blocks are defined on the output-resolution grid.  For every output block the
required input window is derived by walking the layer stack backwards
(:func:`input_interval_for_output`): a valid 3x3 convolution widens the window
by one pixel per side, a pixel-shuffle upsampler divides coordinates by its
factor, a pooling/unshuffle stage multiplies them.

One block runner
----------------
All blocks of a frame are independent — the property the eCNN hardware
exploits with 81 parallel block pipelines.  Functionally that independence
is all the reproduction needs.  There is one image runner,
:func:`staged_inference`, and one selective counterpart,
:func:`run_selected_blocks` behind the video delta path.  Both run blocks
one at a time through the same three steps — cut the window from the
padded frame (:func:`_block_window`), run the network on it, crop the owned
output region (:func:`_crop_to_block`) — and the runner writes them into
the frame with one stitch helper (:func:`_stitch`).  There is no batched
twin: the served workloads' input windows are 64x64 or larger, where
stacking same-shaped blocks into fused passes measured no faster
(``fusion_speedup`` 1.0001 in ``BENCH_6.json``) and would only multiply
live activation memory.

Staged execution
----------------
A plan is a list of :class:`Stage` s — consecutive layer ranges, each run by
block flow at its own input block.  A single-model plan is one stage over
every layer (the paper's block-based flow); the sub-model split (Section 7.3,
Fig. 12) is several.  :func:`staged_inference` runs any stage list: stage *k*
cuts its windows from stage *k-1*'s stitched output, held in memory where
the hardware round-trips it through DRAM.  :func:`stage_grids` gives the
block grids a stage list runs on a frame from shapes alone, and
:func:`executed_macs` the conv MACs those grids execute, edge blocks
included; :func:`repro.core.partition.cheapest_stages` uses that count to
pick the split a session runs.  Every split of an exact network gives the
same pixels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.overheads import window_macs
from repro.nn.layers import Layer
from repro.nn.network import Sequential
from repro.nn.receptive_field import layer_geometry, output_size_valid
from repro.nn.tensor import FeatureMap


@dataclass(frozen=True)
class Stage:
    """One sub-model of an execution plan.

    Layers ``[start, stop)`` of the network run by block flow at
    ``input_block`` pixels of the stage's own input resolution.
    """

    start: int
    stop: int
    input_block: int


@dataclass(frozen=True)
class BlockSpec:
    """One block of the output grid and the input window that produces it.

    All output coordinates are in output-resolution pixels; input coordinates
    are in input-resolution pixels relative to the *unpadded* input image
    (they may be negative or exceed the image size — those samples come from
    the zero border).
    """

    out_row: int
    out_col: int
    out_height: int
    out_width: int
    in_row: int
    in_col: int
    in_height: int
    in_width: int

    @property
    def output_pixels(self) -> int:
        return self.out_height * self.out_width

    @property
    def input_pixels(self) -> int:
        return self.in_height * self.in_width


@dataclass
class BlockGrid:
    """A full partition of an image into blocks plus aggregate statistics."""

    image_height: int
    image_width: int
    output_height: int
    output_width: int
    block_size: int
    blocks: List[BlockSpec] = field(default_factory=list)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_input_pixels(self) -> int:
        return sum(block.input_pixels for block in self.blocks)

    @property
    def total_output_pixels(self) -> int:
        return sum(block.output_pixels for block in self.blocks)

    def measured_nbr(self, in_channels: int = 3, out_channels: int = 3) -> float:
        """Measured normalized bandwidth ratio for this partition.

        Bandwidth for all input and output blocks over the bandwidth of the
        output image alone (the paper's Eq. 2 counts both against 3*xo^2).
        """
        out_image = self.output_height * self.output_width * out_channels
        moved = (
            self.total_input_pixels * in_channels
            + self.total_output_pixels * out_channels
        )
        return moved / out_image


def input_interval_for_output(
    start: int, stop: int, layers: Sequence[Layer]
) -> Tuple[int, int]:
    """Map an output-coordinate interval ``[start, stop)`` back to input coordinates.

    The walk goes from the last layer to the first, applying the inverse of
    each layer's spatial geometry.
    """
    lo, hi = start, stop
    for layer in reversed(list(layers)):
        geom = layer_geometry(layer)
        if geom.scale > 1.0:
            factor = int(round(geom.scale))
            lo = lo // factor
            hi = -((-hi) // factor)  # ceil division
        elif geom.scale < 1.0:
            factor = int(round(1.0 / geom.scale))
            lo = lo * factor
            hi = hi * factor
        lo -= geom.margin
        hi += geom.margin
    return lo, hi


def output_interval_for_input(
    start: int, stop: int, layers: Sequence[Layer]
) -> Tuple[int, int]:
    """Map an input-coordinate interval forward to the output pixels it produces.

    Inverse companion of :func:`input_interval_for_output`: walking the stack
    forwards, a valid convolution trims its margin from both ends, an
    upsampler multiplies coordinates and a pooling stage divides them.
    """
    lo, hi = start, stop
    for layer in layers:
        geom = layer_geometry(layer)
        lo += geom.margin
        hi -= geom.margin
        if geom.scale > 1.0:
            factor = int(round(geom.scale))
            lo *= factor
            hi *= factor
        elif geom.scale < 1.0:
            factor = int(round(1.0 / geom.scale))
            lo = -((-lo) // factor)
            hi = hi // factor
    return lo, hi


def output_reach(start: int, stop: int, layers: Sequence[Layer]) -> Tuple[int, int]:
    """The output interval whose input windows read any of input ``[start, stop)``.

    Where :func:`output_interval_for_input` keeps the outputs an interval
    *fully* determines, this keeps every output it *touches*: walking the
    stack forwards, a valid convolution widens the interval by its margin,
    an upsampler multiplies coordinates and a pooling stage divides them
    outwards.  Outside it, an output's window misses the interval, so a
    change confined to the interval leaves those outputs as they were.
    """
    lo, hi = start, stop
    for layer in layers:
        geom = layer_geometry(layer)
        lo -= geom.margin
        hi += geom.margin
        if geom.scale > 1.0:
            factor = int(round(geom.scale))
            lo *= factor
            hi *= factor
        elif geom.scale < 1.0:
            factor = int(round(1.0 / geom.scale))
            lo = lo // factor
            hi = -((-hi) // factor)
    return lo, hi


def total_input_margin(layers: Sequence[Layer]) -> int:
    """Input-resolution border needed per side to produce output pixel 0."""
    lo, _hi = input_interval_for_output(0, 1, layers)
    return -lo


def network_scale(layers: Sequence[Layer]) -> float:
    """Net output/input spatial scale of a layer stack."""
    scale = 1.0
    for layer in layers:
        scale *= layer_geometry(layer).scale
    return scale


def partition_image(
    image_height: int,
    image_width: int,
    network: Sequential,
    output_block: int,
) -> BlockGrid:
    """Partition the output grid of ``network`` applied to an image into blocks.

    Parameters
    ----------
    image_height, image_width:
        Input image size in pixels.
    network:
        The model; its layers define margins and scale factors.
    output_block:
        Target (square) output block size in output-resolution pixels.
        Blocks at the right/bottom edges may be smaller.
    """
    if output_block <= 0:
        raise ValueError("output_block must be positive")
    scale = network_scale(network.layers)
    out_h = int(round(image_height * scale))
    out_w = int(round(image_width * scale))
    if out_h <= 0 or out_w <= 0:
        raise ValueError("network scale collapses the image to zero size")
    return _region_grid(
        image_height, image_width, (0, out_h), (0, out_w), network.layers, output_block
    )


def _region_grid(
    in_height: int,
    in_width: int,
    rows: Tuple[int, int],
    cols: Tuple[int, int],
    layers: Sequence[Layer],
    output_block: int,
) -> BlockGrid:
    """Tile the output region ``rows`` x ``cols`` with ``output_block`` blocks.

    Blocks start at the region's top-left corner and run row by row; the
    region may begin at negative coordinates (an intermediate stage's output
    extends into the next stage's margin).
    """
    grid = BlockGrid(
        image_height=in_height,
        image_width=in_width,
        output_height=rows[1] - rows[0],
        output_width=cols[1] - cols[0],
        block_size=output_block,
    )
    for row in range(rows[0], rows[1], output_block):
        for col in range(cols[0], cols[1], output_block):
            block_h = min(output_block, rows[1] - row)
            block_w = min(output_block, cols[1] - col)
            in_r0, in_r1 = input_interval_for_output(row, row + block_h, layers)
            in_c0, in_c1 = input_interval_for_output(col, col + block_w, layers)
            grid.blocks.append(
                BlockSpec(
                    out_row=row,
                    out_col=col,
                    out_height=block_h,
                    out_width=block_w,
                    in_row=in_r0,
                    in_col=in_c0,
                    in_height=in_r1 - in_r0,
                    in_width=in_c1 - in_c0,
                )
            )
    return grid


def frame_based_inference(network: Sequential, image: FeatureMap) -> FeatureMap:
    """Reference frame-based execution: pad once, run the whole frame.

    The result is cropped to the canonical ``scale x image`` output size; with
    upsampling stages the padded margin can produce a few surplus border
    pixels that no output region owns.
    """
    margin = total_input_margin(network.layers)
    padded = np.pad(image.data, ((0, 0), (margin, margin), (margin, margin)))
    result = network.forward(image.with_data(padded))
    scale = network_scale(network.layers)
    out_h = int(round(image.height * scale))
    out_w = int(round(image.width * scale))
    if result.height == out_h and result.width == out_w:
        return result
    produced_row, _ = output_interval_for_input(-margin, image.height + margin, network.layers)
    produced_col, _ = output_interval_for_input(-margin, image.width + margin, network.layers)
    return result.crop(-produced_row, -produced_col, out_h, out_w)


def _block_window(
    padded: np.ndarray, block: BlockSpec, origin: Tuple[int, int]
) -> np.ndarray:
    """The (view of the) source window one block consumes.

    ``origin`` is the input coordinate of ``padded[:, 0, 0]``.
    """
    r0 = block.in_row - origin[0]
    c0 = block.in_col - origin[1]
    window = padded[:, r0 : r0 + block.in_height, c0 : c0 + block.in_width]
    if r0 < 0 or c0 < 0 or window.shape[1:] != (block.in_height, block.in_width):
        raise ValueError(
            "input window exceeds the padded image; "
            "the network margin accounting is inconsistent"
        )
    return window


def _run_blocks(
    forward: Callable[[FeatureMap], FeatureMap],
    padded: np.ndarray,
    blocks: Iterable[BlockSpec],
    layers: Sequence[Layer],
    origin: Optional[Tuple[int, int]] = None,
) -> Iterator[Tuple[BlockSpec, FeatureMap]]:
    """Window, forward, crop: yield each block with its owned output region.

    ``forward`` runs one block's input window (a stage's ``forward``);
    ``padded`` is the frame zero-padded by the total input margin of
    ``layers`` unless ``origin`` names the input coordinate of its first
    sample.
    """
    if origin is None:
        margin = total_input_margin(layers)
        origin = (-margin, -margin)
    for block in blocks:
        window = _block_window(padded, block, origin)
        raw = forward(FeatureMap(data=window.copy()))
        yield block, _crop_to_block(raw, block, layers)


def _stitch(
    pieces: Iterable[Tuple[BlockSpec, FeatureMap]],
    output_height: int,
    output_width: int,
    origin: Tuple[int, int] = (0, 0),
) -> Optional[np.ndarray]:
    """Write cropped block outputs into one frame (``None`` when empty).

    The frame takes the channel count and dtype of the first block; its
    sample ``[:, 0, 0]`` is output coordinate ``origin``.
    """
    output: Optional[np.ndarray] = None
    for block, result in pieces:
        if output is None:
            output = np.zeros(
                (result.channels, output_height, output_width), dtype=result.data.dtype
            )
        row = block.out_row - origin[0]
        col = block.out_col - origin[1]
        output[:, row : row + block.out_height, col : col + block.out_width] = result.data
    return output


def stage_grids(
    network: Sequential, stages: Sequence[Stage], height: int, width: int
) -> Tuple[BlockGrid, ...]:
    """The block grid each stage of ``stages`` runs on a ``height`` x ``width`` frame.

    Shapes only; :func:`staged_inference` runs exactly these grids.  Every
    stage's output region is derived backwards from the frame's output:
    the last stage produces the frame, each earlier stage the window its
    successor reads (margin included).  Each region is tiled at the
    stage's output block, so its first block sits at the region's
    top-left corner.
    """
    # The grids depend on the layers' geometry alone, computed once.
    layers = [layer_geometry(layer) for layer in network.layers]
    bounds = [0] + [stage.stop for stage in stages]
    if [stage.start for stage in stages] != bounds[:-1] or bounds[-1] != len(layers) \
            or any(stage.start >= stage.stop for stage in stages):
        raise ValueError(f"stages {list(stages)} do not tile the {len(layers)} network layers")
    pieces = [layers[stage.start : stage.stop] for stage in stages]
    scale = network_scale(layers)
    out_h = int(round(height * scale))
    out_w = int(round(width * scale))
    if out_h <= 0 or out_w <= 0:
        raise ValueError("network scale collapses the image to zero size")

    regions = [((0, out_h), (0, out_w))]
    for piece in reversed(pieces[1:]):
        rows, cols = regions[0]
        regions.insert(
            0,
            (input_interval_for_output(*rows, piece), input_interval_for_output(*cols, piece)),
        )
    grids: List[BlockGrid] = []
    for stage, piece, (rows, cols) in zip(stages, pieces, regions):
        grid = _region_grid(
            height, width, rows, cols, piece, output_size_valid(stage.input_block, piece)
        )
        height, width = grid.output_height, grid.output_width
        grids.append(grid)
    return tuple(grids)


def executed_macs(
    network: Sequential, stages: Sequence[Stage], height: int, width: int
) -> int:
    """Conv MACs :func:`staged_inference` executes on a ``height`` x ``width`` frame.

    From shapes alone: every block of every stage's grid
    (:func:`stage_grids`) runs its stage's layers on its whole input
    window, rectangular edge windows included
    (:func:`~repro.core.overheads.window_macs`).  Blocks with equal windows
    cost the same, so each distinct window is walked once.
    """
    layers = list(network.layers)
    total = 0
    for stage, grid in zip(stages, stage_grids(network, stages, height, width)):
        windows = Counter((block.in_height, block.in_width) for block in grid.blocks)
        piece = layers[stage.start : stage.stop]
        total += sum(count * window_macs(piece, *window) for window, count in windows.items())
    return total


def staged_inference(
    network: Sequential, stages: Sequence[Stage], image: FeatureMap
) -> Tuple[FeatureMap, Tuple[BlockGrid, ...]]:
    """Run a plan's stage list by block flow and stitch the result.

    Each stage runs its grid of :func:`stage_grids`.  Stage 0 cuts its
    block windows from the zero-padded frame; stage *k* cuts them from
    stage *k-1*'s stitched output, offset by that intermediate's origin.
    The intermediate's border is computed from the zero padding, exactly
    as the frame-based flow computes it, so the result equals
    :func:`frame_based_inference` exactly for an exact network (a
    fixed-point program, whose sums do not depend on their order) under
    any stage list that tiles the layers; a float network's block and
    frame gemms have different shapes, so BLAS may round them differently.

    A one-stage plan is the paper's block-based flow: its grid is
    :func:`partition_image` at the stage's output block, and its windows
    are those :func:`pad_frame` and :func:`run_selected_blocks` use.
    Returns the output and one :class:`BlockGrid` per stage.
    """
    layers = list(network.layers)
    grids = stage_grids(network, stages, image.height, image.width)
    # Windows grow monotonically with the output, so the first and last
    # blocks of stage 0 bound the input it reads.  Pad like pad_frame: the
    # total margin on every side, widened at the bottom/right only when
    # rounding through scale stages reads further.
    first, last = grids[0].blocks[0], grids[0].blocks[-1]
    top, left = first.in_row, first.in_col
    bottom, right = last.in_row + last.in_height, last.in_col + last.in_width
    source = np.pad(
        image.data,
        (
            (0, 0),
            (-top, max(-top, bottom - image.height)),
            (-left, max(-left, right - image.width)),
        ),
    )
    origin = (top, left)
    for stage, grid in zip(stages, grids):
        piece = layers[stage.start : stage.stop]
        forward = network.forward if len(piece) == len(layers) else Sequential(piece).forward
        blocks = _run_blocks(forward, source, grid.blocks, piece, origin)
        corner = (grid.blocks[0].out_row, grid.blocks[0].out_col)
        source = _stitch(blocks, grid.output_height, grid.output_width, corner)
        origin = corner
    return FeatureMap(data=source), grids


def pad_frame(image: FeatureMap, layers: Sequence[Layer]) -> np.ndarray:
    """Zero-pad a frame by the stack's total input margin.

    This is the padding a one-stage :func:`staged_inference` draws every
    block's input window from, and the layout :func:`run_selected_blocks`
    and :func:`block_window_residuals` expect.
    """
    margin = total_input_margin(layers)
    return np.pad(image.data, ((0, 0), (margin, margin), (margin, margin)))


def output_shift(shift: int, layers: Sequence[Layer]) -> Optional[int]:
    """The output shift an input shift of ``shift`` pixels becomes.

    Walking the stack forwards, an upsampler multiplies the shift and a
    pooling stage divides it.  ``None`` when a pooling stage would divide a
    shift that is not a multiple of its factor: the shifted frame then
    samples every pooled position at another phase, so no output is a
    shifted copy of another.
    """
    for layer in layers:
        scale = layer_geometry(layer).scale
        if scale > 1.0:
            shift *= int(round(scale))
        elif scale < 1.0:
            factor = int(round(1.0 / scale))
            if shift % factor:
                return None
            shift //= factor
    return shift


def _moved(padded: np.ndarray, shift: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """``padded`` moved by ``shift`` and the mask of samples moved in from outside.

    Sample ``p`` of the moved frame is ``padded[p - shift]``; samples whose
    source lies outside ``padded`` are zero, and the returned ``(1, H, W)``
    mask marks them.
    """
    (dy, dx), (height, width) = shift, padded.shape[1:]
    rows = slice(max(dy, 0), height + min(dy, 0))
    cols = slice(max(dx, 0), width + min(dx, 0))
    moved = np.zeros_like(padded)
    moved[:, rows, cols] = padded[
        :, rows.start - dy : rows.stop - dy, cols.start - dx : cols.stop - dx
    ]
    outside = np.ones((1, height, width), dtype=bool)
    outside[:, rows, cols] = False
    return moved, outside


def block_window_residuals(
    prev_padded: np.ndarray,
    cur_padded: np.ndarray,
    *,
    shift: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """The ``(H, W)`` mask of the samples where two padded frames differ.

    Both frames are zero-padded alike (:func:`pad_frame`); the mask is in
    padded coordinates, for :func:`reach_blocks`.  A block's output is a
    pure function of its input window — margin included — so outputs whose
    windows hold no set sample are unchanged, exactly.  ``shift``
    ``(dy, dx)`` compares ``cur_padded`` with the predecessor's content
    moved down and right by that many samples, for motion compensation:
    samples moved in from outside the predecessor always count as changed.
    """
    if prev_padded.shape != cur_padded.shape:
        raise ValueError(
            f"padded frames differ in shape: {prev_padded.shape} vs {cur_padded.shape}"
        )
    if shift == (0, 0):
        return (cur_padded != prev_padded).any(axis=0)
    moved, changed = _moved(prev_padded, shift)
    changed |= (cur_padded != moved).any(axis=0, keepdims=True)
    return changed[0]


#: Output rectangles: ``(rows, cols)`` half-open intervals.
_Rect = Tuple[Tuple[int, int], Tuple[int, int]]


def _area(rect: _Rect) -> int:
    (rows, cols) = rect
    return (rows[1] - rows[0]) * (cols[1] - cols[0])


def _reach(
    changed: np.ndarray, region: _Rect, layers: Sequence[Layer], margin: int
) -> Optional[_Rect]:
    """The outputs of ``region`` a changed sample reaches, as one rectangle.

    The bounding box of the changed samples in the region's input window,
    carried forward through the layers (:func:`output_reach`) and clipped
    to the region; ``None`` when the window holds no changed sample.
    """
    (rows, cols) = region
    in_rows = input_interval_for_output(*rows, layers)
    in_cols = input_interval_for_output(*cols, layers)
    window = changed[
        in_rows[0] + margin : in_rows[1] + margin, in_cols[0] + margin : in_cols[1] + margin
    ]
    hit_rows = np.flatnonzero(window.any(axis=1))
    if hit_rows.size == 0:
        return None
    hit_cols = np.flatnonzero(window.any(axis=0))
    lo_row, hi_row = output_reach(
        in_rows[0] + int(hit_rows[0]), in_rows[0] + int(hit_rows[-1]) + 1, layers
    )
    lo_col, hi_col = output_reach(
        in_cols[0] + int(hit_cols[0]), in_cols[0] + int(hit_cols[-1]) + 1, layers
    )
    reach = (
        (max(lo_row, rows[0]), min(hi_row, rows[1])),
        (max(lo_col, cols[0]), min(hi_col, cols[1])),
    )
    if reach[0][0] >= reach[0][1] or reach[1][0] >= reach[1][1]:
        return None
    return reach


def _reached(
    changed: np.ndarray, region: _Rect, layers: Sequence[Layer], margin: int
) -> np.ndarray:
    """Mask of the outputs of ``region`` whose input windows hold a changed sample.

    Each output's window is summed from one summed-area table of the
    changed samples under the region's window.
    """
    (rows, cols) = region
    row_lo, row_hi = input_interval_for_output(np.arange(*rows), np.arange(*rows) + 1, layers)
    col_lo, col_hi = input_interval_for_output(np.arange(*cols), np.arange(*cols) + 1, layers)
    # Windows move monotonically with the output, so the first starts lowest.
    top, left = int(row_lo[0]), int(col_lo[0])
    window = changed[
        top + margin : int(row_hi[-1]) + margin, left + margin : int(col_hi[-1]) + margin
    ]
    table = np.zeros((window.shape[0] + 1, window.shape[1] + 1), dtype=np.int32)
    np.cumsum(np.cumsum(window, axis=0, dtype=np.int32), axis=1, out=table[1:, 1:])
    row_lo, row_hi, col_lo, col_hi = row_lo - top, row_hi - top, col_lo - left, col_hi - left
    sums = table[row_hi][:, col_hi] - table[row_lo][:, col_hi] - table[row_hi][:, col_lo]
    return sums + table[row_lo][:, col_lo] > 0


def _guillotine(
    mask: np.ndarray, cost: Callable[[int, int], float]
) -> List[Tuple[int, int, int, int]]:
    """Rectangles ``(row0, row1, col0, col1)`` covering every set sample of ``mask``.

    The bounding box, or the box cut in two and each part covered the same
    way, whichever sums to the lower ``cost(height, width)``.  The cut runs
    along the row or column line where the count of set samples per line
    jumps most: the edge of a band, or of an object beside one.
    """
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return []
    cols = np.flatnonzero(mask.any(axis=0))
    row0, row1, col0, col1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    box = mask[row0:row1, col0:col1]
    whole = [(row0, row1, col0, col1)]
    jumps = [np.abs(np.diff(np.count_nonzero(box, axis=1 - axis))) for axis in (0, 1)]
    axis = int(max((0, 1), key=lambda a: jumps[a].max(initial=0)))
    if jumps[axis].max(initial=0) == 0:
        return whole
    line = int(np.argmax(jumps[axis])) + 1
    if axis == 0:
        parts = [(box[:line], row0, col0), (box[line:], row0 + line, col0)]
    else:
        parts = [(box[:, :line], row0, col0), (box[:, line:], row0, col0 + line)]
    rects = [
        (top + r0, top + r1, left + c0, left + c1)
        for part, top, left in parts
        for r0, r1, c0, c1 in _guillotine(part, cost)
    ]
    split_cost = sum(cost(r1 - r0, c1 - c0) for r0, r1, c0, c1 in rects)
    return rects if split_cost < cost(row1 - row0, col1 - col0) else whole


def reach_blocks(
    changed: np.ndarray,
    block: BlockSpec,
    grid: BlockGrid,
    layers: Sequence[Layer],
    margin: int,
) -> List[BlockSpec]:
    """Blocks of finer partitions covering every output of ``block`` a change reaches.

    ``changed`` is the changed-sample mask of :func:`block_window_residuals`
    for frames padded by ``margin``.  Outside the returned blocks no
    output's input window holds a changed sample, so those outputs are
    unchanged; ``[block]`` when the reach is the whole block, ``[]`` when
    nothing in its window changed.  The reach is one rectangle: the
    changed samples' bounding box carried forward through the layers
    (:func:`output_reach`), clipped to the block.  Where that rectangle
    covers more than half of the block — an L-shaped border band in a
    corner block covers all of it — the exact mask of reached outputs is
    cut into rectangles along its band edges instead (:func:`_guillotine`),
    keeping each cut that lowers the input pixels the rectangles' windows
    hold.
    """
    # The block's input window is the union of its outputs' windows: with
    # no changed sample there, nothing in the block is reached.
    if not changed[
        block.in_row + margin : block.in_row + block.in_height + margin,
        block.in_col + margin : block.in_col + block.in_width + margin,
    ].any():
        return []
    region = (
        (block.out_row, block.out_row + block.out_height),
        (block.out_col, block.out_col + block.out_width),
    )
    # Every output's window holds a sample of the frame itself, so when all
    # of the window's frame samples changed (a cut) the whole block re-runs.
    top, left = max(block.in_row, 0) + margin, max(block.in_col, 0) + margin
    bottom = min(block.in_row + block.in_height, grid.image_height) + margin
    right = min(block.in_col + block.in_width, grid.image_width) + margin
    if changed[top:bottom, left:right].all():
        return [block]
    reach = _reach(changed, region, layers, margin)
    if reach is None:
        return []
    rects = [reach]
    if 2 * _area(reach) > _area(region):
        scale = network_scale(layers)

        def window_pixels(height: int, width: int) -> float:
            return (height / scale + 2 * margin) * (width / scale + 2 * margin)

        (rows, cols) = reach
        rects = [
            ((rows[0] + row0, rows[0] + row1), (cols[0] + col0, cols[0] + col1))
            for row0, row1, col0, col1 in _guillotine(
                _reached(changed, reach, layers, margin), window_pixels
            )
        ]
    if rects == [region]:
        return [block]
    return [
        _region_grid(
            grid.image_height, grid.image_width, rows, cols, layers,
            max(rows[1] - rows[0], cols[1] - cols[0]),
        ).blocks[0]
        for rows, cols in rects
    ]


def run_selected_blocks(
    network: Sequential,
    padded: np.ndarray,
    blocks: Sequence[BlockSpec],
) -> List[FeatureMap]:
    """Run only the given blocks of a frame and return their outputs.

    The selective counterpart of a one-stage :func:`staged_inference`: the
    caller supplies the padded frame and the blocks to recompute — blocks
    of the partition grid, or smaller blocks of a finer partition inside
    them — and gets each block's cropped output back in order.  Pixels are
    bit-identical to a full run — both use the same per-block runner, and
    the served arithmetic gives the same bits under any partition — which
    is the invariant that keeps every video delta frame exact.
    """
    return [
        result
        for _, result in _run_blocks(network.forward, padded, blocks, network.layers)
    ]


def _crop_to_block(
    result: FeatureMap, block: BlockSpec, layers: Sequence[Layer]
) -> FeatureMap:
    """Crop a block's raw output to the output region the block owns.

    Because upsampling/pooling stages force the input window onto coarser
    alignment, the computed output can be slightly larger than the requested
    block; the surplus pixels belong to neighbouring blocks and are dropped.
    """
    if result.height == block.out_height and result.width == block.out_width:
        return result
    produced_row, _ = output_interval_for_input(
        block.in_row, block.in_row + block.in_height, layers
    )
    produced_col, _ = output_interval_for_input(
        block.in_col, block.in_col + block.in_width, layers
    )
    top = block.out_row - produced_row
    left = block.out_col - produced_col
    if top < 0 or left < 0:
        raise ValueError(
            "block output does not cover its assigned region; "
            "the margin accounting is inconsistent"
        )
    return result.crop(top, left, block.out_height, block.out_width)
