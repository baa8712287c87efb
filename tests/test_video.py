"""Property tests for delta-aware video-stream serving.

The geometry used throughout is chosen so change locality is *provable*:
denoise (margin 6 — three 3x3 convolutions per side) over 48x48 frames at
``output_block=16`` gives a 3x3 grid whose block centers (rows/cols 8, 24,
40) sit more than a margin away from every other block's input window.  A
single-pixel mutation at a block center therefore changes exactly one
block's input window, and :class:`repro.runtime.video.VideoStream` must
recompute exactly that block — no more, no fewer.

The bit-identity reference is ``session.execute("denoise", frame,
cached=False)`` at the plan's own block size: the served fixed-point
program is exact in any summation order, so the pixels do not depend on
the block geometry (see the module docstring of :mod:`repro.runtime.video`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.core.blockflow import pad_frame, partition_image, total_input_margin
from repro.nn.tensor import FeatureMap
from repro.runtime import RESIDUAL_HISTOGRAM_EDGES, ResultCache, VideoStream
import repro.runtime.video as video
from repro.runtime.video import StagedPlanStreamError

#: 48x48 denoise frames at output_block 16: a 3x3 grid, margin 6.
SIZE = 48
BLOCK = 16
GRID_BLOCKS = 9
#: Center pixel of grid block (row, col) — strictly interior to that
#: block's input window and outside every other block's window.
_CENTERS = {(row, col): (16 * row + 8, 16 * col + 8) for row in range(3) for col in range(3)}


@pytest.fixture
def session() -> Session:
    return Session(backend="ecnn", cache=ResultCache())


@pytest.fixture
def stream(session) -> VideoStream:
    return session.video_stream("cam0", "denoise", output_block=BLOCK)


def _frame(seed: int) -> FeatureMap:
    return synthetic_image(SIZE, SIZE, seed=seed)


def _mutated(frame: FeatureMap, blocks) -> FeatureMap:
    data = frame.data.copy()
    for row, col in blocks:
        y, x = _CENTERS[(row, col)]
        data[:, y, x] += 1.0
    return FeatureMap(data=data)


def _reference(session: Session, frame: FeatureMap) -> np.ndarray:
    return session.execute("denoise", frame, cached=False).output.data


class TestChangeLocality:
    def test_first_frame_recomputes_everything_without_residuals(self, stream):
        result = stream.submit(_frame(0))
        assert result.residuals is None
        assert result.blocks_reused == 0
        assert result.blocks_recomputed == GRID_BLOCKS
        assert result.recomputed_blocks == tuple(range(GRID_BLOCKS))

    @pytest.mark.parametrize(
        "mutated_blocks",
        [
            [(1, 1)],
            [(0, 0), (2, 2)],
            [(0, 2), (1, 1), (2, 0)],
            [(0, 1), (1, 0), (1, 2), (2, 1)],
        ],
        ids=["center", "two-corners", "diagonal", "plus"],
    )
    def test_mutating_k_blocks_recomputes_exactly_k(
        self, session, stream, mutated_blocks
    ):
        base = _frame(0)
        stream.submit(base)
        frame = _mutated(base, mutated_blocks)
        result = stream.submit(frame)
        expected = tuple(sorted(3 * row + col for row, col in mutated_blocks))
        assert result.recomputed_blocks == expected
        assert result.blocks_recomputed == len(mutated_blocks)
        assert result.blocks_reused == GRID_BLOCKS - len(mutated_blocks)
        # Reuse never costs pixels: the stitched frame is bit-identical to
        # full re-inference.
        assert np.array_equal(result.output.data, _reference(session, frame))

    def test_static_sequence_reuses_every_block(self, session, stream):
        base = _frame(1)
        stream.submit(base)
        for _ in range(3):
            result = stream.submit(base)
            assert result.blocks_reused == GRID_BLOCKS
            assert result.recomputed_blocks == ()
            assert result.residuals == (0.0,) * GRID_BLOCKS
            assert np.array_equal(result.output.data, _reference(session, base))

    def test_scene_cut_invalidates_every_block(self, session, stream):
        stream.submit(_frame(2))
        cut = _frame(99)
        result = stream.submit(cut)
        assert result.blocks_reused == 0
        assert result.blocks_recomputed == GRID_BLOCKS
        assert result.residuals is not None and min(result.residuals) > 0.0
        assert np.array_equal(result.output.data, _reference(session, cut))

    def test_invalidate_forces_full_undiffed_recompute(self, stream):
        base = _frame(3)
        stream.submit(base)
        assert stream.submit(base).blocks_reused == GRID_BLOCKS
        dropped = stream.invalidate()
        assert dropped == GRID_BLOCKS
        result = stream.submit(base)
        assert result.residuals is None
        assert result.blocks_recomputed == GRID_BLOCKS

    def test_resolution_change_recomputes_without_diffing(self, stream):
        stream.submit(_frame(4))
        wide = synthetic_image(SIZE, SIZE + 16, seed=4)
        result = stream.submit(wide)
        assert result.residuals is None
        assert result.blocks_reused == 0


class TestCacheBound:
    """A stream holds a drift for every block of its grid: nothing is evicted."""

    def test_every_block_of_a_large_static_grid_is_reused(self, session):
        # 144x144 at output_block 8: an 18x18 grid, more blocks than any
        # block-cache bound the stream once had (256).
        frame = synthetic_image(144, 144, seed=9)
        stream = session.video_stream("large", "denoise", output_block=8)
        first = stream.submit(frame)
        assert first.blocks_recomputed == 324
        second = stream.submit(frame)
        assert second.blocks_reused == 324 and second.blocks_recomputed == 0
        assert stream.stats.cache_evictions == 0
        assert np.array_equal(second.output.data, _reference(session, frame))
        assert stream.invalidate() == 324

    def test_bad_configuration_is_rejected(self, session):
        with pytest.raises(ValueError, match="recognition"):
            session.video_stream("cam", "recognition")
        with pytest.raises(ValueError, match="metric"):
            session.video_stream("cam", "denoise", metric="ssim")
        with pytest.raises(ValueError, match="threshold"):
            session.video_stream("cam", "denoise", threshold=-0.1)


class TestPlanStages:
    def test_frame_based_stream_matches_fresh_execution(self):
        # Streams read the plan's single stage, which every backend's plan
        # carries, so a non-ecnn stream serves the same pixels as execute.
        session = Session(backend="frame_based", cache=ResultCache())
        for seed in (0, 0, 1):
            served = session.execute_stream("cam", "denoise", _frame(seed))
            fresh = session.execute("denoise", _frame(seed), cached=False)
            assert np.array_equal(served.output.data, fresh.output.data)
        assert served.blocks_reused == 0 and session.video_stream_stats[0].blocks_reused > 0

    def test_multi_stage_plan_is_refused_before_any_stream_state(self, session):
        assert len(session.compile("style_transfer").stages) == 2
        assert issubclass(StagedPlanStreamError, ValueError)
        frame = synthetic_image(52, 52, seed=1)
        with pytest.raises(StagedPlanStreamError, match="2 stages"):
            session.execute_stream("cam", "style_transfer", frame)
        with pytest.raises(StagedPlanStreamError):
            session.video_stream("cam", "style_transfer")
        assert session.video_stream_stats == ()
        # The served camera workloads stay single-stage and keep streaming.
        assert session.execute_stream("cam", "denoise", _frame(0)).blocks_total > 0


class TestStatsReconciliation:
    def test_counters_reconcile_with_per_frame_results(self, session, stream):
        base = _frame(7)
        frames = [
            base,
            base,  # static: all reuse
            _mutated(base, [(1, 1)]),  # one block
            _mutated(base, [(1, 1)]),  # static again relative to prev
            _frame(123),  # scene cut
        ]
        results = [stream.submit(frame) for frame in frames]
        stats = stream.stats
        assert stats.frames == len(frames)
        assert stats.blocks_reused == sum(r.blocks_reused for r in results)
        assert stats.blocks_recomputed == sum(r.blocks_recomputed for r in results)
        assert stats.blocks_total == stats.blocks_reused + stats.blocks_recomputed
        assert stats.blocks_total == sum(r.blocks_total for r in results)
        # The histogram covers exactly the diffed blocks: every frame after
        # the first contributes one residual per grid block.
        diffed = sum(GRID_BLOCKS for r in results if r.residuals is not None)
        assert sum(stats.residual_histogram) == diffed
        assert len(stats.residual_histogram) == len(RESIDUAL_HISTOGRAM_EDGES) + 1
        # Exact-reuse mode never accepts a nonzero residual.
        assert stats.threshold == 0.0
        assert stats.max_reused_residual == 0.0
        assert stats.bytes_saved > 0
        assert 0.0 < stats.reuse_rate < 1.0
        assert stream.stream_id in stats.describe()

    def test_session_surfaces_stream_stats(self, session):
        session.execute_stream("a", "denoise", _frame(8), output_block=BLOCK)
        session.execute_stream("b", "denoise", _frame(9), output_block=BLOCK)
        stats = session.video_stream_stats
        assert [s.stream_id for s in stats] == ["a", "b"]
        assert all(s.frames == 1 for s in stats)

    def test_thresholded_reuse_reports_measured_residuals(self, session):
        stream = session.video_stream(
            "lossy", "denoise", threshold=1e-3, output_block=BLOCK
        )
        base = _frame(10)
        stream.submit(base)
        noisy = FeatureMap(
            data=base.data + np.random.default_rng(11).normal(scale=1e-5, size=base.data.shape),
        )
        result = stream.submit(noisy)
        # Low-amplitude noise stays under the MAE threshold: all reuse.
        assert result.blocks_reused == GRID_BLOCKS
        stats = stream.stats
        assert 0.0 < stats.max_reused_residual <= 1e-3
        # The served pixels equal the *predecessor's* reference exactly, so
        # the pixel error against fresh re-inference is bounded by the
        # drift between the two references.
        ref_prev = _reference(session, base)
        ref_cur = _reference(session, noisy)
        assert np.array_equal(result.output.data, ref_prev)
        error = np.abs(result.output.data - ref_cur).max()
        assert error <= np.abs(ref_cur - ref_prev).max()

    def test_reconfigure_tightens_future_frames_only(self, session):
        stream = session.video_stream(
            "tighten", "denoise", threshold=1.0, output_block=BLOCK
        )
        base = _frame(12)
        stream.submit(base)
        drifted = _mutated(base, [(1, 1)])
        assert stream.submit(drifted).blocks_reused == GRID_BLOCKS
        session.video_stream("tighten", "denoise", threshold=0.0)
        assert stream.threshold == 0.0
        # At threshold 0 the drifted block now recomputes (its residual
        # against the previous frame is 0 only for untouched blocks).
        result = stream.submit(_mutated(drifted, [(1, 1)]))
        assert result.recomputed_blocks == (4,)


def _record_specs(monkeypatch) -> list:
    """Record the blocks every ``run_selected_blocks`` call is given."""
    calls: list = []
    run = video.run_selected_blocks

    def recording(network, padded, blocks):
        calls.append(list(blocks))
        return run(network, padded, blocks)

    monkeypatch.setattr(video, "run_selected_blocks", recording)
    return calls


class TestDriftBoundedReuse:
    """A block is reused only while the residuals it was reused at since it
    was computed, plus this frame's, stay within the threshold — so the
    served input error is bounded against the block's own source window."""

    def test_tightening_to_zero_recomputes_a_block_reused_with_a_residual(self, session):
        stream = session.video_stream("stale", "denoise", threshold=0.05)
        base = synthetic_image(96, 96, seed=20)
        data = base.data.copy()
        data[:, 40:44, 40:44] += 0.5
        changed = FeatureMap(data=data)
        stream.submit(base)
        assert stream.submit(changed).blocks_reused == 1
        # The same frame again: its residual against the predecessor is 0,
        # but the cached block still holds the output of ``base``.
        session.video_stream("stale", "denoise", threshold=0.0)
        result = stream.submit(changed)
        assert result.recomputed_blocks == (0,)
        assert np.array_equal(result.output.data, _reference(session, changed))

    def test_a_slow_fade_cannot_drift_past_the_threshold(self, session):
        threshold = 0.005
        stream = session.video_stream("fade", "denoise", threshold=threshold)
        layers = session.compile("denoise").network.layers
        base = synthetic_image(96, 96, seed=21)
        frames = [FeatureMap(data=base.data + 0.004 * step) for step in range(40)]
        references: dict = {}
        source = 0
        for step, frame in enumerate(frames):
            result = stream.submit(frame)
            if result.blocks_recomputed:
                source = step
            if source not in references:
                references[source] = _reference(session, frames[source])
            # The served block is its source frame's exact output, and the
            # source's window is within the threshold of this frame's.
            assert np.array_equal(result.output.data, references[source])
            drift = np.abs(pad_frame(frame, layers) - pad_frame(frames[source], layers)).mean()
            assert drift <= threshold + 1e-12
        stats = stream.stats
        assert 0.0 < stats.max_reused_residual <= threshold
        assert stats.blocks_recomputed > 1

    def test_a_metric_change_drops_drifted_blocks_only(self, session):
        stream = session.video_stream("units", "denoise", threshold=1.0, output_block=BLOCK)
        base = _frame(22)
        stream.submit(base)
        drifted = _mutated(base, [(1, 1)])
        assert stream.submit(drifted).blocks_reused == GRID_BLOCKS
        stream.reconfigure(threshold=1.0, metric="sad")
        result = stream.submit(drifted)
        assert result.recomputed_blocks == (4,)
        assert np.array_equal(result.output.data, _reference(session, drifted))


class TestSubBlockReuse:
    """A block whose cached output is exact for the predecessor recomputes
    only the output rectangle its changed input pixels can reach."""

    @pytest.mark.parametrize(
        "workload, side, output_block",
        [("denoise", 96, 40), ("super_resolution", 48, None)],
        ids=["denoise-3x3-grid", "super-resolution"],
    )
    def test_random_rectangles_of_change_are_bit_exact(
        self, session, monkeypatch, workload, side, output_block
    ):
        calls = _record_specs(monkeypatch)
        stream = session.video_stream("rects", workload, output_block=output_block)
        rng = np.random.default_rng(23)
        data = synthetic_image(side, side, seed=23).data
        stream.submit(FeatureMap(data=data))
        for _ in range(6):
            height, width = rng.integers(1, 9, size=2)
            top, left = rng.integers(0, side - height + 1), rng.integers(0, side - width + 1)
            data = data.copy()
            data[:, top : top + height, left : left + width] = rng.random((3, height, width))
            frame = FeatureMap(data=data)
            served = stream.submit(frame).output.data
            fresh = session.execute(workload, frame, cached=False).output.data
            assert np.array_equal(served, fresh)
        # Sub-blocks ran: some recompute was smaller than a grid block, and
        # on super-resolution some started off the scale-4 lattice.
        full = {(block.out_height, block.out_width) for block in calls[0]}
        recomputed = [spec for call in calls[1:] for spec in call]
        assert any((spec.out_height, spec.out_width) not in full for spec in recomputed)
        if workload == "super_resolution":
            assert any(spec.out_row % 4 or spec.out_col % 4 for spec in recomputed)

    def test_one_changed_pixel_recomputes_a_window_a_few_margins_wide(
        self, session, monkeypatch
    ):
        calls = _record_specs(monkeypatch)
        stream = session.video_stream("pin", "denoise")
        margin = total_input_margin(session.compile("denoise").network.layers)
        base = synthetic_image(232, 232, seed=24)
        stream.submit(base)
        data = base.data.copy()
        data[:, 58, 58] += 0.5
        result = stream.submit(FeatureMap(data=data))
        assert result.recomputed_blocks == (0,)
        (spec,) = calls[-1]
        assert spec.in_height <= 4 * margin + 3 and spec.in_width <= 4 * margin + 3
        assert np.array_equal(result.output.data, _reference(session, FeatureMap(data=data)))


class TestGridAssumptions:
    def test_geometry_is_the_documented_3x3_grid(self, session):
        network = session.compile("denoise").network
        grid = partition_image(SIZE, SIZE, network, BLOCK)
        assert grid.num_blocks == GRID_BLOCKS
        assert (grid.output_height, grid.output_width) == (SIZE, SIZE)
        # The center-pixel construction: each block's input window contains
        # its own center and no other block's center.
        for index, block in enumerate(grid.blocks):
            for (row, col), (y, x) in _CENTERS.items():
                inside = (
                    block.in_row <= y < block.in_row + block.in_height
                    and block.in_col <= x < block.in_col + block.in_width
                )
                assert inside == (index == 3 * row + col)


def _camera(side: int, seed: int, cycles: int = 2) -> list:
    """A seeded camera: ``cycles`` 12-frame cycles of a noise texture with a
    6-px object moving every frame, a scene cut at phase 0 and a one-frame
    pan of 3 px per axis (direction drawn per scene) at phase 6."""
    rng = np.random.default_rng(seed)
    frames = []
    for index in range(12 * cycles):
        phase = index % 12
        if phase == 0:
            canvas = rng.random((3, side + 16, side + 16))
            view = np.array([8, 8])
            pan = rng.choice([-3, 3], size=2)
            patch = rng.random((3, 6, 6))
        elif phase == 6:
            view = view + pan
        data = canvas[:, view[0] : view[0] + side, view[1] : view[1] + side].copy()
        row, col = side // 3 + 2 * phase, side // 3 + phase
        data[:, row : row + 6, col : col + 6] = patch
        frames.append(FeatureMap(data=data))
    return frames


def _panned(canvas: np.ndarray, side: int, shift) -> list:
    """The ``side`` view at the canvas centre, then the view whose content
    moved down and right by ``shift``."""
    centre = (canvas.shape[1] - side) // 2
    return [
        FeatureMap(data=canvas[:, top : top + side, left : left + side].copy())
        for top, left in ((centre, centre), (centre - shift[0], centre - shift[1]))
    ]


def _border_band(side: int, shift, margin: int) -> int:
    """Output pixels a pan by ``shift`` must re-run on a ``side``-px frame:
    the exposed strip plus the band, ``margin`` wide on each side, whose
    windows see the zero padding move.  ``0`` along an axis with no pan."""
    rows, cols = (abs(s) + 2 * margin if s else 0 for s in shift)
    return rows * side + cols * side - rows * cols


class TestMotionCompensation:
    """A camera pan is served from the predecessor's output moved by the
    pan: only the border band, the exposed strip and what moved on its own
    re-run, and every frame stays bit-identical to fresh execution."""

    def test_every_frame_of_two_camera_cycles_is_exact(self, session):
        # Cuts, pans and delta frames alike, at a 3x3 grid whose corner
        # blocks hold L-shaped border bands.
        frames = _camera(96, seed=40)
        results = []
        for index, frame in enumerate(frames):
            result = session.execute_stream("camera", "denoise", frame, output_block=40)
            fresh = session.execute("denoise", frame, cached=False).output.data
            assert np.array_equal(result.output.data, fresh), index
            results.append(result)
        pans = [results[index].shift for index in (6, 18)]
        assert all(shift != (0, 0) for shift in pans)
        assert all(r.shift == (0, 0) for i, r in enumerate(results) if i % 12 != 6)
        assert session.video_stream_stats[0].motion_compensated_frames == 2

    @pytest.mark.parametrize(
        "shift", [(3, 3), (3, -3), (-3, 3), (-3, -3), (0, 4)],
        ids=["down-right", "down-left", "up-right", "up-left", "right"],
    )
    def test_a_pan_re_runs_about_its_border_band(self, session, monkeypatch, shift):
        calls = _record_specs(monkeypatch)
        margin = total_input_margin(session.compile("denoise").network.layers)
        canvas = np.random.default_rng(41).random((3, 112, 112))
        previous, panned = _panned(canvas, 96, shift)
        stream = session.video_stream("pan", "denoise", output_block=40)
        stream.submit(previous)
        result = stream.submit(panned)
        assert result.shift == shift
        assert stream.stats.motion_compensated_frames == 1
        recomputed = sum(spec.output_pixels for spec in calls[-1])
        band = _border_band(96, shift, margin)
        assert band <= recomputed <= 1.2 * band < 96 * 96
        assert np.array_equal(result.output.data, _reference(session, panned))

    def test_a_pan_exposing_black_pixels_re_runs_them(self, session):
        # The exposed strip is black, like the zero padding it replaces, so
        # only counting samples moved in from outside the old frame as
        # changed makes its outputs re-run: they have no predecessor to copy.
        canvas = np.random.default_rng(45).random((3, 112, 112))
        canvas[:, :8] = 0.0
        previous, panned = _panned(canvas, 96, (4, 0))
        stream = session.video_stream("black", "denoise", output_block=40)
        stream.submit(previous)
        result = stream.submit(panned)
        assert result.shift == (4, 0)
        assert np.array_equal(result.output.data, _reference(session, panned))

    def test_a_pan_with_a_moving_object_re_runs_the_object_too(self, session, monkeypatch):
        calls = _record_specs(monkeypatch)
        margin = total_input_margin(session.compile("denoise").network.layers)
        canvas = np.random.default_rng(42).random((3, 112, 112))
        previous, panned = _panned(canvas, 96, (-3, 3))
        patch = np.random.default_rng(43).random((3, 8, 8))
        previous.data[:, 40:48, 44:52] = patch
        panned.data[:, 43:51, 41:49] = patch
        stream = session.video_stream("pan-object", "denoise", output_block=40)
        stream.submit(previous)
        result = stream.submit(panned)
        assert result.shift == (-3, 3)
        recomputed = sum(spec.output_pixels for spec in calls[-1])
        # The object's old and new places, each widened by the margin.
        band = _border_band(96, (-3, 3), margin)
        object_reach = (11 + 2 * margin) ** 2
        assert band < recomputed <= 1.2 * band + object_reach
        assert np.array_equal(result.output.data, _reference(session, panned))
        # The next frame repeats the pan: the stream tries the previous
        # shift first and compensates again.
        again = stream.submit(_panned(canvas, 96, (-6, 6))[1])
        assert again.shift == (-3, 3)
        assert stream.stats.motion_compensated_frames == 2

    def test_a_super_resolution_pan_keeps_the_shift_zero_path(self, session, monkeypatch):
        # A 64-px frame with a 21-px margin: the border band is the whole
        # output, so motion compensation would re-run no fewer pixels.
        calls = _record_specs(monkeypatch)
        canvas = np.random.default_rng(44).random((3, 80, 80))
        previous, panned = _panned(canvas, 64, (3, -3))
        stream = session.video_stream("sr-pan", "super_resolution")
        stream.submit(previous)
        result = stream.submit(panned)
        assert result.shift == (0, 0)
        assert stream.stats.motion_compensated_frames == 0
        assert sum(spec.output_pixels for spec in calls[-1]) == 256 * 256
        fresh = session.execute("super_resolution", panned, cached=False).output.data
        assert np.array_equal(result.output.data, fresh)
