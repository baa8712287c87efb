"""Tests for the block-based truncated-pyramid inference flow.

The central invariant: for any FBISA-compatible network, the stitched
block-based output equals the frame-based output exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.workloads import synthetic_image
from repro.core.blockflow import (
    Stage,
    frame_based_inference,
    input_interval_for_output,
    network_scale,
    output_reach,
    output_shift,
    partition_image,
    reach_blocks,
    staged_inference,
    total_input_margin,
)
from repro.core.pipeline import execute_stages
from repro.models.baselines import build_plain_network
from repro.nn.layers import Conv2d, ReLU
from repro.nn.network import Network, Sequential
from repro.nn.ops import PixelShuffle, StridedPool2x2
from repro.nn.receptive_field import output_size_valid, required_input_size
from repro.quant.fixed import fixed_point_network


class TestGeometry:
    def test_input_interval_plain_stack(self):
        layers = [Conv2d(3, 8, 3), Conv2d(8, 3, 3)]
        assert input_interval_for_output(0, 10, layers) == (-2, 12)
        assert total_input_margin(layers) == 2

    def test_input_interval_with_upsampler(self):
        layers = [Conv2d(3, 12, 3), PixelShuffle(2), Conv2d(3, 3, 3)]
        lo, hi = input_interval_for_output(0, 8, layers)
        # output 8 px at 2x -> 5 px window pre-shuffle (with conv margin) -> +1 head margin
        assert lo == -2
        assert hi >= 6
        assert total_input_margin(layers) == 2

    @pytest.mark.parametrize(
        "layers",
        [
            [Conv2d(3, 8, 3), Conv2d(8, 3, 3)],
            [Conv2d(3, 12, 3), PixelShuffle(2), Conv2d(3, 48, 3), PixelShuffle(4), Conv2d(3, 3, 3)],
            [StridedPool2x2(), Conv2d(3, 8, 3), StridedPool2x2(), Conv2d(8, 3, 3)],
        ],
        ids=["plain", "upsampler", "pooling"],
    )
    def test_output_reach_is_every_output_an_interval_touches(self, layers):
        # Brute force: output o is reached iff its input window meets the
        # interval.  With pooling, windows are wider than 2 * margin + 1, so
        # widening an interval by the margin alone would miss outputs.
        windows = {o: input_interval_for_output(o, o + 1, layers) for o in range(-100, 150)}
        for start in range(-5, 12):
            for stop in range(start + 1, start + 6):
                lo, hi = output_reach(start, stop, layers)
                touched = [o for o, (a, b) in windows.items() if a < stop and start < b]
                assert (lo, hi) == (touched[0], touched[-1] + 1)

    @pytest.mark.parametrize(
        "layers",
        [
            [Conv2d(3, 8, 3), Conv2d(8, 3, 3)],
            [Conv2d(3, 12, 3), PixelShuffle(2), Conv2d(3, 48, 3), PixelShuffle(4), Conv2d(3, 3, 3)],
            [StridedPool2x2(), Conv2d(3, 8, 3), StridedPool2x2(), Conv2d(8, 3, 3)],
        ],
        ids=["plain", "upsampler", "pooling"],
    )
    def test_reach_blocks_cover_every_output_a_change_touches(self, layers):
        # Brute force: output o must be re-run iff its input window holds a
        # changed sample.  The masks include a corner-to-corner L band, the
        # shape a camera pan leaves along the frame border.
        height, width = 32, 40
        margin = total_input_margin(layers)
        scale = network_scale(layers)
        grid = partition_image(height, width, Sequential(layers), max(2, int(12 * scale)))
        shape = (height + 2 * margin, width + 2 * margin)
        rng = np.random.default_rng(31)
        band = np.zeros(shape, dtype=bool)
        band[: margin + 3], band[:, : margin + 2] = True, True
        masks = [band, rng.random(shape) < 0.002, rng.random(shape) < 0.2]
        for _ in range(4):
            mask = np.zeros(shape, dtype=bool)
            top, left = rng.integers(0, shape[0] - 4), rng.integers(0, shape[1] - 4)
            mask[top : top + rng.integers(1, 5), left : left + rng.integers(1, 5)] = True
            masks.append(mask)
        row_windows = [input_interval_for_output(r, r + 1, layers) for r in range(grid.output_height)]
        col_windows = [input_interval_for_output(c, c + 1, layers) for c in range(grid.output_width)]
        for changed in masks:
            by_rows = np.array([changed[a + margin : b + margin].any(axis=0) for a, b in row_windows])
            touched = np.array(
                [by_rows[:, a + margin : b + margin].any(axis=1) for a, b in col_windows]
            ).T
            covered = np.zeros_like(touched)
            for block in grid.blocks:
                for spec in reach_blocks(changed, block, grid, layers, margin):
                    assert block.out_row <= spec.out_row
                    assert spec.out_row + spec.out_height <= block.out_row + block.out_height
                    assert block.out_col <= spec.out_col
                    assert spec.out_col + spec.out_width <= block.out_col + block.out_width
                    covered[
                        spec.out_row : spec.out_row + spec.out_height,
                        spec.out_col : spec.out_col + spec.out_width,
                    ] = True
            assert not (touched & ~covered).any()

    def test_output_shift_follows_the_scale_stages(self):
        conv = Conv2d(3, 3, 3)
        assert output_shift(-3, [conv, conv]) == -3
        assert output_shift(3, [conv, PixelShuffle(2), conv, PixelShuffle(4)]) == 24
        pooled = [StridedPool2x2(), conv, StridedPool2x2()]
        assert output_shift(8, pooled) == 2
        # A shift off the pooling lattice samples every pooled position at
        # another phase: no output is a moved copy of another.
        assert output_shift(2, pooled) is None
        assert output_shift(3, pooled) is None

    def test_network_scale(self):
        assert network_scale([Conv2d(3, 3, 3)]) == 1.0
        assert network_scale([Conv2d(3, 12, 3), PixelShuffle(2)]) == 2.0

    def test_partition_covers_output_exactly(self, tiny_plain_network):
        grid = partition_image(50, 62, tiny_plain_network, output_block=16)
        covered = np.zeros((50, 62), dtype=int)
        for block in grid.blocks:
            covered[
                block.out_row : block.out_row + block.out_height,
                block.out_col : block.out_col + block.out_width,
            ] += 1
        assert np.all(covered == 1)

    def test_partition_block_input_sizes_include_margin(self, tiny_plain_network):
        grid = partition_image(64, 64, tiny_plain_network, output_block=16)
        margin = total_input_margin(tiny_plain_network.layers)
        for block in grid.blocks:
            assert block.in_height == block.out_height + 2 * margin
            assert block.in_width == block.out_width + 2 * margin

    def test_partition_rejects_bad_block(self, tiny_plain_network):
        with pytest.raises(ValueError):
            partition_image(32, 32, tiny_plain_network, output_block=0)

    def test_measured_nbr_larger_than_one(self, tiny_plain_network):
        grid = partition_image(64, 64, tiny_plain_network, output_block=16)
        assert grid.measured_nbr() > 2.0


def block_flow(network, image, output_block):
    """One-stage :func:`staged_inference` at ``output_block`` output pixels.

    The stage's input block is the one that produces exactly
    ``output_block``, so its grid is :func:`partition_image`'s.
    """
    layers = network.layers
    stage = Stage(0, len(layers), required_input_size(output_block, layers))
    output, (grid,) = staged_inference(network, (stage,), image)
    assert grid.block_size == output_block
    assert grid.blocks == partition_image(image.height, image.width, network, output_block).blocks
    return output, grid


class TestEquivalence:
    def test_plain_network(self, tiny_plain_network):
        image = synthetic_image(40, 44, seed=1)
        reference = frame_based_inference(tiny_plain_network, image)
        output, grid = block_flow(tiny_plain_network, image, output_block=12)
        assert output.shape == reference.shape
        assert np.allclose(output.data, reference.data)
        assert grid.num_blocks == 16

    def test_ernet_with_residuals(self, tiny_ernet):
        image = synthetic_image(36, 30, seed=2)
        reference = frame_based_inference(tiny_ernet, image)
        output, _ = block_flow(tiny_ernet, image, output_block=10)
        assert np.allclose(output.data, reference.data)

    def test_sr_network_with_upsampler(self, tiny_sr_network):
        image = synthetic_image(24, 28, seed=3)
        reference = frame_based_inference(tiny_sr_network, image)
        output, grid = block_flow(tiny_sr_network, image, output_block=16)
        assert output.shape == (3, 48, 56)
        assert np.allclose(output.data, reference.data)
        assert grid.output_height == 48 and grid.output_width == 56

    def test_mixed_network(self, mixed_network):
        image = synthetic_image(30, 26, seed=4)
        reference = frame_based_inference(mixed_network, image)
        output, _ = block_flow(mixed_network, image, output_block=14)
        assert np.allclose(output.data, reference.data)

    def test_block_size_does_not_change_result(self, tiny_plain_network):
        image = synthetic_image(32, 32, seed=5)
        first, _ = block_flow(tiny_plain_network, image, output_block=8)
        second, _ = block_flow(tiny_plain_network, image, output_block=20)
        assert np.allclose(first.data, second.data)

    @settings(max_examples=10, deadline=None)
    @given(
        height=st.integers(20, 40),
        width=st.integers(20, 40),
        block=st.integers(5, 24),
        depth=st.integers(2, 4),
    )
    def test_equivalence_property(self, height, width, block, depth):
        network = build_plain_network(depth, 6, seed=depth)
        image = synthetic_image(height, width, seed=height * width)
        reference = frame_based_inference(network, image)
        output, _ = block_flow(network, image, output_block=block)
        assert np.allclose(output.data, reference.data)


# ------------------------------------------------------------ staged execution
def _plain_stack(rng):
    """A seeded stack of valid 3x3 convolutions with ReLUs between them."""
    width = int(rng.integers(3, 7))
    layers = [Conv2d(3, width, 3, seed=int(rng.integers(1e6)))]
    for _ in range(int(rng.integers(4, 7))):
        layers += [ReLU(), Conv2d(width, width, 3, seed=int(rng.integers(1e6)))]
    layers += [ReLU(), Conv2d(width, 3, 3, seed=int(rng.integers(1e6)))]
    return Network(layers, "plain")


def _down_up_stack(rng):
    """A seeded stack that downsamples twice and pixel-shuffles back up."""
    seed = lambda: int(rng.integers(1e6))  # noqa: E731
    layers = [
        Conv2d(3, 8, 3, seed=seed()), ReLU(), StridedPool2x2(),
        Conv2d(8, 8, 3, seed=seed()), ReLU(), StridedPool2x2(),
        Conv2d(8, 8, 3, seed=seed()), ReLU(),
        Conv2d(8, 32, 3, seed=seed()), PixelShuffle(2), ReLU(),
        Conv2d(8, 32, 3, seed=seed()), PixelShuffle(2), ReLU(),
        Conv2d(8, 3, 3, seed=seed()),
    ]
    return Network(layers, "down-up")


def _random_stages(rng, network, count):
    """``count`` consecutive stages at random split points and input blocks."""
    layers = network.layers
    splits = sorted(rng.choice(np.arange(1, len(layers)), size=count - 1, replace=False))
    bounds = [0, *[int(split) for split in splits], len(layers)]
    stages = []
    for start, stop in zip(bounds, bounds[1:]):
        blocks = [block for block in range(14, 61, 2) if _valid_block(block, layers[start:stop])]
        stages.append(Stage(start, stop, int(rng.choice(blocks))))
    return tuple(stages)


def _valid_block(block, layers):
    try:
        return output_size_valid(block, layers) > 0
    except ValueError:
        return False


def _frame_size(rng, network):
    """A random frame side the frame-based reference can pool (two 2x2
    pools need the padded side minus two to be a multiple of four)."""
    side = int(rng.integers(34, 62))
    if any(isinstance(layer, StridedPool2x2) for layer in network.layers):
        side += (2 - 2 * total_input_margin(network.layers) - side) % 4
    return side


STACKS = {"plain": _plain_stack, "down_up": _down_up_stack}


class TestStagedInference:
    @pytest.mark.parametrize("count", (1, 2, 3))
    @pytest.mark.parametrize("stack", sorted(STACKS))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_matches_frame_flow(self, stack, count, seed):
        rng = np.random.default_rng([stack == "plain", count, seed])
        network = STACKS[stack](rng)
        stages = _random_stages(rng, network, count)
        height, width = _frame_size(rng, network), _frame_size(rng, network)
        image = synthetic_image(height, width, seed=seed)
        output, grids = staged_inference(network, stages, image)
        reference = frame_based_inference(network, image)
        assert output.shape == reference.shape
        assert np.allclose(output.data, reference.data), (stages, height, width)
        assert len(grids) == count
        again, _ = staged_inference(network, stages, image)
        assert np.array_equal(again.data, output.data)

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_one_stage_is_block_based_inference_bit_for_bit(self, stack):
        # A one-stage plan is the paper's block-based flow: the partition at
        # the stage's output block, and on a fixed-point program the frame
        # flow's pixels bit for bit.
        rng = np.random.default_rng(11)
        network = fixed_point_network(STACKS[stack](rng))
        (stage,) = _random_stages(rng, network, 1)
        image = synthetic_image(_frame_size(rng, network), _frame_size(rng, network), seed=3)
        output, (grid,) = staged_inference(network, (stage,), image)
        output_block = output_size_valid(stage.input_block, network.layers)
        expected = partition_image(image.height, image.width, network, output_block)
        assert grid.blocks == expected.blocks and grid.num_blocks > 1
        assert np.array_equal(output.data, frame_based_inference(network, image).data)

    def test_num_blocks_sums_every_stage(self):
        rng = np.random.default_rng(5)
        network = _down_up_stack(rng)
        stages = (Stage(0, 6, 26), Stage(6, len(network.layers), 20))
        size = _frame_size(rng, network)
        result = execute_stages(network, stages, synthetic_image(size, size + 8, seed=1))
        counts = [grid.num_blocks for grid in result.grids]
        assert len(counts) == 2 and min(counts) > 1
        assert result.num_blocks == sum(counts)

    def test_stages_must_tile_the_layers(self, tiny_plain_network):
        image = synthetic_image(24, 24, seed=1)
        count = len(tiny_plain_network.layers)
        for stages in ((), (Stage(0, count - 1, 16),), (Stage(0, 1, 16), Stage(2, count, 16))):
            with pytest.raises(ValueError, match="do not tile"):
                staged_inference(tiny_plain_network, stages, image)
