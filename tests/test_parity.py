"""Randomized differential parity: every execution tier, bit-identical.

The repository's optimization discipline is that a faster path is only
accepted with bit-identical A/B verification against the path it replaced.
This harness generalizes those hand-picked A/B checks into a seeded
randomized sweep: each seed draws shapes, channel counts, network
geometries and Q-formats, then drives the same pixels through every tier —
the block flow against ``frame_based_inference`` (the paper's invariant:
bit-exact for the served fixed-point programs, whose sums are exact in any
order; to float tolerance for float networks, whose summation order
differs by construction), random networks' fixed-point programs, the
session / sharded-cluster serving stack and the video delta path —
asserting exact equality between serving tiers with the shared
:func:`conftest.assert_parity` helper.

Randomization is *seeded*: a failure reproduces from its seed, and the
drawn configurations are stable across runs.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.api.session import frame_digest
from repro.api.backends import VISION_UTILIZATION
from repro.core.blockflow import Stage, frame_based_inference, partition_image, staged_inference
from repro.core.partition import partition_into_submodels
from repro.models.baselines import build_plain_network
from repro.models.ernet import build_dnernet, build_sr2ernet
from repro.nn.layers import FixedConv2d
from repro.nn.network import iter_conv_layers
from repro.nn.ops import MaxPool2x2, PixelShuffle, PixelUnshuffle
from repro.nn.receptive_field import output_size_valid, required_input_size
from repro.nn.tensor import FeatureMap
from repro.quant.fixed import fixed_point_formats, fixed_point_network
from repro.runtime import ResultCache, ServingCluster

SEEDS = (0, 1, 2, 3, 4)

#: Block-flow workloads of the serving catalogue (recognition serves single
#: zero-padded blocks, not pixels), with the (low, high) frame-size range to
#: draw from — style transfer's two downsamplers need a larger minimum.
PIXEL_WORKLOADS = {
    "denoise": (24, 49),
    "super_resolution": (24, 49),
    "style_transfer": (52, 73),
}

#: The workloads whose plans are single-stage and therefore stream; style
#: transfer's two-sub-model plan is refused by the video tier.
STREAM_WORKLOADS = ("denoise", "super_resolution")


# ------------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def shared_session() -> Session:
    """One long-lived session, its plans warm across every seed."""
    return Session(backend="ecnn", cache=ResultCache())


@pytest.fixture(scope="module")
def cluster():
    with ServingCluster(workers=3, backend="ecnn", mode="inline") as built:
        yield built


# ----------------------------------------------------------------- the helper
class TestAssertParityHelper:
    def test_detects_divergence(self, assert_parity):
        reference = np.arange(12.0).reshape(3, 2, 2)
        perturbed = reference.copy()
        perturbed[1, 0, 1] += 1e-12
        with pytest.raises(AssertionError, match="bit-identical"):
            assert_parity({"reference": reference, "broken": perturbed})

    def test_detects_shape_mismatch(self, assert_parity):
        with pytest.raises(AssertionError, match="shape"):
            assert_parity({"a": np.zeros((2, 2)), "b": np.zeros((2, 3))})

    def test_needs_two_outputs(self, assert_parity):
        with pytest.raises(ValueError):
            assert_parity({"only": np.zeros(3)})

    def test_unwraps_feature_maps_and_results(self, shared_session, assert_parity):
        image = synthetic_image(24, 24, seed=0)
        result = shared_session.execute("denoise", image, cached=False)
        assert_parity(
            {
                "raw": result.output.data,
                "feature_map": result.output,
                "inference_result": result,
            }
        )

    def test_fixture_is_the_conftest_export(self, assert_parity):
        # The fixture hands out the module-level helper defined in
        # tests/conftest.py (loaded by path: "conftest" is an ambiguous
        # module name when the benchmarks suite is collected too).
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "tests_conftest_for_parity", Path(__file__).parent / "conftest.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert assert_parity.__code__.co_filename == module.assert_parity.__code__.co_filename
        assert assert_parity.__name__ == "assert_parity"


# ------------------------------------------------------------- random drawing
# The random stack generator lives in tests/conftest.py (draw_layer_stack)
# so the static-analysis fuzz harness can reuse it; tests take it as a
# fixture rather than importing conftest (an ambiguous module name when
# the benchmarks suite is collected too).
@pytest.mark.parametrize("seed", SEEDS)
class TestRandomizedKernels:
    def test_random_shuffle_pool_kernels(self, seed, assert_parity):
        # Each rearrangement/pooling kernel against an index-by-index
        # reference built from strided slices.
        rng = np.random.default_rng(1000 + seed)
        factor = int(rng.choice([2, 3]))
        height = factor * int(rng.integers(3, 7))
        width = factor * int(rng.integers(3, 7))
        even_height = 2 * int(rng.integers(3, 9))
        even_width = 2 * int(rng.integers(3, 9))
        r = factor
        packed = rng.normal(size=(r * r * int(rng.integers(1, 4)), height, width))
        shuffled = np.empty((packed.shape[0] // (r * r), height * r, width * r))
        for i in range(r):
            for j in range(r):
                shuffled[:, i::r, j::r] = packed[i * r + j :: r * r]
        spatial = rng.normal(size=(int(rng.integers(1, 5)), height, width))
        unshuffled = np.empty((spatial.shape[0] * r * r, height // r, width // r))
        for i in range(r):
            for j in range(r):
                unshuffled[i * r + j :: r * r] = spatial[:, i::r, j::r]
        pooled_in = rng.normal(size=(int(rng.integers(1, 6)), even_height, even_width))
        pooled = np.maximum.reduce(
            [pooled_in[:, dy::2, dx::2] for dy in (0, 1) for dx in (0, 1)]
        )
        for layer, data, expected in (
            (PixelShuffle(factor), packed, shuffled),
            (PixelUnshuffle(factor), spatial, unshuffled),
            (MaxPool2x2(), pooled_in, pooled),
        ):
            assert_parity(
                {"reference": expected, "kernel": layer.forward(FeatureMap(data=data))},
                context=f"seed={seed} {type(layer).__name__}",
            )


#: Frame sizes per catalogue workload: one block-aligned size and one
#: non-divisible size that leaves edge-remainder blocks.
CATALOGUE_SIZES = {
    "denoise": ((40, 40), (35, 27)),
    "super_resolution": ((40, 40), (35, 27)),
    "style_transfer": ((64, 64), (68, 52)),
}

#: The two functionally-executing backend families.
PIXEL_BACKENDS = ("ecnn", "frame_based")


def _block_flow(network, image, output_block):
    """One-stage :func:`staged_inference` producing ``output_block`` pixels per block."""
    layers = network.layers
    stage = Stage(0, len(layers), required_input_size(output_block, layers))
    output, (grid,) = staged_inference(network, (stage,), image)
    assert grid.block_size == output_block
    return output, grid


def _random_plain_case(seed):
    """A seeded plain network, frame size and output block."""
    rng = np.random.default_rng(2000 + seed)
    depth = int(rng.integers(2, 5))
    width = int(rng.integers(4, 11))
    network = build_plain_network(depth, width, seed=seed)
    height = int(rng.integers(24, 44))
    image_width = int(rng.integers(24, 44))
    output_block = int(rng.integers(8, 15))
    image = synthetic_image(height, image_width, seed=seed)
    output, grid = _block_flow(network, image, output_block)
    assert grid.num_blocks > 1
    return network, image, output


def _served_case(workload, backend, size):
    """One catalogue frame served fresh through a session."""
    session = Session(backend=backend, cache=ResultCache())
    image = synthetic_image(*size, seed=23)
    output = session.execute(workload, image, cached=False).output
    return session.compile(workload).network, image, output


def _tiny_network_case(build, size):
    """A tiny network (upsampler or residual body) at output block 10."""
    network = build()
    image = synthetic_image(*size, seed=13)
    output, _ = _block_flow(network, image, 10)
    return network, image, output


BLOCK_FLOW_CASES = (
    [pytest.param(partial(_random_plain_case, seed), id=f"random-{seed}") for seed in SEEDS]
    + [
        pytest.param(
            partial(_served_case, workload, backend, size),
            id=f"{workload}-{backend}-{size[0]}x{size[1]}",
        )
        for workload, sizes in CATALOGUE_SIZES.items()
        for backend in PIXEL_BACKENDS
        for size in sizes
    ]
    + [
        pytest.param(
            partial(_tiny_network_case, partial(build_sr2ernet, 2, 1, 0, seed=9), (26, 22)),
            id="tiny_sr",
        ),
        pytest.param(
            partial(_tiny_network_case, partial(build_dnernet, 2, 2, 0, seed=5), (33, 27)),
            id="tiny_ernet",
        ),
    ]
)


class TestRandomizedBlockFlow:
    @pytest.mark.parametrize("case", BLOCK_FLOW_CASES)
    def test_block_flow_matches_frame_flow(self, case):
        network, image, output = case()
        reference = frame_based_inference(network, image)
        assert output.shape == reference.shape
        if any(isinstance(conv, FixedConv2d) for conv in iter_conv_layers(network)):
            assert np.array_equal(output.data, reference.data)
        else:
            assert np.allclose(output.data, reference.data)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_qformat_quantized_parity(self, seed):
        # A random plain network's fixed-point program (Q-formats chosen by
        # its own calibration): block flow equals frame flow bit for bit.
        rng = np.random.default_rng(3000 + seed)
        network = fixed_point_network(
            build_plain_network(int(rng.integers(2, 4)), int(rng.integers(4, 9)), seed=seed)
        )
        formats = fixed_point_formats(network)
        assert formats and all(isinstance(conv, FixedConv2d) for conv in iter_conv_layers(network))
        image = synthetic_image(int(rng.integers(24, 40)), int(rng.integers(24, 40)), seed=seed)
        output, grid = _block_flow(network, image, int(rng.integers(8, 13)))
        reference = frame_based_inference(network, image)
        assert grid.num_blocks > 1
        assert output.shape == reference.shape, f"seed={seed} {formats}"
        assert np.array_equal(output.data, reference.data), f"seed={seed} {formats}"


@pytest.mark.parametrize("seed", SEEDS)
class TestPostChaosParity:
    """After every injected worker death, survivors stay bit-identical.

    The soak harness's chaos discipline, pinned as a seeded sweep: draw a
    pixel workload, serve it through a fresh inline cluster, kill the
    owning shard (twice — down to the last survivor), and hold every
    surviving shard's ``execute_frame`` output to ``assert_parity``
    against the single-process reference.
    """

    def test_survivors_bit_identical_after_each_worker_death(self, seed, assert_parity):
        rng = np.random.default_rng(5000 + seed)
        workload = str(rng.choice(sorted(PIXEL_WORKLOADS)))
        low, high = PIXEL_WORKLOADS[workload]
        # Snap to multiples of 4: style transfer's two downsamplers only
        # accept frame sizes congruent to 0 or 1 mod 4.
        height = int(rng.integers(low, high)) // 4 * 4
        width = int(rng.integers(low, high)) // 4 * 4
        image = synthetic_image(height, width, seed=seed)
        session = Session(backend="ecnn", cache=ResultCache())
        reference = session.execute(workload, image, cached=False)
        with ServingCluster(workers=3, backend="ecnn", mode="inline") as chaos_cluster:
            outputs = {"reference": reference}
            outputs["before_chaos"] = chaos_cluster.execute_frame(
                workload, image, cached=False
            )
            for death in (1, 2):
                owner = chaos_cluster._route(frame_digest(image)).index
                chaos_cluster.kill_worker(owner)
                outputs[f"after_death_{death}"] = chaos_cluster.execute_frame(
                    workload, image, cached=False
                )
            assert len(chaos_cluster.live_shard_indices()) == 1
            assert_parity(
                outputs, context=f"seed={seed} workload={workload} post-chaos"
            )


#: Synthetic video motion models the delta-reuse tier must stay exact under.
VIDEO_KINDS = ("static", "noise", "pan", "cut")


def _video_sequence(kind, *, height, width, frames, seed):
    """A seeded synthetic frame sequence (replayable from its seed).

    ``static`` repeats one frame; ``noise`` perturbs a small random patch
    per frame (localized change); ``pan`` translates by two columns per
    frame (np.roll — global but structured change); ``cut`` draws an
    unrelated frame each step (full invalidation).
    """
    rng = np.random.default_rng(seed)
    sequence = [synthetic_image(height, width, seed=seed)]
    for step in range(1, frames):
        previous = sequence[-1]
        if kind == "static":
            sequence.append(previous)
        elif kind == "noise":
            data = previous.data.copy()
            patch = 8
            row = int(rng.integers(0, height - patch))
            col = int(rng.integers(0, width - patch))
            data[:, row : row + patch, col : col + patch] += rng.normal(
                scale=0.05, size=(previous.channels, patch, patch)
            )
            sequence.append(FeatureMap(data=data))
        elif kind == "pan":
            sequence.append(FeatureMap(data=np.roll(previous.data, 2, axis=2)))
        elif kind == "cut":
            sequence.append(synthetic_image(height, width, seed=seed + 1000 * step))
        else:
            raise ValueError(f"unknown sequence kind {kind!r}")
    return sequence


@pytest.mark.parametrize("seed", SEEDS)
class TestRandomizedVideoStreams:
    """Delta-reuse serving is bit-identical to full re-inference.

    For every seed, streaming workload and motion model, each frame served
    through the video-stream tier (session and sharded cluster, at the
    default block geometry) must equal full re-inference of
    that same frame — reuse is an optimization, never an approximation.
    """

    @pytest.mark.parametrize("kind", VIDEO_KINDS)
    def test_stream_delta_bit_identical_across_tiers(
        self, seed, kind, cluster, assert_parity
    ):
        rng = np.random.default_rng(6000 + seed)
        workload = str(rng.choice(STREAM_WORKLOADS))
        low, high = PIXEL_WORKLOADS[workload]
        height = int(rng.integers(low, high)) // 4 * 4
        width = int(rng.integers(low, high)) // 4 * 4
        frames = _video_sequence(
            kind, height=height, width=width, frames=3, seed=seed
        )
        session = Session(backend="ecnn", cache=ResultCache())
        stream_id = f"vid-{seed}-{kind}"
        for index, frame in enumerate(frames):
            served = session.execute_stream(stream_id, workload, frame)
            assert_parity(
                {
                    "session": session.execute(workload, frame, cached=False),
                    "stream_delta": served.output,
                    "cluster_stream": cluster.execute_stream(
                        stream_id, workload, frame
                    ).output,
                },
                context=f"seed={seed} kind={kind} workload={workload} frame={index}",
            )
        stats = next(
            s for s in session.video_stream_stats if s.stream_id == stream_id
        )
        assert stats.frames == len(frames)
        if kind == "static":
            # Every frame after the first reuses every block.
            first = stats.blocks_total // len(frames)
            assert stats.blocks_reused == stats.blocks_total - first


@pytest.mark.parametrize("seed", SEEDS)
class TestRandomizedServingStack:
    def test_session_engine_cluster_bit_identical(self, seed, shared_session, cluster, assert_parity):
        rng = np.random.default_rng(4000 + seed)
        workload = str(rng.choice(sorted(PIXEL_WORKLOADS)))
        low, high = PIXEL_WORKLOADS[workload]
        height = int(rng.integers(low, high))
        width = int(rng.integers(low, high))
        image = synthetic_image(height, width, seed=seed)
        session = Session(backend="ecnn", cache=ResultCache())
        assert_parity(
            {
                "session": session.execute(workload, image, cached=False),
                "shared_session": shared_session.execute(workload, image, cached=False),
                "cluster": cluster.execute_frame(workload, image, cached=False),
                "cluster_batch": cluster.execute_frames(
                    workload, [image], cached=False
                )[0],
            },
            context=f"seed={seed} workload={workload} {height}x{width}",
        )


class TestStagedServing:
    """The session executes each plan's stage list."""

    @pytest.mark.parametrize("workload, size", [
        ("denoise", (45, 37)), ("denoise", (300, 260)), ("super_resolution", (40, 33)),
    ])
    def test_single_stage_pixels_are_block_based_inference(self, workload, size):
        # A one-stage plan is the paper's block-based flow: the partition at
        # the plan's block, and the frame flow's pixels bit for bit.
        session = Session(backend="ecnn", cache=ResultCache())
        plan = session.compile(workload)
        image = synthetic_image(*size, seed=17)
        result = session.execute(workload, image, cached=False)
        output_block = output_size_valid(plan.input_block, plan.network.layers)
        grid = partition_image(image.height, image.width, plan.network, output_block)
        assert len(plan.stages) == 1
        assert np.array_equal(result.output.data, frame_based_inference(plan.network, image).data)
        assert result.grids[0].blocks == grid.blocks
        assert result.num_blocks == grid.num_blocks

    def test_style_transfer_runs_the_split_on_every_backend(self):
        image = synthetic_image(52, 68, seed=21)
        outputs = {}
        for backend in PIXEL_BACKENDS:
            session = Session(backend=backend, cache=ResultCache())
            plan = session.compile("style_transfer")
            assert plan.stages == (Stage(0, 11, 128), Stage(11, 20, 128))
            first = session.execute("style_transfer", image, cached=False)
            again = session.execute("style_transfer", image, cached=False)
            assert np.array_equal(first.output.data, again.output.data), backend
            assert len(first.grids) == 2
            outputs[backend] = first.output.data
        assert np.array_equal(outputs["ecnn"], outputs["frame_based"])
        reference = frame_based_inference(plan.network, image)
        assert np.array_equal(outputs["ecnn"], reference.data)

    def test_style_transfer_ncr_is_what_the_profile_charges(self):
        session = Session(backend="ecnn", cache=ResultCache())
        plan = session.compile("style_transfer")
        result = session.execute("style_transfer", synthetic_image(48, 48, seed=2))
        split = partition_into_submodels(plan.network, 2, 128)
        assert result.ncr == split.combined_ncr
        # The profile's rate is the compute budget over intrinsic ops times NCR.
        profile = session.profile("style_transfer")
        charged = profile.peak_tops * VISION_UTILIZATION / profile.achieved_tops
        assert charged == pytest.approx(result.ncr, rel=1e-12)

    def test_frame_cache_key_names_the_stages(self, monkeypatch):
        session = Session(backend="ecnn", cache=ResultCache())
        image = synthetic_image(40, 40, seed=8)
        single = session.execute("denoise", image)
        plan = session.compile("denoise")
        split = (
            Stage(0, 1, plan.input_block),
            Stage(1, len(plan.network.layers), plan.input_block),
        )
        monkeypatch.setattr(session, "compile", lambda name: replace(plan, stages=split))
        staged = session.execute("denoise", image)
        assert len(single.grids) == 1 and len(staged.grids) == 2
        assert session.frame_cache_stats.misses == 2
        assert session.execute("denoise", image) is staged
