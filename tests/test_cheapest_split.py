"""The executed-MAC count and the cheapest admissible split a session runs.

``executed_macs`` counts, from shapes alone, the convolution MACs
``staged_inference`` executes on a finite frame; ``cheapest_stages`` uses it
to pick the split of a plan's stages the hardware could run with the fewest
MACs.  The served program is exact, so every split gives the same pixels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.core import cheapest_stages, executed_macs, stage_grids
from repro.core.blockflow import Stage, frame_based_inference, staged_inference
from repro.core.partition import submodel_plan
from repro.nn.layers import FixedConv2d
from repro.nn.receptive_field import output_size_valid
from repro.runtime import ResultCache

SIZES = [(45, 37), (52, 68), (130, 97), (192, 192)]


@pytest.fixture(scope="module")
def session():
    return Session(backend="ecnn", cache=ResultCache())


def _traced_macs(monkeypatch, network, stages, height, width) -> int:
    """Conv MACs of ``staged_inference`` counted at every ``FixedConv2d.forward``.

    The count is taken from the shapes each call receives and returns; the
    wrapper skips the arithmetic itself (zeros of the output shape), since
    MACs depend on shapes only and the pixels are checked elsewhere.
    """
    counted = []

    def forward(layer, fm, skip=None):
        shape = layer.output_shape(*fm.data.shape)
        counted.append(layer.in_channels * layer.kernel * layer.kernel * int(np.prod(shape)))
        return fm.with_data(np.zeros(shape))

    with monkeypatch.context() as patch:
        patch.setattr(FixedConv2d, "forward", forward)
        staged_inference(network, stages, synthetic_image(height, width, seed=3))
    return sum(counted)


class TestExecutedMacs:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("workload", ["denoise", "super_resolution", "style_transfer"])
    def test_model_equals_traced_conv_macs(self, session, monkeypatch, workload, size):
        plan = session.compile(workload)
        chosen = cheapest_stages(plan.network, plan.stages, *size)
        for stages in {plan.stages, chosen}:
            model = executed_macs(plan.network, stages, *size)
            assert isinstance(model, int)
            assert model == _traced_macs(monkeypatch, plan.network, stages, *size)

    def test_one_stage_plans_run_as_planned(self, session):
        for workload in ("denoise", "super_resolution"):
            plan = session.compile(workload)
            for size in SIZES:
                assert cheapest_stages(plan.network, plan.stages, *size) == plan.stages


class TestCheapestSplit:
    def test_every_valid_split_gives_the_frame_based_pixels(self, session):
        plan = session.compile("style_transfer")
        layers = plan.network.layers
        image = synthetic_image(40, 52, seed=9)
        reference = frame_based_inference(plan.network, image).data
        splits = 0
        for boundary in range(1, len(layers)):
            stages = (Stage(0, boundary, 128), Stage(boundary, len(layers), 128))
            try:
                for stage in stages:
                    output_size_valid(stage.input_block, layers[stage.start : stage.stop])
            except ValueError:
                continue
            output, _ = staged_inference(plan.network, stages, image)
            assert np.array_equal(output.data, reference), boundary
            splits += 1
        assert splits >= 2

    def test_session_runs_a_cheaper_admissible_split(self, session):
        plan = session.compile("style_transfer")
        image = synthetic_image(48, 48, seed=4)
        result = session.execute("style_transfer", image, cached=False)
        assert result.stages != plan.stages and len(result.stages) == len(plan.stages)
        assert result.executed_macs == executed_macs(plan.network, result.stages, 48, 48)
        assert result.executed_macs < executed_macs(plan.network, plan.stages, 48, 48)
        assert np.array_equal(result.output.data, frame_based_inference(plan.network, image).data)
        # Admissible: every window fits the plan's block, and the boundary
        # moves no more intermediate bytes through DRAM than the plan's.
        for stage, grid in zip(result.stages, stage_grids(plan.network, result.stages, 48, 48)):
            assert all(max(b.in_height, b.in_width) <= stage.input_block for b in grid.blocks)
        assert (
            submodel_plan(plan.network, result.stages).extra_dram_bytes_per_pixel
            <= submodel_plan(plan.network, plan.stages).extra_dram_bytes_per_pixel
        )
        # The charged NCR is the plan's, as the profile charges it.
        assert result.ncr == submodel_plan(plan.network, plan.stages).combined_ncr

    def test_chosen_windows_fit_the_block_at_every_size(self, session):
        plan = session.compile("style_transfer")
        for size in SIZES:
            chosen = cheapest_stages(plan.network, plan.stages, *size)
            for stage, grid in zip(chosen, stage_grids(plan.network, chosen, *size)):
                assert all(max(b.in_height, b.in_width) <= 128 for b in grid.blocks)

    def test_a_tie_keeps_the_plan(self, tiny_plain_network):
        # A plain conv stack does the same work under every boundary of a
        # one-block frame, so the plan's own split stands.
        count = len(tiny_plain_network.layers)
        stages = (Stage(0, count - 1, 16), Stage(count - 1, count, 16))
        assert cheapest_stages(tiny_plain_network, stages, 8, 8) == stages

    def test_the_choice_is_made_once_per_frame_shape(self, monkeypatch):
        import repro.api.session as session_module

        calls = []
        choose = session_module.cheapest_stages

        def counted(network, stages, height, width):
            calls.append((height, width))
            return choose(network, stages, height, width)

        monkeypatch.setattr(session_module, "cheapest_stages", counted)
        session = Session(backend="ecnn", cache=ResultCache())
        for seed in range(2):
            session.execute("style_transfer", synthetic_image(40, 40, seed=seed))
        session.execute_many("style_transfer", [synthetic_image(40, 40, seed=7)], cached=False)
        session.execute("style_transfer", synthetic_image(40, 44, seed=0))
        assert calls == [(40, 40), (40, 44)]
