"""End-to-end block-based inference pipeline.

This is the highest-level convenience API of the core package: it bundles a
model, a block geometry and (optionally) a quantization plan, runs the
block-based flow on an image and reports both the output and the overhead /
traffic statistics the evaluation section cares about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.blockflow import (
    BlockGrid,
    Stage,
    block_based_inference,
    frame_based_inference,
    staged_inference,
)
from repro.core.overheads import general_ncr
from repro.core.partition import submodel_plan
from repro.nn.network import Sequential
from repro.nn.receptive_field import required_input_size
from repro.nn.tensor import FeatureMap
from repro.quant.quantize import QuantizationPlan


@dataclass
class InferenceResult:
    """Output of a block-flow run plus its partition and analytic NCR."""

    output: FeatureMap
    #: One block partition per executed stage.
    grids: Tuple[BlockGrid, ...]
    #: NCR the execution is charged: the single pyramid's, or the combined
    #: NCR of a sub-model split (:func:`repro.core.partition.submodel_plan`).
    ncr: float

    @property
    def num_blocks(self) -> int:
        return sum(grid.num_blocks for grid in self.grids)


def execute_stages(
    network: Sequential, stages: Sequence[Stage], image: FeatureMap
) -> InferenceResult:
    """Run ``image`` through a plan's stage list (see :func:`staged_inference`)."""
    output, grids = staged_inference(network, stages, image)
    return InferenceResult(
        output=output, grids=grids, ncr=submodel_plan(network, stages).combined_ncr
    )


class BlockInferencePipeline:
    """Run a model with the block-based truncated-pyramid flow.

    Parameters
    ----------
    network:
        The model to execute.
    output_block:
        Output-resolution block size.  If omitted it is derived from
        ``input_block`` via the network geometry.
    input_block:
        Input-resolution block size (the paper parameterises models by
        ``x_i``, e.g. 128); exactly one of ``output_block`` / ``input_block``
        must be given.
    quantization:
        Optional quantization plan; when given, the plan is applied to the
        network weights before execution (in-place), modelling the fixed-point
        deployment path.
    """

    def __init__(
        self,
        network: Sequential,
        *,
        output_block: Optional[int] = None,
        input_block: Optional[int] = None,
        quantization: Optional[QuantizationPlan] = None,
    ) -> None:
        if (output_block is None) == (input_block is None):
            raise ValueError("specify exactly one of output_block or input_block")
        self.network = network
        if output_block is None:
            assert input_block is not None
            from repro.nn.receptive_field import output_size_valid

            output_block = output_size_valid(input_block, network.layers)
        self.output_block = int(output_block)
        self.input_block = int(
            input_block
            if input_block is not None
            else required_input_size(self.output_block, network.layers)
        )
        if quantization is not None:
            from repro.quant.quantize import apply_plan

            apply_plan(network, quantization)
        self.quantization = quantization

    def run(self, image: FeatureMap) -> InferenceResult:
        """Execute the block-based flow on ``image``."""
        output, grid = block_based_inference(self.network, image, self.output_block)
        ncr = general_ncr(self.network.layers, self.input_block)
        return InferenceResult(output=output, grids=(grid,), ncr=ncr)

    def run_frame_based(self, image: FeatureMap) -> FeatureMap:
        """Reference frame-based execution (for equivalence checks)."""
        return frame_based_inference(self.network, image)

    def describe(self) -> str:
        name = getattr(self.network, "name", "network")
        return (
            f"BlockInferencePipeline({name}, xi={self.input_block}, "
            f"xo={self.output_block})"
        )
