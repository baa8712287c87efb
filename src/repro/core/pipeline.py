"""Run a plan's stage list and report its partitions and charged NCR.

:func:`execute_stages` is what ``Session.execute`` calls for every pixel
request: :func:`~repro.core.blockflow.staged_inference` plus the analytic
NCR the plan is charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.blockflow import BlockGrid, Stage, staged_inference
from repro.core.partition import submodel_plan
from repro.nn.network import Sequential
from repro.nn.tensor import FeatureMap


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
