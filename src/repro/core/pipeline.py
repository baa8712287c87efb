"""Run a stage list and report its partitions, executed MACs and charged NCR.

:func:`execute_stages` is what ``Session.execute`` calls for every pixel
request: :func:`~repro.core.blockflow.staged_inference` on the split the
session chose (:func:`repro.core.partition.cheapest_stages`), plus the
stages that ran and their :func:`~repro.core.blockflow.executed_macs`.
The session charges the result the NCR of the plan's own stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.blockflow import BlockGrid, Stage, executed_macs, staged_inference
from repro.core.partition import submodel_plan
from repro.nn.network import Sequential
from repro.nn.tensor import FeatureMap


@dataclass
class InferenceResult:
    """Output of a block-flow run plus its partition, work and analytic NCR."""

    output: FeatureMap
    #: One block partition per executed stage.
    grids: Tuple[BlockGrid, ...]
    #: NCR the execution is charged: the single pyramid's, or the combined
    #: NCR of a sub-model split (:func:`repro.core.partition.submodel_plan`).
    #: A session charges the plan's own stages, whichever split ran.
    ncr: float
    #: The stage list that ran.
    stages: Tuple[Stage, ...]
    #: Conv MACs the run executed (:func:`repro.core.blockflow.executed_macs`).
    executed_macs: int

    @property
    def num_blocks(self) -> int:
        return sum(grid.num_blocks for grid in self.grids)


def execute_stages(
    network: Sequential, stages: Sequence[Stage], image: FeatureMap
) -> InferenceResult:
    """Run ``image`` through a stage list (see :func:`staged_inference`).

    The result is charged the NCR of ``stages`` themselves.
    """
    output, grids = staged_inference(network, stages, image)
    return InferenceResult(
        output=output,
        grids=grids,
        ncr=submodel_plan(network, stages).combined_ncr,
        stages=tuple(stages),
        executed_macs=executed_macs(network, stages, image.height, image.width),
    )
