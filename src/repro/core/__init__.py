"""Block-based truncated-pyramid inference flow (Section 3 of the paper).

This is the paper's primary contribution on the inference-flow side: instead
of running convolutions frame by frame (which streams every intermediate
feature map through DRAM), the input image is partitioned into blocks that
fit in on-chip block buffers.  Each block is extended with enough border
context that a stack of valid convolutions produces exactly the target output
block, the overlapped border features are *recomputed* for neighbouring
blocks (trading computation for SRAM), and the per-block outputs are stitched
back into the full-resolution image.

The subpackage provides:

* :mod:`repro.core.blockflow` — the executor: partition, per-block inference,
  stitching, the one staged runner for every plan, and the frame-based
  reference;
* :mod:`repro.core.overheads` — the NBR / NCR analytical overhead model
  (Eqs. 2-3) plus its generalisation to arbitrary layer stacks;
* :mod:`repro.core.partition` — sub-model partitioning (Fig. 12), the
  DRAM-traffic trade-off it introduces, the one derivation of a plan's
  stage list, and the cheapest admissible split of it for a frame shape;
* :mod:`repro.core.pipeline` — :func:`execute_stages`, the staged runner plus
  the NCR a plan is charged, as the session serves it.
"""

from repro.core.blockflow import (
    BlockGrid,
    BlockSpec,
    Stage,
    executed_macs,
    frame_based_inference,
    partition_image,
    stage_grids,
    staged_inference,
)
from repro.core.overheads import (
    OverheadReport,
    block_buffer_bytes,
    general_nbr,
    general_ncr,
    normalized_bandwidth_ratio,
    normalized_computation_ratio,
    overhead_report,
    pyramid_volume,
)
from repro.core.partition import (
    SubModelPlan,
    cheapest_stages,
    partition_into_submodels,
    plan_stages,
    submodel_plan,
)
from repro.core.pipeline import InferenceResult, execute_stages

__all__ = [
    "BlockGrid",
    "BlockSpec",
    "InferenceResult",
    "OverheadReport",
    "Stage",
    "SubModelPlan",
    "block_buffer_bytes",
    "cheapest_stages",
    "execute_stages",
    "executed_macs",
    "frame_based_inference",
    "general_nbr",
    "general_ncr",
    "normalized_bandwidth_ratio",
    "normalized_computation_ratio",
    "overhead_report",
    "partition_image",
    "partition_into_submodels",
    "plan_stages",
    "pyramid_volume",
    "stage_grids",
    "staged_inference",
    "submodel_plan",
]
