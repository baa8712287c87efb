"""Sub-model partitioning (Fig. 12 of the paper).

A deep model can be split into a few shallower sub-models to reduce the
truncated-pyramid recomputation overhead (the NCR grows roughly quadratically
with depth).  The price is that the intermediate feature maps between
sub-models must round-trip through DRAM, so the split trades computation
overhead against DRAM bandwidth.  The style-transfer example in Section 7.3
uses exactly this trick (two sub-models).

:func:`plan_stages` is the one place a plan's stage list is derived: every
backend's :class:`~repro.api.results.CompiledPlan` carries its result and
the eCNN profile charges it (:func:`submodel_plan`).  The session executes
:func:`cheapest_stages` of it for each frame shape: the split with the
plan's stage count and blocks, no wider windows and no more DRAM traffic,
that executes the fewest MACs (:func:`repro.core.blockflow.executed_macs`)
through :func:`repro.core.blockflow.staged_inference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.core.blockflow import Stage, executed_macs, stage_grids
from repro.core.overheads import general_ncr, intrinsic_macs_per_output_pixel
from repro.nn.layers import Conv2d, Layer
from repro.nn.network import Sequential
from repro.nn.receptive_field import layer_geometry, output_size_valid
from repro.specs import RealTimeSpec

if TYPE_CHECKING:
    from repro.hw.config import EcnnConfig


@dataclass(frozen=True)
class SubModelPlan:
    """A split of a network into consecutive sub-models.

    Attributes
    ----------
    boundaries:
        Layer indices where each sub-model starts (the first entry is 0).
    ncr_per_submodel:
        The NCR each sub-model pays for the chosen block size.
    extra_dram_bytes_per_pixel:
        DRAM traffic added by storing/reloading intermediate feature maps at
        sub-model boundaries, in bytes per final output pixel.
    """

    model_name: str
    input_block: int
    boundaries: tuple[int, ...]
    ncr_per_submodel: tuple[float, ...]
    combined_ncr: float
    extra_dram_bytes_per_pixel: float

    @property
    def num_submodels(self) -> int:
        return len(self.boundaries)


def _intermediate_channels(layers: Sequence[Layer], boundary: int) -> int:
    """Channel count of the feature map crossing a sub-model boundary."""
    channels = 3
    for layer in layers[:boundary]:
        if isinstance(layer, Conv2d):
            channels = layer.out_channels
    return channels


def partition_into_submodels(
    network: Sequential,
    num_submodels: int,
    input_block: int,
    *,
    feature_bits: int = 8,
) -> SubModelPlan:
    """Split ``network`` into ``num_submodels`` balanced consecutive pieces.

    The split points are chosen to balance the per-sub-model margin (depth),
    which is what controls the recomputation overhead.  The returned plan
    reports the per-piece and combined NCR and the extra DRAM traffic.
    """
    if num_submodels < 1:
        raise ValueError("num_submodels must be >= 1")
    layers = list(network.layers)
    if num_submodels > len(layers):
        raise ValueError("cannot split into more sub-models than layers")
    stages = _balanced_stages(layers, num_submodels, input_block)
    return submodel_plan(network, stages, feature_bits=feature_bits)


def _balanced_stages(
    layers: Sequence[Layer], num_submodels: int, input_block: int
) -> Tuple[Stage, ...]:
    """Balanced consecutive sub-models of ``layers``, all at ``input_block``."""
    margins = [layer_geometry(layer).margin for layer in layers]
    total_margin = sum(margins)
    target = total_margin / num_submodels

    boundaries: List[int] = [0]
    running = 0.0
    for index, margin in enumerate(margins):
        if len(boundaries) >= num_submodels:
            break
        running += margin
        if running >= target * len(boundaries) and index + 1 < len(layers):
            boundaries.append(index + 1)
    while len(boundaries) < num_submodels:
        boundaries.append(min(boundaries[-1] + 1, len(layers) - 1))
    stops = boundaries[1:] + [len(layers)]
    return tuple(Stage(start, stop, input_block) for start, stop in zip(boundaries, stops))


def _boundary_dram_bytes(
    layers: Sequence[Layer], boundaries: Sequence[int], feature_bits: int = 8
) -> float:
    """DRAM bytes per final output pixel that sub-model ``boundaries`` add.

    Intermediate feature maps are written then read once each (factor 2),
    expressed per final output pixel at the boundary's spatial resolution.
    """
    extra_bytes = 0.0
    scale_to_output = 1.0
    for layer in layers:
        scale_to_output *= layer_geometry(layer).scale
    for boundary in boundaries[1:]:
        channels = _intermediate_channels(layers, boundary)
        scale_here = 1.0
        for layer in layers[:boundary]:
            scale_here *= layer_geometry(layer).scale
        pixels_per_output_pixel = (scale_here / scale_to_output) ** 2
        extra_bytes += 2.0 * channels * pixels_per_output_pixel * feature_bits / 8.0
    return extra_bytes


def submodel_plan(
    network: Sequential, stages: Sequence[Stage], *, feature_bits: int = 8
) -> SubModelPlan:
    """The overheads of executing ``network`` as ``stages`` (Fig. 12).

    Each stage pays the NCR of its own truncated pyramid at its input block;
    the combined NCR weights them by intrinsic MACs, and every boundary
    between stages adds an intermediate feature-map round trip to DRAM.
    """
    layers = list(network.layers)
    pieces = [layers[stage.start : stage.stop] for stage in stages]
    ncrs = []
    weights = []
    for stage, piece in zip(stages, pieces):
        has_conv = any(isinstance(layer, Conv2d) for layer in piece)
        if not has_conv:
            ncrs.append(1.0)
            weights.append(0.0)
            continue
        ncrs.append(general_ncr(piece, stage.input_block))
        weights.append(intrinsic_macs_per_output_pixel(piece))

    total_weight = sum(weights)
    if total_weight > 0:
        combined = sum(n * w for n, w in zip(ncrs, weights)) / total_weight
    else:
        combined = 1.0

    boundaries = tuple(stage.start for stage in stages)
    extra_bytes = _boundary_dram_bytes(layers, boundaries, feature_bits)
    return SubModelPlan(
        model_name=getattr(network, "name", "network"),
        input_block=stages[0].input_block,
        boundaries=boundaries,
        ncr_per_submodel=tuple(round(n, 4) for n in ncrs),
        combined_ncr=combined,
        extra_dram_bytes_per_pixel=extra_bytes,
    )


def plan_stages(
    network: Sequential, spec: RealTimeSpec, config: "EcnnConfig"
) -> Tuple[Stage, ...]:
    """The stage list every backend's plan for ``network`` at ``spec`` executes.

    A network whose metadata says ``submodels: n`` runs as the ``n``
    balanced sub-models of :func:`partition_into_submodels`; every other
    network runs as one stage.  Stages run at the block the eCNN block
    buffers are sized for — except the recognition trunk, which never
    shrinks and is served one zero-padded ``spec.width`` image per block
    (Section 7.3).
    """
    from repro.hw.performance import recommended_input_block  # hw imports core

    layers = list(network.layers)
    metadata = getattr(network, "metadata", {}) or {}
    if metadata.get("case_study") == "recognition":
        return (Stage(0, len(layers), spec.width),)
    block = recommended_input_block(network, config)
    return _balanced_stages(layers, int(metadata.get("submodels", 1)), block)


def cheapest_stages(
    network: Sequential, stages: Sequence[Stage], height: int, width: int
) -> Tuple[Stage, ...]:
    """The admissible split of a plan's ``stages`` that executes the fewest MACs.

    The plan's split is balanced for an infinite frame; on a finite
    ``height`` x ``width`` frame, with its edge blocks and partial last
    blocks, another split can execute less.  The served program is exact,
    so every split that tiles the layers gives the same pixels
    (:func:`~repro.core.blockflow.staged_inference`); only the work
    differs.  Candidates keep the plan's stage count and each stage's
    ``input_block`` and move the boundaries.  A candidate is admissible
    when the hardware could run it as it runs the plan:

    * every stage's block passes
      :func:`~repro.nn.receptive_field.output_size_valid`;
    * no block window exceeds its stage's ``input_block`` on either side,
      so the plan's block buffers hold it;
    * its boundaries add no more DRAM traffic per output pixel than the
      plan's (:func:`submodel_plan`).

    The plan's own stages are always admissible.  The candidate with the
    fewest :func:`~repro.core.blockflow.executed_macs` wins; a tie keeps
    the plan's stages, and otherwise the earliest boundaries.  A one-stage
    plan is returned as it is.
    """
    stages = tuple(stages)
    if len(stages) == 1:
        return stages
    layers = list(network.layers)
    dram = _boundary_dram_bytes(layers, [stage.start for stage in stages])
    best, fewest = stages, executed_macs(network, stages, height, width)
    for starts in combinations(range(1, len(layers)), len(stages) - 1):
        bounds = (0,) + starts + (len(layers),)
        candidate = tuple(
            Stage(start, stop, stage.input_block)
            for start, stop, stage in zip(bounds, bounds[1:], stages)
        )
        if candidate == stages or _boundary_dram_bytes(layers, bounds[:-1]) > dram:
            continue
        try:
            for stage in candidate:
                output_size_valid(stage.input_block, layers[stage.start : stage.stop])
        except ValueError:
            continue
        grids = stage_grids(network, candidate, height, width)
        if any(
            max(block.in_height, block.in_width) > stage.input_block
            for stage, grid in zip(candidate, grids)
            for block in grid.blocks
        ):
            continue
        macs = executed_macs(network, candidate, height, width)
        if macs < fewest:
            best, fewest = candidate, macs
    return best
