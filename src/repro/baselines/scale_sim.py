"""SCALE-Sim-style systolic array (TPU-configuration) model (Section 7.2).

The paper cross-checks eCNN against a classical TPU-like systolic accelerator
simulated with SCALE-Sim: 92 peak TOPS, a 256x256 weight-stationary MAC
array, and 28 MB of on-chip SRAM for feature/weight reuse.  The model below
reproduces the two figures the comparison relies on — frames per second and
DRAM bandwidth — with a standard weight-stationary cycle model:

* a convolution layer is executed as a sequence of array passes, one per
  (128-row input-channel fold, 256-column output-channel fold); every pass
  streams the layer's output pixels through the array;
* feature maps that do not fit the unified SRAM (together with the next
  layer's working set) spill to DRAM, one write plus one read per spilled
  map — the inherent cost of frame-based, layer-by-layer execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.nn.layers import Conv2d
from repro.nn.network import Sequential, flatten_layers
from repro.nn.receptive_field import layer_geometry
from repro.specs import RealTimeSpec


@dataclass(frozen=True)
class SystolicConfig:
    """Configuration of the systolic-array accelerator."""

    name: str
    rows: int = 256
    cols: int = 256
    clock_hz: float = 700e6
    sram_bytes: int = 28 * 1024 * 1024
    feature_bytes: int = 1
    weight_bytes: int = 1

    @property
    def peak_tops(self) -> float:
        return self.rows * self.cols * 2.0 * self.clock_hz / 1e12


#: The TPU-like configuration the paper feeds to SCALE-Sim.
TPU_CONFIG = SystolicConfig(name="TPU-like")


@dataclass(frozen=True)
class SystolicReport:
    """Simulated throughput and traffic of one model on the systolic array."""

    model_name: str
    config_name: str
    spec_name: str
    cycles_per_frame: float
    dram_bytes_per_frame: float
    clock_hz: float
    peak_tops: float

    @property
    def fps(self) -> float:
        return self.clock_hz / self.cycles_per_frame

    @property
    def dram_bandwidth_gb_s(self) -> float:
        return self.dram_bytes_per_frame * self.fps / 1e9

    @property
    def throughput_efficiency(self) -> float:
        """fps per peak TOPS (the paper's efficiency metric)."""
        return self.fps / self.peak_tops

    @property
    def arithmetic_intensity(self) -> float:
        """Peak TOPS per GB/s of DRAM bandwidth (the paper's second metric)."""
        if self.dram_bandwidth_gb_s == 0:
            return float("inf")
        return self.peak_tops / self.dram_bandwidth_gb_s


def simulate_systolic(
    network: Sequential,
    spec: RealTimeSpec,
    config: SystolicConfig = TPU_CONFIG,
) -> SystolicReport:
    """Simulate frame-based execution of ``network`` on the systolic array.

    ``spec`` describes the output frame; the network's ``upscale`` attribute
    locates the input resolution the early layers run at.
    """
    upscale = getattr(network, "upscale", 1)
    input_pixels = spec.pixels_per_frame / (upscale * upscale)

    cycles = 0.0
    dram_bytes = 0.0
    scale = 1.0
    flat = list(flatten_layers(network))
    previous_map_bytes = input_pixels * 3 * config.feature_bytes
    for index, layer in enumerate(flat):
        geom = layer_geometry(layer)
        scale *= geom.scale
        if not isinstance(layer, Conv2d):
            continue
        pixels = input_pixels * scale * scale
        folds_in = -(-layer.in_channels * layer.kernel * layer.kernel // config.rows)
        folds_out = -(-layer.out_channels // config.cols)
        # One output pixel per column-group per cycle, plus the array fill
        # latency for every fold.
        cycles += pixels * folds_in * folds_out + (config.rows + config.cols) * folds_in * folds_out

        output_map_bytes = pixels * layer.out_channels * config.feature_bytes
        weight_bytes = layer.num_parameters * config.weight_bytes
        working_set = previous_map_bytes + output_map_bytes + weight_bytes
        # Wide ERModule expansions (the 3x3 output feeding an immediate 1x1
        # reduction) are fused with their consumer through output-stationary
        # tiling, so only module-level (<= 64-channel) feature maps spill.
        spillable = layer.out_channels <= 64
        if working_set > config.sram_bytes and spillable:
            # The layer's input is re-read from DRAM and its output written
            # back; weights stream once per frame.
            dram_bytes += previous_map_bytes + output_map_bytes
        dram_bytes += weight_bytes
        previous_map_bytes = output_map_bytes

    # Input and output images always cross DRAM.
    dram_bytes += input_pixels * 3 + spec.pixels_per_frame * 3
    return SystolicReport(
        model_name=getattr(network, "name", "network"),
        config_name=config.name,
        spec_name=spec.name,
        cycles_per_frame=cycles,
        dram_bytes_per_frame=dram_bytes,
        clock_hz=config.clock_hz,
        peak_tops=config.peak_tops,
    )
