"""The registered accelerator backends.

One class per comparison system of the paper's evaluation:

* ``ecnn`` — this repository's calibrated eCNN model (the reference; its
  :class:`~repro.api.results.PerfProfile` / :class:`~repro.api.results.CostReport`
  reproduce the legacy ``PerformanceReport`` / ``AreaReport`` bit-for-bit);
* ``frame_based`` — the same compute budget executed with the conventional
  frame-based, layer-by-layer flow (Section 2): every intermediate feature
  map crosses DRAM, so frames become bandwidth-bound;
* ``eyeriss`` — a row-stationary accelerator at its published VGG-16
  operating point (Chen et al., JSSC 2017), scaled by workload compute;
* ``diffy`` — the difference-sparsity accelerator at its published VDSR
  operating point (Mahmoud et al., MICRO 2018);
* ``ideal`` — the fixed-function BM3D engine (Mahmoud et al., MICRO 2017),
  pixel-rate-bound and independent of the CNN it substitutes for;
* ``scale_sim`` — the SCALE-Sim-style TPU-like weight-stationary systolic
  array of the Section 7.2 cross-check.

Backends model cost and nothing else: every plan carries the same stage
list (:func:`repro.core.partition.plan_stages`) and the session executes it,
so cross-backend outputs are bit-identical by construction; only the
timing/power/cost models differ.  Published-figure backends make
their provenance explicit via ``CostReport.source == "published"``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.api.backend import register_backend
from repro.api.results import CompiledPlan, CostReport, PerfProfile
from repro.baselines.diffy import DIFFY_VDSR
from repro.baselines.eyeriss import EYERISS_VGG16
from repro.baselines.frame_based import frame_based_report
from repro.baselines.ideal import IDEAL_BM3D
from repro.baselines.scale_sim import SystolicConfig, TPU_CONFIG, simulate_systolic
from repro.core.blockflow import network_scale
from repro.core.partition import plan_stages, submodel_plan
from repro.fbisa.compiler import compile_network
from repro.hw.area_power import (
    FULL_ACTIVITY_POWER_W,
    SEQUENTIAL_BASE_W,
    area_report,
    power_report,
)
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.hw.dram import DRAM_CONFIGS, dram_traffic, parameter_load_time_s, total_dram_power_mw
from repro.hw.performance import evaluate_performance
from repro.hw.processor import EcnnProcessor
from repro.models.complexity import kop_per_pixel, parameter_count
from repro.nn.network import Network, flatten_layers
from repro.specs import SPECIFICATIONS, RealTimeSpec

#: The operating point the published computational-imaging figures refer to.
_HD30 = SPECIFICATIONS["HD30"]

#: Block-overlap factor and split-point traffic of the two-sub-model style
#: transfer execution, and the CIU utilization charged to the vision case
#: studies (Section 7.3).  These live here because the ecnn backend is the
#: single source of truth for the kind-specific profile models.
STYLE_OVERLAP = 1.35
STYLE_IMAGE_BYTES_PER_PIXEL = 6.0
VISION_UTILIZATION = 0.85

def _compile_fbisa(network: Network, block: int):
    """Compile ``network`` at ``block``, memoized for shared networks.

    Lowering reads the formats and 8-bit codes of the fixed-point program
    (a float network is first calibrated into one, see
    :func:`~repro.fbisa.compiler.compile_network`); the result is a pure
    function of (network weights, input block).  Compilations are stored in
    the network object's own ``__dict__`` keyed by block, so they die with it, and only
    networks marked ``shared`` in their metadata — whose weights are frozen
    by contract, see
    :meth:`repro.runtime.workloads.RuntimeWorkload.shared_network` — are
    ever memoized; freshly built (mutable) networks always recompile.
    """
    if not (getattr(network, "metadata", {}) or {}).get("shared"):
        return compile_network(network, input_block=block)
    compiled = network.__dict__.setdefault("_fbisa_compilations", {})
    if block not in compiled:
        compiled[block] = compile_network(network, input_block=block)
    return compiled[block]


def _ops_per_frame(network: Network, spec: RealTimeSpec) -> float:
    """Operations one frame of ``network`` costs at ``spec``.

    ``kop_per_pixel`` is normalized per *output* pixel, while ``spec`` names
    the full-resolution frame — the output for super-resolution models but
    the camera image for downsampling vision trunks — so the output-pixel
    count is scaled down for networks that reduce resolution (the
    recognition trunk outputs 1/32-resolution features).
    """
    scale = min(1.0, network_scale(flatten_layers(network)))
    output_pixels = spec.pixels_per_frame * scale * scale
    return kop_per_pixel(network) * 1e3 * output_pixels


def _case_study(network: Network) -> Optional[str]:
    """The Section 7.3 case study a network belongs to, from its metadata."""
    metadata = getattr(network, "metadata", {}) or {}
    value = metadata.get("case_study")
    return str(value) if value is not None else None


def _plan(backend, network: Network, spec: RealTimeSpec, **fields) -> CompiledPlan:
    """A plan of ``network`` at ``spec`` carrying the shared stage list."""
    fields.setdefault("model_name", getattr(network, "name", "network"))
    return CompiledPlan(
        backend=backend.name,
        spec_name=spec.name,
        network=network,
        spec=spec,
        stages=plan_stages(network, spec, backend.config),
        **fields,
    )


@register_backend
class EcnnBackend:
    """The paper's eCNN processor — the reference backend.

    Wraps the calibrated models of :mod:`repro.hw`: FBISA compilation, the
    IDU/CIU pipelined timing model, the Table 6 area/power calibration and
    the Fig. 21 DRAM model.  Profiles and costs reproduce the legacy
    ``PerformanceReport`` / ``AreaReport`` figures exactly, and the two
    Section 7.3 case studies keep their special profile models (selected
    by the network's ``case_study`` metadata): style transfer profiles as
    the two-sub-model split its plan's stages execute, recognition as one
    zero-padded whole-image block with tripled parameter memory.  This
    class is the single source of truth for those models.
    """

    name = "ecnn"
    description = "eCNN block-based processor (this reproduction's calibrated model)"

    def __init__(self, config: Optional[EcnnConfig] = None) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG

    @property
    def cache_identity(self) -> EcnnConfig:
        """What distinguishes this instance for content addressing."""
        return self.config

    def evaluation_config(self, network: Network) -> EcnnConfig:
        """Hardware configuration a network is evaluated under.

        Recognition triples the parameter memory so the 5M parameters fit
        (Section 7.3); everything else uses the session configuration.
        """
        if _case_study(network) == "recognition":
            return self.config.with_parameter_memory(3 * self.config.parameter_memory_kb)
        return self.config

    def compile(self, network: Network, spec: RealTimeSpec) -> CompiledPlan:
        plan = _plan(self, network, spec)
        # One FBISA program per plan, compiled at the first stage's block.
        return replace(plan, payload=_compile_fbisa(network, plan.input_block))

    def profile(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        case = _case_study(plan.network)
        if case == "recognition":
            return self._profile_recognition(plan, spec)
        if case == "style_transfer":
            return self._profile_style_transfer(plan, spec)
        return self._profile_blockflow(plan, spec)

    def _profile_blockflow(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        """The frame-level performance model (Fig. 19) — ERNets and kin."""
        perf = evaluate_performance(
            plan.network,
            spec,
            config=self.config,
            input_block=plan.input_block,
            compiled=plan.payload,
        )
        power = power_report(
            perf.model_name,
            plan.payload.program,
            utilization=perf.realtime_utilization(spec.fps),
            config=self.config,
        )
        traffic = dram_traffic(plan.network, spec, input_block=plan.input_block)
        return PerfProfile(
            backend=self.name,
            model_name=perf.model_name,
            spec_name=perf.spec_name,
            frame_latency_s=perf.frame_time_s,
            dram_gb_s=traffic.total_gb_s,
            power_w=power.total,
            load_time_s=self._load_time_s(plan, traffic.total_gb_s),
            peak_tops=perf.peak_tops,
            achieved_tops=perf.achieved_tops,
        )

    def _profile_style_transfer(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        """Two-sub-model split execution (Section 7.3).

        The single-model pyramid's NCR explodes because of the two
        downsamplers, so the combined NCR of the split the plan's stages
        execute, against the compute budget, sets the rate.
        """
        network = plan.network
        split = submodel_plan(network, plan.stages)
        intrinsic_ops = _ops_per_frame(network, spec)
        tops_per_frame = intrinsic_ops * split.combined_ncr / 1e12
        fps = self.config.peak_tops * VISION_UTILIZATION / tops_per_frame
        dram_gb_s = (
            (STYLE_IMAGE_BYTES_PER_PIXEL * STYLE_OVERLAP + split.extra_dram_bytes_per_pixel)
            * spec.pixel_rate
            / 1e9
        )
        power = power_report(
            plan.model_name, plan.payload.program,
            utilization=VISION_UTILIZATION, config=self.config,
        )
        return PerfProfile(
            backend=self.name,
            model_name=plan.model_name,
            spec_name=spec.name,
            frame_latency_s=1.0 / fps,
            dram_gb_s=dram_gb_s,
            power_w=power.total,
            load_time_s=self._load_time_s(plan, dram_gb_s),
            peak_tops=self.config.peak_tops,
            achieved_tops=intrinsic_ops * fps / 1e12,
        )

    def _profile_recognition(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        """One 224x224 image is one zero-padded block (Section 7.3)."""
        scaled = self.evaluation_config(plan.network)
        processor = EcnnProcessor(scaled)
        processor.load(plan.payload)
        cycles = processor.block_report().pipelined_cycles
        fps = scaled.clock_hz / cycles
        bytes_per_image = spec.pixels_per_frame * 3 + 128 * 7 * 7
        dram_gb_s = bytes_per_image * fps / 1e9
        power = power_report(
            plan.model_name, plan.payload.program,
            utilization=VISION_UTILIZATION, config=scaled,
        )
        return PerfProfile(
            backend=self.name,
            model_name=plan.model_name,
            spec_name=spec.name,
            frame_latency_s=1.0 / fps,
            dram_gb_s=dram_gb_s,
            power_w=power.total,
            load_time_s=self._load_time_s(plan, dram_gb_s),
            peak_tops=scaled.peak_tops,
            achieved_tops=plan.payload.program.total_macs * 2.0 * fps / 1e12,
        )

    @staticmethod
    def _load_time_s(plan: CompiledPlan, streaming_gb_s: float) -> float:
        """Time to stream the plan's parameter bitstreams in (Fig. 12)."""
        program = plan.payload.program
        return parameter_load_time_s(
            program.total_weights + program.total_biases, streaming_gb_s
        )

    def cost(self) -> CostReport:
        report = area_report(self.config)
        return CostReport(
            backend=self.name,
            area_mm2=report.total,
            technology_nm=40,
            breakdown=tuple(report.as_dict().items()),
            source="modelled",
        )


@register_backend
class FrameBasedBackend:
    """The conventional frame-based flow on the same compute budget.

    Same silicon compute as eCNN, but executed layer by layer over whole
    frames: every intermediate feature map is written to DRAM and read back
    (Section 2, Eq. 1), so the frame time is the maximum of the compute time
    and the DRAM streaming time on the best dual-channel setting the
    comparison tables consider.
    """

    name = "frame_based"
    description = "frame-based layer-by-layer flow on the eCNN compute budget (Eq. 1)"

    #: The fastest DRAM setting of the Table 7 comparisons.
    _DRAM = DRAM_CONFIGS["DDR3-2133x2"]

    def __init__(self, config: Optional[EcnnConfig] = None) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG

    @property
    def cache_identity(self) -> EcnnConfig:
        return self.config

    def compile(self, network: Network, spec: RealTimeSpec) -> CompiledPlan:
        return _plan(self, network, spec)

    def profile(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        report = frame_based_report(plan.network, spec)
        ops = _ops_per_frame(plan.network, spec)
        compute_s = ops / (self.config.peak_tops * 1e12)
        bytes_per_frame = report.total_bandwidth_gb_s * 1e9 / spec.fps
        dram_s = bytes_per_frame / (self._DRAM.bandwidth_gb_s * 1e9)
        frame_latency_s = max(compute_s, dram_s)
        dram_gb_s = bytes_per_frame / frame_latency_s / 1e9
        utilization = compute_s / frame_latency_s
        processor_w = (
            sum(FULL_ACTIVITY_POWER_W.values()) + SEQUENTIAL_BASE_W
        ) * utilization
        power_w = processor_w + total_dram_power_mw(dram_gb_s, self._DRAM) / 1e3
        return PerfProfile(
            backend=self.name,
            model_name=report.model_name,
            spec_name=report.spec_name,
            frame_latency_s=frame_latency_s,
            dram_gb_s=dram_gb_s,
            power_w=power_w,
            load_time_s=parameter_count(plan.network) / (self._DRAM.bandwidth_gb_s * 1e9),
            peak_tops=self.config.peak_tops,
            achieved_tops=ops / frame_latency_s / 1e12,
        )

    def cost(self) -> CostReport:
        # Same silicon as the eCNN configuration; the flows differ, not the die.
        report = area_report(self.config)
        return CostReport(
            backend=self.name,
            area_mm2=report.total,
            technology_nm=40,
            breakdown=tuple(report.as_dict().items()),
            source="modelled",
        )


@register_backend
class EyerissBackend:
    """Row-stationary accelerator at the published Eyeriss operating point.

    Scales the published VGG-16 figures (0.7 fps at ~30.8 GOP per image) by
    each workload's compute, keeping the delivered operation rate, power and
    DRAM interface rate constant — the standard published-figure comparison
    of Section 7.3.
    """

    name = "eyeriss"
    description = "Eyeriss row-stationary accelerator at its published VGG-16 point"

    #: VGG-16 convolutional operations per 224x224 image (2 ops per MAC).
    _VGG16_GOP = 30.8
    #: 168 PEs at 200 MHz, 2 ops per PE per cycle.
    _PEAK_TOPS = 168 * 2 * 200e6 / 1e12

    def __init__(self, config: Optional[EcnnConfig] = None) -> None:
        self.figure = EYERISS_VGG16
        self.config = config if config is not None else DEFAULT_CONFIG

    @property
    def cache_identity(self):
        return self.figure

    @property
    def _delivered_ops_s(self) -> float:
        return self.figure.fps * self._VGG16_GOP * 1e9

    def compile(self, network: Network, spec: RealTimeSpec) -> CompiledPlan:
        return _plan(self, network, spec)

    def profile(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        ops = _ops_per_frame(plan.network, spec)
        frame_latency_s = ops / self._delivered_ops_s
        dram_gb_s = self.figure.dram_bandwidth_mb_s / 1e3
        return PerfProfile(
            backend=self.name,
            model_name=plan.model_name,
            spec_name=spec.name,
            frame_latency_s=frame_latency_s,
            dram_gb_s=dram_gb_s,
            power_w=self.figure.power_w,
            load_time_s=parameter_count(plan.network)
            / (self.figure.dram_bandwidth_mb_s * 1e6),
            peak_tops=self._PEAK_TOPS,
            achieved_tops=self._delivered_ops_s / 1e12,
        )

    def cost(self) -> CostReport:
        return CostReport(
            backend=self.name,
            area_mm2=self.figure.area_mm2,
            technology_nm=self.figure.technology_nm,
            source="published",
        )


@register_backend
class DiffyBackend:
    """Difference-sparsity accelerator at the published Diffy VDSR point.

    Diffy sustains Full HD 30 fps on VDSR (16 tiles); the backend keeps that
    delivered operation rate and scales latency with workload compute.  The
    real machine's throughput is content-dependent (it exploits activation
    differences), so these are its *reported average* figures.
    """

    name = "diffy"
    description = "Diffy difference-sparsity accelerator at its published VDSR point"

    def __init__(self, config: Optional[EcnnConfig] = None) -> None:
        self.figure = DIFFY_VDSR
        self.config = config if config is not None else DEFAULT_CONFIG
        self._delivered_ops_s: Optional[float] = None

    @property
    def cache_identity(self):
        return self.figure

    def _ops_rate(self) -> float:
        if self._delivered_ops_s is None:
            from repro.models.baselines import build_vdsr

            self._delivered_ops_s = (
                kop_per_pixel(build_vdsr()) * 1e3 * _HD30.pixel_rate
            )
        return self._delivered_ops_s

    def compile(self, network: Network, spec: RealTimeSpec) -> CompiledPlan:
        return _plan(self, network, spec)

    def profile(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        rate = self._ops_rate()
        ops = _ops_per_frame(plan.network, spec)
        frame_latency_s = ops / rate
        dram_gb_s = self.figure.dram_bandwidth_gb_s * spec.pixel_rate / _HD30.pixel_rate
        return PerfProfile(
            backend=self.name,
            model_name=plan.model_name,
            spec_name=spec.name,
            frame_latency_s=frame_latency_s,
            dram_gb_s=dram_gb_s,
            power_w=self.figure.power_w,
            load_time_s=parameter_count(plan.network)
            / (self.figure.dram_bandwidth_gb_s * 1e9),
            peak_tops=rate / 1e12,
            achieved_tops=rate / 1e12,
        )

    def cost(self) -> CostReport:
        # Diffy's publication reports per-tile area only indirectly; the
        # comparison tables key on power/DRAM, so the cost report carries the
        # technology node with no area claim.
        return CostReport(
            backend=self.name,
            area_mm2=0.0,
            technology_nm=self.figure.technology_nm,
            source="published",
        )


@register_backend
class IdealBackend:
    """Fixed-function BM3D denoising engine at the published IDEAL point.

    IDEAL is pixel-rate-bound: it processes Full HD at 30 fps regardless of
    the CNN it stands in for (it does not run a CNN at all — executing a
    plan here runs the *network* as the functional reference, while the
    timing is the BM3D engine's).
    """

    name = "ideal"
    description = "IDEAL fixed-function BM3D engine at its published HD30 point"

    def __init__(self, config: Optional[EcnnConfig] = None) -> None:
        self.figure = IDEAL_BM3D
        self.config = config if config is not None else DEFAULT_CONFIG

    @property
    def cache_identity(self):
        return self.figure

    def compile(self, network: Network, spec: RealTimeSpec) -> CompiledPlan:
        return _plan(self, network, spec)

    def profile(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        frame_latency_s = spec.pixels_per_frame / _HD30.pixel_rate
        ops = _ops_per_frame(plan.network, spec)
        equivalent_tops = ops / frame_latency_s / 1e12
        dram_gb_s = self.figure.dram_bandwidth_gb_s * spec.pixel_rate / _HD30.pixel_rate
        return PerfProfile(
            backend=self.name,
            model_name=plan.model_name,
            spec_name=spec.name,
            frame_latency_s=frame_latency_s,
            dram_gb_s=dram_gb_s,
            power_w=self.figure.power_w,
            load_time_s=0.0,  # fixed function: nothing to load
            peak_tops=equivalent_tops,
            achieved_tops=equivalent_tops,
        )

    def cost(self) -> CostReport:
        return CostReport(
            backend=self.name,
            area_mm2=0.0,
            technology_nm=self.figure.technology_nm,
            source="published",
        )


@register_backend
class ScaleSimBackend:
    """SCALE-Sim-style TPU-like weight-stationary systolic array.

    Runs the cycle/traffic simulation of :mod:`repro.baselines.scale_sim`
    per (network, spec); power and area are TPU-class estimates (the
    simulator itself models neither).
    """

    name = "scale_sim"
    description = "SCALE-Sim-style TPU-like systolic array (weight-stationary)"

    #: TPU-class busy power and die area estimates for the 92-TOPS point.
    _POWER_W = 75.0
    _AREA_MM2 = 331.0

    def __init__(
        self,
        config: Optional[EcnnConfig] = None,
        *,
        systolic: SystolicConfig = TPU_CONFIG,
    ) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG
        self.systolic = systolic

    @property
    def cache_identity(self) -> SystolicConfig:
        return self.systolic

    def compile(self, network: Network, spec: RealTimeSpec) -> CompiledPlan:
        report = simulate_systolic(network, spec, self.systolic)
        return _plan(self, network, spec, model_name=report.model_name, payload=report)

    def profile(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        report = plan.payload
        if report is None or report.spec_name != spec.name:
            report = simulate_systolic(plan.network, spec, self.systolic)
        frame_latency_s = report.cycles_per_frame / report.clock_hz
        ops = _ops_per_frame(plan.network, spec)
        return PerfProfile(
            backend=self.name,
            model_name=report.model_name,
            spec_name=spec.name,
            frame_latency_s=frame_latency_s,
            dram_gb_s=report.dram_bandwidth_gb_s,
            power_w=self._POWER_W,
            load_time_s=0.0,  # weights stream with every frame's array passes
            peak_tops=report.peak_tops,
            achieved_tops=ops / frame_latency_s / 1e12,
        )

    def cost(self) -> CostReport:
        return CostReport(
            backend=self.name,
            area_mm2=self._AREA_MM2,
            technology_nm=28,
            source="published",
        )
