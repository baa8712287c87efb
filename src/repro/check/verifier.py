"""Static plan verification: abstract interpretation of networks and programs.

The paper's execution model makes almost every failure mode statically
decidable: FBISA programs are compiled once and replayed for every block of
every frame on fixed SRAM/bandwidth budgets, so a shape mismatch, a
Q-format that always saturates, a block that cannot be resident in a block
buffer or an instruction whose output nobody reads is knowable *before* a
single pixel is served.  This module decides them:

``verify_network(network, input_block=...)``
    Per-layer shape/dataflow inference at the block size the plan will run
    (ECNN101/102) plus input-block residency against the hardware
    configuration (ECNN120/122).

``verify_program(program, ...)``
    Per-instruction structural dataflow (ECNN110-114, shared with
    :meth:`~repro.fbisa.program.Program.validate`), operand Q-format parsing
    (ECNN150), block-buffer capacity per stored operand (ECNN120/122),
    raw-parameter footprint against the parameter memory (ECNN121) and
    dead-code detection (ECNN140).

``verify_plan(plan, ...)``
    Everything above for a backend's :class:`~repro.api.results.CompiledPlan`,
    plus the checks that need the compiled semantics: Q-format interval
    analysis through each instruction's layer stack (ECNN130/131), unused
    parameter segments (ECNN141) and, for a fixed-point plan network,
    accumulator exactness (ECNN132).

``verify_accumulators(network)`` / ``accumulator_dtype(bound)``
    The float32/float64 decision for a fixed-point layer: the narrowest
    dtype that holds every integer up to the layer's proven accumulator
    bound exactly.  The fixed-point builder asks ``accumulator_dtype``;
    ECNN132 re-proves the choice from the layer's codes.

Capacity model (ECNN120).  A block buffer stores one 32-channel group
(:class:`repro.hw.blockbuffer.BlockBuffer`), so the per-operand bound is
``stored_pixels * 32 bytes <= block_buffer_kb * 1024`` where
``stored_pixels`` is the block's pixel count *as stored*: pixel shuffle
(UPX2) trades channels for pixels byte-neutrally, pooling (DNX2) quarters
the pixels.  Stages downstream of an upsampler are normalized back to base
scale (the hardware streams upsampled tails toward DO at output rate; the
residency constraint binds at the truncated-pyramid body, which is how the
paper sizes the 128-pixel block against 512 KB).  Zero-padded whole-image
instructions (the recognition case study) are exempt and surfaced as a
single ECNN122 info: that mode streams row bands, not resident blocks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.check.diagnostics import CheckReport
from repro.fbisa.compiler import CompiledModel, InstructionSemantics
from repro.fbisa.isa import InferenceType, Instruction, Opcode
from repro.fbisa.program import Program
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.nn.layers import FixedConv2d, Layer, ReLU
from repro.nn.network import Network, Sequential, iter_conv_layers
from repro.quant.qformat import QFormat

#: Structural-violation kinds of :mod:`repro.fbisa.program` -> rule ids.
_STRUCTURAL_RULES = {
    "read-before-write": "ECNN110",
    "src-dst-conflict": "ECNN111",
    "virtual-misuse": "ECNN112",
    "no-di-read": "ECNN113",
    "no-do-write": "ECNN114",
}

#: Relative interval overshoot below which ECNN131 stays quiet — one LSB of
#: rounding slack, so exact-fit formats don't produce noise findings.
_CLIP_SLACK = 1e-9


#: Largest integer magnitude below which a float dtype holds every integer
#: exactly (its significand width), narrowest first.
EXACT_INTEGERS = {np.dtype(np.float32): 1 << 24, np.dtype(np.float64): 1 << 53}


def accumulator_dtype(bound: int) -> np.dtype:
    """The narrowest float dtype whose sums are exact up to ``bound``.

    A gemm whose every partial sum is an integer of magnitude at most
    ``bound`` gives the same bits in any summation order in this dtype.
    """
    for dtype, limit in EXACT_INTEGERS.items():
        if bound <= limit:
            return dtype
    raise ValueError(f"accumulator bound {bound} exceeds every exact float range")


class PlanVerificationError(ValueError):
    """A plan failed static verification; ``report`` holds the diagnostics."""

    def __init__(self, report: CheckReport) -> None:
        super().__init__(report.render(verbose=False))
        self.report = report


# ---------------------------------------------------------------- intervals
def _interval_through_layer(layer: Layer, lo: float, hi: float) -> Tuple[float, float]:
    """Propagate a real-valued interval through one fixed-point program layer."""
    if isinstance(layer, FixedConv2d):
        # Per output channel j: out_j in [b_j + pos_j*lo + neg_j*hi,
        # b_j + pos_j*hi + neg_j*lo] with pos/neg the signed weight masses,
        # read from the codes (the folded ``weights`` would be a copy).
        flat = layer.codes.reshape(layer.out_channels, -1)
        step = layer.weight_format.step
        pos = np.clip(flat, 0, None).sum(axis=1, dtype=np.int64) * step
        neg = np.clip(flat, None, 0).sum(axis=1, dtype=np.int64) * step
        bias = layer.bias_codes * layer.bias_format.step
        low = bias + pos * lo + neg * hi
        high = bias + pos * hi + neg * lo
        return float(low.min()), float(high.max())
    if isinstance(layer, ReLU):
        return max(lo, 0.0), max(hi, 0.0)
    # Pixel (un)shuffle and pooling rearrange or select codes.
    return lo, hi


def _parse_qformat(text: str) -> Optional[QFormat]:
    try:
        return QFormat.parse(text)
    except (ValueError, TypeError):
        return None


# ----------------------------------------------------------- network checks
def verify_network(
    network: Network,
    *,
    input_block: Optional[int] = None,
    in_channels: Optional[int] = None,
    config: EcnnConfig = DEFAULT_CONFIG,
) -> CheckReport:
    """Statically check a network at the block size it will execute.

    Walks the layer list propagating the ``(channels, height, width)`` shape
    (ECNN101 on a rejected shape, ECNN102 when the truncated-pyramid margins
    consume the block) and checks the input block's single-buffer residency
    (ECNN120, or ECNN122 info for zero-padded whole-image networks).

    ``in_channels`` overrides the input channel count for bare
    :class:`~repro.nn.network.Sequential` stacks that don't declare one
    (a :class:`~repro.nn.network.Network` carries it).
    """
    block = int(input_block) if input_block else config.default_input_block
    channels = (
        int(in_channels)
        if in_channels is not None
        else int(getattr(network, "in_channels", 3))
    )
    name = getattr(network, "name", type(network).__name__)
    report = CheckReport(subject=f"network:{name}@{block}")

    cap_pixels = config.block_buffer_kb * 1024 // config.leaf_channels
    if block * block > cap_pixels:
        # Networks that never shrink (margin 0 everywhere) run zero-padded
        # whole-image inference — residency is streamed, not resident.
        whole_image = getattr(network, "margin", None) == 0
        if whole_image:
            report.add(
                "ECNN122",
                f"input block {block}x{block} exceeds one block buffer "
                f"({cap_pixels} pixels per 32-channel group); zero-padded "
                "whole-image execution streams row bands instead",
            )
        else:
            report.add(
                "ECNN120",
                f"input block {block}x{block} = {block * block} pixels does "
                f"not fit one block buffer ({cap_pixels} pixels per "
                f"32-channel group at {config.block_buffer_kb} KB)",
            )

    layers = list(getattr(network, "layers", []))
    shape = (channels, block, block)
    for index, layer in enumerate(layers):
        label = getattr(layer, "name", "") or type(layer).__name__
        try:
            shape = layer.output_shape(*shape)
        except ValueError as exc:
            report.add(
                "ECNN101",
                str(exc),
                location=f"layer {index} ({label})",
            )
            return report
        if shape[1] <= 0 or shape[2] <= 0:
            report.add(
                "ECNN102",
                f"block shrinks to {shape[1]}x{shape[2]} pixels; a "
                f"{block}-pixel input block is fully consumed by the "
                "truncated-pyramid margins",
                location=f"layer {index} ({label})",
            )
            return report
    return report


# ----------------------------------------------------------- program checks
def _stored_geometry(instruction: Instruction) -> Tuple[int, float]:
    """(stored pixels, scale factor this instruction applies to the stream).

    The instruction's block attribute describes the *convolution output*;
    UPX2's pixel shuffle then trades channels for 4x the pixels
    (byte-neutral per group) and DNX2's pooling quarters them.
    """
    pixels = instruction.block_width * instruction.block_height
    if instruction.opcode is Opcode.UPX2:
        return pixels * 4, 2.0
    if instruction.opcode is Opcode.DNX2:
        return pixels // 4, 0.5
    return pixels, 1.0


def _check_operand_formats(
    report: CheckReport, index: int, instruction: Instruction
) -> None:
    operands = [("src", instruction.src), ("dst", instruction.dst)]
    if instruction.src_s is not None:
        operands.append(("srcS", instruction.src_s))
    if instruction.dst_s is not None:
        operands.append(("dstS", instruction.dst_s))
    for role, operand in operands:
        if _parse_qformat(operand.qformat) is None:
            report.add(
                "ECNN150",
                f"{role} operand carries unparseable Q-format "
                f"{operand.qformat!r}",
                location=f"line {index} ({instruction.opcode.value})",
            )


def _check_capacity(
    report: CheckReport, program: Program, config: EcnnConfig
) -> None:
    cap_pixels = config.block_buffer_kb * 1024 // config.leaf_channels
    scale = 1.0
    streamed_over = 0
    for index, instruction in enumerate(program):
        pixels, factor = _stored_geometry(instruction)
        scale *= factor
        # Upsampled tails stream toward DO at output rate; residency binds
        # at base scale, so normalize the footprint back down.
        normalized = pixels / max(1.0, scale) ** 2
        if normalized <= cap_pixels:
            continue
        if instruction.inference is InferenceType.ZERO_PADDED:
            streamed_over += 1
            continue
        report.add(
            "ECNN120",
            f"stores {instruction.block_width}x{instruction.block_height} "
            f"pixels ({int(normalized)} at base scale) per 32-channel group; "
            f"one {config.block_buffer_kb} KB block buffer holds "
            f"{cap_pixels}",
            location=f"line {index} ({instruction.opcode.value})",
        )
    if streamed_over:
        report.add(
            "ECNN122",
            f"{streamed_over} zero-padded instruction(s) exceed single-buffer "
            "residency; zero-padded whole-image mode streams row bands, so "
            "no static bound applies",
        )


def _check_parameter_memory(
    report: CheckReport, program: Program, config: EcnnConfig
) -> None:
    raw_bytes = program.total_weights + program.total_biases  # 8-bit codes
    memory = config.parameter_memory_bytes
    if raw_bytes > memory:
        report.add(
            "ECNN121",
            f"raw parameters are {raw_bytes / 1024:.0f} KB against a "
            f"{config.parameter_memory_kb} KB parameter memory; the model "
            f"fits only if entropy coding reaches {raw_bytes / memory:.2f}x",
        )


def _dead_instructions(program: Program) -> List[int]:
    """Indices whose primary output is overwritten or never consumed."""
    unread: dict = {}
    dead: List[int] = []
    for index, instruction in enumerate(program):
        for operand in (instruction.src, instruction.src_s):
            if operand is not None and not operand.buffer.is_virtual:
                unread.pop(operand.buffer, None)
        for operand in (instruction.dst, instruction.dst_s):
            if operand is None or operand.buffer.is_virtual:
                continue  # DO is the consumer of record
            if operand.buffer in unread:
                dead.append(unread[operand.buffer])
            unread[operand.buffer] = index
    dead.extend(unread.values())
    return sorted(set(dead))


def verify_program(
    program: Program,
    *,
    config: EcnnConfig = DEFAULT_CONFIG,
) -> CheckReport:
    """Statically check one FBISA program against a hardware configuration.

    Structural dataflow (ECNN110-114), operand Q-formats (ECNN150), stored
    block-buffer footprints (ECNN120/122), raw parameter footprint
    (ECNN121) and dead instructions (ECNN140).
    """
    report = CheckReport(subject=f"program:{program.name}")
    for violation in program.structural_violations():
        if violation.kind == "empty":
            report.add("ECNN113", violation.message)
            report.add("ECNN114", violation.message)
            return report
        location = ""
        if violation.index is not None and violation.opcode is not None:
            location = f"line {violation.index} ({violation.opcode.value})"
        report.add(_STRUCTURAL_RULES[violation.kind], violation.message, location=location)
    for index, instruction in enumerate(program):
        _check_operand_formats(report, index, instruction)
    _check_capacity(report, program, config)
    _check_parameter_memory(report, program, config)
    for index in _dead_instructions(program):
        instruction = program.instructions[index]
        report.add(
            "ECNN140",
            f"output in {instruction.dst.buffer.value} is overwritten or "
            "never consumed",
            location=f"line {index} ({instruction.opcode.value})",
        )
    return report


# ------------------------------------------------------------- plan checks
def _check_intervals(
    report: CheckReport,
    program: Program,
    semantics: List[InstructionSemantics],
) -> None:
    """ECNN130/131: Q-format interval analysis per instruction, in served formats.

    The input interval of every instruction is its source operand's full
    Q-format range — block buffers hold 8-bit codes of that format by
    construction, so the bound is sound without whole-program fixpointing.
    Values are real; an inner convolution's output is clipped to its
    ``out_format``, where the datapath requantizes, and a residual's skip
    joins the closing convolution's sums before they meet ``dst``'s range.
    """
    for index, (instruction, sem) in enumerate(zip(program, semantics)):
        src_fmt = _parse_qformat(instruction.src.qformat)
        dst_fmt = _parse_qformat(instruction.dst.qformat)
        skip_fmt = _parse_qformat((instruction.src_s or instruction.src).qformat)
        if None in (src_fmt, dst_fmt, skip_fmt):
            continue  # ECNN150 already reported
        closing = max(i for i, layer in enumerate(sem.layers) if isinstance(layer, FixedConv2d))
        lo, hi = src_fmt.min_value, src_fmt.max_value
        for position, layer in enumerate(sem.layers):
            lo, hi = _interval_through_layer(layer, lo, hi)
            if position == closing and sem.residual:
                lo, hi = lo + skip_fmt.min_value, hi + skip_fmt.max_value
            elif position < closing and isinstance(layer, FixedConv2d):
                fmt = layer.out_format
                lo = min(max(lo, fmt.min_value), fmt.max_value)
                hi = min(max(hi, fmt.min_value), fmt.max_value)
        location = f"line {index} ({instruction.opcode.value})"
        if lo > dst_fmt.max_value or hi < dst_fmt.min_value:
            report.add(
                "ECNN130",
                f"value interval [{lo:.3g}, {hi:.3g}] lies entirely outside "
                f"{dst_fmt.name}'s range [{dst_fmt.min_value:.3g}, "
                f"{dst_fmt.max_value:.3g}]; every output saturates",
                location=location,
            )
        elif (
            hi > dst_fmt.max_value + _CLIP_SLACK
            or lo < dst_fmt.min_value - _CLIP_SLACK
        ):
            report.add(
                "ECNN131",
                f"value interval [{lo:.3g}, {hi:.3g}] exceeds {dst_fmt.name}'s "
                f"range [{dst_fmt.min_value:.3g}, {dst_fmt.max_value:.3g}]; "
                "out-of-range values clip",
                location=location,
            )


def _check_parameter_segments(report: CheckReport, model: CompiledModel) -> None:
    dead = set(_dead_instructions(model.program))
    for index, (instruction, packed) in enumerate(
        zip(model.program, model.parameters)
    ):
        location = f"line {index} ({instruction.opcode.value})"
        if packed is not None and instruction.params is None:
            report.add(
                "ECNN141",
                "a parameter segment is packed but the instruction declares "
                "no parameter operand; the bytes are unreachable",
                location=location,
            )
        elif instruction.params is not None and index in dead:
            report.add(
                "ECNN141",
                "parameter segment belongs to a dead instruction",
                location=location,
            )


def verify_accumulators(network: Sequential) -> CheckReport:
    """ECNN132: every fixed-point layer's accumulator is exact in its dtype.

    Re-proves :func:`accumulator_dtype`'s decision from each
    :class:`~repro.nn.layers.FixedConv2d`'s codes; float layers pass.
    """
    name = getattr(network, "name", type(network).__name__)
    report = CheckReport(subject=f"network:{name}")
    for layer in iter_conv_layers(network):
        if not isinstance(layer, FixedConv2d):
            continue
        bound = layer.accumulator_bound
        limit = EXACT_INTEGERS.get(layer.dtype, 0)
        if bound > limit:
            report.add(
                "ECNN132",
                f"partial sums reach {bound} ({bound / (1 << 24):.2f} x 2^24) but "
                f"{layer.dtype.name} is exact only to {limit}; results would "
                f"depend on summation order (needs {accumulator_dtype(bound).name})",
                location=f"layer {layer.name}",
            )
    return report


def _plan_case_study(plan) -> Optional[str]:
    metadata = getattr(plan.network, "metadata", {}) or {}
    value = metadata.get("case_study")
    return str(value) if value is not None else None


def verify_plan(
    plan,
    *,
    config: Optional[EcnnConfig] = None,
) -> CheckReport:
    """Statically verify a backend's :class:`~repro.api.results.CompiledPlan`.

    Always checks the plan's network at its execution block size; plans
    carrying a compiled FBISA payload (the ecnn backend) additionally get
    the full program checks, Q-format interval analysis and parameter-segment
    accounting.  ``config`` defaults to the session configuration the plan
    was compiled under (``DEFAULT_CONFIG`` if unknown); the recognition case
    study is checked against its tripled parameter memory, as evaluated.
    """
    base = config if config is not None else DEFAULT_CONFIG
    if _plan_case_study(plan) == "recognition":
        base = base.with_parameter_memory(3 * base.parameter_memory_kb)
    report = CheckReport(
        subject=f"{plan.backend}:{plan.model_name}@{plan.spec_name}"
    )
    # Every backend's plan carries the same stages, so its first stage's
    # block is the one executed (plan_stages in repro.core.partition).
    report.extend(
        verify_network(plan.network, input_block=plan.input_block, config=base)
    )
    report.extend(verify_accumulators(plan.network))
    model = plan.payload
    if isinstance(model, CompiledModel):
        report.extend(verify_program(model.program, config=base))
        _check_intervals(report, model.program, model.semantics)
        _check_parameter_segments(report, model)
    return report
