"""ERNet-to-FBISA compiler.

The compiler lowers the fixed-point program of a
:class:`~repro.nn.network.Network` built from the FBISA-supported operator
vocabulary (:func:`repro.quant.fixed.fixed_point_network`, the program the
session serves) into a :class:`~repro.fbisa.program.Program`:

* every 3x3 convolution becomes a ``CONV`` instruction (with as many
  leaf-modules / input groups as its channel counts require),
* every ER module — a residual whose body is a 3x3 convolution, a ReLU and a
  1x1 convolution, recognized by that structure — becomes an ``ER``
  instruction whose srcS operand realises the module's residual connection,
* a convolution followed by a pixel shuffle becomes ``UPX2``; followed by a
  pooling stage it becomes ``DNX2``,
* the global residual connection of the ERNet skeleton is realised by
  keeping the head output parked in one block buffer and accumulating it via
  srcS at the closing (tail) convolution,
* external input/output use the virtual buffers ``DI``/``DO``; intermediate
  features ping-pong between the remaining physical block buffers.

Operand Q-formats and parameter codes are the fixed-point layers' own: an
instruction's ``dst`` carries its closing convolution's output format, its
``src`` the format of the buffer it reads, and its parameter segment packs
the layers' 8-bit weight and bias codes.  Besides the program, the compiler
returns executable *semantics* (the fixed-point layers backing every
instruction), so a compiled program runs functionally and integer-exactly,
and the packed :class:`~repro.fbisa.params.InstructionParameters`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.fbisa.isa import (
    BlockBufferId,
    FeatureOperand,
    InferenceType,
    Instruction,
    LEAF_CHANNELS,
    MAX_LEAF_MODULES,
    Opcode,
    ParameterOperand,
    PoolingMode,
    TILE_HEIGHT,
    TILE_WIDTH,
)
from repro.fbisa.params import InstructionParameters
from repro.fbisa.program import (
    Program,
    ProgramValidationError,
    instruction_violations,
)
from repro.nn.layers import Conv2d, FixedConv2d, Layer, ReLU, Residual, _center_crop
from repro.nn.network import Sequential, iter_conv_layers
from repro.nn.ops import MaxPool2x2, PixelShuffle, PixelUnshuffle, StridedPool2x2
from repro.nn.tensor import FeatureMap
from repro.quant.qformat import QFormat


class CompilerError(ValueError):
    """Raised when a network cannot be lowered to FBISA."""


@dataclass
class InstructionSemantics:
    """The fixed-point layers one instruction stands for (for functional execution)."""

    layers: List[Layer]
    residual: bool = False

    def execute(self, fm: FeatureMap, residual_input: Optional[FeatureMap] = None) -> FeatureMap:
        """Run the layers; a residual's skip joins its closing convolution's sums (srcS)."""
        closing = -1
        if self.residual:
            closing = max(i for i, layer in enumerate(self.layers) if isinstance(layer, Conv2d))
        out = fm
        for index, layer in enumerate(self.layers):
            if index == closing:
                source = residual_input if residual_input is not None else fm
                _, height, width = layer.output_shape(out.channels, out.height, out.width)
                out = layer.forward(out, skip=_center_crop(source.data, height, width))
            else:
                out = layer.forward(out)
        return out


@dataclass
class CompiledModel:
    """A compiled model: the program plus executable semantics and parameters."""

    program: Program
    semantics: List[InstructionSemantics]
    parameters: List[Optional[InstructionParameters]]
    input_block: int
    #: The fixed-point program the instructions lower.
    network: Sequential

    def execute_block(self, block: FeatureMap) -> FeatureMap:
        """Execute the compiled program functionally on one input block.

        Buffer contents are tracked so srcS residual accumulation reads the
        same data the hardware would; the result equals
        ``network.forward(block)`` exactly.
        """
        buffers: dict[BlockBufferId, FeatureMap] = {BlockBufferId.DI: block}
        output: Optional[FeatureMap] = None
        for instruction, semantics in zip(self.program, self.semantics):
            source = buffers.get(instruction.src.buffer)
            if source is None:
                raise CompilerError(
                    f"instruction reads empty buffer {instruction.src.buffer.value}"
                )
            residual_input = None
            if instruction.src_s is not None:
                residual_input = buffers.get(instruction.src_s.buffer)
            result = semantics.execute(source, residual_input)
            if instruction.dst.buffer is BlockBufferId.DO:
                output = result
            else:
                buffers[instruction.dst.buffer] = result
        if output is None:
            raise CompilerError("program never wrote to DO")
        return output


def _tiles(block_pixels_w: int, block_pixels_h: int) -> tuple[int, int]:
    tiles_x = max(1, -(-block_pixels_w // TILE_WIDTH))
    tiles_y = max(1, -(-block_pixels_h // TILE_HEIGHT))
    return tiles_x, tiles_y


def _leaf_modules(out_channels: int) -> int:
    modules = max(1, -(-out_channels // LEAF_CHANNELS))
    if modules > MAX_LEAF_MODULES:
        raise CompilerError(
            f"a layer with {out_channels} output channels needs {modules} leaf-modules; "
            f"FBISA instructions carry at most {MAX_LEAF_MODULES} — split the layer into "
            "128-channel groups accumulated through srcS"
        )
    return modules


def _input_groups(in_channels: int) -> int:
    return max(1, -(-in_channels // LEAF_CHANNELS))


def _is_er(layer: Layer) -> bool:
    """An ER module, by structure: a residual over 3x3 conv, ReLU, 1x1 conv."""
    if not isinstance(layer, Residual) or len(layer.body) != 3:
        return False
    conv3, relu, conv1 = layer.body
    return (
        isinstance(conv3, Conv2d)
        and conv3.kernel == 3
        and isinstance(relu, ReLU)
        and isinstance(conv1, Conv2d)
        and conv1.kernel == 1
    )


class _Lowering:
    """Stateful lowering pass over a fixed-point program's layer list."""

    def __init__(self, network: Sequential, input_block: int) -> None:
        self.program = Program(name=getattr(network, "name", "network"))
        self.semantics: List[InstructionSemantics] = []
        self.parameters: List[Optional[InstructionParameters]] = []
        self.block_size = float(input_block)
        self.restart = 0
        #: Layers (e.g. a leading pixel unshuffle) folded into the *next*
        #: emitted instruction's input preparation.
        self.pending_pre_layers: List[Layer] = []
        # Physical buffer allocation: the "current" buffer rotates; a buffer
        # can be pinned to hold a long-lived residual source.
        self.current: BlockBufferId = BlockBufferId.DI
        self.pinned: Optional[BlockBufferId] = None
        #: Q-format of the current buffer's codes (None while it is DI).
        self.format: Optional[QFormat] = None
        #: Physical buffers written so far, for eager per-emission validation.
        self._written: set[BlockBufferId] = set()

    # -- buffer management -------------------------------------------------
    def _next_buffer(self) -> BlockBufferId:
        physical = [BlockBufferId.BB0, BlockBufferId.BB1, BlockBufferId.BB2]
        for candidate in physical:
            if candidate != self.current and candidate != self.pinned:
                return candidate
        raise CompilerError("ran out of block buffers during lowering")

    # -- emission ------------------------------------------------------------
    def _emit(
        self,
        opcode: Opcode,
        semantics: InstructionSemantics,
        conv_layers: Sequence[FixedConv2d],
        *,
        src_s: Optional[BlockBufferId] = None,
        pooling: PoolingMode = PoolingMode.STRIDED,
        label: str = "",
        margin: int = 0,
        scale: float = 1.0,
        inference: InferenceType = InferenceType.TRUNCATED,
    ) -> None:
        conv3, closing = conv_layers[0], conv_layers[-1]
        self.block_size -= 2 * margin
        if self.block_size <= 0:
            raise CompilerError(
                "input block fully consumed during lowering; increase the block size"
            )
        # The block-size attribute (and hence the CIU tile count) is taken at
        # the convolution-output resolution, before any pixel shuffle or
        # pooling post-processing rescales the block.
        tiles_x, tiles_y = _tiles(int(self.block_size), int(self.block_size))
        self.block_size *= scale

        destination = self._next_buffer()
        if self.pending_pre_layers:
            semantics.layers[:0] = self.pending_pre_layers
            self.pending_pre_layers = []
        if conv3.kernel != 3:
            raise CompilerError("every FBISA instruction needs a 3x3 convolution")
        packed = InstructionParameters(
            weights3x3=conv3.codes,
            weights1x1=(
                closing.codes.reshape(closing.out_channels, closing.in_channels)
                if closing is not conv3
                else None
            ),
            biases=np.concatenate([conv.bias_codes for conv in conv_layers]),
        )
        params = ParameterOperand(restart=self.restart, weight_qformat=conv3.weight_format.name)
        self.restart += packed.biases.size  # byte-aligned bias-stream offset

        src_format = (self.format or conv3.in_format).name
        instruction = Instruction(
            opcode=opcode,
            block_tiles_x=tiles_x,
            block_tiles_y=tiles_y,
            leaf_modules=_leaf_modules(conv3.out_channels),
            input_groups=_input_groups(conv3.in_channels),
            inference=inference,
            src=FeatureOperand(self.current, qformat=src_format),
            dst=FeatureOperand(destination, qformat=closing.out_format.name),
            src_s=FeatureOperand(src_s, qformat=src_format) if src_s is not None else None,
            params=params,
            pooling=pooling,
            label=label,
        )
        # Validate eagerly: a structurally broken instruction fails at its
        # emission point (with index and opcode), not at the end of lowering.
        index = len(self.program.instructions)
        for violation in instruction_violations(index, instruction, self._written):
            raise ProgramValidationError(
                violation.message,
                program=self.program.name,
                index=violation.index,
                opcode=violation.opcode,
            )
        self.program.append(instruction)
        self.semantics.append(semantics)
        self.parameters.append(packed)
        if not destination.is_virtual:
            self._written.add(destination)
        self.current = destination
        self.format = closing.out_format

    def finalize_to_do(self) -> None:
        """Route the last instruction's destination to DO."""
        if not self.program.instructions:
            raise CompilerError("empty program")
        last = self.program.instructions[-1]
        self.program.instructions[-1] = replace(
            last, dst=FeatureOperand(BlockBufferId.DO, qformat=last.dst.qformat)
        )


def compile_network(network: Sequential, *, input_block: int = 128) -> CompiledModel:
    """Lower the fixed-point program of ``network`` into an FBISA program.

    A fixed-point program is lowered as is; a float network is first turned
    into its program (:func:`repro.quant.fixed.fixed_point_network`), so
    every FBISA program describes the arithmetic that is served.  Supports
    the ERNet skeleton (head conv, global residual of ER modules and a tail
    conv, pixel-shuffle upsamplers, output conv) as well as plain
    conv/pool/shuffle pipelines built from the same operator set.
    """
    if not any(isinstance(conv, FixedConv2d) for conv in iter_conv_layers(network)):
        # Imported here: the fixed-point builder imports the static checks,
        # which import this module.
        from repro.quant.fixed import fixed_point_network

        try:
            network = fixed_point_network(network)
        except ValueError as exc:
            raise CompilerError(str(exc)) from exc
    lowering = _Lowering(network, input_block)
    _lower_layer_list(lowering, list(network.layers))
    lowering.finalize_to_do()
    program = lowering.program
    program.validate()
    return CompiledModel(
        program=program,
        semantics=lowering.semantics,
        parameters=lowering.parameters,
        input_block=input_block,
        network=network,
    )


def _lower_layer_list(lowering: _Lowering, layers: List[Layer]) -> None:
    index = 0
    while index < len(layers):
        layer = layers[index]
        following = layers[index + 1] if index + 1 < len(layers) else None

        if isinstance(layer, (ReLU, PixelUnshuffle)):
            # ReLU is part of the opcode post-processing; a leading pixel
            # unshuffle re-interprets the DI stream (DnERNet-12ch) and is
            # folded into the next instruction's input preparation.
            if isinstance(layer, PixelUnshuffle):
                lowering.block_size /= layer.factor
                lowering.pending_pre_layers.append(layer)
            index += 1
            continue

        if _is_er(layer):
            conv3, _, conv1 = layer.body
            # An ER leaf-module is a 32-to-32-channel 3x3 plus the 1x1
            # reduction; the module's expansion ratio Rm therefore maps to Rm
            # leaf-modules in one instruction (which is why both the paper's
            # system bound RE <= 4 and MAX_LEAF_MODULES equal four).
            lowering._emit(
                Opcode.ER,
                InstructionSemantics(layers=list(layer.body), residual=True),
                [conv3, conv1],
                src_s=lowering.current,
                label=layer.name,
                margin=1,
            )
            index += 1
            continue

        if isinstance(layer, Residual):
            # Generic residual block (global ERNet residual, SRResNet blocks,
            # recognition blocks): pin the entry buffer, lower the body, and
            # accumulate at the body's last emitted instruction.
            if lowering.current.is_virtual:
                # Residual over DI is not representable; materialise into a
                # physical buffer first with an identity CONV.
                raise CompilerError(
                    "a residual block cannot take its skip directly from DI; "
                    "place a convolution before it"
                )
            entry, entry_format = lowering.current, lowering.format
            previous_pin = lowering.pinned
            lowering.pinned = entry
            _lower_layer_list(lowering, list(layer.body))
            # Mark the last emitted instruction as accumulating the skip.
            last_index = len(lowering.program.instructions) - 1
            last = lowering.program.instructions[last_index]
            if last.src_s is not None:
                raise CompilerError(
                    "the closing instruction of a residual block already uses srcS; "
                    "end residual bodies with a plain convolution"
                )
            lowering.program.instructions[last_index] = replace(
                last, src_s=FeatureOperand(entry, qformat=entry_format.name)
            )
            lowering.semantics[last_index].residual = True
            lowering.pinned = previous_pin
            index += 1
            continue

        if isinstance(layer, Conv2d):
            semantics_layers: List[Layer] = [layer]
            opcode = Opcode.CONV
            scale = 1.0
            pooling = PoolingMode.STRIDED
            consumed = 1
            if isinstance(following, PixelShuffle):
                opcode = Opcode.UPX2
                semantics_layers.append(following)
                scale = float(following.factor)
                consumed = 2
            elif isinstance(following, (StridedPool2x2, MaxPool2x2)):
                opcode = Opcode.DNX2
                semantics_layers.append(following)
                scale = 0.5
                pooling = (
                    PoolingMode.MAX
                    if isinstance(following, MaxPool2x2)
                    else PoolingMode.STRIDED
                )
                consumed = 2
            # Fold a trailing ReLU into the same instruction.
            after = layers[index + consumed] if index + consumed < len(layers) else None
            if isinstance(after, ReLU):
                semantics_layers.append(after)
                consumed += 1
            lowering._emit(
                opcode,
                InstructionSemantics(layers=semantics_layers),
                [layer],
                label=layer.name,
                margin=layer.margin,
                scale=scale,
                pooling=pooling,
                inference=(
                    InferenceType.ZERO_PADDED
                    if layer.padding == "zero"
                    else InferenceType.TRUNCATED
                ),
            )
            index += consumed
            continue

        if isinstance(layer, PixelShuffle):
            # A bare pixel shuffle (e.g. DnERNet-12ch output): fold into the
            # previous instruction's post-processing.
            last_index = len(lowering.program.instructions) - 1
            if last_index < 0:
                raise CompilerError("pixel shuffle with no preceding instruction")
            lowering.semantics[last_index].layers.append(layer)
            lowering.program.instructions[last_index] = replace(
                lowering.program.instructions[last_index], opcode=Opcode.UPX2
            )
            lowering.block_size *= layer.factor
            index += 1
            continue

        if isinstance(layer, (StridedPool2x2, MaxPool2x2)):
            last_index = len(lowering.program.instructions) - 1
            if last_index < 0:
                raise CompilerError("pooling with no preceding instruction")
            lowering.semantics[last_index].layers.append(layer)
            lowering.block_size *= 0.5
            index += 1
            continue

        if isinstance(layer, Sequential):
            _lower_layer_list(lowering, list(layer.layers))
            index += 1
            continue

        raise CompilerError(f"layer kind {type(layer).__name__} is not FBISA-compatible")
