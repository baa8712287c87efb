"""FBISA opcodes, operands and instructions (Fig. 10, Table 1).

The smallest computing task is a *leaf-module*: a 32-channel-to-32-channel
CONV3x3 over one feature block (the ``ER`` opcode's leaf-module additionally
contains a 32-channel CONV1x1 for the reduction).  One instruction can carry
up to four leaf-modules, which is how 64- and 128-channel layers are mapped.

Feature operands name whole block buffers (``BB0``-``BB2``) or the virtual
input/output buffers (``DI``/``DO``); there are no load/store instructions.
Two supplementary operands (``srcS``/``dstS``) support cross-instruction
accumulation — residual connections and partial sums for wide filters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

#: Channels handled by one leaf-module.
LEAF_CHANNELS = 32
#: Maximum leaf-modules per instruction.
MAX_LEAF_MODULES = 4
#: Tile geometry the CIU processes per cycle.
TILE_WIDTH = 4
TILE_HEIGHT = 2
#: Weights per leaf-module 3x3 filter bank (32 in x 32 out x 9 taps).
WEIGHTS_PER_LEAF_3X3 = LEAF_CHANNELS * LEAF_CHANNELS * 9
#: Weights per leaf-module 1x1 reduction (32 in x 32 out).
WEIGHTS_PER_LEAF_1X1 = LEAF_CHANNELS * LEAF_CHANNELS
#: Coefficients carried by one weight bitstream per leaf-module (16 output
#: channels x 32 input channels for one filter position).
WEIGHTS_PER_STREAM_PER_LEAF = 512
#: Biases carried by the bias bitstream per leaf-module.
BIASES_PER_LEAF = 64


class Opcode(enum.Enum):
    """FBISA opcodes (Table 1)."""

    #: Plain 32-channel CONV3x3 leaf-module(s).
    CONV = "CONV"
    #: ERModule leaf-module: CONV3x3 expand + CONV1x1 reduce.
    ER = "ER"
    #: CONV3x3 followed by pixel-shuffle upsampling of the outputs.
    UPX2 = "UPX2"
    #: CONV3x3 followed by strided- or max-pooling downsampling.
    DNX2 = "DNX2"


class InferenceType(enum.Enum):
    """Convolution border handling selected by the opcode attribute."""

    #: Truncated-pyramid (valid) inference — the block shrinks by 2 pixels.
    TRUNCATED = "truncated"
    #: Zero-padded inference — the block keeps its size.
    ZERO_PADDED = "zero"


class PoolingMode(enum.Enum):
    """Downsampling flavour for the DNX2 opcode."""

    STRIDED = "strided"
    MAX = "max"


class BlockBufferId(enum.Enum):
    """Feature operand targets: three block buffers plus the virtual FIFOs."""

    BB0 = "BB0"
    BB1 = "BB1"
    BB2 = "BB2"
    #: Virtual block buffer streaming data in from the DMA input FIFO.
    DI = "DI"
    #: Virtual block buffer streaming data out to the DMA output FIFO.
    DO = "DO"

    @property
    def is_virtual(self) -> bool:
        return self in (BlockBufferId.DI, BlockBufferId.DO)


@dataclass(frozen=True)
class FeatureOperand:
    """A feature operand: which buffer, and the Q-format of its content."""

    buffer: BlockBufferId
    qformat: str = "Q6"

    def __str__(self) -> str:
        return f"{self.buffer.value}.{self.qformat}"


@dataclass(frozen=True)
class ParameterOperand:
    """Where the instruction's weights/biases live in the parameter memories.

    ``restart`` is the byte-aligned address in the bias bitstream at which the
    decoders restart (Section 5.2); the 20 weight bitstreams restart at
    ``8 x restart``.  ``weight_qformat`` names the 3x3 weights' format; the
    bias codes are packed at their own formats.
    """

    restart: int
    weight_qformat: str = "Q7"

    def __post_init__(self) -> None:
        if self.restart < 0:
            raise ValueError("restart address must be non-negative")

    def __str__(self) -> str:
        return f"@{self.restart:#06x}.{self.weight_qformat}"


@dataclass(frozen=True)
class Instruction:
    """One FBISA instruction.

    Attributes
    ----------
    opcode:
        The convolution task type.
    block_tiles_x / block_tiles_y:
        Output block size in 4x2 tiles (the attribute the program of Fig. 18
        carries); the pixel size is ``4*tiles_x`` by ``2*tiles_y``.
    leaf_modules:
        Number of 32-channel leaf-modules (1-4); determines the output
        channel count ``32 * leaf_modules``.
    input_groups:
        Number of 32-channel input groups this instruction reads (wide inputs
        are realised by accumulating several instructions through srcS).
    inference:
        Truncated-pyramid or zero-padded border handling.
    src / dst:
        Mandatory feature operands.
    src_s / dst_s:
        Optional supplementary operands for accumulation (residual
        connections, partial sums).
    params:
        Parameter operand (None for opcodes that reuse previously loaded
        parameters, which FBISA permits via the restart mechanism).
    pooling:
        Pooling flavour, only meaningful for DNX2.
    label:
        Optional human-readable label (layer name) carried for debugging.
    """

    opcode: Opcode
    block_tiles_x: int
    block_tiles_y: int
    src: FeatureOperand
    dst: FeatureOperand
    leaf_modules: int = 1
    input_groups: int = 1
    inference: InferenceType = InferenceType.TRUNCATED
    src_s: Optional[FeatureOperand] = None
    dst_s: Optional[FeatureOperand] = None
    params: Optional[ParameterOperand] = None
    pooling: PoolingMode = PoolingMode.STRIDED
    label: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.leaf_modules <= MAX_LEAF_MODULES:
            raise ValueError(
                f"leaf_modules must be in [1, {MAX_LEAF_MODULES}], got {self.leaf_modules}"
            )
        if self.input_groups < 1:
            raise ValueError("input_groups must be >= 1")
        if self.block_tiles_x < 1 or self.block_tiles_y < 1:
            raise ValueError("block size must be at least one 4x2 tile")

    @property
    def block_width(self) -> int:
        """Output block width in pixels."""
        return self.block_tiles_x * TILE_WIDTH

    @property
    def block_height(self) -> int:
        """Output block height in pixels."""
        return self.block_tiles_y * TILE_HEIGHT

    @property
    def num_tiles(self) -> int:
        """Number of 4x2 tiles the CIU iterates over for this instruction."""
        return self.block_tiles_x * self.block_tiles_y

    @property
    def out_channels(self) -> int:
        return self.leaf_modules * LEAF_CHANNELS

    @property
    def in_channels(self) -> int:
        return self.input_groups * LEAF_CHANNELS

    @property
    def weights_per_instruction(self) -> int:
        """Weight coefficients this instruction's parameter segment holds."""
        per_leaf = WEIGHTS_PER_LEAF_3X3
        if self.opcode is Opcode.ER:
            per_leaf += WEIGHTS_PER_LEAF_1X1
        return per_leaf * self.leaf_modules * self.input_groups

    @property
    def biases_per_instruction(self) -> int:
        return BIASES_PER_LEAF * self.leaf_modules

    @property
    def macs(self) -> int:
        """Multiply-accumulates this instruction performs on its block."""
        pixels = self.block_width * self.block_height
        per_pixel = LEAF_CHANNELS * self.in_channels * 9
        if self.opcode is Opcode.ER:
            per_pixel += LEAF_CHANNELS * LEAF_CHANNELS
        return pixels * per_pixel * self.leaf_modules

    def summary(self) -> str:
        """One-line summary used by the disassembler and program listings."""
        parts = [
            self.opcode.value,
            f"size={self.block_tiles_x}x{self.block_tiles_y}",
            f"lm={self.leaf_modules}",
            f"src={self.src}",
            f"dst={self.dst}",
        ]
        if self.input_groups != 1:
            parts.insert(3, f"ig={self.input_groups}")
        if self.inference is InferenceType.ZERO_PADDED:
            parts.insert(1, "pad=zero")
        if self.src_s is not None:
            parts.append(f"srcS={self.src_s}")
        if self.dst_s is not None:
            parts.append(f"dstS={self.dst_s}")
        if self.params is not None:
            parts.append(f"par={self.params}")
        if self.opcode is Opcode.DNX2:
            parts.append(f"pool={self.pooling.value}")
        if self.label:
            parts.append(f"; {self.label}")
        return " ".join(parts)
