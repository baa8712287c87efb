"""Binary encoding of FBISA instructions.

FBISA is coarse-grained, so its binary format is compact: one instruction
packs into a handful of bytes (opcode + attributes + five operand fields),
which is why even the paper's largest program is a few hundred bytes.  The
exact field layout below is the reproduction's own (the paper only shows the
named-field structure of Fig. 10), but it preserves the property the paper
relies on — programs are tiny compared to parameters.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.fbisa.isa import (
    BlockBufferId,
    FeatureOperand,
    InferenceType,
    Instruction,
    Opcode,
    ParameterOperand,
    PoolingMode,
)
from repro.fbisa.program import Program

_OPCODE_CODES = {Opcode.CONV: 0, Opcode.ER: 1, Opcode.UPX2: 2, Opcode.DNX2: 3}
_BUFFER_CODES = {
    BlockBufferId.BB0: 0,
    BlockBufferId.BB1: 1,
    BlockBufferId.BB2: 2,
    BlockBufferId.DI: 3,
    BlockBufferId.DO: 4,
}
_NO_OPERAND = 7

#: Fixed instruction size: opcode/attribute word (4 bytes), operand word
#: (4 bytes) and parameter word (4 bytes).
INSTRUCTION_BYTES = 12


def _encode_qformat(qformat: str, role: str) -> int:
    signed = 0 if qformat.upper().startswith("UQ") else 1
    frac = int(qformat.upper().lstrip("UQ") or 0)
    if not 0 <= frac <= 15:
        raise ValueError(
            f"{role} operand {qformat}: fractional position {frac} does not fit the 4-bit field"
        )
    return (signed << 4) | frac


def _decode_qformat(code: int) -> str:
    signed = (code >> 4) & 1
    frac = code & 0xF
    return f"{'Q' if signed else 'UQ'}{frac}"


def _encode_feature(role: str, operand: Optional[FeatureOperand]) -> int:
    if operand is None:
        return _NO_OPERAND << 5
    return (_BUFFER_CODES[operand.buffer] << 5) | _encode_qformat(operand.qformat, role)


def _decode_feature(code: int) -> Optional[FeatureOperand]:
    buffer_code = (code >> 5) & 0x7
    if buffer_code == _NO_OPERAND:
        return None
    buffer = {v: k for k, v in _BUFFER_CODES.items()}[buffer_code]
    return FeatureOperand(buffer=buffer, qformat=_decode_qformat(code & 0x1F))


def encode_instruction(instruction: Instruction) -> bytes:
    """Encode one instruction into its 12-byte binary form."""
    word0 = (
        (_OPCODE_CODES[instruction.opcode] << 28)
        | ((instruction.leaf_modules - 1) << 26)
        | ((instruction.input_groups - 1) << 22)
        | ((1 if instruction.inference is InferenceType.ZERO_PADDED else 0) << 21)
        | ((1 if instruction.pooling is PoolingMode.MAX else 0) << 20)
        | ((instruction.block_tiles_x & 0x3FF) << 10)
        | (instruction.block_tiles_y & 0x3FF)
    )
    word1 = (
        (_encode_feature("src", instruction.src) << 24)
        | (_encode_feature("dst", instruction.dst) << 16)
        | (_encode_feature("srcS", instruction.src_s) << 8)
        | _encode_feature("dstS", instruction.dst_s)
    )
    if instruction.params is not None:
        word2 = (
            (1 << 31)
            | (_encode_qformat(instruction.params.weight_qformat, "par") << 24)
            | (instruction.params.restart & 0xFFFFFF)
        )
    else:
        word2 = 0
    return struct.pack(">III", word0, word1, word2)


def decode_instruction(blob: bytes) -> Instruction:
    """Decode a 12-byte binary instruction (inverse of :func:`encode_instruction`)."""
    if len(blob) != INSTRUCTION_BYTES:
        raise ValueError(f"expected {INSTRUCTION_BYTES} bytes, got {len(blob)}")
    word0, word1, word2 = struct.unpack(">III", blob)
    opcode = {v: k for k, v in _OPCODE_CODES.items()}[(word0 >> 28) & 0xF]
    src = _decode_feature((word1 >> 24) & 0xFF)
    dst = _decode_feature((word1 >> 16) & 0xFF)
    if src is None or dst is None:
        raise ValueError("src and dst operands are mandatory")
    params = None
    if word2 >> 31:
        params = ParameterOperand(
            restart=word2 & 0xFFFFFF,
            weight_qformat=_decode_qformat((word2 >> 24) & 0x1F),
        )
    return Instruction(
        opcode=opcode,
        block_tiles_x=(word0 >> 10) & 0x3FF,
        block_tiles_y=word0 & 0x3FF,
        leaf_modules=((word0 >> 26) & 0x3) + 1,
        input_groups=((word0 >> 22) & 0xF) + 1,
        inference=(
            InferenceType.ZERO_PADDED if (word0 >> 21) & 1 else InferenceType.TRUNCATED
        ),
        pooling=PoolingMode.MAX if (word0 >> 20) & 1 else PoolingMode.STRIDED,
        src=src,
        dst=dst,
        src_s=_decode_feature((word1 >> 8) & 0xFF),
        dst_s=_decode_feature(word1 & 0xFF),
        params=params,
    )


def instruction_size_bytes() -> int:
    """Size of one encoded instruction in bytes."""
    return INSTRUCTION_BYTES


def encode_program(program: Program) -> bytes:
    """Encode a whole program (concatenated instructions).

    Raises :class:`ValueError` naming the instruction index and operand
    when a field does not fit, e.g. a Q-format outside Q0-Q15.
    """
    blobs = []
    for index, instruction in enumerate(program):
        try:
            blobs.append(encode_instruction(instruction))
        except ValueError as exc:
            raise ValueError(f"instruction {index} ({instruction.opcode.value}): {exc}") from exc
    return b"".join(blobs)


def decode_program(blob: bytes, name: str = "program") -> Program:
    """Decode a binary program back into instructions."""
    if len(blob) % INSTRUCTION_BYTES:
        raise ValueError("binary program length is not a multiple of the instruction size")
    program = Program(name=name)
    for offset in range(0, len(blob), INSTRUCTION_BYTES):
        program.append(decode_instruction(blob[offset : offset + INSTRUCTION_BYTES]))
    return program
