"""Textual FBISA assembly (named-operand format) and its parser.

The paper argues for named operand expressions instead of ordered ones to
keep programs readable (Section 5.1).  The format produced and consumed here
is the one :meth:`repro.fbisa.isa.Instruction.summary` prints::

    ER size=16x16 lm=1 src=BB0.UQ6 dst=BB1.Q5 par=@0x0040.Q7 ; er3
    UPX2 size=32x32 lm=4 src=BB1.Q5 dst=BB2.Q4 par=@0x0080.Q7

Comments start with ``;`` and blank lines are ignored.
"""

from __future__ import annotations

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


class AssemblerError(ValueError):
    """Raised when FBISA assembly text cannot be parsed."""


def disassemble(program: Program) -> str:
    """Render a program as assembly text (round-trips through :func:`assemble`)."""
    lines = [f"; {program.name}"]
    lines.extend(instruction.summary() for instruction in program.instructions)
    return "\n".join(lines) + "\n"


def assemble(text: str, name: str = "program") -> Program:
    """Parse assembly text into a :class:`~repro.fbisa.program.Program`."""
    program = Program(name=name)
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        program.append(_parse_line(line, line_number))
    return program


def _parse_line(line: str, line_number: int) -> Instruction:
    tokens = line.split()
    try:
        opcode = Opcode(tokens[0].upper())
    except ValueError as exc:
        raise AssemblerError(f"line {line_number}: unknown opcode {tokens[0]!r}") from exc

    fields = {}
    for token in tokens[1:]:
        if "=" not in token:
            raise AssemblerError(
                f"line {line_number}: expected key=value operand, got {token!r}"
            )
        key, value = token.split("=", 1)
        fields[key.lower()] = value

    if "size" not in fields or "src" not in fields or "dst" not in fields:
        raise AssemblerError(
            f"line {line_number}: size, src and dst are mandatory operands"
        )

    try:
        tiles_x, tiles_y = (int(part) for part in fields["size"].lower().split("x"))
    except ValueError as exc:
        raise AssemblerError(
            f"line {line_number}: size must look like 16x16, got {fields['size']!r}"
        ) from exc

    instruction = Instruction(
        opcode=opcode,
        block_tiles_x=tiles_x,
        block_tiles_y=tiles_y,
        leaf_modules=int(fields.get("lm", 1)),
        input_groups=int(fields.get("ig", 1)),
        inference=(
            InferenceType.ZERO_PADDED
            if fields.get("pad", "").lower() == "zero"
            else InferenceType.TRUNCATED
        ),
        src=_parse_feature(fields["src"], line_number),
        dst=_parse_feature(fields["dst"], line_number),
        src_s=_parse_feature(fields["srcs"], line_number) if "srcs" in fields else None,
        dst_s=_parse_feature(fields["dsts"], line_number) if "dsts" in fields else None,
        params=_parse_params(fields["par"], line_number) if "par" in fields else None,
        pooling=PoolingMode(fields["pool"]) if "pool" in fields else PoolingMode.STRIDED,
    )
    return instruction


def _parse_feature(text: str, line_number: int) -> FeatureOperand:
    parts = text.split(".", 1)
    try:
        buffer = BlockBufferId(parts[0].upper())
    except ValueError as exc:
        raise AssemblerError(
            f"line {line_number}: unknown block buffer {parts[0]!r}"
        ) from exc
    qformat = parts[1] if len(parts) > 1 else "Q6"
    return FeatureOperand(buffer=buffer, qformat=qformat)


def _parse_params(text: str, line_number: int) -> ParameterOperand:
    if not text.startswith("@"):
        raise AssemblerError(
            f"line {line_number}: parameter operand must start with '@', got {text!r}"
        )
    body = text[1:]
    parts = body.split(".", 1)
    try:
        restart = int(parts[0], 0)
    except ValueError as exc:
        raise AssemblerError(
            f"line {line_number}: bad restart address {parts[0]!r}"
        ) from exc
    qformat = parts[1] if len(parts) > 1 else "Q7"
    return ParameterOperand(restart=restart, weight_qformat=qformat)
