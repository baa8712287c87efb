"""Tests for FBISA instructions, programs, assembler and binary encoding."""

import pytest

from repro.fbisa.assembler import AssemblerError, assemble, disassemble
from repro.fbisa.encoding import (
    INSTRUCTION_BYTES,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
)
from repro.fbisa.isa import (
    BlockBufferId,
    FeatureOperand,
    InferenceType,
    Instruction,
    Opcode,
    ParameterOperand,
    PoolingMode,
)
from repro.fbisa.program import Program, ProgramValidationError


def _conv(src, dst, *, opcode=Opcode.CONV, lm=1, ig=1, src_s=None, params=None, **kwargs):
    return Instruction(
        opcode=opcode,
        block_tiles_x=16,
        block_tiles_y=32,
        leaf_modules=lm,
        input_groups=ig,
        src=FeatureOperand(src),
        dst=FeatureOperand(dst),
        src_s=FeatureOperand(src_s) if src_s else None,
        params=params,
        **kwargs,
    )


class TestInstruction:
    def test_block_geometry(self):
        instruction = _conv(BlockBufferId.DI, BlockBufferId.BB0)
        assert instruction.block_width == 64
        assert instruction.block_height == 64
        assert instruction.num_tiles == 512

    def test_channel_counts(self):
        instruction = _conv(BlockBufferId.DI, BlockBufferId.BB0, lm=4, ig=2)
        assert instruction.out_channels == 128
        assert instruction.in_channels == 64

    def test_macs_conv_vs_er(self):
        conv = _conv(BlockBufferId.DI, BlockBufferId.BB0)
        er = _conv(BlockBufferId.BB0, BlockBufferId.BB1, opcode=Opcode.ER)
        pixels = conv.block_width * conv.block_height
        assert conv.macs == pixels * 32 * 32 * 9
        assert er.macs == pixels * (32 * 32 * 9 + 32 * 32)

    def test_parameter_accounting(self):
        er = _conv(BlockBufferId.BB0, BlockBufferId.BB1, opcode=Opcode.ER, lm=3)
        assert er.weights_per_instruction == 3 * (32 * 32 * 9 + 32 * 32)
        assert er.biases_per_instruction == 3 * 64

    def test_validation(self):
        with pytest.raises(ValueError):
            _conv(BlockBufferId.DI, BlockBufferId.BB0, lm=5)
        with pytest.raises(ValueError):
            _conv(BlockBufferId.DI, BlockBufferId.BB0, ig=0)
        with pytest.raises(ValueError):
            Instruction(
                opcode=Opcode.CONV,
                block_tiles_x=0,
                block_tiles_y=1,
                src=FeatureOperand(BlockBufferId.DI),
                dst=FeatureOperand(BlockBufferId.BB0),
            )
        with pytest.raises(ValueError):
            ParameterOperand(restart=-1)

    def test_summary_mentions_operands(self):
        instruction = _conv(
            BlockBufferId.DI,
            BlockBufferId.BB0,
            params=ParameterOperand(restart=64),
            src_s=BlockBufferId.DI,
        )
        text = instruction.summary()
        assert "CONV" in text and "src=DI" in text and "par=@0x0040" in text


class TestProgramValidation:
    def _valid_program(self) -> Program:
        program = Program(name="demo")
        program.append(_conv(BlockBufferId.DI, BlockBufferId.BB0))
        program.append(_conv(BlockBufferId.BB0, BlockBufferId.BB1, opcode=Opcode.ER))
        program.append(_conv(BlockBufferId.BB1, BlockBufferId.DO))
        return program

    def test_valid_program_passes(self):
        self._valid_program().validate()

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramValidationError):
            Program(name="empty").validate()

    def test_read_before_write_rejected(self):
        program = Program(name="bad")
        program.append(_conv(BlockBufferId.BB0, BlockBufferId.DO))
        with pytest.raises(ProgramValidationError):
            program.validate()

    def test_do_as_source_rejected(self):
        program = self._valid_program()
        program.append(_conv(BlockBufferId.DO, BlockBufferId.BB2))
        with pytest.raises(ProgramValidationError):
            program.validate()

    def test_di_as_destination_rejected(self):
        program = Program(name="bad")
        program.append(_conv(BlockBufferId.DI, BlockBufferId.DI))
        with pytest.raises(ProgramValidationError):
            program.validate()

    def test_same_buffer_src_dst_rejected(self):
        program = Program(name="bad")
        program.append(_conv(BlockBufferId.DI, BlockBufferId.BB0))
        program.append(_conv(BlockBufferId.BB0, BlockBufferId.BB0))
        program.append(_conv(BlockBufferId.BB0, BlockBufferId.DO))
        with pytest.raises(ProgramValidationError):
            program.validate()

    def test_must_touch_di_and_do(self):
        program = Program(name="bad")
        program.append(_conv(BlockBufferId.DI, BlockBufferId.BB0))
        with pytest.raises(ProgramValidationError):
            program.validate()

    def test_histogram_and_totals(self):
        program = self._valid_program()
        histogram = program.opcode_histogram()
        assert histogram[Opcode.CONV] == 2
        assert histogram[Opcode.ER] == 1
        assert program.total_macs > 0
        assert program.buffers_used() >= {BlockBufferId.DI, BlockBufferId.DO}


class TestAssembler:
    def test_round_trip(self):
        program = Program(name="demo")
        program.append(
            _conv(
                BlockBufferId.DI,
                BlockBufferId.BB0,
                params=ParameterOperand(restart=0, weight_qformat="Q7"),
            )
        )
        program.append(
            _conv(
                BlockBufferId.BB0,
                BlockBufferId.BB1,
                opcode=Opcode.ER,
                src_s=BlockBufferId.BB0,
                params=ParameterOperand(restart=64),
            )
        )
        text = disassemble(program)
        parsed = assemble(text, name="demo")
        assert len(parsed) == len(program)
        for original, round_tripped in zip(program, parsed):
            assert original.opcode == round_tripped.opcode
            assert original.src == round_tripped.src
            assert original.dst == round_tripped.dst
            assert original.src_s == round_tripped.src_s
            assert (original.params is None) == (round_tripped.params is None)

    def test_comments_and_blank_lines_ignored(self):
        text = """
        ; a comment
        CONV size=4x4 lm=1 src=DI.Q6 dst=BB0.Q6

        UPX2 size=4x4 lm=4 src=BB0.Q6 dst=DO.Q5
        """
        program = assemble(text)
        assert len(program) == 2
        assert program.instructions[1].opcode is Opcode.UPX2

    def test_parse_errors(self):
        with pytest.raises(AssemblerError):
            assemble("FOO size=4x4 src=DI dst=BB0")
        with pytest.raises(AssemblerError):
            assemble("CONV src=DI dst=BB0")
        with pytest.raises(AssemblerError):
            assemble("CONV size=4x4 src=XX dst=BB0")
        with pytest.raises(AssemblerError):
            assemble("CONV size=four src=DI dst=BB0")
        with pytest.raises(AssemblerError):
            assemble("CONV size=4x4 src=DI dst=BB0 par=64")


class TestBinaryEncoding:
    def test_instruction_round_trip(self):
        original = _conv(
            BlockBufferId.DI,
            BlockBufferId.BB2,
            opcode=Opcode.DNX2,
            lm=2,
            ig=3,
            src_s=BlockBufferId.BB0,
            params=ParameterOperand(restart=1234, weight_qformat="Q5"),
            pooling=PoolingMode.MAX,
            inference=InferenceType.ZERO_PADDED,
        )
        blob = encode_instruction(original)
        assert len(blob) == INSTRUCTION_BYTES
        decoded = decode_instruction(blob)
        assert decoded.opcode == original.opcode
        assert decoded.leaf_modules == original.leaf_modules
        assert decoded.input_groups == original.input_groups
        assert decoded.inference == original.inference
        assert decoded.pooling == original.pooling
        assert decoded.src == original.src
        assert decoded.dst == original.dst
        assert decoded.src_s == original.src_s
        assert decoded.params.restart == 1234

    def test_program_round_trip_and_size(self):
        program = Program(name="demo")
        program.append(_conv(BlockBufferId.DI, BlockBufferId.BB0))
        program.append(_conv(BlockBufferId.BB0, BlockBufferId.DO, opcode=Opcode.ER))
        blob = encode_program(program)
        assert len(blob) == 2 * INSTRUCTION_BYTES
        decoded = decode_program(blob)
        assert len(decoded) == 2
        assert decoded.instructions[1].opcode is Opcode.ER

    def test_decode_rejects_bad_length(self):
        with pytest.raises(ValueError):
            decode_instruction(b"\x00" * 5)
        with pytest.raises(ValueError):
            decode_program(b"\x00" * 13)
