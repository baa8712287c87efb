"""Tests for the eCNN configuration, IDU/CIU timing and processor cycle model."""

import pytest

from repro.fbisa.compiler import compile_network
from repro.fbisa.isa import BlockBufferId, FeatureOperand, Instruction, Opcode
from repro.hw.ciu import ciu_cycles, engine_activity
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.hw.idu import idu_cycles, program_decode_cycles
from repro.hw.processor import BlockExecutionReport, EcnnProcessor
from repro.models.ernet import build_dnernet, build_sr4ernet


class TestConfig:
    def test_table2_figures(self):
        config = DEFAULT_CONFIG
        assert config.total_multipliers == 81_920
        assert config.lconv3x3_multipliers == 73_728
        assert config.lconv1x1_multipliers == 8_192
        assert config.peak_tops == pytest.approx(40.96, rel=0.001)
        assert config.total_block_buffer_bytes == 3 * 512 * 1024
        assert config.parameter_memory_kb == 1288

    def test_block_buffer_holds_128px_blocks(self):
        # A 512 KB buffer holds a 128x128 32-channel 8-bit block exactly.
        assert DEFAULT_CONFIG.max_block_pixels == 128

    def test_with_parameter_memory(self):
        tripled = DEFAULT_CONFIG.with_parameter_memory(3 * 1288)
        assert tripled.parameter_memory_kb == 3 * 1288
        assert tripled.clock_hz == DEFAULT_CONFIG.clock_hz


def _instruction(opcode=Opcode.CONV, tiles=(8, 16), lm=1, ig=1, params=True):
    from repro.fbisa.isa import ParameterOperand

    return Instruction(
        opcode=opcode,
        block_tiles_x=tiles[0],
        block_tiles_y=tiles[1],
        leaf_modules=lm,
        input_groups=ig,
        src=FeatureOperand(BlockBufferId.BB0),
        dst=FeatureOperand(BlockBufferId.BB1),
        params=ParameterOperand(restart=0) if params else None,
    )


class TestUnitTiming:
    def test_ciu_one_cycle_per_tile_leaf_group(self):
        assert ciu_cycles(_instruction()) == 8 * 16
        assert ciu_cycles(_instruction(lm=4)) == 8 * 16 * 4
        assert ciu_cycles(_instruction(lm=2, ig=3)) == 8 * 16 * 6

    def test_idu_256_cycles_per_leaf(self):
        assert idu_cycles(_instruction()) == 256
        assert idu_cycles(_instruction(lm=4, ig=2)) == 2048
        assert idu_cycles(_instruction(params=False)) == 4

    def test_program_decode_cycles(self):
        instructions = [_instruction(), _instruction(lm=2)]
        assert program_decode_cycles(instructions) == 256 + 512

    def test_engine_activity_tracks_er_share(self):
        all_conv = engine_activity([_instruction(), _instruction()])
        assert all_conv.lconv3x3 == 1.0 and all_conv.lconv1x1 == 0.0
        mixed = engine_activity([_instruction(), _instruction(opcode=Opcode.ER)])
        assert 0.0 < mixed.lconv1x1 < 1.0
        empty = engine_activity([])
        assert empty.lconv3x3 == 0.0

    def test_ciu_rate_matches_multiplier_count(self):
        # One leaf-module tile per cycle = 32x32x9 MACs over 8 pixels, which is
        # exactly the LCONV3x3 multiplier count.
        instruction = _instruction(tiles=(1, 1))
        macs_per_cycle = instruction.macs / ciu_cycles(instruction)
        assert macs_per_cycle == pytest.approx(DEFAULT_CONFIG.lconv3x3_multipliers, rel=0.15)


class TestPipeline:
    def test_pipelined_cycles_bounded_by_components(self):
        report = BlockExecutionReport(
            ciu_cycles_per_instruction=(100, 200, 50),
            idu_cycles_per_instruction=(256, 64, 300),
        )
        assert report.pipelined_cycles >= max(report.ciu_total, report.idu_total)
        assert report.pipelined_cycles <= report.ciu_total + report.idu_total
        assert report.idu_bound_stages == 1  # the 300-cycle decode after a 200-cycle stage? no: after 100

    def test_pipeline_dominated_by_ciu_for_large_blocks(self):
        compiled = compile_network(build_dnernet(3, 1, 0), input_block=128)
        processor = EcnnProcessor()
        processor.load(compiled)
        report = processor.block_report()
        assert len(report.ciu_cycles_per_instruction) == len(compiled.program)
        assert report.pipelined_cycles < report.ciu_total * 1.1

    def test_empty_report(self):
        assert BlockExecutionReport((), ()).pipelined_cycles == 0


class TestProcessor:
    def test_requires_loaded_model(self):
        with pytest.raises(RuntimeError):
            EcnnProcessor().block_report()

    def test_oversized_model_rejected(self):
        tiny_memory = EcnnConfig(parameter_memory_kb=8)
        compiled = compile_network(build_sr4ernet(8, 4, 0), input_block=128)
        with pytest.raises(ValueError):
            EcnnProcessor(tiny_memory).load(compiled)
