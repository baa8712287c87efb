"""Tests for the ERNet -> FBISA compiler and compiled-program execution."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.fbisa.compiler import CompilerError, compile_network
from repro.fbisa.encoding import decode_program, encode_program
from repro.fbisa.isa import BlockBufferId, Opcode
from repro.models.ernet import build_dnernet, build_dnernet_12ch, build_sr4ernet
from repro.models.vision import build_recognition_network, build_style_transfer_network
from repro.nn.layers import Conv2d, FixedConv2d
from repro.nn.network import Sequential, iter_conv_layers
from repro.nn.tensor import FeatureMap
from repro.runtime.cache import ResultCache


class TestProgramStructure:
    def test_dnernet_b3_compiles_to_six_lines(self):
        # Fig. 18: the six-layer DnERNet for UHD30 needs a six-line program.
        compiled = compile_network(build_dnernet(3, 1, 0), input_block=128)
        program = compiled.program
        assert program.num_lines == 6
        histogram = program.opcode_histogram()
        assert histogram[Opcode.ER] == 3
        assert histogram[Opcode.CONV] == 3

    def test_sr4_b34_program_is_concise(self):
        # The paper quotes 45 lines for SR4ERNet-B34R4N0; the exact count
        # depends on lowering details but stays within a few lines of it.
        compiled = compile_network(build_sr4ernet(34, 4, 0), input_block=128)
        assert 36 <= compiled.program.num_lines <= 48

    def test_program_reads_di_and_writes_do(self):
        program = compile_network(build_dnernet(2, 1, 0), input_block=64).program
        assert program.instructions[0].src.buffer is BlockBufferId.DI
        assert program.instructions[-1].dst.buffer is BlockBufferId.DO
        program.validate()

    def test_er_instructions_use_leaf_modules_for_expansion(self):
        program = compile_network(build_dnernet(2, 3, 0), input_block=64).program
        er_instructions = [i for i in program if i.opcode is Opcode.ER]
        assert all(i.leaf_modules == 3 for i in er_instructions)
        assert all(i.src_s is not None for i in er_instructions)

    def test_upsamplers_become_upx2(self):
        program = compile_network(build_sr4ernet(2, 1, 0), input_block=64).program
        histogram = program.opcode_histogram()
        assert histogram.get(Opcode.UPX2, 0) == 2

    def test_global_residual_accumulates_via_srcs(self):
        program = compile_network(build_dnernet(3, 1, 0), input_block=64).program
        # The tail convolution (second to last) accumulates the head output.
        tail = program.instructions[-2]
        assert tail.src_s is not None
        assert tail.src_s.buffer != tail.src.buffer

    def test_dn12_compiles_with_final_shuffle(self):
        compiled = compile_network(build_dnernet_12ch(2, 2, 0), input_block=64)
        assert compiled.program.instructions[-1].opcode is Opcode.UPX2

    def test_parameters_extracted_for_every_conv_instruction(self):
        compiled = compile_network(build_dnernet(3, 1, 0), input_block=64)
        assert len(compiled.parameters) == compiled.program.num_lines
        assert all(p is not None for p in compiled.parameters)

    def test_restart_addresses_increase(self):
        program = compile_network(build_dnernet(3, 1, 0), input_block=64).program
        restarts = [i.params.restart for i in program if i.params is not None]
        assert all(b > a for a, b in zip(restarts, restarts[1:]))

    def test_unsupported_layer_rejected(self):
        from repro.nn.layers import AddBias

        net = Sequential([Conv2d(3, 32, 3), AddBias(np.zeros(32))], name="bad")
        with pytest.raises(CompilerError):
            compile_network(net, input_block=64)

    def test_too_wide_layer_rejected(self):
        net = Sequential([Conv2d(3, 256, 3)], name="wide")
        with pytest.raises(CompilerError):
            compile_network(net, input_block=64)

    def test_too_small_block_rejected(self):
        with pytest.raises(CompilerError):
            compile_network(build_sr4ernet(34, 4, 0), input_block=32)


class TestCompiledExecution:
    """A compiled program computes exactly what its fixed-point program serves."""

    @pytest.mark.parametrize(
        "builder,block",
        [
            (lambda: build_dnernet(3, 1, 0), 40),
            (lambda: build_dnernet(2, 2, 1), 36),
            (lambda: build_sr4ernet(2, 1, 0), 48),
            (lambda: build_dnernet_12ch(2, 2, 0), 40),
        ],
    )
    def test_compiled_program_matches_network(self, builder, block):
        compiled = compile_network(builder(), input_block=max(block, 64))
        image = synthetic_image(block, block, seed=block)
        result = compiled.execute_block(image)
        assert np.array_equal(result.data, compiled.network.forward(image).data)

    def test_style_transfer_equivalence(self):
        compiled = compile_network(build_style_transfer_network(blocks=2), input_block=128)
        image = synthetic_image(64, 64, seed=1)
        assert np.array_equal(
            compiled.execute_block(image).data, compiled.network.forward(image).data
        )

    def test_recognition_equivalence(self):
        compiled = compile_network(build_recognition_network(), input_block=224)
        image = synthetic_image(32, 32, seed=2)
        assert np.array_equal(
            compiled.execute_block(image).data, compiled.network.forward(image).data
        )

    def test_a_fixed_point_program_is_lowered_as_is(self):
        compiled = compile_network(build_dnernet(2, 1, 0), input_block=64)
        again = compile_network(compiled.network, input_block=64)
        assert again.network is compiled.network
        assert again.program == compiled.program


CATALOGUE = ("denoise", "super_resolution", "style_transfer", "recognition")


@pytest.fixture(scope="module")
def served_plans():
    session = Session(backend="ecnn", cache=ResultCache())
    return {name: session.compile(name) for name in CATALOGUE}


def _convs(semantics):
    return [layer for layer in semantics.layers if isinstance(layer, FixedConv2d)]


@pytest.mark.parametrize("workload", CATALOGUE)
class TestServedProgram:
    """Every catalogue plan's FBISA program is the program its pixels come from."""

    def test_instructions_run_the_served_layers(self, served_plans, workload):
        plan = served_plans[workload]
        lowered = [conv for sem in plan.payload.semantics for conv in _convs(sem)]
        served = list(iter_conv_layers(plan.network))
        assert len(lowered) == len(served)
        assert all(a is b for a, b in zip(lowered, served))

    def test_operand_formats_are_the_served_formats(self, served_plans, workload):
        plan = served_plans[workload]
        for instruction, sem in zip(plan.payload.program, plan.payload.semantics):
            convs = _convs(sem)
            first, closing = convs[0], convs[-1]
            assert instruction.src.qformat == first.in_format.name
            assert instruction.dst.qformat == closing.out_format.name
            assert instruction.params.weight_qformat == first.weight_format.name
            if instruction.src_s is not None:
                assert instruction.src_s.qformat == closing.skip_format.name
            else:
                assert closing.skip_format is None

    def test_packed_codes_are_the_served_codes(self, served_plans, workload):
        plan = served_plans[workload]
        for packed, sem in zip(plan.payload.parameters, plan.payload.semantics):
            convs = _convs(sem)
            assert np.array_equal(packed.weights3x3, convs[0].codes)
            if len(convs) == 2:
                assert np.array_equal(packed.weights1x1.ravel(), convs[1].codes.ravel())
            else:
                assert packed.weights1x1 is None
            assert np.array_equal(
                packed.biases, np.concatenate([conv.bias_codes for conv in convs])
            )

    def test_execute_block_equals_the_served_pixels(self, served_plans, workload):
        plan = served_plans[workload]
        side = 32 if workload == "recognition" else plan.input_block
        rng = np.random.default_rng(7)
        block = FeatureMap(data=rng.random((plan.network.in_channels, side, side)))
        assert np.array_equal(
            plan.payload.execute_block(block).data, plan.network.forward(block).data
        )

    def test_binary_encoding_holds_only_q0_to_q15(self, served_plans, workload):
        program = served_plans[workload].payload.program
        if workload in ("denoise", "style_transfer"):
            decoded = decode_program(encode_program(program), name=program.name)
            for original, back in zip(program, decoded):
                assert back == replace(original, label="")
        else:
            # Super-resolution reaches Q-10 and recognition Q-7; the 4-bit
            # fraction field holds 0-15.
            with pytest.raises(ValueError, match=r"instruction \d+ \(\w+\): \w+ operand"):
                encode_program(program)
