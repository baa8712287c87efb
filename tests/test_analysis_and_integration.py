"""Tests for the analysis utilities plus cross-package integration paths."""

import numpy as np
import pytest

from repro.analysis.report import Table, format_table
from repro.analysis.sweeps import sweep
from repro.analysis.workloads import (
    add_gaussian_noise,
    bicubic_like_downsample,
    synthetic_image,
)
from repro.core.blockflow import Stage, staged_inference
from repro.fbisa import assemble, compile_network, disassemble, encode_program
from repro.fbisa.encoding import decode_program
from repro.hw import evaluate_performance
from repro.models import build_dnernet, build_sr2ernet
from repro.specs import SPECIFICATIONS


class TestWorkloads:
    def test_synthetic_image_deterministic_and_bounded(self):
        a = synthetic_image(32, 40, seed=3)
        b = synthetic_image(32, 40, seed=3)
        c = synthetic_image(32, 40, seed=4)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert a.shape == (3, 32, 40)
        assert a.data.min() >= 0.0 and a.data.max() <= 1.0

    def test_synthetic_image_minimum_size(self):
        with pytest.raises(ValueError):
            synthetic_image(2, 2)

    def test_gaussian_noise_changes_values_but_stays_in_range(self):
        image = synthetic_image(16, 16, seed=1)
        noisy = add_gaussian_noise(image, 0.1, seed=2)
        assert noisy.shape == image.shape
        assert not np.array_equal(noisy.data, image.data)
        assert noisy.data.min() >= 0.0 and noisy.data.max() <= 1.0
        assert np.array_equal(add_gaussian_noise(image, 0.0).data, image.data)
        with pytest.raises(ValueError):
            add_gaussian_noise(image, -0.1)

    def test_downsample_shapes_and_mean_preservation(self):
        image = synthetic_image(32, 32, seed=5)
        small = bicubic_like_downsample(image, 4)
        assert small.shape == (3, 8, 8)
        assert small.data.mean() == pytest.approx(image.data.mean(), abs=1e-9)
        assert bicubic_like_downsample(image, 1) is image
        with pytest.raises(ValueError):
            bicubic_like_downsample(image, 3)


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table("demo", ["a", "longer"], [(1, 2.5), ("xx", 3)])
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[2] and "longer" in lines[2]
        assert len(lines) == 6

    def test_table_object_validates_row_width(self):
        table = Table("t", ["x", "y"])
        table.add_row(1, 2)
        assert "1" in table.render()
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_sweep_returns_pairs(self):
        assert sweep([1, 2, 3], lambda x: x * x) == [(1, 1), (2, 4), (3, 9)]


class TestEndToEnd:
    def test_binary_program_round_trip_preserves_timing(self):
        compiled = compile_network(build_dnernet(3, 1, 0), input_block=64)
        blob = encode_program(compiled.program)
        decoded = decode_program(blob, name="roundtrip")
        assert len(decoded) == len(compiled.program)
        for original, restored in zip(compiled.program, decoded):
            assert original.opcode == restored.opcode
            assert original.num_tiles == restored.num_tiles
            assert original.leaf_modules == restored.leaf_modules

    def test_assembly_round_trip_of_compiled_program(self):
        compiled = compile_network(build_sr2ernet(2, 1, 0), input_block=64)
        text = disassemble(compiled.program)
        parsed = assemble(text)
        assert len(parsed) == len(compiled.program)
        parsed.validate()

    def test_pipeline_and_performance_agree_on_block_geometry(self):
        # The block flow run at input block 128 produces the output block
        # the performance model charges.
        network = build_dnernet(3, 1, 0)
        stage = Stage(0, len(network.layers), 128)
        _, (grid,) = staged_inference(network, (stage,), synthetic_image(160, 160, seed=1))
        perf = evaluate_performance(network, SPECIFICATIONS["HD30"], input_block=128)
        assert grid.block_size == perf.output_block
        assert grid.num_blocks > 1
