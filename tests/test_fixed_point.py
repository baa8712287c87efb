"""The served arithmetic: 8-bit Q-format codes, exact in any summation order.

Every block-flow plan serves its fixed-point program
(:func:`repro.quant.fixed.fixed_point_network`).  These tests pin what
that buys and what it costs:

* the served bytes do not depend on the BLAS thread count, the
  convolution's row-tile size or the block partition (all three changed
  float64 pixels);
* the served codes equal a plain ``np.int64`` reference that never calls
  BLAS, including a layer whose bound forces float64;
* ECNN132 rejects a layer whose accumulator dtype cannot hold its bound.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.check import accumulator_dtype, verify_accumulators, verify_plan
from repro.core.blockflow import frame_based_inference, pad_frame
from repro.nn import layers as nn_layers
from repro.nn.layers import FixedConv2d, FixedResidual, ReLU
from repro.nn.network import Sequential, iter_conv_layers
from repro.nn.ops import PixelShuffle, PixelUnshuffle, StridedPool2x2
from repro.nn.tensor import FeatureMap
from repro.quant import QFormat, psnr
from repro.runtime.cache import ResultCache

SRC = Path(__file__).resolve().parent.parent / "src"

#: (workload, input side) served by the determinism checks.
REQUESTS = (("denoise", 348), ("super_resolution", 96), ("style_transfer", 64))

_DIGESTS = """
import hashlib, json, sys
import numpy as np
from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.runtime.cache import ResultCache
session = Session(cache=ResultCache())
digests = {}
for workload, side in json.loads(sys.argv[1]):
    image = synthetic_image(side, side, seed=3)
    output = session.execute(workload, image, cached=False).output.data
    digests[workload] = hashlib.sha256(output.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def _served_digests(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = str(threads)
    result = subprocess.run(
        [sys.executable, "-c", _DIGESTS, json.dumps(REQUESTS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(result.stdout)


LOWERINGS = {
    "_conv_gather": nn_layers._conv_gather,
    "_conv_rows": nn_layers._conv_rows,
    "_conv_taps": nn_layers._conv_taps,
}


def _spy_later_tiles(monkeypatch) -> set:
    """Names of the lowerings that issue a gemm for a row tile past the first.

    The set fills as convolutions run under ``monkeypatch``: a spy on
    ``np.matmul`` reads its caller's current tile ``top``.
    """
    tiled = set()
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code.co_name in LOWERINGS and caller.f_locals["top"] > 0:
            tiled.add(caller.f_code.co_name)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return tiled


class TestOrderIndependence:
    def test_bytes_do_not_depend_on_blas_threads(self):
        one, two = _served_digests(1), _served_digests(2)
        assert set(one) == {workload for workload, _ in REQUESTS}
        assert one == two

    def test_bytes_do_not_depend_on_tile_size(self, monkeypatch):
        session = Session(cache=ResultCache())
        images = {w: synthetic_image(side, side, seed=3) for w, side in REQUESTS}
        default = {
            w: session.execute(w, image, cached=False).output.data
            for w, image in images.items()
        }
        monkeypatch.setattr(nn_layers, "_TILE_BYTES", 1 << 16)
        monkeypatch.setattr(nn_layers, "_TILE_MIN_PIXELS", 256)
        tiled = _spy_later_tiles(monkeypatch)
        for w, image in images.items():
            small = session.execute(w, image, cached=False).output.data
            assert small.tobytes() == default[w].tobytes(), w
        # Every lowering of the kernel ran, and on more than one row tile.
        assert tiled == set(LOWERINGS)


    def test_bytes_do_not_depend_on_block_partition(self):
        session = Session(cache=ResultCache())
        image = synthetic_image(96, 96, seed=1)
        served = session.execute("denoise", image, cached=False).output.data
        for output_block in (20, 37, 64):
            streamed = session.execute_stream(
                f"cam-{output_block}", "denoise", image, output_block=output_block
            )
            assert streamed.output.data.tobytes() == served.tobytes(), output_block


# ------------------------------------------------------------ int64 reference
def _round_shift(total: np.ndarray, shift: int) -> np.ndarray:
    """``total * 2**-shift`` rounded half to even, in integers."""
    if shift <= 0:
        return total << -shift
    quotient, remainder = np.divmod(total, 1 << shift)
    half = 1 << (shift - 1)
    up = (remainder > half) | ((remainder == half) & (quotient % 2 == 1))
    return quotient + up


def _int_conv(layer: FixedConv2d, codes: np.ndarray, skip=None) -> np.ndarray:
    """One fixed-point convolution in ``np.int64`` (numpy's integer dot, no BLAS)."""
    if layer.padding == "zero" and layer.kernel > 1:
        codes = np.pad(codes, ((0, 0), (1, 1), (1, 1)))
    k = layer.kernel
    out_h, out_w = codes.shape[1] - k + 1, codes.shape[2] - k + 1
    weights = layer.codes.astype(np.int64)
    total = np.zeros((layer.out_channels, out_h, out_w), dtype=np.int64)
    for dy in range(k):
        for dx in range(k):
            window = codes[:, dy : dy + out_h, dx : dx + out_w]
            total += np.tensordot(weights[:, :, dy, dx], window, axes=1)
    acc_frac = layer.in_format.frac + layer.weight_format.frac
    total = total << (layer.grid_frac - acc_frac)
    total += layer.bias_units[:, np.newaxis, np.newaxis]
    if skip is not None:
        total += skip << (layer.grid_frac - layer.skip_format.frac)
    out = _round_shift(total, layer.grid_frac - layer.out_format.frac)
    return np.clip(out, layer.out_format.min_code, layer.out_format.max_code)


def _int_forward(layers, codes: np.ndarray) -> np.ndarray:
    """Run fixed-point layers on int64 codes; the last conv's codes stay codes."""
    for layer in layers:
        if isinstance(layer, FixedConv2d):
            if layer.quantize_input:
                fmt = layer.in_format
                codes = np.clip(np.rint(codes * 2.0**fmt.frac), fmt.min_code, fmt.max_code)
                codes = codes.astype(np.int64)
            codes = _int_conv(layer, codes)
        elif isinstance(layer, FixedResidual):
            body = _int_forward(layer.body[:-1], codes)
            closing = layer.body[-1]
            _, height, width = closing.output_shape(*body.shape)
            top, left = (codes.shape[1] - height) // 2, (codes.shape[2] - width) // 2
            skip = codes[:, top : top + height, left : left + width]
            codes = _int_conv(closing, body, skip)
        elif isinstance(layer, ReLU):
            codes = np.maximum(codes, 0)
        elif isinstance(layer, (PixelShuffle, PixelUnshuffle, StridedPool2x2)):
            codes = layer.forward(FeatureMap(data=codes)).data
        else:
            raise TypeError(f"no int64 reference for {type(layer).__name__}")
    return codes


def _last_conv(network) -> FixedConv2d:
    return list(iter_conv_layers(network))[-1]


class TestInt64Reference:
    def test_denoise_serves_the_int64_codes(self):
        session = Session(cache=ResultCache())
        image = synthetic_image(64, 64, seed=4)
        served = session.execute("denoise", image, cached=False).output.data
        network = session.compile("denoise").network
        padded = pad_frame(image, network.layers)
        codes = _int_forward(network.layers, padded)
        last = _last_conv(network)
        assert served.dtype == last.dtype == np.float32
        assert np.array_equal(served, codes * last.out_format.step)

    def test_a_style_transfer_stage_serves_the_int64_codes(self):
        plan = Session(cache=ResultCache()).compile("style_transfer")
        first = plan.stages[0]
        piece = Sequential(plan.network.layers[first.start : first.stop])
        window = synthetic_image(first.input_block, first.input_block, seed=6).data
        served = piece.forward(FeatureMap(data=window)).data
        assert served.dtype == np.float32  # codes, still in the layers' dtype
        assert np.array_equal(served, _int_forward(piece.layers, window))

    def test_a_layer_over_2_24_runs_float64_and_stays_exact(self):
        rng = np.random.default_rng(0)
        codes = np.where(rng.random((128, 128, 3, 3)) < 0.5, -127, 127)
        layer = FixedConv2d(
            codes,
            np.zeros(128, dtype=np.int64),
            weight_format=QFormat(7),
            bias_format=QFormat(7),
            in_format=QFormat(5),
            out_format=QFormat(-4),
        )
        assert layer.accumulator_bound > 1 << 24
        layer = layer.replace(dtype=accumulator_dtype(layer.accumulator_bound))
        assert layer.dtype == np.float64
        # The top-left window matches output channel 0's weight signs, so
        # that output's partial sums really pass 2**24.
        x = rng.integers(-128, 128, size=(128, 12, 12)).astype(np.float64)
        x[:, :3, :3] = 127 * np.sign(codes[0])
        served = layer.forward(FeatureMap(data=x)).data
        assert np.array_equal(served, _int_conv(layer, x.astype(np.int64)))
        # In Q0 the unrounded sums are real values on a 2**-12 grid.
        sums = layer.replace(out_format=QFormat(0)).accumulate(FeatureMap(data=x))
        assert abs(sums[0, 0, 0]) * 2**12 > 1 << 24


class TestLowerings:
    """Each lowering of the conv kernel serves the int64 codes, whichever is picked."""

    @pytest.mark.parametrize(
        "in_channels, out_channels, dtype",
        [
            (3, 32, np.float32),
            (32, 3, np.float32),
            (32, 8, np.float32),
            (32, 32, np.float32),
            (32, 96, np.float32),
            (128, 128, np.float32),
            (32, 32, np.float64),
        ],
    )
    def test_every_lowering_serves_the_int64_codes(
        self, monkeypatch, in_channels, out_channels, dtype
    ):
        rng = np.random.default_rng(in_channels * 1000 + out_channels)
        layer = FixedConv2d(
            rng.integers(-128, 128, size=(out_channels, in_channels, 3, 3)),
            rng.integers(-128, 128, size=out_channels),
            weight_format=QFormat(7),
            bias_format=QFormat(7),
            in_format=QFormat(5),
            out_format=QFormat(3),
            skip_format=QFormat(4),
            dtype=dtype,
        )
        if dtype == np.float32:
            assert accumulator_dtype(layer.accumulator_bound) == np.float32
        codes = rng.integers(-128, 128, size=(in_channels, 41, 36))
        skip = rng.integers(-128, 128, size=(out_channels, 39, 34))
        expected = _int_conv(layer, codes, skip)
        fmt = layer.out_format
        data = codes.astype(dtype)
        scaled_skip = (skip * 2.0 ** (fmt.frac - layer.skip_format.frac)).astype(dtype)
        # Small tiles: every lowering runs several row tiles, the last partial.
        monkeypatch.setattr(nn_layers, "_TILE_BYTES", 1 << 14)
        monkeypatch.setattr(nn_layers, "_TILE_MIN_PIXELS", 64)
        picked = layer.forward(FeatureMap(data=data), skip=skip.astype(dtype)).data
        assert np.array_equal(picked, expected)
        for name, lowering in LOWERINGS.items():
            widths = []
            matmul = np.matmul

            def spy(a, b, *args, **kwargs):
                widths.append(b.shape[-1])
                return matmul(a, b, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np, "matmul", spy)
                out = lowering(
                    data, layer.weights, layer.bias, scaled_skip, (fmt.min_code, fmt.max_code)
                )
            assert len(widths) > 2 and widths[-1] < widths[0], name
            assert out.dtype == dtype
            assert np.array_equal(out, expected), name
            assert np.array_equal(out, picked), name


class TestAccumulatorRule:
    def test_catalogue_plans_pass(self):
        session = Session(cache=ResultCache())
        for workload in ("denoise", "super_resolution", "style_transfer"):
            plan = session.compile(workload)
            assert plan.formats and not verify_accumulators(plan.network).diagnostics

    def test_doctored_plan_is_ecnn132(self):
        plan = Session(cache=ResultCache(), verify=False).compile("style_transfer")
        network = copy.deepcopy(plan.network)
        wide = next(c for c in iter_conv_layers(network) if c.in_channels == 128)
        wide.codes[...] = np.where(wide.codes < 0, -127, 127)
        wide.dtype = np.dtype(np.float32)
        report = verify_plan(replace(plan, network=network))
        assert [d.rule_id for d in report.diagnostics if d.rule_id == "ECNN132"] == ["ECNN132"]
        assert not report.ok
        assert verify_plan(plan).ok


def test_served_pixels_track_the_float_reference():
    """The fixed-point program stays close to the float64 network it quantizes."""
    session = Session(cache=ResultCache())
    for workload, side in (("denoise", 64), ("style_transfer", 48)):
        image = synthetic_image(side, side, seed=9)
        reference = frame_based_inference(session.workload(workload).shared_network(), image)
        served = session.execute(workload, image, cached=False).output
        peak = float(reference.data.max() - reference.data.min())
        assert psnr(reference.data, served.data, peak=peak) > 20.0, workload
