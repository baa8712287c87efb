"""Core CNN layers: convolution, activation, residual connections.

Only the operator vocabulary used by the eCNN paper is implemented.  Each
layer exposes:

* ``forward(fm)`` — functional execution on a :class:`~repro.nn.tensor.FeatureMap`
  (the only pixel path: the block flow calls it once per block);
* ``output_shape(c, h, w)`` — static shape propagation (used by the
  block-flow geometry analysis without running any arithmetic);
* ``macs_per_output_pixel(...)`` / ``num_parameters`` — complexity accounting
  feeding the KOP/pixel numbers of Section 4.2;
* ``margin`` — how many border pixels the layer consumes on each side in
  ``valid`` mode (0 for 1x1 convolution and pointwise ops, 1 for 3x3), which
  drives the truncated-pyramid geometry of Section 3.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.initializers import he_laplace, seeded_rng
from repro.nn.tensor import FeatureMap


#: Bytes a row tile may hold in gathered patches and folded gemm results:
#: small enough to stay cache-near.
_TILE_BYTES = 4 << 20
#: Fewest output pixels per row tile, so each gemm stays wide enough for BLAS.
_TILE_MIN_PIXELS = 4096
#: Smallest input side on which folding kernel rows beats gathering
#: patches (``tools/conv_paths.py`` measures the crossover).
_ROWS_MIN_SIDE = 32


def _conv2d_valid(
    data: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    skip: Optional[np.ndarray] = None,
    clip: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """Valid-mode convolution of one ``(C, H, W)`` map -> ``(O, H_out, W_out)``.

    One BLAS gemm per row tile of the output, lowered one of three ways,
    picked from the shapes alone:

    * :func:`_conv_taps` folds every kernel tap into the gemm's M and runs
      it on the input rows in place: every 1x1, and KxK with at most a
      quarter as many outputs as inputs;
    * :func:`_conv_rows` folds the kernel rows into M and gathers only the
      K column shifts: KxK that does not widen the map, on inputs at least
      ``_ROWS_MIN_SIDE`` on each side;
    * :func:`_conv_gather` gathers whole im2col patches: the rest.

    All three add up the same products, so integer codes come out
    identical whichever runs.  The tile height depends on the input shape
    only, so equal-shaped inputs always run the same gemm shapes.
    ``skip`` (shaped like the output) is added to each slab, and ``clip``
    rounds each slab half-to-even and clips it to ``[lo, hi]`` in place
    while the slab is still cache-hot: the fixed-point requantization.
    """
    return _lowering(data.shape, weights.shape)(data, weights, bias, skip, clip)


def _lowering(data_shape: Tuple[int, ...], weights_shape: Tuple[int, ...]):
    """The path :func:`_conv2d_valid` runs for these input and weight shapes."""
    out_channels, channels, kernel, _ = weights_shape
    if kernel == 1 or 4 * out_channels <= channels:
        return _conv_taps
    if out_channels <= channels and min(data_shape[1:]) >= _ROWS_MIN_SIDE:
        return _conv_rows
    return _conv_gather


def _valid_output(data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The uninitialised ``(O, H_out, W_out)`` output of a valid convolution."""
    out_channels, _, kernel, _ = weights.shape
    _, height, width = data.shape
    out_h = height - kernel + 1
    out_w = width - kernel + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"input {height}x{width} too small for valid {kernel}x{kernel} convolution"
        )
    return np.empty((out_channels, out_h, out_w), dtype=np.result_type(data, weights))


def _tile_rows(out: np.ndarray, row_bytes: int) -> int:
    """Output rows per tile: ``_TILE_BYTES`` of buffers, ``_TILE_MIN_PIXELS`` outputs."""
    _, out_h, out_w = out.shape
    rows = max(_TILE_BYTES // row_bytes, -(-_TILE_MIN_PIXELS // out_w))
    return min(rows, out_h)


def _row_tiles(out, rows, bias, skip, clip):
    """Yield each row tile ``(top, n)`` of ``out``.

    The caller writes the tile's sums into ``out[:, top : top + n]``; on
    the next step the slab gets its bias and skip and is requantized in
    place.
    """
    add_bias = bool(bias.any())
    for top in range(0, out.shape[1], rows):
        n = min(rows, out.shape[1] - top)
        yield top, n
        slab = out[:, top : top + n]
        if add_bias:
            slab += bias[:, np.newaxis, np.newaxis]
        if skip is not None:
            slab += skip[:, top : top + n]
        if clip is not None:
            np.rint(slab, out=slab)
            np.clip(slab, clip[0], clip[1], out=slab)


def _sum_into(target: np.ndarray, parts) -> None:
    """``target = sum(parts)`` for two or more equally shaped parts."""
    np.add(parts[0], parts[1], out=target)
    for part in parts[2:]:
        target += part


def _conv_gather(data, weights, bias, skip=None, clip=None):
    """Im2col lowering: ``(O, C*K*K)`` weights times the tile's gathered patches.

    The patches of a row tile are gathered into one buffer, allocated once
    per call, and the gemm writes straight into the tile's output slab.
    """
    out = _valid_output(data, weights)
    out_channels, channels, kernel, _ = weights.shape
    _, out_h, out_w = out.shape
    flat_out = out.reshape(out_channels, out_h * out_w)
    depth = channels * kernel * kernel
    w2d = weights.reshape(out_channels, depth)
    rows = _tile_rows(out, depth * out_w * data.itemsize)
    buffer = np.empty(depth * rows * out_w, dtype=data.dtype)
    for top, n in _row_tiles(out, rows, bias, skip, clip):
        cols = buffer[: depth * n * out_w].reshape(channels, kernel, kernel, n, out_w)
        for dy in range(kernel):
            for dx in range(kernel):
                cols[:, dy, dx] = data[:, top + dy : top + dy + n, dx : dx + out_w]
        slab = flat_out[:, top * out_w : (top + n) * out_w]
        np.matmul(w2d, cols.reshape(depth, n * out_w), out=slab)
    return out


def _conv_rows(data, weights, bias, skip=None, clip=None):
    """Row-folded lowering of a KxK convolution (K > 1).

    ``(K*O, C*K)`` weights, one block of O rows per kernel row ``dy``,
    times the K column shifts of the tile's ``n + K - 1`` input rows: a
    K-th of the im2col bytes.  Output row ``r`` of the tile is the sum of
    result row ``r + dy`` of each block ``dy``.
    """
    out = _valid_output(data, weights)
    out_channels, channels, kernel, _ = weights.shape
    _, out_h, out_w = out.shape
    flat_out = out.reshape(out_channels, out_h * out_w)
    folded = weights.transpose(2, 0, 1, 3).reshape(kernel * out_channels, channels * kernel)
    rows = _tile_rows(out, (channels + out_channels) * kernel * out_w * out.itemsize)
    most = (rows + kernel - 1) * out_w
    # One allocation for patches and results: as two, the allocator gave
    # the freed memory back to the OS after each call, and every call
    # faulted it in again (about 3000 page faults per denoise@64 frame).
    buffer = np.empty((channels + out_channels) * kernel * most, dtype=out.dtype)
    patches, result = np.split(buffer, [channels * kernel * most])
    for top, n in _row_tiles(out, rows, bias, skip, clip):
        span = (n + kernel - 1) * out_w
        cols = patches[: channels * kernel * span].reshape(channels, kernel, n + kernel - 1, out_w)
        for dx in range(kernel):
            cols[:, dx] = data[:, top : top + n + kernel - 1, dx : dx + out_w]
        sums = result[: kernel * out_channels * span].reshape(kernel, out_channels, span)
        np.matmul(folded, cols.reshape(channels * kernel, span), out=sums.reshape(-1, span))
        size = n * out_w
        _sum_into(
            flat_out[:, top * out_w : top * out_w + size],
            [sums[dy, :, dy * out_w : dy * out_w + size] for dy in range(kernel)],
        )
    return out


def _conv_taps(data, weights, bias, skip=None, clip=None):
    """Tap-folded lowering: ``(K*K*O, C)`` weights times the input rows in place.

    Nothing is gathered: the gemm reads the tile's ``n + K - 1`` input
    rows where they lie.  Output pixel ``(r, x)`` is the sum of result
    pixel ``(r + dy, x + dx)`` of each tap's block of O rows.  A 1x1
    convolution has one tap, so its gemm writes the output slab directly.
    """
    out = _valid_output(data, weights)
    out_channels, channels, kernel, _ = weights.shape
    _, height, width = data.shape
    _, out_h, out_w = out.shape
    flat_out = out.reshape(out_channels, out_h * out_w)
    taps = kernel * kernel
    folded = weights.transpose(2, 3, 0, 1).reshape(taps * out_channels, channels)
    rows = _tile_rows(out, (channels + taps * out_channels) * width * out.itemsize)
    if kernel > 1:
        result = np.empty(taps * out_channels * (rows + kernel - 1) * width, dtype=out.dtype)
    for top, n in _row_tiles(out, rows, bias, skip, clip):
        window = data[:, top : top + n + kernel - 1].reshape(channels, -1)
        if kernel == 1:
            np.matmul(folded, window, out=flat_out[:, top * out_w : (top + n) * out_w])
            continue
        sums = result[: taps * out_channels * window.shape[1]]
        np.matmul(folded, window, out=sums.reshape(taps * out_channels, -1))
        sums = sums.reshape(kernel, kernel, out_channels, n + kernel - 1, width)
        _sum_into(
            out[:, top : top + n],
            [
                sums[dy, dx, :, dy : dy + n, dx : dx + out_w]
                for dy in range(kernel)
                for dx in range(kernel)
            ],
        )
    return out


def _center_crop(data: np.ndarray, height: int, width: int) -> np.ndarray:
    """The centred ``height`` x ``width`` window of a ``(C, H, W)`` map.

    Aligns a residual skip with its valid-mode body output, which is
    smaller by the body's margin on every side.
    """
    crop_h = data.shape[1] - height
    crop_w = data.shape[2] - width
    if crop_h < 0 or crop_w < 0 or crop_h % 2 or crop_w % 2:
        raise ValueError(
            f"residual body output {height}x{width} cannot be aligned "
            f"with input {data.shape[1]}x{data.shape[2]}"
        )
    return data[:, crop_h // 2 : crop_h // 2 + height, crop_w // 2 : crop_w // 2 + width]


def _check_conv(in_channels: int, out_channels: int, kernel: int, padding: str) -> None:
    if kernel not in (1, 3):
        raise ValueError(f"only 1x1 and 3x3 kernels are supported, got {kernel}")
    if padding not in ("valid", "zero"):
        raise ValueError(f"padding must be 'valid' or 'zero', got {padding!r}")
    if in_channels <= 0 or out_channels <= 0:
        raise ValueError("channel counts must be positive")


class Layer:
    """Base class for all layers."""

    #: human readable layer kind, overridden by subclasses
    kind: str = "layer"

    def forward(self, fm: FeatureMap) -> FeatureMap:
        raise NotImplementedError

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        """Propagate a (C, H, W) shape through the layer without computing."""
        raise NotImplementedError

    @property
    def margin(self) -> int:
        """Pixels consumed per side in valid mode (receptive-field growth / 2)."""
        return 0

    @property
    def num_parameters(self) -> int:
        return 0

    def macs_per_output_pixel(self, out_channels_hint: Optional[int] = None) -> int:
        """Multiply-accumulates needed per output pixel of this layer."""
        return 0

    def __call__(self, fm: FeatureMap) -> FeatureMap:
        return self.forward(fm)


class Conv2d(Layer):
    """2D convolution with 3x3 or 1x1 kernels.

    Padding modes:

    * ``"valid"`` — no padding; the output shrinks by ``kernel - 1``.  This is
      the mode the block-based inference flow uses inside blocks.
    * ``"zero"`` — zero padding preserving spatial size; used by frame-based
      execution and by FBISA's zero-padded inference type.
    """

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        *,
        padding: str = "valid",
        weights: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
        seed: Optional[int] = None,
        name: str = "",
    ) -> None:
        _check_conv(in_channels, out_channels, kernel, padding)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.padding = padding
        self.name = name or f"conv{kernel}x{kernel}"

        self.seed = seed if seed is not None else 0
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != self._weight_shape:
                raise ValueError(
                    f"weights shape {weights.shape} does not match "
                    f"({out_channels}, {in_channels}, {kernel}, {kernel})"
                )
            self.weights = weights
        if bias is None:
            bias = np.zeros(out_channels, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (out_channels,):
            raise ValueError(f"bias shape {bias.shape} does not match ({out_channels},)")
        self.bias = bias

    @property
    def _weight_shape(self) -> Tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels, self.kernel, self.kernel)

    # Drawn on first use: shape-only callers (complexity, the Fig. 8 scan)
    # never pay for the draw.  Explicit weights shadow it in ``__init__``.
    @cached_property
    def weights(self) -> np.ndarray:
        """He-Laplace weights drawn from ``seed``."""
        fan_in = self.in_channels * self.kernel * self.kernel
        return he_laplace(self._weight_shape, fan_in, seeded_rng(self.seed))

    @property
    def margin(self) -> int:
        return (self.kernel - 1) // 2 if self.padding == "valid" else 0

    @property
    def num_parameters(self) -> int:
        return self.out_channels * (self.in_channels * self.kernel * self.kernel + 1)

    def macs_per_output_pixel(self, out_channels_hint: Optional[int] = None) -> int:
        return self.in_channels * self.out_channels * self.kernel * self.kernel

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        if channels != self.in_channels:
            raise ValueError(
                f"layer {self.name} expects {self.in_channels} channels, got {channels}"
            )
        shrink = self.kernel - 1 if self.padding == "valid" else 0
        return self.out_channels, height - shrink, width - shrink

    def forward(self, fm: FeatureMap) -> FeatureMap:
        if fm.channels != self.in_channels:
            raise ValueError(
                f"layer {self.name} expects {self.in_channels} channels, got {fm.channels}"
            )
        data = fm.data
        if self.padding == "zero" and self.kernel > 1:
            pad = (self.kernel - 1) // 2
            data = np.pad(data, ((0, 0), (pad, pad), (pad, pad)))
        return fm.with_data(_conv2d_valid(data, self.weights, self.bias))


class FixedConv2d(Conv2d):
    """A convolution on 8-bit Q-format codes, exact in any summation order.

    Codes at ``in_format`` meet the weight ``codes`` at ``weight_format``
    (Section 4.3), so every partial sum is an integer count of
    ``2**-(in_format.frac + weight_format.frac)``.  The layer folds the
    power-of-two shift to ``out_format`` into its weights, bias and skip
    scale, so each gemm slab comes out in output-code units; the kernel
    then rounds it half-to-even and clips it to the 8-bit range in place.
    ``accumulator_bound`` bounds every partial sum as an integer, and
    ``dtype`` must represent that bound exactly (float32 up to ``2**24``,
    float64 up to ``2**53``): then BLAS may sum in any order, on any thread
    count, tile size and lowering, and give the same bits.  (A fold's
    partial sums are sums over a subset of the terms, so the bound holds
    for them too.)

    ``skip_format`` names the format of a residual skip this layer
    accumulates (the hardware's srcS), ``quantize_input`` makes the layer
    round raw pixels to ``in_format`` codes first (the network's first
    convolution), and ``dequantize_output`` returns the values the codes
    stand for instead of the codes (its last; exact in ``dtype``).
    Formats are :class:`repro.quant.QFormat` s.
    """

    def __init__(
        self,
        codes: np.ndarray,
        bias_codes: np.ndarray,
        *,
        weight_format,
        bias_format,
        in_format,
        out_format,
        skip_format=None,
        quantize_input: bool = False,
        dequantize_output: bool = False,
        dtype=np.float64,
        padding: str = "valid",
        name: str = "",
    ) -> None:
        # No call to Conv2d.__init__: it would draw or copy float64 weights.
        self.codes = np.asarray(codes, dtype=np.int8)
        self.out_channels, self.in_channels, self.kernel, _ = self.codes.shape
        _check_conv(self.in_channels, self.out_channels, self.kernel, padding)
        self.padding = padding
        self.name = name or f"conv{self.kernel}x{self.kernel}"
        self.bias_codes = np.asarray(bias_codes, dtype=np.int64)
        self.weight_format = weight_format
        self.bias_format = bias_format
        self.in_format = in_format
        self.out_format = out_format
        self.skip_format = skip_format
        self.quantize_input = quantize_input
        self.dequantize_output = dequantize_output
        self.dtype = np.dtype(dtype)
        # Partial sums are integers on the grid of the finest addend.
        acc_frac = in_format.frac + weight_format.frac
        self.grid_frac = max(acc_frac, skip_format.frac if skip_format is not None else acc_frac)
        self.bias_units = np.rint(
            self.bias_codes * 2.0 ** (self.grid_frac - bias_format.frac)
        ).astype(np.int64)

    # The folded parameters are built on first use: calibration makes
    # several variants of a layer and runs only one of them.
    @cached_property
    def weights(self) -> np.ndarray:
        """Weight codes times the shift to output-code units (exact: a power of two)."""
        shift = self.out_format.frac - self.in_format.frac - self.weight_format.frac
        weights = self.codes.astype(self.dtype)
        weights *= 2.0**shift
        return weights

    @cached_property
    def bias(self) -> np.ndarray:
        """The bias on the accumulator grid, in output-code units."""
        return self.bias_units.astype(self.dtype) * 2.0 ** (self.out_format.frac - self.grid_frac)

    @property
    def num_parameters(self) -> int:
        # Counted from the codes: ``weights`` would build the folded copy.
        return int(self.codes.size + self.bias_codes.size)

    @property
    def accumulator_bound(self) -> int:
        """Largest partial-sum magnitude, in integer units of ``2**-grid_frac``.

        Per output channel: sum |weight code| times the largest input code
        magnitude, plus |bias| and the largest skip code, each on the grid.
        """
        def largest(fmt) -> int:
            return max(-fmt.min_code, fmt.max_code)

        spread = 1 << (self.grid_frac - self.in_format.frac - self.weight_format.frac)
        codes = np.abs(self.codes, dtype=np.int32).reshape(self.out_channels, -1)
        per_channel = codes.sum(axis=1, dtype=np.int64)
        sums = per_channel * largest(self.in_format) * spread + np.abs(self.bias_units)
        bound = int(sums.max())
        if self.skip_format is not None:
            bound += largest(self.skip_format) << (self.grid_frac - self.skip_format.frac)
        return bound

    def replace(self, **changes) -> "FixedConv2d":
        """A copy with some constructor arguments changed."""
        params = {
            name: getattr(self, name)
            for name in (
                "codes", "bias_codes", "weight_format", "bias_format", "in_format",
                "out_format", "skip_format", "quantize_input", "dequantize_output",
                "dtype", "padding", "name",
            )
        }
        params.update(changes)
        return FixedConv2d(**params)

    def forward(self, fm: FeatureMap, skip: Optional[np.ndarray] = None) -> FeatureMap:
        """Output codes at ``out_format``; ``skip`` holds codes at ``skip_format``."""
        fmt = self.out_format
        out = self._accumulate(fm, skip, (fmt.min_code, fmt.max_code))
        if self.dequantize_output:
            out *= fmt.step  # 8-bit codes times a power of two: exact
        return fm.with_data(out)

    def accumulate(self, fm: FeatureMap, skip: Optional[np.ndarray] = None) -> np.ndarray:
        """The exact sums in output-code units, before rounding and clipping.

        Calibration reads these to choose ``out_format``; ``forward``
        returns them requantized.
        """
        return self._accumulate(fm, skip, None)

    def _accumulate(
        self, fm: FeatureMap, skip: Optional[np.ndarray], clip: Optional[Tuple[int, int]]
    ) -> np.ndarray:
        if fm.channels != self.in_channels:
            raise ValueError(
                f"layer {self.name} expects {self.in_channels} channels, got {fm.channels}"
            )
        if (skip is None) != (self.skip_format is None):
            raise ValueError(f"layer {self.name}: skip given iff skip_format is set")
        data = fm.data
        if self.quantize_input:
            fmt = self.in_format
            data = np.clip(np.rint(data * 2.0**fmt.frac), fmt.min_code, fmt.max_code)
        data = data.astype(self.dtype, copy=False)
        if self.padding == "zero" and self.kernel > 1:
            pad = (self.kernel - 1) // 2
            data = np.pad(data, ((0, 0), (pad, pad), (pad, pad)))
        if skip is not None:
            scale = 2.0 ** (self.out_format.frac - self.skip_format.frac)
            skip = np.multiply(skip, scale, dtype=self.dtype)
        return _conv2d_valid(data, self.weights, self.bias, skip, clip)


class ReLU(Layer):
    """Rectified linear unit."""

    kind = "relu"

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        return channels, height, width

    def forward(self, fm: FeatureMap) -> FeatureMap:
        return fm.with_data(np.maximum(fm.data, 0.0))


class ClippedReLU(Layer):
    """ReLU clipped to a maximum value.

    The paper adds clipped ReLUs during quantization fine-tuning so gradients
    account for the clipping behaviour of the Q-format quantizer.
    """

    kind = "clipped_relu"

    def __init__(self, max_value: float) -> None:
        if max_value <= 0:
            raise ValueError("max_value must be positive")
        self.max_value = float(max_value)

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        return channels, height, width

    def forward(self, fm: FeatureMap) -> FeatureMap:
        return fm.with_data(np.clip(fm.data, 0.0, self.max_value))


class AddBias(Layer):
    """Add a per-channel bias (used when folding batch norm into inference)."""

    kind = "add_bias"

    def __init__(self, bias: Sequence[float]) -> None:
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.bias.ndim != 1:
            raise ValueError("bias must be a 1D per-channel vector")

    @property
    def num_parameters(self) -> int:
        return int(self.bias.size)

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        if channels != self.bias.size:
            raise ValueError(
                f"AddBias expects {self.bias.size} channels, got {channels}"
            )
        return channels, height, width

    def forward(self, fm: FeatureMap) -> FeatureMap:
        if fm.channels != self.bias.size:
            raise ValueError(
                f"AddBias expects {self.bias.size} channels, got {fm.channels}"
            )
        return fm.with_data(fm.data + self.bias[:, np.newaxis, np.newaxis])


class Residual(Layer):
    """A residual branch: ``output = center_crop(input) + body(input)``.

    In valid-padding mode the body output is spatially smaller than the input;
    the skip path is centre-cropped to match, exactly as the truncated-pyramid
    flow handles residual connections in the eCNN datapath (srcS accumulation).
    """

    kind = "residual"

    def __init__(self, body: Sequence[Layer], name: str = "residual") -> None:
        self.body = list(body)
        self.name = name
        if not self.body:
            raise ValueError("a residual block needs at least one body layer")

    @property
    def margin(self) -> int:
        return sum(layer.margin for layer in self.body)

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.body)

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        c, h, w = channels, height, width
        for layer in self.body:
            c, h, w = layer.output_shape(c, h, w)
        if c != channels:
            raise ValueError(
                f"residual body changes channel count {channels} -> {c}; "
                "skip connection cannot be added"
            )
        return c, h, w

    def forward(self, fm: FeatureMap) -> FeatureMap:
        out = fm
        for layer in self.body:
            out = layer.forward(out)
        if out.channels != fm.channels:
            raise ValueError(
                f"residual body changes channel count {fm.channels} -> {out.channels}"
            )
        return out.with_data(out.data + _center_crop(fm.data, out.height, out.width))


class FixedResidual(Residual):
    """A residual whose skip enters its closing convolution's accumulator.

    The fixed-point twin of :class:`Residual`: the eCNN datapath adds the
    skip to the partial sums of the block's last instruction (srcS) before
    that instruction requantizes, so the sum is rounded once.  The body
    must end with a :class:`FixedConv2d` that has a ``skip_format``.
    """

    def forward(self, fm: FeatureMap) -> FeatureMap:
        out = fm
        for layer in self.body[:-1]:
            out = layer.forward(out)
        closing = self.body[-1]
        _, height, width = closing.output_shape(out.channels, out.height, out.width)
        return closing.forward(out, skip=_center_crop(fm.data, height, width))
