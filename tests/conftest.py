"""Shared fixtures and the differential-parity helper for the test suite."""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.models.baselines import build_plain_network
from repro.models.ernet import build_dnernet, build_sr2ernet
from repro.nn.layers import AddBias, ClippedReLU, Conv2d, ReLU, Residual
from repro.nn.network import Network, Sequential
from repro.nn.ops import PixelShuffle, ZeroPad
from repro.nn.tensor import FeatureMap


def _parity_pixels(value: Any) -> np.ndarray:
    """Extract the raw pixel array from any execution-path output shape."""
    if isinstance(value, np.ndarray):
        return value
    # InferenceResult (engine/session/cluster paths) carries .output.
    output = getattr(value, "output", value)
    # FeatureMap carries .data.
    data = getattr(output, "data", output)
    if not isinstance(data, np.ndarray):
        raise TypeError(f"cannot extract pixels from {type(value).__name__}")
    return data


def assert_parity(outputs: Mapping[str, Any], *, context: str = "") -> None:
    """Assert every named output is bit-identical to the first one.

    This is the repository's A/B verification discipline as a reusable
    check: every optimized execution path (frame caching, video delta
    reuse, sharded cluster serving) must produce pixels *bit-identical* —
    not merely close — to the reference it replaced.  ``outputs`` maps a
    path name to its output (a raw array, a ``FeatureMap`` or an
    ``InferenceResult``); the first entry is the reference.
    """
    if len(outputs) < 2:
        raise ValueError("parity needs at least a reference and one candidate")
    items = list(outputs.items())
    reference_name, reference_value = items[0]
    reference = _parity_pixels(reference_value)
    suffix = f" [{context}]" if context else ""
    for name, value in items[1:]:
        candidate = _parity_pixels(value)
        assert candidate.shape == reference.shape, (
            f"{name!r} output shape {candidate.shape} differs from "
            f"{reference_name!r} shape {reference.shape}{suffix}"
        )
        assert np.array_equal(candidate, reference), (
            f"{name!r} output is not bit-identical to {reference_name!r}: "
            f"max abs difference "
            f"{np.max(np.abs(candidate - reference)):.3e}{suffix}"
        )


def draw_layer_stack(rng: np.random.Generator, channels: int) -> Sequential:
    """A random little network whose layer mix exercises every layer kernel.

    Shared by the parity suite and the static-analysis fuzz harness: any
    stack this draws must both execute on every backend and pass
    ``verify_network`` at a compatible block size.
    """
    layers = []
    width = channels
    for position in range(rng.integers(2, 5)):
        kind = rng.choice(["conv", "relu", "clipped", "bias", "residual", "pad"])
        if kind == "conv":
            out = int(rng.integers(2, 9))
            kernel = int(rng.choice([1, 3]))
            padding = str(rng.choice(["valid", "zero"]))
            layers.append(
                Conv2d(width, out, kernel, padding=padding, seed=int(rng.integers(1e6)))
            )
            width = out
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "clipped":
            layers.append(ClippedReLU(float(rng.uniform(0.3, 2.0))))
        elif kind == "bias":
            layers.append(AddBias(rng.normal(size=width)))
        elif kind == "pad":
            layers.append(ZeroPad(int(rng.integers(1, 3))))
        else:
            layers.append(
                Residual(
                    [
                        Conv2d(width, width, 3, padding="zero", seed=int(rng.integers(1e6))),
                        ReLU(),
                    ]
                )
            )
    return Sequential(layers, name=f"random-{channels}")


@pytest.fixture(name="assert_parity")
def assert_parity_fixture():
    """The :func:`assert_parity` helper as a fixture (same callable)."""
    return assert_parity


@pytest.fixture(name="draw_layer_stack")
def draw_layer_stack_fixture():
    """The :func:`draw_layer_stack` generator as a fixture (same callable)."""
    return draw_layer_stack


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_image() -> FeatureMap:
    """A small deterministic natural-image-like test image."""
    return synthetic_image(48, 40, seed=7)


@pytest.fixture
def tiny_plain_network() -> Network:
    """A small plain 3x3 network (depth 4, width 8) for fast functional tests."""
    return build_plain_network(4, 8, seed=3)


@pytest.fixture
def tiny_ernet() -> Network:
    """A tiny denoising ERNet (B=2, R=2) for fast end-to-end tests."""
    return build_dnernet(2, 2, 0, seed=5)


@pytest.fixture
def tiny_sr_network() -> Network:
    """A tiny x2 SR network with one upsampler for geometry tests."""
    return build_sr2ernet(2, 1, 0, seed=9)


@pytest.fixture
def mixed_network() -> Sequential:
    """A hand-built network mixing conv, residual and pixel shuffle layers."""
    layers = [
        Conv2d(3, 8, 3, seed=1, name="head"),
        Residual(
            [Conv2d(8, 16, 3, seed=2), ReLU(), Conv2d(16, 8, 1, seed=3)],
            name="res0",
        ),
        Conv2d(8, 12, 3, seed=4, name="pre_shuffle"),
        PixelShuffle(2),
        Conv2d(3, 3, 3, seed=5, name="out"),
    ]
    return Sequential(layers, name="mixed")
