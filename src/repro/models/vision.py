"""FBISA-compatible computer-vision models (Section 7.3, Fig. 22).

Two case studies demonstrate eCNN's flexibility beyond computational imaging:

* **Style transfer** — a Johnson-style network with two downsamplers (to
  enlarge the receptive field), wide residual blocks at quarter resolution
  and two pixel-shuffle upsamplers.  Because downsampling inflates the NCR,
  the paper splits it into two sub-models.
* **Object recognition** — a 40-layer residual network that avoids
  512-channel ResBlocks (to keep the parameter memory small) and reaches
  ResNet-18-level accuracy with 5M parameters.

Both are built from the FBISA-supported operator set (32-channel leaf
modules, 3x3/1x1 convolution, pooling, pixel shuffle); batch-normalization is
assumed to be folded into the convolutions for inference, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.nn.layers import Conv2d, ReLU, Residual
from repro.nn.network import Network
from repro.nn.ops import MaxPool2x2, PixelShuffle, StridedPool2x2


@dataclass(frozen=True)
class VisionModelSummary:
    """Reported end-to-end figures for a Section 7.3 case study."""

    name: str
    input_resolution: Tuple[int, int]
    fps_on_ecnn: float
    dram_bandwidth_gb_s: float
    num_submodels: int
    parameters: int
    accuracy_note: str


#: Style transfer on Full HD: 29.5 fps with 1.91 GB/s of DRAM bandwidth,
#: split into two sub-models (Section 7.3).
STYLE_TRANSFER_SUMMARY = VisionModelSummary(
    name="StyleTransfer-FBISA",
    input_resolution=(1920, 1080),
    fps_on_ecnn=29.5,
    dram_bandwidth_gb_s=1.91,
    num_submodels=2,
    parameters=1_700_000,
    accuracy_note="similar transfer effects to Johnson et al. (2016)",
)

#: Object recognition: 1344 fps (0.74 ms/image) at 308 MB/s and 5.25 mJ per
#: image, 69.7% ImageNet top-1 with 5M parameters (Section 7.3).
RECOGNITION_SUMMARY = VisionModelSummary(
    name="RecogNet40-FBISA",
    input_resolution=(224, 224),
    fps_on_ecnn=1344.0,
    dram_bandwidth_gb_s=0.308,
    num_submodels=1,
    parameters=5_000_000,
    accuracy_note="69.7% top-1 (ResNet-18: 69.6% with 11M parameters)",
)


def _residual_block(channels: int, seed: int, name: str, *, padding: str = "valid") -> Residual:
    return Residual(
        [
            Conv2d(channels, channels, 3, padding=padding, seed=seed, name=f"{name}.conv0"),
            ReLU(),
            Conv2d(channels, channels, 3, padding=padding, seed=seed + 1, name=f"{name}.conv1"),
        ],
        name=name,
    )


def build_style_transfer_network(*, blocks: int = 5, seed: int = 0) -> Network:
    """Johnson-style style-transfer network restricted to FBISA operators.

    Structure: head 3x3 (3->32), two downsampling stages (3x3 widen + strided
    pool, 32->64->128), ``blocks`` residual blocks at 128 channels, two
    upsampling stages (3x3 + pixel shuffle, 128->64->32) and a 3x3 output
    layer.  All widths are multiples of 32 so every layer maps onto
    concatenated 32-channel leaf-modules.
    """
    layers = [Conv2d(3, 32, 3, seed=seed, name="head3x3"), ReLU()]
    layers.append(Conv2d(32, 64, 3, seed=seed + 1, name="down0.conv3x3"))
    layers.append(StridedPool2x2())
    layers.append(ReLU())
    layers.append(Conv2d(64, 128, 3, seed=seed + 2, name="down1.conv3x3"))
    layers.append(StridedPool2x2())
    layers.append(ReLU())
    for index in range(blocks):
        layers.append(_residual_block(128, seed + 10 * index + 3, f"res{index}"))
    # Upsampling keeps every layer at <= 128 output channels so each stage
    # maps onto a single four-leaf-module UPX2 instruction.
    layers.append(Conv2d(128, 128, 3, seed=seed + 101, name="up0.conv3x3"))
    layers.append(PixelShuffle(2))
    layers.append(ReLU())
    layers.append(Conv2d(32, 128, 3, seed=seed + 102, name="up1.conv3x3"))
    layers.append(PixelShuffle(2))
    layers.append(ReLU())
    layers.append(Conv2d(32, 3, 3, seed=seed + 103, name="output3x3"))
    return Network(
        layers,
        STYLE_TRANSFER_SUMMARY.name,
        in_channels=3,
        out_channels=3,
        upscale=1,
        # The paper defines the split at the 128 input block, whatever the
        # block buffers of the configuration (Section 7.3).
        metadata={"case_study": "style_transfer", "submodels": 2, "input_block": 128},
    )


def build_recognition_network(*, seed: int = 0) -> Network:
    """The 40-layer recognition trunk of Fig. 22(b), FBISA-operator only.

    The trunk keeps channel widths at 32-128 (avoiding 512-channel blocks to
    bound the parameter memory) and downsamples with pooling stages.  The
    classifier head (global pooling + fully connected) runs on the host in
    the paper's system and is therefore not part of the FBISA trunk.
    Convolutions use zero padding: recognition runs whole (small) images as
    single blocks with FBISA's zero-padded inference type, so there is no
    truncated-pyramid shrinkage.
    """
    layers = [Conv2d(3, 32, 3, padding="zero", seed=seed, name="stem3x3"), ReLU(), MaxPool2x2()]

    def stage(in_ch: int, out_ch: int, blocks: int, base_seed: int, name: str, pool: bool):
        stage_layers = [
            Conv2d(in_ch, out_ch, 3, padding="zero", seed=base_seed, name=f"{name}.widen")
        ]
        if pool:
            stage_layers.append(MaxPool2x2())
        stage_layers.append(ReLU())
        for index in range(blocks):
            stage_layers.append(
                _residual_block(
                    out_ch, base_seed + 5 * index + 1, f"{name}.res{index}", padding="zero"
                )
            )
        return stage_layers

    # Channel widths stay at 64/96/128 (multiples of 32, far below 512) and the
    # block counts are raised instead, keeping the parameter count near 5M for
    # roughly 40 convolution layers as in Fig. 22(b).
    layers += stage(32, 64, 4, seed + 10, "stage1", pool=True)
    layers += stage(64, 96, 6, seed + 50, "stage2", pool=True)
    layers += stage(96, 128, 8, seed + 100, "stage3", pool=True)
    return Network(
        layers,
        RECOGNITION_SUMMARY.name,
        in_channels=3,
        out_channels=384,
        upscale=1,
        metadata={"case_study": "recognition", "classifier": "host-side"},
    )
