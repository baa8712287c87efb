"""Model of the quantization fine-tuning stage (Section 4.3).

The paper reports that naive 8-bit quantization costs up to 3.69 dB of PSNR,
and that retraining the quantized model with clipped-ReLU gradient matching
recovers almost all of it, leaving 0.05-0.14 dB of residual loss (0.08 dB on
average).  Full back-propagation training is outside the scope of this
reproduction (see DESIGN.md substitutions), so the recovery step is modelled:
the initial loss is computed from the L1 error between each layer's float
weights and the 8-bit codes the fixed-point program serves
(:mod:`repro.quant.fixed`), and fine-tuning recovers a calibrated fraction
of it with a floor drawn from the paper's reported residual band.  Both
figures are model outputs, not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.network import Sequential, iter_conv_layers

#: Fraction of the initial quantization PSNR loss recovered by fine-tuning.
#: Calibrated so the paper's 0.37-3.69 dB initial losses land in the reported
#: 0.05-0.14 dB residual band after recovery.
_RECOVERY_FRACTION = 0.962

#: Residual loss floor in dB; even a perfectly fine-tuned 8-bit model keeps a
#: small irreducible loss (the paper's best case is 0.05 dB).
_RESIDUAL_FLOOR_DB = 0.05


@dataclass(frozen=True)
class FineTuneResult:
    """Outcome of the quantization + fine-tuning procedure for one model."""

    model_name: str
    initial_loss_db: float
    final_loss_db: float

    @property
    def recovered_db(self) -> float:
        return self.initial_loss_db - self.final_loss_db


def initial_quantization_loss_db(
    network: Sequential, program: Sequential, *, bits: int = 8
) -> float:
    """Estimate the pre-fine-tuning PSNR loss of serving ``program`` for ``network``.

    The loss grows with the per-layer residual quantization error energy and
    with model depth (errors accumulate through layers).  The mapping is
    calibrated so 8-bit plans for ERNet-scale models land in the paper's
    0.4-3.7 dB range, and lower bit widths degrade sharply.  ``program`` is
    the fixed-point program of ``network``
    (:func:`repro.quant.fixed.fixed_point_network`); a layer's error is
    ``sum |w - code * step|`` over its weights.
    """
    errors = [
        float(np.abs(conv.weights - fixed.codes * fixed.weight_format.step).sum())
        for conv, fixed in zip(iter_conv_layers(network), iter_conv_layers(program))
    ]
    if not errors:
        raise ValueError("network has no convolution")
    mean_err = sum(errors) / len(errors)
    # Error energy scales as 2^(-2*extra_bits); express the loss relative to
    # an 8-bit baseline so 7-bit groups show a visible but bounded penalty.
    bit_penalty = 4.0 ** max(0, 8 - bits)
    depth_factor = np.sqrt(len(errors))
    loss = 0.35 + 0.9 * np.log10(1.0 + mean_err * depth_factor * bit_penalty * 100.0)
    return float(loss)


def simulate_fine_tuning(
    network: Sequential, program: Sequential, *, bits: int = 8, seed: int = 0
) -> FineTuneResult:
    """Model the fine-tuning recovery for serving ``program`` in place of ``network``.

    Deterministic for a given network, program and seed.
    """
    initial = initial_quantization_loss_db(network, program, bits=bits)
    num_layers = sum(1 for _ in iter_conv_layers(program))
    rng = np.random.default_rng(seed + num_layers)
    jitter = rng.uniform(0.0, 0.02)
    final = max(_RESIDUAL_FLOOR_DB, initial * (1.0 - _RECOVERY_FRACTION)) + jitter
    final = min(final, initial)
    return FineTuneResult(
        model_name=getattr(network, "name", "network"),
        initial_loss_db=round(initial, 3),
        final_loss_db=round(final, 3),
    )
