"""Dynamic fixed-point quantization (Section 4.3 of the paper).

The eCNN hardware computes 8-bit multiplications and stores 8-bit features in
the block buffers, while accumulating partial sums in full precision.  Every
convolution layer has its own Q-formats for weights, biases and feature
outputs.  This subpackage implements:

* the Q-format itself (:class:`QFormat`, signed ``Qn`` and unsigned ``UQn``);
* clip-and-round quantization and dequantization;
* the L1-/L2-norm optimal fractional-precision search of Eq. (4);
* fixed-point programs of whole networks (:mod:`repro.quant.fixed`);
* a bounded model of the fine-tuning recovery step (the paper recovers most
  of the quantization loss by retraining with clipped ReLUs).
"""

from repro.quant.qformat import QFormat
from repro.quant.quantize import (
    dequantize,
    optimal_fraction_bits,
    quantize,
    quantization_error,
)
from repro.quant.finetune import FineTuneResult, simulate_fine_tuning
from repro.quant.metrics import mse, psnr, psnr_from_mse

__all__ = [
    "FineTuneResult",
    "QFormat",
    "dequantize",
    "mse",
    "optimal_fraction_bits",
    "psnr",
    "psnr_from_mse",
    "quantization_error",
    "quantize",
    "simulate_fine_tuning",
]
