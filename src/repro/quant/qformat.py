"""Fixed-point Q-formats (Fig. 9 of the paper).

``Qn`` denotes a signed two's-complement value whose last effective bit has
fractional weight ``2**-n``; ``UQn`` is the unsigned variant.  The total bit
width defaults to 8 (the precision used by eCNN multipliers and block
buffers) but is configurable so 7-bit parameter groups (Table 5) and
full-precision accumulators can be described with the same class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QFormat:
    """A fixed-point format with ``bits`` total bits and ``frac`` fraction bits.

    Parameters
    ----------
    frac:
        Position of the last effective bit; values are multiples of
        ``2**-frac``.  May be negative (coarser than integer) or larger than
        the bit width (all-fraction formats), matching dynamic fixed point.
    bits:
        Total number of bits, including the sign bit for signed formats.
    signed:
        Whether the format is two's complement (``Qn``) or unsigned (``UQn``).
    """

    frac: int
    bits: int = 8
    signed: bool = True

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise ValueError("a Q-format needs at least 2 bits")

    @property
    def name(self) -> str:
        prefix = "Q" if self.signed else "UQ"
        return f"{prefix}{self.frac}"

    @property
    def step(self) -> float:
        """Quantization step size (value of one LSB)."""
        return float(2.0 ** (-self.frac))

    @property
    def min_code(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_code(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    @property
    def min_value(self) -> float:
        return self.min_code * self.step

    @property
    def max_value(self) -> float:
        return self.max_code * self.step

    def quantize_to_codes(self, values: np.ndarray) -> np.ndarray:
        """Clip and round floating values to integer codes of this format."""
        codes = np.rint(np.asarray(values, dtype=np.float64) * 2.0**self.frac)
        np.clip(codes, self.min_code, self.max_code, out=codes)
        return codes.astype(np.int64)

    def codes_to_values(self, codes: np.ndarray) -> np.ndarray:
        """Convert integer codes back to their real values."""
        codes = np.asarray(codes)
        if codes.size and (codes.max() > self.max_code or codes.min() < self.min_code):
            raise ValueError(f"codes out of range for {self.name}/{self.bits}b")
        return codes.astype(np.float64) * self.step

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip values through the format (clip + round, back to float)."""
        return self.codes_to_values(self.quantize_to_codes(values))

    @staticmethod
    def parse(name: str, bits: int = 8) -> "QFormat":
        """Parse a ``"Qn"`` / ``"UQn"`` string into a :class:`QFormat`."""
        text = name.strip()
        if text.upper().startswith("UQ"):
            return QFormat(frac=int(text[2:]), bits=bits, signed=False)
        if text.upper().startswith("Q"):
            return QFormat(frac=int(text[1:]), bits=bits, signed=True)
        raise ValueError(f"cannot parse Q-format {name!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.bits}b)"
