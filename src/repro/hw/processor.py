"""The eCNN processor's cycle model: pipelined cycle counts per block.

The processor loads FBISA programs produced by :func:`repro.fbisa.compiler.
compile_network` and counts their cycles; it computes no pixels (the
session serves them through :func:`repro.core.blockflow.staged_inference`).
The executor applies the instruction-pipelining scheme of Fig. 13: while
the CIU computes instruction *i*, the IDU decodes the parameters of
instruction *i+1*, so each pipeline stage costs ``max(CIU_i, IDU_{i+1})``
cycles, plus the initial decode of the first instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.fbisa.compiler import CompiledModel
from repro.fbisa.isa import Instruction
from repro.hw.ciu import ciu_cycles
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.hw.idu import idu_cycles


@dataclass(frozen=True)
class BlockExecutionReport:
    """Cycle accounting for one block of one program.

    The pipeline accounting is computed once per report, vectorized: each
    stage costs ``max(CIU_i, IDU_{i+1})``, so the whole stage array is a
    single elementwise maximum of the CIU cycles against the IDU cycles
    shifted by one instruction.  Reports are frozen, so the derived figures
    are cached on first access (the serving engine and the recognition
    profile ask for ``pipelined_cycles`` repeatedly).
    """

    ciu_cycles_per_instruction: tuple[int, ...]
    idu_cycles_per_instruction: tuple[int, ...]

    @property
    def ciu_total(self) -> int:
        return sum(self.ciu_cycles_per_instruction)

    @property
    def idu_total(self) -> int:
        return sum(self.idu_cycles_per_instruction)

    def _stage_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(CIU cycles, next-instruction IDU cycles) per pipeline stage."""
        cached = self.__dict__.get("_stages")
        if cached is None:
            ciu = np.asarray(self.ciu_cycles_per_instruction, dtype=np.int64)
            idu = np.asarray(self.idu_cycles_per_instruction, dtype=np.int64)
            next_idu = np.zeros_like(ciu)
            if ciu.size:
                # Stage i overlaps the decode of instruction i+1; the last
                # stage (and any stage past the IDU sequence) has no decode
                # to hide, hence the zero fill.
                tail = idu[1 : ciu.size + 1]
                next_idu[: tail.size] = tail
            cached = (ciu, next_idu)
            object.__setattr__(self, "_stages", cached)
        return cached

    @property
    def pipelined_cycles(self) -> int:
        """Block latency under the IDU/CIU instruction pipeline."""
        cached = self.__dict__.get("_pipelined_cycles")
        if cached is None:
            ciu, next_idu = self._stage_arrays()
            if not ciu.size:
                cached = 0
            else:
                # Fill the pipeline with the first decode, then pay the
                # elementwise maximum of compute vs. next decode per stage.
                fill = self.idu_cycles_per_instruction[0] if self.idu_cycles_per_instruction else 0
                cached = int(fill + np.maximum(ciu, next_idu).sum())
            object.__setattr__(self, "_pipelined_cycles", cached)
        return cached

    @property
    def idu_bound_stages(self) -> int:
        """How many pipeline stages were limited by parameter decoding."""
        ciu, next_idu = self._stage_arrays()
        return int(np.count_nonzero(next_idu > ciu))


class EcnnProcessor:
    """Load compiled FBISA models and count their cycles."""

    def __init__(self, config: EcnnConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self._model: Optional[CompiledModel] = None

    #: Best-case compression ratio of the DC Huffman coder (Table 5 reports
    #: 1.1-1.5x); a model whose raw parameters exceed this over the memory
    #: cannot be made to fit even with 7-bit groups and compression.
    _MAX_COMPRESSION = 1.6

    def load(self, model: CompiledModel) -> None:
        """Load a compiled model (program + parameters), as Fig. 12's one-time step.

        Raises ``ValueError`` only when the parameters cannot possibly fit the
        parameter memory even after entropy coding; models that fit only with
        compression (e.g. SR4ERNet for HD30) load fine, matching Table 5.
        """
        parameter_bytes = model.program.total_weights + model.program.total_biases
        limit = self.config.parameter_memory_bytes * self._MAX_COMPRESSION
        if parameter_bytes > limit:
            raise ValueError(
                f"model parameters ({parameter_bytes} bytes uncompressed) exceed the "
                f"parameter memory ({self.config.parameter_memory_bytes} bytes) even "
                "after compression; reduce the model or enlarge the memory"
            )
        self._model = model

    @property
    def model(self) -> CompiledModel:
        if self._model is None:
            raise RuntimeError("no model loaded; call load() first")
        return self._model

    def block_report(self) -> BlockExecutionReport:
        """Cycle accounting for one block of the loaded program (memoized).

        The accounting depends only on the program and the IDU decode rate
        (CIU cycles are configuration-independent), and compiled models are
        immutable once built, so the report is stored in the compiled model's
        own ``__dict__`` keyed by ``idu_cycles_per_leaf`` and dies with it.
        Every profile, analytics query and recognition case-study evaluation
        of the same compiled model shares one report.
        """
        model = self.model
        reports = model.__dict__.setdefault("_block_reports", {})
        key = self.config.idu_cycles_per_leaf
        if key not in reports:
            instructions: List[Instruction] = list(model.program)
            reports[key] = BlockExecutionReport(
                ciu_cycles_per_instruction=tuple(
                    ciu_cycles(instruction, self.config) for instruction in instructions
                ),
                idu_cycles_per_instruction=tuple(
                    idu_cycles(instruction, self.config) for instruction in instructions
                ),
            )
        return reports[key]
