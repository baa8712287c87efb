"""repro.check — static analysis for plans and repository invariants.

Two passes share the diagnostic machinery of
:mod:`repro.check.diagnostics`:

* the **plan verifier** (:mod:`repro.check.verifier`) — an abstract
  interpreter over :class:`~repro.nn.network.Network` graphs and compiled
  FBISA :class:`~repro.fbisa.program.Program` objects deciding shape,
  dataflow, Q-format range, block-buffer capacity and dead-code questions
  before a single pixel is served.  :meth:`repro.api.session.Session.compile`
  runs it on every plan by default (``Session(verify=False)`` opts out);
* the **repo linter** (``tools/repro_lint.py``) — AST checks enforcing
  project invariants (seeded RNG, backend protocol, picklable boundary
  types, no wall-clock in deterministic paths) with the same rule ids and
  report format.

The rule catalogue lives in :data:`repro.check.diagnostics.RULES` and is
documented in ``docs/static-analysis.md``.  Run the verifier over the whole
workload catalogue with ``repro-check`` / ``python -m repro.check``.
"""

from repro.check.diagnostics import (
    CheckReport,
    Diagnostic,
    RULES,
    Rule,
    Severity,
    reports_to_json,
)
from repro.check.verifier import (
    PlanVerificationError,
    accumulator_dtype,
    verify_accumulators,
    verify_network,
    verify_plan,
    verify_program,
)

__all__ = [
    "CheckReport",
    "Diagnostic",
    "PlanVerificationError",
    "RULES",
    "Rule",
    "Severity",
    "accumulator_dtype",
    "reports_to_json",
    "verify_accumulators",
    "verify_network",
    "verify_plan",
    "verify_program",
]
