"""Diagnostic machinery shared by the plan verifier and the repo linter.

Every check in :mod:`repro.check` (and in ``tools/repro_lint.py``, which
drives the same classes over Python sources) reports through one vocabulary:

* a :class:`Rule` — a stable identifier (``ECNN101``), a severity and the
  rationale, registered once in :data:`RULES` and documented in
  ``docs/static-analysis.md``;
* a :class:`Diagnostic` — one finding of a rule at one location;
* a :class:`CheckReport` — all findings for one subject (a network, a
  program, a compiled plan, a source file), with human and JSON renderings.

Rule identifiers are *stable*: tests and CI annotations pin them, so a rule
is never renumbered — retired rules keep their number reserved.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make a report fail (``repro-check`` exits non-zero and
    :meth:`repro.api.session.Session.compile` refuses the plan); warnings and
    infos are surfaced but never block.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Rule:
    """One statically-checkable invariant with a stable identifier."""

    id: str
    title: str
    severity: Severity
    rationale: str


#: The rule catalogue.  ``ECNN1xx`` rules are plan/program checks (the
#: abstract interpreter of :mod:`repro.check.verifier`); ``ECNN2xx`` rules
#: are repository invariants (``tools/repro_lint.py``).  Documented with
#: examples in ``docs/static-analysis.md``.
RULES: Dict[str, Rule] = {}


def _rule(id: str, title: str, severity: Severity, rationale: str) -> Rule:
    rule = Rule(id=id, title=title, severity=severity, rationale=rationale)
    RULES[id] = rule
    return rule


# --------------------------------------------------------------- plan rules
_rule(
    "ECNN101", "shape-mismatch", Severity.ERROR,
    "A layer rejects the shape its predecessor produces; the network can "
    "never execute on any input of the declared block size.",
)
_rule(
    "ECNN102", "block-consumed", Severity.ERROR,
    "Truncated-pyramid margins consume the whole block before the output "
    "layer; every output pixel would need a larger input block.",
)
_rule(
    "ECNN110", "read-before-write", Severity.ERROR,
    "An instruction reads a physical block buffer no earlier instruction "
    "has written; the hardware would stream stale SRAM contents.",
)
_rule(
    "ECNN111", "src-dst-conflict", Severity.ERROR,
    "Source and destination name the same physical block buffer; buffers "
    "are single-ported per direction within one instruction.",
)
_rule(
    "ECNN112", "virtual-buffer-misuse", Severity.ERROR,
    "DI is written or DO is read; the virtual FIFOs are unidirectional.",
)
_rule(
    "ECNN113", "no-di-read", Severity.ERROR,
    "The program never reads DI, so it computes on nothing.",
)
_rule(
    "ECNN114", "no-do-write", Severity.ERROR,
    "The program never writes DO, so no result ever leaves the processor.",
)
_rule(
    "ECNN120", "block-buffer-overflow", Severity.ERROR,
    "A stored feature operand exceeds one block buffer's capacity for a "
    "32-channel group at the stage's base-scale resolution; the block "
    "cannot be resident in SRAM.",
)
_rule(
    "ECNN121", "parameter-memory-overflow", Severity.WARNING,
    "Raw (uncompressed) parameter bytes exceed the parameter memory; the "
    "model only fits if Huffman coding reaches the implied ratio.",
)
_rule(
    "ECNN122", "zero-padded-residency", Severity.INFO,
    "Zero-padded whole-image instructions exceed single-buffer residency; "
    "zero-padded mode streams row bands instead of resident blocks, so "
    "capacity is not statically bounded per instruction.",
)
_rule(
    "ECNN130", "qformat-overflow", Severity.ERROR,
    "Interval analysis proves every representable input saturates the "
    "destination Q-format; the stage's output is a constant rail.",
)
_rule(
    "ECNN131", "qformat-clipping", Severity.INFO,
    "The value interval exceeds the destination Q-format's range for some "
    "inputs; quantization will clip (expected for Q-format deployments, "
    "surfaced so range regressions are visible).",
)
_rule(
    "ECNN140", "dead-instruction", Severity.WARNING,
    "An instruction's output is overwritten or never consumed; the cycles "
    "and parameter-memory it costs buy nothing.",
)
_rule(
    "ECNN141", "unused-parameters", Severity.WARNING,
    "A parameter segment is packed for an instruction that declares no "
    "parameter operand (or is dead); the bitstream bytes are unreachable.",
)
_rule(
    "ECNN150", "invalid-qformat", Severity.ERROR,
    "A feature operand carries a Q-format string the hardware cannot parse.",
)

# --------------------------------------------------------------- repo rules
_rule(
    "ECNN201", "unseeded-rng", Severity.ERROR,
    "Global random state (stdlib `random.*`, legacy `np.random.*`) in tests "
    "or the soak tier breaks seeded reproducibility; use "
    "np.random.default_rng(seed) or random.Random(seed).",
)
_rule(
    "ECNN202", "backend-protocol", Severity.ERROR,
    "A @register_backend class must implement the full AcceleratorBackend "
    "protocol (name, description, compile, profile, execute, cost) so every "
    "sweep, CLI and doc generator can rely on it.",
)
_rule(
    "ECNN203", "boundary-picklable", Severity.ERROR,
    "Types crossing the cluster process boundary (*Handle, *Request) must "
    "be plain dataclasses without callable fields; anything else risks "
    "unpicklable or stateful payloads inside workers.",
)
_rule(
    "ECNN204", "wallclock-time", Severity.ERROR,
    "time.time()/time_ns() in the soak tier makes runs depend on "
    "wall-clock; simulated clocks and perf_counter durations keep reports "
    "deterministic and comparable.",
)
_rule(
    "ECNN205", "video-generator-seed", Severity.ERROR,
    "Video trace/sequence generators must take an explicit `seed` parameter "
    "and construct only seeded RNGs from it; unseeded randomness makes video "
    "parity sweeps and soak replays irreproducible.",
)
_rule(
    "ECNN206", "deadline-plain-number", Severity.ERROR,
    "Deadline and priority fields on boundary types (*Handle/*Request) must "
    "be plain numbers annotated int/float with constant defaults; callables "
    "or captured clocks in scheduling fields break EDF ordering, pickling "
    "across cluster workers, and deterministic replay.",
)
# ECNN207 (kernel-set-protocol) is retired; the id stays reserved.


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violated (or noted) at one location."""

    rule_id: str
    message: str
    #: Where the finding anchors — ``"line 3 (CONV)"`` for programs,
    #: ``"layer 2 (conv3x3)"`` for networks, ``"path:12"`` for sources.
    location: str = ""
    #: Overrides the rule's default severity when set (used by checks whose
    #: severity depends on context, never to escalate info rules to errors).
    severity_override: Optional[Severity] = None

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    @property
    def severity(self) -> Severity:
        return self.severity_override if self.severity_override is not None else self.rule.severity

    def render(self) -> str:
        where = f" at {self.location}" if self.location else ""
        return (
            f"{self.severity.value.upper():7s} {self.rule_id} "
            f"{self.rule.title}{where}: {self.message}"
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule_id,
            "title": self.rule.title,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
        }


@dataclass
class CheckReport:
    """All diagnostics for one checked subject."""

    subject: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(
        self,
        rule_id: str,
        message: str,
        *,
        location: str = "",
        severity: Optional[Severity] = None,
    ) -> None:
        if rule_id not in RULES:
            raise KeyError(f"unknown rule id {rule_id!r}")
        self.diagnostics.append(
            Diagnostic(
                rule_id=rule_id,
                message=message,
                location=location,
                severity_override=severity,
            )
        )

    def extend(self, other: "CheckReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def ok(self) -> bool:
        """No errors (warnings and infos do not fail a check)."""
        return not self.errors

    def summary(self) -> str:
        return (
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info(s)"
        )

    def render(self, *, verbose: bool = True) -> str:
        """Human-readable report; ``verbose=False`` hides info diagnostics."""
        lines = [self.summary()]
        for diagnostic in self.diagnostics:
            if not verbose and diagnostic.severity is Severity.INFO:
                continue
            lines.append(f"  {diagnostic.render()}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.infos),
            },
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    """Serialize several reports as the ``--format json`` CLI payload."""
    payload = {
        "ok": all(report.ok for report in reports),
        "errors": sum(len(report.errors) for report in reports),
        "warnings": sum(len(report.warnings) for report in reports),
        "reports": [report.to_json() for report in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
