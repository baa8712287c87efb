"""repro.api — the typed public surface over accelerators and workloads.

Three abstractions:

* :class:`~repro.api.backend.AcceleratorBackend` — the protocol an
  accelerator model implements (``compile`` / ``profile`` / ``execute`` /
  ``cost``), registered with :func:`~repro.api.backend.register_backend`;
* :class:`~repro.api.session.Session` — owns backend selection, the
  content-addressed :class:`~repro.runtime.cache.ResultCache` and the
  workload registry; every serving, sweep and report path goes through it;
* the frozen result types of :mod:`repro.api.results` —
  :class:`~repro.api.results.PerfProfile`,
  :class:`~repro.api.results.CostReport` and
  :class:`~repro.api.results.CompiledPlan` — unifying the per-module report
  shapes the evaluation previously exposed.

For crossing process boundaries (the serving cluster's worker startup) the
package adds two picklable recipes: :class:`~repro.api.session.SessionHandle`
rebuilds an equivalent session inside a worker and
:class:`~repro.api.results.PlanHandle` names a compiled plan by (backend,
workload) so workers re-derive it through their own caches and memos.

Importing this package registers the built-in backends (``ecnn``,
``frame_based``, ``eyeriss``, ``diffy``, ``ideal``, ``scale_sim``).  See
``docs/backends.md`` for how to write and register a new one.
"""

from repro.api.backend import (
    AcceleratorBackend,
    BACKENDS,
    available_backends,
    backend_class,
    create_backend,
    describe_backends,
    register_backend,
    unregister_backend,
)
from repro.api.results import CompiledPlan, CostReport, PerfProfile, PlanHandle
from repro.api.session import Session, SessionHandle
import repro.api.backends  # noqa: F401  (registers the built-in backends)

__all__ = [
    "AcceleratorBackend",
    "BACKENDS",
    "CompiledPlan",
    "CostReport",
    "PerfProfile",
    "PlanHandle",
    "Session",
    "SessionHandle",
    "available_backends",
    "backend_class",
    "create_backend",
    "describe_backends",
    "register_backend",
    "unregister_backend",
]
