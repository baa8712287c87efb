"""The accelerator-backend protocol and its registry.

An accelerator model plugs into the session layer by implementing three
methods and registering itself:

``compile(network, spec) -> CompiledPlan``
    Lower a network for one real-time operating point.  The plan carries
    the stage list of :func:`repro.core.partition.plan_stages`, which the
    :class:`~repro.api.session.Session` executes — backends model cost and
    nothing else, so pixels are bit-identical across backends.
``profile(plan, spec) -> PerfProfile``
    Per-frame latency, DRAM bandwidth, power and load cost of a plan.
``cost() -> CostReport``
    Silicon cost of the backend configuration.

Registration is declarative::

    @register_backend
    class MyAccelerator:
        name = "mine"
        description = "my accelerator model"
        ...

after which ``Session(backend="mine")``, the serving engine's ``--backend``
flag and every cross-backend sweep pick it up with no further wiring.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, Tuple, Type, runtime_checkable

from repro.api.results import CompiledPlan, CostReport, PerfProfile
from repro.nn.network import Network
from repro.specs import RealTimeSpec


@runtime_checkable
class AcceleratorBackend(Protocol):
    """What the session layer requires of an accelerator model."""

    name: str
    description: str

    def compile(self, network: Network, spec: RealTimeSpec) -> CompiledPlan:
        """Lower ``network`` for serving at ``spec``."""
        ...

    def profile(self, plan: CompiledPlan, spec: RealTimeSpec) -> PerfProfile:
        """Per-frame serving figures of a compiled plan at ``spec``."""
        ...

    def cost(self) -> CostReport:
        """Silicon cost of this backend configuration."""
        ...


#: Registered backend classes, by :attr:`AcceleratorBackend.name`.
BACKENDS: Dict[str, Type[Any]] = {}

_REQUIRED_METHODS: Tuple[str, ...] = ("compile", "profile", "cost")


def register_backend(cls: Type[Any]) -> Type[Any]:
    """Class decorator adding an accelerator backend to the registry.

    Validates the protocol shape at registration time (a missing method
    should fail at import, not mid-sweep) and rejects duplicate names.
    """
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise TypeError(f"{cls.__name__} needs a non-empty string `name` attribute")
    for method in _REQUIRED_METHODS:
        if not callable(getattr(cls, method, None)):
            raise TypeError(f"backend {name!r} is missing the {method}() method")
    if name in BACKENDS:
        raise ValueError(f"backend {name!r} is already registered")
    BACKENDS[name] = cls
    return cls


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (primarily for tests)."""
    BACKENDS.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(BACKENDS))


def backend_class(name: str) -> Type[Any]:
    """Look up a registered backend class by name."""
    try:
        return BACKENDS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        ) from exc


def create_backend(name: str, *, config: Optional[Any] = None) -> Any:
    """Instantiate a registered backend.

    ``config`` is the host eCNN configuration giving comparison context
    (compute budget, memories); backends that model other silicon accept and
    may ignore it.
    """
    cls = backend_class(name)
    return cls(config=config)


def describe_backends() -> Dict[str, str]:
    """Name -> one-line description of every registered backend."""
    return {name: getattr(BACKENDS[name], "description", "") for name in available_backends()}
