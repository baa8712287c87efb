"""Span tracing installed from outside the program.

:func:`install` wraps the public callables of the program's modules — module
functions, public methods of the classes they define, and the ``forward*``
methods of every layer class — with timing wrappers, and rebinds every name
another module imported, so calls through ``from x import f`` are traced
too.  Wrappers attach to whatever exists: a method the program deletes is
simply not wrapped.

Spans nest on one stack (the benchmark drives the program from one thread);
each records its name, start, duration, its own id, its parent's id and the
request id of the enclosing request.  A span's self time is its duration
minus the durations of its direct children.  Spans record into the tracer's
current *bucket* (``"setup"``, ``"request"``, ``"oracle"``); with no bucket
the wrappers call straight through.  Worker processes forked by the program
stop tracing at the fork.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Modules whose public functions and class methods are wrapped, with the
#: layer prefix their span names carry.
MODULES: Tuple[Tuple[str, str], ...] = (
    ("repro.api.session", "api"),
    ("repro.api.backends", "backend"),
    ("repro.core.pipeline", "pipeline"),
    ("repro.core.blockflow", "blockflow"),
    ("repro.runtime.video", "video"),
    ("repro.runtime.engine", "engine"),
    ("repro.runtime.cluster", "cluster"),
    ("repro.runtime.scheduler", "scheduler"),
    ("repro.gateway.gateway", "gateway"),
    ("repro.fbisa.compiler", "fbisa"),
    ("repro.check.verifier", "check"),
)

#: Modules defining layer classes; their ``forward*`` methods become spans
#: named ``nn.<layer kind>``.
LAYER_MODULES: Tuple[str, ...] = ("repro.nn.layers", "repro.nn.ops", "repro.nn.network")

#: Cluster calls whose arguments and reply cross the worker pipe.
CLUSTER_PIPE_CALLS = frozenset(
    {"execute_frame", "execute_frames", "execute_stream", "run", "profile"}
)


#: Spans kept for the Chrome trace export; aggregates count every span.
MAX_EVENTS = 50_000


class Tracer:
    """In-memory span store with per-bucket aggregates and counters."""

    def __init__(self) -> None:
        self.bucket: Optional[str] = None
        self.request_id = 0
        #: bucket -> span name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, Dict[str, List[float]]] = {}
        #: bucket -> counter name -> value
        self.counters: Dict[str, Dict[str, float]] = {}
        self.events: List[Tuple[str, str, float, float, int, int, int]] = []
        self.dropped_events = 0
        self._stack: List[List[float]] = []
        self._next_id = 0
        self._origin = time.perf_counter()
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.bucket = None

    def count(self, name: str, value: float) -> None:
        if self.bucket is not None:
            counters = self.counters.setdefault(self.bucket, {})
            counters[name] = counters.get(name, 0.0) + value

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span recorded into the current bucket."""
        bucket = self.bucket
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [self._next_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if parent is not None:
                parent[1] += duration
            if bucket is not None:
                table = self.stats.setdefault(bucket, {})
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if len(self.events) < MAX_EVENTS:
                    self.events.append(
                        (name, bucket, start - self._origin, duration, frame[0],
                         int(parent[0]) if parent is not None else 0, self.request_id)
                    )
                else:
                    self.dropped_events += 1

    def request(self, request_id: int, fn: Callable, *args: Any) -> Any:
        """Run one benchmark request as a root span."""
        self.request_id = request_id
        return self.call("request", fn, args, {})

    # -------------------------------------------------------------- reports
    def totals(self, bucket: str, predicate: Callable[[str], bool]) -> Tuple[int, float, float]:
        """(calls, total s, self s) summed over span names matching ``predicate``."""
        calls = total = own = 0.0
        for name, (count, duration, self_s) in self.stats.get(bucket, {}).items():
            if predicate(name):
                calls += count
                total += duration
                own += self_s
        return int(calls), total, own

    def counter(self, bucket: str, name: str) -> float:
        return self.counters.get(bucket, {}).get(name, 0.0)

    def table(self, bucket: str) -> List[str]:
        rows = sorted(self.stats.get(bucket, {}).items(), key=lambda item: -item[1][1])
        lines = [f"{'span':<52} {'calls':>8} {'total ms':>11} {'self ms':>11}"]
        for name, (calls, total, own) in rows:
            lines.append(f"{name:<52} {int(calls):>8} {total * 1e3:>11.2f} {own * 1e3:>11.2f}")
        return lines

    def export_chrome(self, path: str, metadata: Dict[str, Any]) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": bucket,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": pid,
                "tid": 1,
                "args": {"span_id": span_id, "parent_id": parent_id, "request_id": request_id},
            }
            for name, bucket, start, duration, span_id, parent_id, request_id in self.events
        ]
        metadata = dict(metadata, dropped_events=self.dropped_events)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}, handle)


# ------------------------------------------------------------------ hooks
def _conv_hook(tracer: Tracer, layer: Any, result: Any) -> None:
    """Count a convolution's MACs and im2col bytes from tensor shapes."""
    data = getattr(result, "data", result)
    shape = getattr(data, "shape", ())
    if len(shape) < 3:
        return
    batch = shape[0] if len(shape) == 4 else 1
    out_channels, height, width = shape[-3:]
    weights = getattr(layer, "weights", None)
    kernel = getattr(layer, "kernel", weights.shape[-1] if weights is not None else 1)
    in_channels = getattr(layer, "in_channels", weights.shape[1] if weights is not None else 0)
    macs = batch * out_channels * height * width * in_channels * kernel * kernel
    tracer.count("conv.macs", macs)
    if kernel > 1:
        itemsize = getattr(data, "itemsize", 8)
        tracer.count("conv.im2col_bytes", batch * in_channels * kernel * kernel * height * width * itemsize)


def _pipe_hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """Pickled size of a cluster call's request arguments and reply."""
    sent = pickle.dumps((args[1:], kwargs), protocol=pickle.HIGHEST_PROTOCOL)
    reply = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    tracer.count("cluster.payload_bytes", len(sent) + len(reply))


# --------------------------------------------------------------- wrapping
def _wrap_function(tracer: Tracer, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.bucket is None:
            return fn(*args, **kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _wrap_layer_method(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if tracer.bucket is None:
            return fn(self, *args, **kwargs)
        kind = getattr(self, "kind", type(self).__name__)
        result = tracer.call(f"nn.{kind}", fn, (self,) + args, kwargs)
        if kind == "conv":
            _conv_hook(tracer, self, result)
        return result

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_class(tracer: Tracer, cls: type, prefix: str, only_forward: bool = False) -> int:
    wrapped = 0
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") or (only_forward and not attr.startswith("forward")):
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
        elif inspect.isfunction(raw):
            fn = raw
        else:
            continue
        if getattr(fn, "__wrapped_by_perfbench__", False):
            continue
        if only_forward:
            replacement = _wrap_layer_method(tracer, fn)
        else:
            hook = _pipe_hook if prefix == "cluster" and attr in CLUSTER_PIPE_CALLS else None
            replacement = _wrap_function(tracer, f"{prefix}.{cls.__name__}.{attr}", fn, hook)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(replacement)
        elif isinstance(raw, classmethod):
            replacement = classmethod(replacement)
        setattr(cls, attr, replacement)
        wrapped += 1
    return wrapped


def install(tracer: Tracer) -> int:
    """Wrap the program's public callables; returns how many were wrapped."""
    wrapped = 0
    for module_name in LAYER_MODULES:
        module = importlib.import_module(module_name)
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == module_name:
                wrapped += _wrap_class(tracer, value, "nn", only_forward=True)
    for module_name, prefix in MODULES:
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module_name:
                continue
            if inspect.isclass(value):
                wrapped += _wrap_class(tracer, value, prefix)
            elif inspect.isfunction(value):
                _rebind(value, _wrap_function(tracer, f"{prefix}.{attr}", value))
                wrapped += 1
    return wrapped
