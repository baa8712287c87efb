"""The :class:`Session` — one object owning backend, cache and registries.

A session binds together everything one evaluation context needs:

* an :class:`~repro.api.backend.AcceleratorBackend` (by registry name or as
  an instance),
* a hardware configuration (the host eCNN config giving the comparison its
  compute/memory context),
* a :class:`~repro.runtime.cache.ResultCache` so every compile/profile/cost
  question is answered once per content address, and
* the workload catalogue (:data:`repro.runtime.workloads.WORKLOADS` by
  default — inject a dict to scope or extend it).

The serving cluster, the sweep helpers and the examples all go through a
session instead of reaching into ``hw``/``core``/``fbisa`` directly, so a
newly registered backend is served, swept and reported with no further
wiring.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.backend import AcceleratorBackend, available_backends, create_backend
from repro.api.results import CompiledPlan, CostReport, PerfProfile, PlanHandle
from repro.check import PlanVerificationError, verify_plan
from repro.core.pipeline import InferenceResult, execute_stages
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.nn.network import Network
from repro.nn.tensor import FeatureMap
from repro.quant.fixed import fixed_point_formats

if TYPE_CHECKING:  # runtime modules are imported lazily: repro.runtime.engine
    # imports this module, so a top-level import here would be circular.
    from repro.runtime.cache import CacheStats, ResultCache
    from repro.runtime.video import StreamFrameResult, VideoStream, VideoStreamStats
    from repro.runtime.workloads import RuntimeWorkload


def frame_digest(frame: FeatureMap) -> str:
    """The frame's content digest in its frame-cache key (the cluster routes by it).

    Never stored on the mutable frame: a stale digest would name another value.
    """
    return hashlib.sha256(frame.data.tobytes()).hexdigest()


@dataclass(frozen=True)
class SessionHandle:
    """A picklable recipe for rebuilding an equivalent :class:`Session`.

    A :class:`Session` itself cannot cross a process boundary usefully — its
    caches are live mutable state and its backend may hang unpicklable
    derived artifacts off shared networks.  A handle carries only the
    session's *identity* (backend registry name, hardware configuration,
    frame-cache bound); :meth:`create` builds a fresh session from it inside
    the receiving process, with its own scoped caches.  Two sessions built
    from equal handles answer every analytic and pixel query bit-identically
    (everything underneath is deterministic), which is what lets the serving
    cluster shard work across worker processes without shipping state.
    """

    backend: str
    config: EcnnConfig = DEFAULT_CONFIG
    #: Frame-cache residency bound; ``None`` rebuilds an unbounded cache.
    frame_cache_entries: Optional[int] = 64

    def create(self) -> "Session":
        """Build a fresh session (scoped caches) from this handle."""
        from repro.runtime.cache import ResultCache

        return Session(
            backend=self.backend,
            config=self.config,
            cache=ResultCache(),
            frame_cache_entries=self.frame_cache_entries,
        )


class Session:
    """Evaluate catalogue workloads on one accelerator backend, cached.

    Parameters
    ----------
    backend:
        Registry name (see :func:`repro.api.available_backends`) or an
        already-constructed backend instance.
    config:
        Host eCNN hardware configuration; forwarded to backends constructed
        by name.
    cache:
        Result cache; defaults to the process-wide
        :data:`~repro.runtime.cache.DEFAULT_CACHE`.  Pass a scoped
        :class:`ResultCache` for isolation or a bounded footprint.
    workloads:
        Workload registry; defaults to the live serving catalogue.
    frame_cache_entries:
        Residency bound of the per-session pixel-result cache (LRU); pass
        ``None`` for an unbounded cache.  Frame results carry pixel data,
        so the default keeps this one bounded (unlike the analytic cache).
    verify:
        Run :func:`repro.check.verify_plan` on every freshly compiled plan
        (the default); a plan with error-level diagnostics raises
        :class:`~repro.check.PlanVerificationError` instead of entering the
        cache.  Pass ``False`` to opt out (e.g. to collect full diagnostic
        reports yourself, as the ``repro-check`` CLI does).
    """

    def __init__(
        self,
        *,
        backend: Union[str, AcceleratorBackend] = "ecnn",
        config: EcnnConfig = DEFAULT_CONFIG,
        cache: Optional[ResultCache] = None,
        workloads: Optional[Mapping[str, RuntimeWorkload]] = None,
        frame_cache_entries: Optional[int] = 64,
        verify: bool = True,
    ) -> None:
        from repro.runtime.cache import DEFAULT_CACHE, ResultCache
        from repro.runtime.workloads import WORKLOADS

        self.config = config
        self.cache = cache if cache is not None else DEFAULT_CACHE
        self.backend: AcceleratorBackend = (
            create_backend(backend, config=config) if isinstance(backend, str) else backend
        )
        self._workloads: Mapping[str, RuntimeWorkload] = (
            workloads if workloads is not None else WORKLOADS
        )
        self.verify = verify
        #: Bounded content-addressed cache of pixel results: unlike the
        #: analytic ``cache`` (small dataclasses, unbounded), frame results
        #: carry pixel data, so residency is capped and LRU-evicted.
        #: Serving the same frame of the same workload twice is a lookup.
        self.frame_cache = ResultCache(max_entries=frame_cache_entries)
        #: Live video streams keyed by (stream id, workload); created on
        #: first :meth:`execute_stream` and invalidated together with the
        #: frame cache by :meth:`evict_pixel_caches`.
        self._video_streams: Dict[Tuple[str, str], "VideoStream"] = {}
        #: Analytic cache keys by (kind, workload).  A key is a function of
        #: the workload and the session's backend and config, fixed for its
        #: life; fingerprinting them costs about 0.1 ms, and the scheduler
        #: looks a profile up once per batch.
        self._keys: Dict[Tuple[str, RuntimeWorkload], str] = {}
        #: The per-(workload, plan) part of every frame key, with the plan
        #: it names, so a frame request fingerprints only its own shape,
        #: dtype and digest.
        self._frame_prefixes: Dict[RuntimeWorkload, Tuple[CompiledPlan, str]] = {}

    # ------------------------------------------------------------- registries
    @property
    def backend_name(self) -> str:
        return self.backend.name

    def handle(self) -> SessionHandle:
        """A picklable :class:`SessionHandle` rebuilding this session's shape.

        The handle names the backend by its registry name, so a session
        whose backend instance was constructed out-of-registry (with
        parameters the registry constructor would not reproduce) should not
        be sharded through handles — the rebuilt backend is
        ``create_backend(name, config=config)``.

        Raises :class:`ValueError` when the session's workload registry is
        not the live catalogue: a rebuilt session serves
        :data:`~repro.runtime.workloads.WORKLOADS`, so a custom registry
        would silently answer with the catalogue's networks instead.
        """
        from repro.runtime.workloads import WORKLOADS

        if dict(self._workloads) != WORKLOADS:
            raise ValueError(
                "a session with a custom workload registry has no handle: "
                "rebuilt sessions serve the live catalogue"
            )
        return SessionHandle(
            backend=self.backend_name,
            config=self.config,
            frame_cache_entries=self.frame_cache.max_entries,
        )

    def plan_handle(self, workload_name: str) -> PlanHandle:
        """A picklable :class:`~repro.api.results.PlanHandle` for a workload.

        Validates the workload name now, so a bad handle fails at the
        coordinator instead of deep inside a worker process.
        """
        self.workload(workload_name)
        return PlanHandle(backend=self.backend_name, workload=workload_name)

    @property
    def frame_cache_stats(self) -> CacheStats:
        """Counters of the bounded pixel-result cache, with its residency bound."""
        return self.frame_cache.stats

    def catalogue(self) -> Dict[str, str]:
        """Name -> description of the workloads this session can evaluate."""
        return {name: entry.description for name, entry in sorted(self._workloads.items())}

    def workload(self, name: str) -> RuntimeWorkload:
        """Look up a workload in this session's registry."""
        try:
            return self._workloads[name]
        except KeyError as exc:
            raise KeyError(
                f"unknown workload {name!r}; expected one of {sorted(self._workloads)}"
            ) from exc

    def network(self, workload_name: str) -> Network:
        """Build a fresh instance of the workload's network.

        Deliberately *not* the memoized shared instance: the caller may
        mutate what this returns (e.g. quantization round-trips), so it gets
        a private copy.  The analytic paths (:meth:`compile` and everything
        derived from it) use the read-only shared build.
        """
        return self.workload(workload_name).build_network()

    # ------------------------------------------------------------ evaluation
    def _backend_identity(self):
        """Content-address component distinguishing backend instances.

        Backends expose ``cache_identity`` (their configuration) so two
        differently-parameterized instances of the same backend never share
        cached answers; a backend without one keys on its name alone.
        """
        return getattr(self.backend, "cache_identity", None)

    def _key(self, kind: str, entry: RuntimeWorkload) -> str:
        """Memoized analytic key; kind ``"workload"`` is the workload's own."""
        from repro.runtime.cache import ResultCache

        key = self._keys.get((kind, entry))
        if key is None:
            key = self._keys[(kind, entry)] = (
                entry.cache_key(self.config)
                if kind == "workload"
                else ResultCache.key(
                    "api",
                    kind,
                    self.backend_name,
                    self._backend_identity(),
                    self._key("workload", entry),
                )
            )
        return key

    def compile(self, workload_name: str) -> CompiledPlan:
        """Backend-lowered plan for a workload (cached per content address).

        The backend lowers the workload's fixed-point program
        (:meth:`~repro.runtime.workloads.RuntimeWorkload.fixed_point_program`):
        8-bit Q-format codes, exact in any summation order, so the pixels
        depend on no BLAS thread count or tile size, and the eCNN backend's
        FBISA program names the served formats and codes.  The float network
        stays at ``workload(name).shared_network()`` as the PSNR reference.

        Freshly compiled plans are statically verified by default (see the
        ``verify`` session flag), accumulators (ECNN132) included.
        Verification runs inside the cached computation, so it is paid once
        per content address and a plan with error-level diagnostics never
        enters the cache — the call raises
        :class:`~repro.check.PlanVerificationError` carrying the report.
        """
        entry = self.workload(workload_name)

        def build() -> CompiledPlan:
            program = entry.fixed_point_program()
            plan = self.backend.compile(program, entry.spec)
            plan = replace(plan, formats=fixed_point_formats(program))
            if self.verify:
                report = verify_plan(plan, config=self.config)
                if not report.ok:
                    raise PlanVerificationError(report)
            return plan

        return self.cache.get_or_compute(self._key("plan", entry), build)

    def profile(self, workload_name: str) -> PerfProfile:
        """Per-frame serving figures of a workload on this backend (cached).

        The one profile path: the scheduler, the gateway's cost models, the
        cluster workers and the analytics all charge these figures.
        """
        entry = self.workload(workload_name)
        return self.cache.get_or_compute(
            self._key("profile", entry),
            lambda: self.backend.profile(self.compile(workload_name), entry.spec),
        )

    def serving_profile(self, workload_name: str) -> PerfProfile:
        """Alias of :meth:`profile`; perfbench's ``GatewayReplay.setup`` calls it."""
        return self.profile(workload_name)

    def cost(self) -> CostReport:
        """Silicon cost of this session's backend configuration (cached)."""
        from repro.runtime.cache import ResultCache

        key = ResultCache.key(
            "api", "cost", self.backend_name, self._backend_identity(), self.config
        )
        return self.cache.get_or_compute(key, self.backend.cost)

    def _pixel_entry(self, workload_name: str) -> RuntimeWorkload:
        entry = self.workload(workload_name)
        if entry.kind == "recognition":
            raise ValueError("recognition serves single zero-padded blocks, not block flow")
        return entry

    def _frame_key(
        self, entry: RuntimeWorkload, plan: CompiledPlan, frame: FeatureMap, digest: str = ""
    ) -> str:
        """Content address of one frame's pixel result under this session.

        Names the plan's stage list and arithmetic (its Q-formats and
        accumulator dtypes): both decide the pixels.  ``digest`` is the
        frame's :func:`frame_digest` if the caller has it already.
        """
        from repro.runtime.cache import ResultCache

        memo = self._frame_prefixes.get(entry)
        if memo is None or memo[0] is not plan:
            memo = self._frame_prefixes[entry] = (
                plan,
                ResultCache.key(
                    "api",
                    "frame",
                    self.backend_name,
                    self._backend_identity(),
                    self._key("workload", entry),
                    plan.stages,
                    plan.formats,
                ),
            )
        return ResultCache.key(
            memo[1], frame.shape, frame.data.dtype.str, digest or frame_digest(frame)
        )

    def execute(
        self,
        workload_name: str,
        frame: FeatureMap,
        *,
        cached: bool = True,
    ) -> InferenceResult:
        """Run one frame of pixels through the compiled plan's stages.

        The session executes the plan (:func:`repro.core.pipeline.execute_stages`);
        backends only model its cost.  Only block-flow workloads support
        pixel serving (recognition runs single zero-padded blocks).

        With ``cached=True`` results are content-addressed in the session's
        bounded :attr:`frame_cache`, so serving the same frame twice is a
        lookup — pass ``cached=False`` to force a fresh computation (the
        parity checks do).
        """
        entry = self._pixel_entry(workload_name)
        plan = self.compile(workload_name)
        compute = lambda: execute_stages(plan.network, plan.stages, frame)  # noqa: E731
        if not cached:
            return compute()
        return self.frame_cache.get_or_compute(
            self._frame_key(entry, plan, frame), compute
        )

    def execute_many(
        self,
        workload_name: str,
        frames: Sequence[FeatureMap],
        *,
        cached: bool = True,
        digests: Optional[Sequence[str]] = None,
    ) -> List[InferenceResult]:
        """Run several frames of one workload.

        Frames already in the :attr:`frame_cache` are answered from it, and
        a frame repeated within the batch is computed once; every remaining
        frame runs through the plan's stages and is cached for the next
        request.  Each result equals :meth:`execute` on that frame.
        ``digests`` are the frames' :func:`frame_digest` values, if known.
        """
        entry = self._pixel_entry(workload_name)
        plan = self.compile(workload_name)
        results: List[Optional[InferenceResult]] = [None] * len(frames)
        misses: List[int] = []
        if cached:
            seen: Dict[str, List[int]] = {}
            keys: List[str] = []
            for index, frame in enumerate(frames):
                key = self._frame_key(entry, plan, frame, digests[index] if digests else "")
                keys.append(key)
                if key in self.frame_cache:
                    results[index] = self.frame_cache.get_or_compute(
                        key, lambda: None  # never called: key is resident
                    )
                elif key in seen:
                    # Duplicate frame within this batch: compute once,
                    # fan the result out below.
                    seen[key].append(index)
                else:
                    seen[key] = [index]
                    misses.append(index)
        else:
            misses = list(range(len(frames)))
        for index in misses:
            result = execute_stages(plan.network, plan.stages, frames[index])
            if cached:
                self.frame_cache.get_or_compute(keys[index], lambda value=result: value)
                for duplicate in seen[keys[index]]:
                    results[duplicate] = result
            else:
                results[index] = result
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ video streams
    def video_stream(
        self,
        stream_id: str,
        workload_name: str,
        *,
        output_block: Optional[int] = None,
    ) -> "VideoStream":
        """The live :class:`~repro.runtime.video.VideoStream` for a stream id.

        Created on first use; subsequent calls return the same stream.
        ``output_block`` only applies at creation — it shapes long-lived
        per-stream state.
        """
        from repro.runtime.video import VideoStream

        self._pixel_entry(workload_name)
        key = (str(stream_id), workload_name)
        stream = self._video_streams.get(key)
        if stream is None:
            stream = VideoStream(
                self,
                stream_id=str(stream_id),
                workload_name=workload_name,
                output_block=output_block,
            )
            self._video_streams[key] = stream
        return stream

    def execute_stream(
        self,
        stream_id: str,
        workload_name: str,
        frame: FeatureMap,
        *,
        output_block: Optional[int] = None,
    ) -> "StreamFrameResult":
        """Serve the next ordered frame of a video stream by block deltas.

        Frames of one ``(stream_id, workload)`` pair are diffed against
        their predecessor at execution-block granularity; only the output
        pixels that changed input can reach re-run inference, and the rest
        are served from the predecessor's output.  A camera pan is diffed
        against the predecessor moved by the pan, so it re-runs about its
        border band.  The result is bit-identical to :meth:`execute` on the
        same frame.  See :class:`~repro.runtime.video.VideoStream`.
        """
        stream = self.video_stream(stream_id, workload_name, output_block=output_block)
        return stream.submit(frame)

    @property
    def video_stream_stats(self) -> Tuple["VideoStreamStats", ...]:
        """Per-stream delta-reuse counters, ordered by (stream id, workload)."""
        return tuple(
            self._video_streams[key].stats for key in sorted(self._video_streams)
        )

    def evict_pixel_caches(self) -> int:
        """Drop every pixel-carrying cache this session owns; returns entries dropped.

        The single invalidation path behind the cluster's
        ``evict_frame_caches`` primitive: the whole-frame :attr:`frame_cache`
        and every video stream's block cache (plus its predecessor frame) go
        together, so a delta stream can never serve a block that outlived an
        eviction.
        """
        dropped = len(self.frame_cache)
        self.frame_cache.clear()
        for stream in self._video_streams.values():
            dropped += stream.invalidate()
        return dropped

    # ------------------------------------------------------------ comparison
    def compare(
        self,
        workload_name: str,
        backends: Optional[Sequence[str]] = None,
    ) -> Tuple[PerfProfile, ...]:
        """One workload profiled across backends (sharing this session's cache)."""
        names = tuple(backends) if backends is not None else available_backends()
        profiles: List[PerfProfile] = []
        for name in names:
            session = (
                self
                if name == self.backend_name
                else Session(
                    backend=name,
                    config=self.config,
                    cache=self.cache,
                    workloads=self._workloads,
                )
            )
            profiles.append(session.profile(workload_name))
        return tuple(profiles)
