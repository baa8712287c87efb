"""The repro.api session layer: registry, parity with the direct modules
and cross-backend sweeps."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.sweeps import cross_backend_sweep
from repro.analysis.workloads import synthetic_image
from repro.api import (
    CostReport,
    PerfProfile,
    Session,
    available_backends,
    backend_class,
    create_backend,
    describe_backends,
    register_backend,
    unregister_backend,
)
from repro.core.blockflow import frame_based_inference
from repro.hw.area_power import area_report, power_report
from repro.hw.config import DEFAULT_CONFIG
from repro.hw.dram import dram_traffic
from repro.hw.performance import evaluate_performance
from repro.models.ernet import PAPER_MODELS, build_ernet
from repro.nn.tensor import FeatureMap
from repro.runtime import ResultCache, ServingCluster, ServingEngine
from repro.runtime.cli import main as cli_main
from repro.runtime.workloads import RuntimeWorkload
from repro.specs import SPECIFICATIONS


# ------------------------------------------------------------------- registry
class TestBackendRegistry:
    def test_builtins_are_registered(self):
        names = available_backends()
        for expected in ("ecnn", "eyeriss", "diffy", "ideal", "frame_based", "scale_sim"):
            assert expected in names
        descriptions = describe_backends()
        assert all(descriptions[name] for name in names)

    def test_round_trip(self):
        @register_backend
        class Toy:
            name = "toy-backend"
            description = "registry round-trip fixture"

            def __init__(self, config=None):
                self.config = config

            def compile(self, network, spec):
                return None

            def profile(self, plan, spec):
                return None

            def execute(self, plan, frame):
                return None

            def cost(self):
                return CostReport(backend=self.name, area_mm2=1.0, technology_nm=7)

        try:
            assert "toy-backend" in available_backends()
            assert backend_class("toy-backend") is Toy
            instance = create_backend("toy-backend", config=DEFAULT_CONFIG)
            assert isinstance(instance, Toy)
            assert instance.config is DEFAULT_CONFIG
            assert Session(backend="toy-backend", cache=ResultCache()).cost().area_mm2 == 1.0
        finally:
            unregister_backend("toy-backend")
        assert "toy-backend" not in available_backends()
        with pytest.raises(KeyError):
            backend_class("toy-backend")

    def test_registration_validates_shape(self):
        with pytest.raises(TypeError):
            register_backend(type("NoName", (), {}))
        with pytest.raises(TypeError):
            register_backend(type("Partial", (), {"name": "partial-backend"}))
        with pytest.raises(ValueError):

            @register_backend
            class Duplicate:
                name = "ecnn"
                description = "duplicate of the ecnn backend name"

                def compile(self, network, spec): ...
                def profile(self, plan, spec): ...
                def execute(self, plan, frame): ...
                def cost(self): ...


# --------------------------------------------------------------------- parity
class TestEcnnParity:
    """The ecnn backend must reproduce the legacy reports bit-for-bit."""

    def test_perf_profile_matches_performance_report_exactly(self):
        session = Session(backend="ecnn", cache=ResultCache())
        profile = session.profile("denoise")
        network = build_ernet(PAPER_MODELS["dn"]["UHD30"])
        spec = SPECIFICATIONS["UHD30"]
        perf = evaluate_performance(network, spec)
        assert profile.frame_latency_s == perf.frame_time_s
        assert profile.fps == perf.fps
        assert profile.peak_tops == perf.peak_tops
        assert profile.achieved_tops == perf.achieved_tops
        assert profile.utilization == perf.utilization
        assert profile.throughput_efficiency == perf.throughput_efficiency
        assert profile.dram_gb_s == dram_traffic(network, spec).total_gb_s

    def test_perf_profile_power_matches_power_report_exactly(self):
        session = Session(backend="ecnn", cache=ResultCache())
        plan = session.compile("denoise")
        profile = session.profile("denoise")
        spec = SPECIFICATIONS["UHD30"]
        perf = evaluate_performance(
            plan.network, spec, input_block=plan.input_block, compiled=plan.payload
        )
        power = power_report(
            perf.model_name,
            plan.payload.program,
            utilization=perf.realtime_utilization(spec.fps),
        )
        assert profile.power_w == power.total

    def test_cost_report_matches_area_report_exactly(self):
        session = Session(backend="ecnn", cache=ResultCache())
        cost = session.cost()
        area = area_report(DEFAULT_CONFIG)
        assert cost.area_mm2 == area.total
        assert cost.as_dict() == area.as_dict()
        assert cost.share("lconv3x3") == area.share("lconv3x3")
        assert cost.source == "modelled"

    def test_profiles_match_recorded_seed_figures(self):
        # Golden pre-refactor figures (recorded from the legacy
        # RuntimeWorkload profile paths before they delegated to the
        # backend), so case-study parity is pinned against history, not
        # against the same code computing both sides.
        session = Session(backend="ecnn", cache=ResultCache())
        fps = {
            name: round(1.0 / session.serving_profile(name).frame_latency_s, 1)
            for name in ("denoise", "super_resolution", "style_transfer", "recognition")
        }
        assert fps == {
            "denoise": 35.8,
            "super_resolution": 31.4,
            "style_transfer": 26.6,
            "recognition": 2101.5,
        }

# ---------------------------------------------------------------- cross-backend
class TestCrossBackend:
    def test_smoke_sweep_over_all_registered_backends(self):
        names = ["denoise", "super_resolution", "style_transfer", "recognition"]
        rows = cross_backend_sweep(names)
        assert len(rows) == len(names) * len(available_backends())
        for workload_name, backend_name, profile in rows:
            assert isinstance(profile, PerfProfile)
            assert profile.backend == backend_name
            assert profile.frame_latency_s > 0
            assert np.isfinite(profile.frame_latency_s)
            assert profile.power_w > 0
            assert profile.dram_gb_s >= 0
            assert 0 < profile.utilization <= 1.0 + 1e-9

    def test_compare_shares_one_cache(self):
        cache = ResultCache()
        session = Session(backend="ecnn", cache=cache)
        first = session.compare("denoise", backends=("ecnn", "eyeriss"))
        again = session.compare("denoise", backends=("ecnn", "eyeriss"))
        assert [p.backend for p in first] == ["ecnn", "eyeriss"]
        assert first == again
        assert cache.stats.hits > 0

    def test_functional_outputs_are_bit_identical_across_backends(self):
        # Every backend computes the same network; only timing models differ.
        # Covers the 4x-upscaling and downsampling/upsampling topologies too.
        cache = ResultCache()
        for name, size in (("denoise", 40), ("super_resolution", 40), ("style_transfer", 64)):
            image = synthetic_image(size, size, seed=5)
            session = Session(backend="ecnn", cache=cache)
            reference = session.execute(name, image)
            other = Session(backend="frame_based", cache=cache).execute(name, image)
            assert np.array_equal(reference.output.data, other.output.data), name
            frame = frame_based_inference(session.compile(name).network, image)
            assert np.array_equal(reference.output.data, frame.data), name

    def test_recognition_has_no_pixel_path(self):
        session = Session(backend="frame_based", cache=ResultCache())
        with pytest.raises(ValueError):
            session.execute("recognition", synthetic_image(32, 32, seed=1))

    def test_cli_serves_every_backend(self, capsys):
        for name in available_backends():
            assert cli_main(["--trace", "demo", "--backend", name]) == 0
            out = capsys.readouterr().out
            assert f"backend {name!r}" in out
            assert "served 60 frames" in out

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(KeyError):
            Session(backend="no-such-backend", cache=ResultCache())


# ----------------------------------------------------------- pixel matrix
class TestPixelBackendMatrix:
    """`execute_frame` across every registered backend: it must work, it
    must be deterministic (same input twice => identical bytes), and —
    since every backend computes the same network — it must agree with the
    eCNN reference bit-for-bit."""

    #: One shared 32x32 frame and its eCNN reference pixels (computed once).
    _IMAGE = synthetic_image(32, 32, seed=17)
    _REFERENCE = {}

    @classmethod
    def _reference_bytes(cls) -> bytes:
        if "pixels" not in cls._REFERENCE:
            engine = ServingEngine(backend="ecnn", cache=ResultCache())
            result = engine.session.execute("denoise", cls._IMAGE, cached=False)
            cls._REFERENCE["pixels"] = result.output.data.tobytes()
        return cls._REFERENCE["pixels"]

    @pytest.mark.parametrize("backend", available_backends())
    def test_execute_frame_smoke_determinism_and_cross_backend_identity(
        self, backend
    ):
        engine = ServingEngine(backend=backend, cache=ResultCache())
        first = engine.session.execute("denoise", self._IMAGE, cached=False)
        second = engine.session.execute("denoise", self._IMAGE, cached=False)
        # Smoke: a real denoised frame came back.
        assert first.output.data.shape == self._IMAGE.data.shape
        assert np.isfinite(first.output.data).all()
        assert first.num_blocks >= 1
        # Determinism: serving the same input twice yields identical bytes.
        assert first.output.data.tobytes() == second.output.data.tobytes()
        # Functional identity: timing models differ per backend, pixels not.
        assert first.output.data.tobytes() == self._reference_bytes()

    @pytest.mark.parametrize("backend", available_backends())
    def test_cached_serving_returns_the_same_bytes(self, backend):
        engine = ServingEngine(backend=backend, cache=ResultCache())
        served = engine.session.execute("denoise", self._IMAGE)
        repeat = engine.session.execute("denoise", self._IMAGE)
        assert repeat.output.data.tobytes() == served.output.data.tobytes()
        assert engine.session.frame_cache_stats.hits >= 1


# ------------------------------------------------------- arithmetic isolation
class TestSessionArithmeticIsolation:
    def test_later_sessions_cannot_change_an_earlier_sessions_pixels(self):
        """Constructing other sessions and serving tiers leaves A's pixels alone.

        Guards the leak class of a process-global arithmetic selection: the
        last session constructed decided every session's convolution, and
        the drifted pixels were cached under the first session's own frame
        key.  The test also passes against the former process-global kernel
        registry when only its numpy set could be selected, because the
        leak needed a second selectable arithmetic and there is now only
        one.  It pins the isolation so any future second arithmetic stays
        owned by its session.
        """
        image = synthetic_image(64, 64, seed=23)
        assert image.channels == 3
        session_a = Session(backend="ecnn", cache=ResultCache())
        first = session_a.execute("denoise", image).output.data

        others = [
            Session(backend="frame_based", cache=ResultCache()),
            Session(backend="ecnn", cache=ResultCache(), verify=False),
        ]
        for other in others:
            other.execute("denoise", image, cached=False)
        ServingEngine(backend="ecnn", cache=ResultCache()).session.execute(
            "denoise", image, cached=False
        )
        with ServingCluster(workers=2, backend="ecnn", mode="inline") as cluster:
            cluster.execute_frame("denoise", image, cached=False)

        fresh = session_a.execute("denoise", image, cached=False).output.data
        hits = session_a.frame_cache.stats.hits
        lookup = session_a.execute("denoise", image).output.data
        assert session_a.frame_cache.stats.hits == hits + 1
        assert fresh.tobytes() == first.tobytes()
        assert lookup.tobytes() == first.tobytes()
        network = session_a.compile("denoise").network
        assert np.array_equal(first, frame_based_inference(network, image).data)


# ------------------------------------------------------------------ frame keys
class TestFrameKey:
    """The frame key memoizes its per-(workload, plan) part; every input of
    the key must still change it."""

    _IMAGE = synthetic_image(16, 16, seed=3)

    @staticmethod
    def _key(session, plan=None, frame=None):
        plan = plan if plan is not None else session.compile("denoise")
        frame = frame if frame is not None else TestFrameKey._IMAGE
        return session._frame_key(session.workload("denoise"), plan, frame)

    def test_every_input_of_the_key_changes_it(self):
        session = Session(backend="ecnn", cache=ResultCache())
        plan = session.compile("denoise")
        base = self._key(session)
        assert self._key(session) == base  # the memo answers the same key
        other_config = replace(DEFAULT_CONFIG, clock_hz=DEFAULT_CONFIG.clock_hz * 2)
        other_backend = Session(
            backend=create_backend("ecnn", config=other_config),
            config=DEFAULT_CONFIG,
            cache=ResultCache(),
        )
        other_session_config = Session(
            backend=create_backend("ecnn", config=DEFAULT_CONFIG),
            config=other_config,
            cache=ResultCache(),
        )
        data = self._IMAGE.data
        changed = {
            "backend identity": self._key(other_backend, plan=plan),
            "config": self._key(other_session_config, plan=plan),
            "stages": self._key(session, plan=replace(plan, stages=plan.stages * 2)),
            "formats": self._key(session, plan=replace(plan, formats=plan.formats + ("Q0",))),
            # Same bytes under another shape or dtype: only the key's shape
            # and dtype tell these frames apart.
            "shape": self._key(session, frame=FeatureMap(data.reshape(3, 8, 32))),
            "dtype": self._key(session, frame=FeatureMap(data.view(np.int64))),
            "digest": self._key(session, frame=synthetic_image(16, 16, seed=4)),
        }
        for name, key in changed.items():
            assert key != base, name
        assert len(set(changed.values())) == len(changed)
        # Back on the session's own plan, the memo is rebuilt, not stale.
        assert self._key(session) == base

    def test_workload_fingerprint_runs_once_per_session_and_workload(self, monkeypatch):
        calls = []
        fingerprint = RuntimeWorkload.cache_key

        def counted(entry, config):
            calls.append(entry.name)
            return fingerprint(entry, config)

        monkeypatch.setattr(RuntimeWorkload, "cache_key", counted)
        session = Session(backend="ecnn", cache=ResultCache())
        for _ in range(2):
            session.compile("denoise")
            session.profile("denoise")
            session.execute("denoise", self._IMAGE)
            session.execute_many("denoise", [self._IMAGE, synthetic_image(16, 16, seed=5)])
        session.profile("super_resolution")
        assert sorted(calls) == ["denoise", "super_resolution"]
