"""Static-analysis suite: plan verifier, repo linter, CLI and rule catalogue.

Three layers of coverage:

* **injection** — hand-built broken networks/programs/plans must be rejected
  with the documented rule id (the acceptance criterion of the verifier);
* **fuzz** — random layer stacks from the shared parity generator: whatever
  passes ``verify_network`` must execute, whatever is mutated to be broken
  must fail verification *and* execution;
* **catalogue** — the real workload catalogue across every registered
  backend must verify with zero errors (the blocking-CI contract).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session, available_backends
from repro.api.results import CompiledPlan
from repro.check import (
    CheckReport,
    PlanVerificationError,
    RULES,
    Severity,
    reports_to_json,
    verify_network,
    verify_plan,
    verify_program,
)
from repro.check.cli import main as check_main
from repro.fbisa.compiler import compile_network
from repro.fbisa.isa import (
    BlockBufferId,
    FeatureOperand,
    InferenceType,
    Instruction,
    Opcode,
)
from repro.fbisa.program import (
    Program,
    ProgramValidationError,
    instruction_violations,
)
from repro.nn.layers import Conv2d, ReLU
from repro.nn.network import Sequential
from repro.nn.tensor import FeatureMap
from repro.runtime.cache import ResultCache
from repro.specs import SPECIFICATIONS

REPO_ROOT = Path(__file__).resolve().parents[1]


def _operand(buffer: str, qformat: str = "Q6") -> FeatureOperand:
    return FeatureOperand(BlockBufferId[buffer], qformat)


def _conv(
    src: str,
    dst: str,
    *,
    tiles=(4, 8),
    src_q: str = "Q6",
    dst_q: str = "Q6",
    inference: InferenceType = InferenceType.TRUNCATED,
) -> Instruction:
    return Instruction(
        Opcode.CONV,
        tiles[0],
        tiles[1],
        src=_operand(src, src_q),
        dst=_operand(dst, dst_q),
        inference=inference,
    )


def _program(name: str, *instructions: Instruction) -> Program:
    program = Program(name=name)
    for instruction in instructions:
        program.append(instruction)
    return program


def _rule_ids(report: CheckReport) -> list:
    return [diagnostic.rule_id for diagnostic in report.diagnostics]


# ------------------------------------------------------------- rule catalogue
class TestRuleCatalogue:
    def test_rule_ids_are_stable_and_well_formed(self):
        for rule_id, rule in RULES.items():
            assert rule_id == rule.id
            assert rule_id.startswith("ECNN") and rule_id[4:].isdigit()
            assert rule.title and rule.rationale
            assert isinstance(rule.severity, Severity)

    def test_verifier_and_lint_ranges_partition_the_catalogue(self):
        # 1xx = plan verifier, 2xx = repo lint; the doc and CLI rely on this.
        for rule_id in RULES:
            assert rule_id[4] in ("1", "2")

    def test_unknown_rule_is_rejected(self):
        report = CheckReport(subject="x")
        with pytest.raises(KeyError):
            report.add("ECNN999", "no such rule")

    def test_report_rendering_and_json(self):
        report = CheckReport(subject="demo")
        report.add("ECNN101", "bad shape", location="layer 0 (conv)")
        report.add("ECNN131", "clips a little")
        assert not report.ok
        assert len(report.errors) == 1 and len(report.infos) == 1
        assert "ECNN131" in report.render(verbose=True)
        assert "ECNN131" not in report.render(verbose=False)
        payload = json.loads(reports_to_json([report]))
        assert payload["ok"] is False and payload["errors"] == 1
        assert payload["reports"][0]["subject"] == "demo"
        assert payload["reports"][0]["diagnostics"][0]["rule"] == "ECNN101"

    def test_every_rule_is_documented(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text(encoding="utf-8")
        for rule_id in RULES:
            assert rule_id in doc, f"{rule_id} missing from docs/static-analysis.md"


# ------------------------------------------------------------ network checks
class TestVerifyNetwork:
    def test_catalogue_network_is_clean(self, tiny_plain_network):
        assert verify_network(tiny_plain_network, input_block=64).ok

    def test_channel_mismatch_is_ecnn101(self):
        bad = Sequential(
            [Conv2d(3, 8, 3, seed=1), Conv2d(4, 8, 3, seed=2)], name="mismatch"
        )
        report = verify_network(bad, input_block=32)
        assert _rule_ids(report) == ["ECNN101"]
        assert "layer 1" in report.diagnostics[0].location

    def test_block_consumed_by_margins_is_an_error(self):
        deep = Sequential(
            [Conv2d(3, 4, 3, padding="valid", seed=seed) for seed in range(1, 6)],
            name="deep",
        )
        report = verify_network(deep, input_block=8)
        assert not report.ok
        assert report.diagnostics[0].rule_id in ("ECNN101", "ECNN102")

    def test_oversized_block_is_ecnn120_when_truncated(self):
        truncated = Sequential([Conv2d(3, 4, 3, padding="valid", seed=1)], name="t")
        report = verify_network(truncated, input_block=256)
        assert "ECNN120" in _rule_ids(report)

    def test_oversized_block_is_info_for_zero_padded_networks(self):
        whole_image = Sequential([Conv2d(3, 4, 3, padding="zero", seed=1)], name="z")
        assert whole_image.margin == 0
        report = verify_network(whole_image, input_block=256)
        assert _rule_ids(report) == ["ECNN122"]
        assert report.ok


# ------------------------------------------------------------ program checks
class TestVerifyProgram:
    def test_well_formed_program_is_clean(self):
        program = _program("good", _conv("DI", "BB0"), _conv("BB0", "DO"))
        assert verify_program(program).ok

    def test_read_before_write_is_ecnn110(self):
        report = verify_program(_program("rbw", _conv("BB1", "DO"), _conv("DI", "DO")))
        assert "ECNN110" in _rule_ids(report)

    def test_src_dst_conflict_is_ecnn111(self):
        report = verify_program(
            _program("conflict", _conv("DI", "BB0"), _conv("BB0", "BB0"), _conv("BB0", "DO"))
        )
        assert "ECNN111" in _rule_ids(report)

    def test_virtual_buffer_misuse_is_ecnn112(self):
        report = verify_program(_program("do-src", _conv("DO", "BB0"), _conv("DI", "DO")))
        assert "ECNN112" in _rule_ids(report)

    def test_missing_di_and_do_are_ecnn113_114(self):
        report = verify_program(_program("island", _conv("DI", "BB0")))
        assert "ECNN114" in _rule_ids(report)
        report = verify_program(
            _program("no-di", _conv("BB0", "DO"))  # also read-before-write
        )
        assert "ECNN113" in _rule_ids(report)

    def test_empty_program_reports_both_dataflow_rules(self):
        report = verify_program(Program(name="empty"))
        assert set(_rule_ids(report)) == {"ECNN113", "ECNN114"}

    def test_oversized_block_buffer_operand_is_ecnn120(self):
        # 256x256 = 65536 stored pixels; one 512 KB buffer holds 16384 per
        # 32-channel group.  This is the ISSUE's canonical injected breakage.
        report = verify_program(_program("big", _conv("DI", "DO", tiles=(64, 128))))
        assert _rule_ids(report) == ["ECNN120"]
        assert report.diagnostics[0].location == "line 0 (CONV)"

    def test_oversized_zero_padded_block_is_streamed_info(self):
        report = verify_program(
            _program(
                "zp",
                _conv("DI", "DO", tiles=(64, 128), inference=InferenceType.ZERO_PADDED),
            )
        )
        assert _rule_ids(report) == ["ECNN122"]
        assert report.ok

    def test_dead_overwrite_is_ecnn140(self):
        program = _program(
            "dead", _conv("DI", "BB0"), _conv("DI", "BB0"), _conv("BB0", "DO")
        )
        report = verify_program(program)
        assert _rule_ids(report) == ["ECNN140"]
        assert report.diagnostics[0].location == "line 0 (CONV)"

    def test_unparseable_qformat_is_ecnn150(self):
        report = verify_program(_program("badq", _conv("DI", "DO", src_q="Z9")))
        assert "ECNN150" in _rule_ids(report)


# ----------------------------------------------------- structured validation
class TestProgramValidationContext:
    def test_validation_error_carries_index_and_opcode(self):
        program = _program("rbw", _conv("BB1", "DO"))
        with pytest.raises(ProgramValidationError) as excinfo:
            program.validate()
        error = excinfo.value
        assert error.program == "rbw"
        assert error.index == 0
        assert error.opcode is Opcode.CONV
        assert "line 0" in str(error)

    def test_instruction_violations_classify_without_mutating(self):
        written = set()
        kinds = [
            violation.kind
            for violation in instruction_violations(0, _conv("BB1", "DO"), written)
        ]
        assert kinds == ["read-before-write"]
        assert written == set()  # pure: the caller owns the written set

    def test_compiled_catalogue_programs_have_no_violations(self):
        session = Session(backend="ecnn", cache=ResultCache())
        for workload in session.catalogue():
            program = session.compile(workload).payload.program
            assert list(program.structural_violations()) == []


# ----------------------------------------------------------- interval checks
class TestIntervalAnalysis:
    def _plan(self, network, block=64):
        model = compile_network(network, input_block=block)
        return CompiledPlan(
            backend="ecnn",
            model_name=network.name,
            spec_name="HD30",
            network=network,
            spec=SPECIFICATIONS["HD30"],
            input_block=block,
            payload=model,
        )

    def test_guaranteed_overflow_bias_is_ecnn130(self):
        conv = Conv2d(3, 32, 3, seed=1)
        conv.bias[:] = 1000.0  # lifts the whole interval far above Q6's 1.98
        network = Sequential([conv, ReLU()], name="hotbias")
        report = verify_plan(self._plan(network))
        assert "ECNN130" in _rule_ids(report)
        assert not report.ok

    def test_mild_range_excess_is_clipping_info(self):
        network = Sequential([Conv2d(3, 32, 3, seed=1), ReLU()], name="mild")
        report = verify_plan(self._plan(network))
        assert report.ok
        assert "ECNN130" not in _rule_ids(report)
        assert "ECNN131" in _rule_ids(report)


# ------------------------------------------------------------------- fuzzing
@pytest.mark.parametrize("seed", range(12))
class TestFuzzedNetworks:
    """Random stacks from the shared parity generator, both directions."""

    BLOCK = 24

    def test_verified_stack_executes(self, seed, draw_layer_stack):
        rng = np.random.default_rng(4000 + seed)
        channels = int(rng.integers(2, 7))
        network = draw_layer_stack(rng, channels)
        report = verify_network(
            network, input_block=self.BLOCK, in_channels=channels
        )
        assert report.ok, report.render()
        output = network.forward(
            FeatureMap(data=rng.normal(size=(channels, self.BLOCK, self.BLOCK)))
        )
        assert output.data.shape[1] > 0 and output.data.shape[2] > 0

    def test_channel_mutation_fails_verification_and_execution(
        self, seed, draw_layer_stack
    ):
        rng = np.random.default_rng(4000 + seed)
        channels = int(rng.integers(2, 7))
        stack = draw_layer_stack(rng, channels)
        # Splice in a conv whose input width no drawn stack can produce.
        broken = Sequential(
            list(stack.layers) + [Conv2d(channels + 64, 3, 3, seed=0)],
            name="mutated",
        )
        report = verify_network(
            broken, input_block=self.BLOCK, in_channels=channels
        )
        assert "ECNN101" in _rule_ids(report)
        with pytest.raises(ValueError):
            broken.forward(
                FeatureMap(data=rng.normal(size=(channels, self.BLOCK, self.BLOCK)))
            )


# ----------------------------------------------------------------- catalogue
class TestCatalogueAcrossBackends:
    def test_every_backend_workload_pair_verifies_clean(self):
        reports = {}
        for backend in available_backends():
            session = Session(backend=backend, cache=ResultCache(), verify=False)
            for workload in session.catalogue():
                plan = session.compile(workload)
                reports[(backend, workload)] = verify_plan(plan, config=session.config)
        assert all(report.ok for report in reports.values()), "\n".join(
            report.render() for report in reports.values() if not report.ok
        )
        # Pinned known findings: the style-transfer model genuinely exceeds
        # the raw parameter memory (the paper closes the gap with entropy
        # coding), and recognition's whole-image block is streamed.
        style = reports[("ecnn", "style_transfer")]
        assert [d.rule_id for d in style.warnings] == ["ECNN121"]
        assert "entropy coding" in style.warnings[0].message
        recognition = reports[("ecnn", "recognition")]
        assert "ECNN122" in _rule_ids(recognition)
        for backend in available_backends():
            if backend == "ecnn":
                continue
            assert "ECNN122" in _rule_ids(reports[(backend, "recognition")])


# --------------------------------------------------------- session gating
class _BrokenPlanBackend:
    """A backend double whose compile emits a statically broken plan."""

    name = "broken-double"
    description = "emits a channel-mismatched plan for verifier gating tests"

    def compile(self, network, spec):
        bad = Sequential(
            [Conv2d(3, 8, 3, seed=1), Conv2d(4, 8, 3, seed=2)], name="broken"
        )
        return CompiledPlan(
            backend=self.name,
            model_name="broken",
            spec_name=spec.name,
            network=bad,
            spec=spec,
            input_block=32,
        )

    def profile(self, plan, spec):
        raise NotImplementedError

    def execute(self, plan, frame):
        raise NotImplementedError

    def cost(self):
        raise NotImplementedError


class TestSessionGating:
    def test_broken_plan_is_rejected_by_default(self):
        session = Session(backend=_BrokenPlanBackend(), cache=ResultCache())
        with pytest.raises(PlanVerificationError) as excinfo:
            session.compile("denoise")
        report = excinfo.value.report
        assert "ECNN101" in _rule_ids(report)
        # The broken plan never entered the cache: compiling again re-runs
        # the verification instead of serving a poisoned entry.
        with pytest.raises(PlanVerificationError):
            session.compile("denoise")

    def test_verify_false_opts_out(self):
        session = Session(
            backend=_BrokenPlanBackend(), cache=ResultCache(), verify=False
        )
        plan = session.compile("denoise")
        assert plan.model_name == "broken"

    def test_catalogue_compiles_verified_by_default(self):
        session = Session(backend="ecnn", cache=ResultCache())
        assert session.verify is True
        assert session.compile("denoise").model_name


# ------------------------------------------------------------------ repo lint
def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "repro_lint_under_test", REPO_ROOT / "tools" / "repro_lint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lint():
    return _load_lint()


class TestRepoLint:
    def test_unseeded_numpy_rng_in_tests_is_ecnn201(self, lint):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        report = lint.lint_source(source, "tests/test_demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN201"]
        assert report.diagnostics[0].location == "tests/test_demo.py:2"

    def test_seeded_generators_are_allowed(self, lint):
        source = (
            "import numpy as np\nimport random\n"
            "rng = np.random.default_rng(7)\nlocal = random.Random(7)\n"
        )
        assert lint.lint_source(source, "tests/test_demo.py").ok

    def test_rng_rule_is_scoped_to_tests_and_soak(self, lint):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert lint.lint_source(source, "src/repro/nn/demo.py").ok
        assert not lint.lint_source(source, "src/repro/soak/demo.py").ok

    def test_stdlib_global_random_is_ecnn201(self, lint):
        source = "import random\nx = random.random()\n"
        report = lint.lint_source(source, "tests/test_demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN201"]

    def test_incomplete_backend_is_ecnn202(self, lint):
        source = (
            "from repro.api.backend import register_backend\n"
            "@register_backend\n"
            "class Half:\n"
            "    name = 'half'\n"
            "    def compile(self, network, spec): ...\n"
        )
        report = lint.lint_source(source, "src/repro/api/demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN202"]
        assert "description" in report.diagnostics[0].message

    def test_backend_protocol_accepts_same_module_mixin(self, lint):
        source = (
            "from repro.api.backend import register_backend\n"
            "class _Mixin:\n"
            "    def execute(self, plan, frame): ...\n"
            "    def cost(self): ...\n"
            "@register_backend\n"
            "class Full(_Mixin):\n"
            "    name = 'full'\n"
            "    description = 'complete'\n"
            "    def compile(self, network, spec): ...\n"
            "    def profile(self, plan, spec): ...\n"
        )
        assert lint.lint_source(source, "src/repro/api/demo.py").ok

    def test_non_dataclass_boundary_type_is_ecnn203(self, lint):
        source = "class ShardHandle:\n    backend: str\n"
        report = lint.lint_source(source, "src/repro/runtime/demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN203"]

    def test_callable_boundary_field_is_ecnn203(self, lint):
        source = (
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "@dataclass\n"
            "class WorkRequest:\n"
            "    builder: Callable[[], int]\n"
        )
        report = lint.lint_source(source, "src/repro/runtime/demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN203"]

    def test_wallclock_in_bench_is_ecnn204(self, lint):
        source = "import time\nstamp = time.time()\n"
        report = lint.lint_source(source, "src/repro/soak/demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN204"]
        assert lint.lint_source(source, "src/repro/api/demo.py").ok
        assert lint.lint_source(
            "import time\nd = time.perf_counter()\n", "src/repro/soak/demo.py"
        ).ok

    def test_unseeded_video_generator_is_ecnn205(self, lint):
        source = (
            "import numpy as np\n"
            "def video_noise_trace(rate_rps, users):\n"
            "    rng = np.random.default_rng()\n"
            "    return rng\n"
        )
        report = lint.lint_source(source, "src/repro/soak/demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN205", "ECNN205"]
        assert "seed" in report.diagnostics[0].message
        assert report.diagnostics[1].location == "src/repro/soak/demo.py:3"

    def test_seeded_video_generator_passes_ecnn205(self, lint):
        source = (
            "import numpy as np\n"
            "def video_stream_trace(*, rate_rps, users, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng\n"
        )
        assert lint.lint_source(source, "src/repro/soak/demo.py").ok
        assert lint.lint_source(source, "tests/helpers.py").ok

    def test_video_generator_rule_is_scoped(self, lint):
        # Outside tests/soak the video-generator rule stays silent —
        # runtime and api code may build sequences however they like.
        source = "def make_video_sequence(kind):\n    return []\n"
        assert lint.lint_source(source, "src/repro/runtime/demo.py").ok
        assert lint.lint_source(source, "src/repro/api/demo.py").ok
        report = lint.lint_source(source, "src/repro/soak/demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN205"]

    def test_non_numeric_deadline_field_is_ecnn206(self, lint):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class JobRequest:\n"
            "    deadline_s: str = 'soon'\n"
        )
        report = lint.lint_source(source, "src/repro/gateway/demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN206"]
        assert "deadline_s" in report.diagnostics[0].message

    def test_computed_deadline_default_is_ecnn206(self, lint):
        source = (
            "import time\n"
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class JobRequest:\n"
            "    priority: int = 0\n"
            "    deadline_s: float = time.monotonic()\n"
        )
        report = lint.lint_source(source, "src/repro/gateway/demo.py")
        assert [d.rule_id for d in report.diagnostics] == ["ECNN206"]
        assert report.diagnostics[0].location == "src/repro/gateway/demo.py:6"

    def test_plain_number_deadline_fields_pass_ecnn206(self, lint):
        source = (
            "import math\n"
            "from dataclasses import dataclass\n"
            "from typing import Optional\n"
            "@dataclass\n"
            "class JobRequest:\n"
            "    deadline_s: float = math.inf\n"
            "    priority: int = 0\n"
            "    soft_deadline_s: Optional[float] = None\n"
        )
        assert lint.lint_source(source, "src/repro/gateway/demo.py").ok
        # The rule only watches boundary types; other classes are free.
        free = (
            "class Planner:\n"
            "    deadline_policy: str = 'edf'\n"
        )
        assert lint.lint_source(free, "src/repro/gateway/demo.py").ok

    def test_repository_is_lint_clean(self, lint):
        reports = lint.lint_paths(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")], root=REPO_ROOT
        )
        assert sum(len(report.errors) for report in reports) == 0, "\n".join(
            report.render() for report in reports
        )

    def test_cli_exit_codes(self, lint, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert lint.main([str(clean)]) == 0
        dirty = tmp_path / "tests" / "test_dirty.py"
        dirty.parent.mkdir()
        dirty.write_text("import random\nrandom.seed(1)\n", encoding="utf-8")
        capsys.readouterr()
        assert lint.main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["errors"] == 1
        assert lint.main([str(dirty)]) == 1


# ------------------------------------------------------------------ check CLI
class TestCheckCli:
    def test_single_backend_single_workload_is_green(self, capsys):
        assert check_main(["--backend", "ecnn", "--workload", "denoise"]) == 0
        out = capsys.readouterr().out
        assert "ecnn:" in out and "0 error(s)" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert (
            check_main(
                ["--backend", "ecnn", "--workload", "denoise", "--format", "json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["reports"][0]["subject"].startswith("ecnn:")

    def test_unknown_workload_exits_2(self, capsys):
        assert check_main(["--backend", "ecnn", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_all_backends_flag_covers_the_registry(self, capsys):
        assert check_main(["--all-backends", "--workload", "recognition"]) == 0
        out = capsys.readouterr().out
        for backend in available_backends():
            assert f"{backend}:" in out
