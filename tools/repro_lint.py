#!/usr/bin/env python3
"""AST-based repository-invariant linter (rules ECNN201-ECNN206).

Drives the :mod:`repro.check.diagnostics` machinery over Python sources to
enforce the project invariants that grew with the serving/soak tiers:

* **ECNN201 unseeded-rng** — in ``tests/`` and ``src/repro/soak/``, no use
  of global random state: stdlib ``random.<fn>()`` module functions or
  legacy ``np.random.<fn>()`` calls.  Construct ``np.random.default_rng(seed)``
  or ``random.Random(seed)`` instead — global state breaks seeded
  reproducibility across test orderings and soak re-runs.
* **ECNN202 backend-protocol** — every ``@register_backend`` class defines
  (or inherits from a same-module base) the full ``AcceleratorBackend``
  surface: ``name``, ``description``, ``compile``, ``profile``, ``cost``.
* **ECNN203 boundary-picklable** — classes named ``*Handle`` or
  ``*Request`` cross the cluster process boundary and must be plain
  dataclasses without callable/lambda fields.
* **ECNN204 wallclock-time** — no ``time.time()`` / ``time.time_ns()`` in
  the deterministic soak path (``src/repro/soak/``); simulated clocks and
  ``perf_counter`` durations keep reports reproducible.
* **ECNN205 video-generator-seed** — video trace/sequence generators (any
  function whose name mentions both ``video`` and ``trace``/``sequence``
  in the test/soak tiers) must take an explicit ``seed`` parameter
  and must not construct unseeded RNGs (zero-argument ``default_rng()``
  or ``Random()``) in their bodies; the video parity suite and soak
  replays depend on frame-exact reproducibility.
* **ECNN206 deadline-plain-number** — deadline/priority fields on boundary
  types (``*Handle`` / ``*Request``) must be annotated ``int``/``float``
  (``Optional``/``Union`` of those allowed) with constant defaults (``0``,
  ``math.inf``); a callable or clock captured at class-definition time in
  a scheduling field breaks EDF ordering, pickling across cluster
  workers, and deterministic replay.

Usage::

    python tools/repro_lint.py src tests [--format json]

Exit status 1 when any error-severity finding exists (the blocking CI
contract).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

# The linter runs from a checkout (CI, pre-commit) where repro may not be
# installed; fall back to the in-tree package.
try:
    from repro.check.diagnostics import CheckReport, reports_to_json
except ImportError:  # pragma: no cover - exercised only outside PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.check.diagnostics import CheckReport, reports_to_json

#: Attributes of ``np.random`` that construct *seeded* generators (allowed);
#: everything else on the legacy global RandomState is flagged.
_SEEDED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}
#: Attributes of stdlib ``random`` that are not global-state draws.
_SEEDED_STDLIB_RANDOM = {"Random", "SystemRandom"}
#: The AcceleratorBackend protocol surface ECNN202 requires.
_BACKEND_ATTRS = ("name", "description")
_BACKEND_METHODS = ("compile", "profile", "cost")


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _rng_scoped(relpath: str) -> bool:
    parts = Path(relpath).parts
    return "tests" in parts or ("repro" in parts and "soak" in parts)


def _wallclock_scoped(relpath: str) -> bool:
    parts = Path(relpath).parts
    return "repro" in parts and "soak" in parts


def _is_video_generator(name: str) -> bool:
    lowered = name.lower()
    return "video" in lowered and ("trace" in lowered or "sequence" in lowered)


def _unseeded_rng_calls(func: ast.AST) -> Iterable[ast.Call]:
    """Zero-argument ``default_rng()`` / ``Random()`` constructions."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call) or node.args or node.keywords:
            continue
        callee = node.func
        attr = callee.attr if isinstance(callee, ast.Attribute) else (
            callee.id if isinstance(callee, ast.Name) else ""
        )
        if attr in ("default_rng", "Random"):
            yield node


class _ModuleIndex(ast.NodeVisitor):
    """Names bound to the random/numpy/time modules, plus class definitions."""

    def __init__(self) -> None:
        self.random_aliases: set[str] = set()
        self.numpy_aliases: set[str] = set()
        self.numpy_random_aliases: set[str] = set()
        self.time_aliases: set[str] = set()
        self.classes: dict[str, ast.ClassDef] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name in ("numpy", "np"):
                self.numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                self.numpy_random_aliases.add(alias.asname or "numpy")
            elif alias.name == "time":
                self.time_aliases.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.numpy_random_aliases.add(alias.asname or "random")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes[node.name] = node
        self.generic_visit(node)


def _class_surface(
    cls: ast.ClassDef, classes: dict[str, ast.ClassDef], seen: Optional[set] = None
) -> tuple[set, set]:
    """(attributes, methods) a class defines, following same-module bases."""
    seen = seen if seen is not None else set()
    if cls.name in seen:
        return set(), set()
    seen.add(cls.name)
    attrs: set[str] = set()
    methods: set[str] = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(node.name)
            # Properties satisfy attribute requirements (e.g. name via property).
            if any(_decorator_name(d) == "property" for d in node.decorator_list):
                attrs.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            attrs.add(node.target.id)
    for base in cls.bases:
        base_name = base.id if isinstance(base, ast.Name) else ""
        if base_name in classes:
            base_attrs, base_methods = _class_surface(classes[base_name], classes, seen)
            attrs |= base_attrs
            methods |= base_methods
    return attrs, methods


def _annotation_is_callable(node: Optional[ast.expr]) -> bool:
    for sub in ast.walk(node) if node is not None else ():
        if isinstance(sub, ast.Name) and sub.id == "Callable":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "Callable":
            return True
    return False


def _scheduling_field_name(node: ast.AnnAssign) -> str:
    """The field name when an AnnAssign is a deadline/priority field."""
    name = getattr(node.target, "id", "")
    lowered = name.lower()
    if "deadline" in lowered or "priority" in lowered:
        return name
    return ""


def _annotation_is_number(node: Optional[ast.expr]) -> bool:
    """True when an annotation resolves to int/float (Optional/Union ok)."""
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(node, ast.Name):
        return node.id in ("int", "float")
    if isinstance(node, ast.Constant):
        return node.value is None  # the None arm of an Optional
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_is_number(node.left) and _annotation_is_number(node.right)
    if isinstance(node, ast.Subscript):
        head = node.value
        wrapper = head.attr if isinstance(head, ast.Attribute) else getattr(head, "id", "")
        if wrapper not in ("Optional", "Union"):
            return False
        inner = node.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(_annotation_is_number(element) for element in elements)
    return False


def lint_source(source: str, relpath: str) -> CheckReport:
    """Lint one Python source; ``relpath`` scopes the path-dependent rules."""
    report = CheckReport(subject=relpath)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        # Unparseable files are a protocol violation of their own kind, but
        # the repo's ruff gate owns syntax; skip instead of double-reporting.
        report.add("ECNN202", f"file does not parse: {exc}", location=relpath)
        return report

    index = _ModuleIndex()
    index.visit(tree)

    rng_scope = _rng_scoped(relpath)
    clock_scope = _wallclock_scoped(relpath)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        location = f"{relpath}:{node.lineno}"
        owner = func.value
        # random.<fn>(...) on the stdlib module object.
        if (
            rng_scope
            and isinstance(owner, ast.Name)
            and owner.id in index.random_aliases
            and func.attr not in _SEEDED_STDLIB_RANDOM
        ):
            report.add(
                "ECNN201",
                f"global random.{func.attr}() draws from shared state; "
                "use random.Random(seed)",
                location=location,
            )
        # np.random.<fn>(...) / numpy.random.<fn>(...).
        if (
            rng_scope
            and isinstance(owner, ast.Attribute)
            and owner.attr == "random"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in index.numpy_aliases
            and func.attr not in _SEEDED_NP_RANDOM
        ):
            report.add(
                "ECNN201",
                f"legacy np.random.{func.attr}() uses the global RandomState; "
                "use np.random.default_rng(seed)",
                location=location,
            )
        # <alias>.<fn>(...) where alias is `from numpy import random`.
        if (
            rng_scope
            and isinstance(owner, ast.Name)
            and owner.id in index.numpy_random_aliases
            and func.attr not in _SEEDED_NP_RANDOM
        ):
            report.add(
                "ECNN201",
                f"legacy numpy random.{func.attr}() uses the global "
                "RandomState; use default_rng(seed)",
                location=location,
            )
        # time.time()/time.time_ns() in deterministic paths.
        if (
            clock_scope
            and isinstance(owner, ast.Name)
            and owner.id in index.time_aliases
            and func.attr in ("time", "time_ns")
        ):
            report.add(
                "ECNN204",
                f"time.{func.attr}() reads the wall clock in a deterministic "
                "soak path; use the simulated clock or perf_counter "
                "durations",
                location=location,
            )

    if _rng_scoped(relpath):
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_video_generator(func.name):
                continue
            params = {
                arg.arg
                for arg in (
                    func.args.posonlyargs + func.args.args + func.args.kwonlyargs
                )
            }
            if "seed" not in params:
                report.add(
                    "ECNN205",
                    f"video generator {func.name}() has no `seed` parameter; "
                    "video traces/sequences must be replayable from a seed",
                    location=f"{relpath}:{func.lineno}",
                )
            for call in _unseeded_rng_calls(func):
                report.add(
                    "ECNN205",
                    f"video generator {func.name}() constructs an unseeded "
                    "RNG; pass the generator's `seed` through "
                    "default_rng(seed) / Random(seed)",
                    location=f"{relpath}:{call.lineno}",
                )

    for cls in index.classes.values():
        decorators = [_decorator_name(d) for d in cls.decorator_list]
        location = f"{relpath}:{cls.lineno}"
        if "register_backend" in decorators:
            attrs, methods = _class_surface(cls, index.classes)
            missing = [a for a in _BACKEND_ATTRS if a not in attrs]
            missing += [m for m in _BACKEND_METHODS if m not in methods and m not in attrs]
            if missing:
                report.add(
                    "ECNN202",
                    f"backend class {cls.name} is missing protocol "
                    f"member(s): {', '.join(missing)}",
                    location=location,
                )
        if cls.name.endswith(("Handle", "Request")):
            if "dataclass" not in decorators:
                report.add(
                    "ECNN203",
                    f"boundary type {cls.name} must be a @dataclass "
                    "(it crosses the cluster process boundary)",
                    location=location,
                )
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and _annotation_is_callable(
                    node.annotation
                ):
                    report.add(
                        "ECNN203",
                        f"boundary type {cls.name} field "
                        f"{getattr(node.target, 'id', '?')} is typed Callable; "
                        "callables don't pickle across workers",
                        location=f"{relpath}:{node.lineno}",
                    )
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    value = node.value
                    if isinstance(value, ast.Lambda):
                        report.add(
                            "ECNN203",
                            f"boundary type {cls.name} has a lambda default; "
                            "lambdas don't pickle across workers",
                            location=f"{relpath}:{node.lineno}",
                        )
                if isinstance(node, ast.AnnAssign) and _scheduling_field_name(node):
                    name = _scheduling_field_name(node)
                    if not _annotation_is_number(node.annotation):
                        report.add(
                            "ECNN206",
                            f"boundary type {cls.name} scheduling field "
                            f"{name} must be annotated int/float (Optional "
                            "allowed); EDF ordering and cluster pickling "
                            "need plain numbers",
                            location=f"{relpath}:{node.lineno}",
                        )
                    if isinstance(node.value, (ast.Call, ast.Lambda)):
                        report.add(
                            "ECNN206",
                            f"boundary type {cls.name} scheduling field "
                            f"{name} has a computed default; use a constant "
                            "(e.g. 0, math.inf) — captured clocks or "
                            "callables break deterministic replay",
                            location=f"{relpath}:{node.lineno}",
                        )
    return report


def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[str], *, root: Optional[Path] = None) -> List[CheckReport]:
    """Lint every Python file under ``paths``; returns one report per file
    that produced at least one diagnostic."""
    base = root if root is not None else Path.cwd()
    reports: List[CheckReport] = []
    for file in iter_python_files(paths):
        try:
            relpath = str(file.resolve().relative_to(base.resolve()))
        except ValueError:
            relpath = str(file)
        report = lint_source(file.read_text(encoding="utf-8"), relpath)
        if report.diagnostics:
            reports.append(report)
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description="Enforce repository invariants (rules ECNN201-ECNN206).",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)",
    )
    args = parser.parse_args(argv)
    reports = lint_paths(args.paths)
    errors = sum(len(report.errors) for report in reports)
    if args.format == "json":
        print(reports_to_json(reports))
    else:
        for report in reports:
            print(report.render())
        print(f"repro_lint: {errors} error(s) in {len(reports)} file(s) with findings")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
