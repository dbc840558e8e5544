"""Tests of the public API surface and the exception hierarchy."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro import errors


def _mentions() -> tuple[set[str], dict[Path, str]]:
    """The words of README, ``examples/``, ``benchmarks/`` and ``ledger/``,
    and the text of every non-``__init__`` ``src/repro`` module."""
    root = Path(__file__).resolve().parents[1]
    outside = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for directory in ("examples", "benchmarks", "ledger"):
        for path in (root / directory).rglob("*.py"):
            outside |= set(re.findall(r"\w+", path.read_text()))
    sources = {
        path: path.read_text()
        for path in (root / "src" / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    return outside, sources


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never uses (``__future__`` imports and
    lines marked ``# noqa: F401`` aside)."""
    text = path.read_text()
    lines = text.splitlines()
    imported, used, quoted = [], set(), []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            re.search(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b", line)
            for line in lines[node.lineno - 1 : node.end_lineno]
        ):
            continue
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoted.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used |= {
                    n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)
                }
    for annotation in quoted:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expression = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expression) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_subpackage_alls_resolve(self):
        import repro.baseline
        import repro.core
        import repro.engine
        import repro.indexing
        import repro.metrics
        import repro.persist
        import repro.remote
        import repro.storage
        import repro.touchio
        import repro.viz
        import repro.workloads

        for module in (
            repro.core,
            repro.persist,
            repro.storage,
            repro.touchio,
            repro.engine,
            repro.indexing,
            repro.baseline,
            repro.remote,
            repro.workloads,
            repro.viz,
            repro.metrics,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"

    def test_every_public_name_has_a_user(self):
        """An exported name earns its place: README, an example, a benchmark,
        the ledger or a second ``src/repro`` module (the first being the one
        that defines it; ``__init__`` re-exports do not count) mentions it."""
        outside, sources = _mentions()
        modules = [set(re.findall(r"\w+", text)) for text in sources.values()]
        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(repro.__path__, "repro.")
            if info.ispkg
        ]
        for package in packages:
            unused = [
                name
                for name in package.__all__
                if name not in outside and sum(name in module for module in modules) < 2
            ]
            assert not unused, f"{package.__name__}.__all__ exports names nobody uses: {unused}"

    def test_every_module_level_definition_has_a_caller(self):
        """No code without a caller: every public module-level class and
        function in a non-``__init__`` ``src/repro`` module is named once
        more outside its definition — by README, an example, a benchmark,
        the ledger, another such module, or the rest of its own module.
        Tests do not count.  The exceptions are the JOIN action's
        constructor (the kernel serves joins; no workload drives one yet)
        and two fixtures other tests drive; drop an entry once its name
        gains a caller."""
        outside, sources = _mentions()
        words = {path: set(re.findall(r"\w+", text)) for path, text in sources.items()}
        callerless = set()
        for path, text in sources.items():
            lines = text.splitlines()
            for node in ast.parse(text).body:
                if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("_") or name in outside:
                    continue
                rest = lines[: node.lineno - 1] + lines[node.end_lineno :]
                if name in re.findall(r"\w+", "\n".join(rest)):
                    continue
                if not any(name in w for other, w in words.items() if other != path):
                    callerless.add(name)
        assert callerless == {"join_action", "join_arrays_symmetric", "sky_survey_script"}

    def test_no_unused_imports(self):
        """pyflakes' F401 (``ruff`` under ``pyproject.toml``'s lint select),
        without ruff: no module outside an ``__init__`` imports a name it
        never uses.  A name is used when it appears as an ``ast.Name``,
        inside a string annotation, or in ``__all__``."""
        root = Path(__file__).resolve().parents[1]
        unused = []
        for directory in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((root / directory).rglob("*.py")):
                if path.name != "__init__.py":
                    unused += [
                        f"{path.relative_to(root)}:{name}" for name in _unused_imports(path)
                    ]
        assert unused == []

    def test_kernel_config_fields_are_pinned(self):
        """Adding a kernel knob is a visible edit of this list."""
        from dataclasses import fields

        from repro.core.kernel import KernelConfig

        assert [field.name for field in fields(KernelConfig)] == [
            "latency_budget_s",
            "enable_prefetch",
            "enable_cache",
            "enable_samples",
            "cache_capacity",
            "sample_factor",
            "fade_seconds",
            "batch_execution",
            "enable_indexing",
            "index_manager",
            "speculation",
        ]

    def test_index_manager_knows_one_cracker_surface(self):
        """``indexing/manager.py`` drives every column kind through the one
        ``SortedIndex`` surface: no ``isinstance`` on an index class, no
        ``getattr(<cracker or column>, name, default)`` probe."""
        source = (
            Path(__file__).resolve().parents[1] / "src" / "repro" / "indexing" / "manager.py"
        ).read_text()
        assert not re.findall(r"isinstance\([^)]*(?:Cracker|Index)\w*", source)
        probes = re.findall(r"getattr\(\s*(?:\w+\.)*(?:cracker|column)\s*,[^,()]+,[^)]*\)", source)
        assert not probes, f"duck-typed probes are back: {probes}"

    def test_module_docstring_doctest_example_runs(self):
        """The usage example in the package docstring must keep working."""
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0


class TestServiceApiSurface:
    """Lock the service/command API surface introduced by the redesign."""

    REQUIRED_NAMES = [
        "ChooseAction",
        "DragColumnOut",
        "ExplorationService",
        "GestureCommand",
        "GestureScript",
        "GroupColumns",
        "LocalExplorationService",
        "MultiSessionServer",
        "OutcomeEnvelope",
        "Pan",
        "RemoteExplorationService",
        "Rotate",
        "SessionMetrics",
        "ShowColumn",
        "ShowTable",
        "Slide",
        "SlidePath",
        "Tap",
        "UngroupTable",
        "ZoomIn",
        "ZoomOut",
    ]

    def test_service_names_are_exported(self):
        for name in self.REQUIRED_NAMES:
            assert name in repro.__all__, f"repro.__all__ must export {name!r}"
            assert hasattr(repro, name)

    def test_services_implement_the_protocol(self):
        assert isinstance(repro.LocalExplorationService(), repro.ExplorationService)
        assert isinstance(repro.RemoteExplorationService(), repro.ExplorationService)

    def test_session_facade_keeps_its_imperative_surface(self):
        """The facade-only guarantee: every pre-redesign method survives."""
        for method in (
            "load_column",
            "load_table",
            "show_column",
            "show_table",
            "glance",
            "choose_action",
            "choose_scan",
            "choose_aggregate",
            "choose_summary",
            "slide",
            "slide_path",
            "tap",
            "zoom_in",
            "zoom_out",
            "rotate",
            "pan",
            "drag_column_out",
            "group_columns",
            "ungroup_table",
            "summary",
            "last_outcome",
        ):
            assert callable(getattr(repro.ExplorationSession, method))

    def test_command_classes_serialize(self):
        command = repro.Slide(view="v", duration=2.0)
        assert repro.GestureCommand.from_dict(command.to_dict()) == command


class TestExceptionHierarchy:
    def test_all_errors_derive_from_dbtoucherror(self):
        error_classes = [
            obj
            for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, Exception) and name != "DbTouchError"
        ]
        assert len(error_classes) >= 15
        for cls in error_classes:
            assert issubclass(cls, errors.DbTouchError), cls

    def test_specific_parentage(self):
        assert issubclass(errors.SchemaError, errors.StorageError)
        assert issubclass(errors.SampleError, errors.StorageError)
        assert issubclass(errors.GestureError, errors.TouchError)
        assert issubclass(errors.QueryError, errors.ExecutionError)
        assert issubclass(errors.NetworkTimeoutError, errors.RemoteError)
        assert issubclass(errors.ContestError, errors.WorkloadError)

    def test_library_failures_are_catchable_with_one_clause(self):
        from repro.storage.column import Column

        with pytest.raises(errors.DbTouchError):
            Column("c", [1, 2, 3]).value_at(99)
