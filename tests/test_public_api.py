"""Tests of the public API surface and the exception hierarchy."""

import ast
import importlib
import pkgutil
import re
import textwrap
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


def _references(nodes: list[ast.AST]) -> set[str]:
    """What ``nodes`` name: every ``ast.Name``, attribute name and
    identifier-shaped string constant (``getattr(obj, "name")``, a dispatch
    table's keys), docstrings aside."""
    docstrings, names = set(), set()
    for top in nodes:
        for node in ast.walk(top):  # breadth-first: a docstring's owner comes first
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
                docstrings.add(id(body[0].value))
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in docstrings
            ):
                names.add(node.value)
    return names


def _callerless(sources: dict[str, str], roots: list[str]) -> set[str]:
    """Mark and sweep over every ``def`` and ``class`` in ``sources`` (module
    name -> text), methods included.  The roots are the code in ``roots``
    and each module's top-level and class-body statements other than
    imports, ``__all__`` and the definitions themselves.  A definition is
    live when a root or the body of a live definition names it; a method
    also needs its class live, and a live class's dunders are live.
    Returns the qualified names of the outermost dead definitions."""
    live = set().union(*(_references([ast.parse(text)]) for text in roots))
    definitions = []  # (qualified name, enclosing class or None, what its body names)

    def visit(body: list[ast.stmt], prefix: str, owner: str | None) -> None:
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((prefix + statement.name, owner, _references([statement])))
            elif isinstance(statement, ast.ClassDef):
                header = statement.bases + statement.keywords + statement.decorator_list
                definitions.append((prefix + statement.name, owner, _references(header)))
                visit(statement.body, f"{prefix}{statement.name}.", prefix + statement.name)
            elif not isinstance(statement, (ast.Import, ast.ImportFrom)) and not (
                isinstance(statement, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in statement.targets)
            ):
                live.update(_references([statement]))

    for module, text in sources.items():
        visit(ast.parse(text).body, f"{module}:", None)
    marked: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qualified, owner, named in definitions:
            if qualified in marked or (owner is not None and owner not in marked):
                continue
            name = re.split(r"[.:]", qualified)[-1]
            dunder = owner is not None and name.startswith("__") and name.endswith("__")
            if name in live or dunder:
                marked.add(qualified)
                live |= named
                grew = True
    return {
        qualified
        for qualified, owner, _ in definitions
        if qualified not in marked and (owner is None or owner in marked)
    }


def _callerless_in_repo(root: Path) -> set[str]:
    """``_callerless`` over ``src/repro``, rooted in the code of
    ``examples/``, ``benchmarks/``, ``ledger/`` and README's python blocks;
    names come back as ``Class.method`` or ``function``."""
    package = root / "src" / "repro"
    sources = {
        ".".join(path.relative_to(package.parent).with_suffix("").parts): path.read_text()
        for path in sorted(package.rglob("*.py"))
    }
    roots = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    for directory in ("examples", "benchmarks", "ledger"):
        roots += [path.read_text() for path in sorted((root / directory).rglob("*.py"))]
    return {qualified.split(":", 1)[1] for qualified in _callerless(sources, roots)}


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


#: The definitions the caller guard may find unreached, and why each stays.
CALLERLESS = {
    # the JOIN action's constructor: the kernel serves joins, no workload
    # drives one yet
    "join_action",
    # fixtures other tests drive
    "join_arrays_symmetric",
    "sky_survey_script",
    # pinned by test_session_facade_keeps_its_imperative_surface
    "ExplorationSession.zoom_out",
    # read-only observers a test needs and no live API replaces
    "ExplorationSession.recording",
    "FrameDecoder.pending_bytes",
    "IndexManager.tracked_keys",
    "PagedColumn.chunk_range",
    "RemoteExplorationClient.local_sample",
}


class TestCallerGuard:
    """``_callerless_in_repo`` on a small synthetic tree."""

    @pytest.fixture
    def callerless(self, tmp_path):
        files = {
            "src/repro/__init__.py": """
                from repro.shapes import Hidden, Shape
                __all__ = ["Hidden", "Shape"]
            """,
            "src/repro/shapes.py": """
                class Shape:
                    def __init__(self, size):
                        self.size = size
                    def __repr__(self):
                        return f"Shape({self.size})"
                    def area(self):
                        return self.size * self.size
                    def scale(self, factor):
                        return Shape(self.size * factor)
                class Hidden:
                    pass
                def measure(shape):
                    'scale'
                    return getattr(shape, "area")()
            """,
            "examples/demo.py": """
                from repro.shapes import Shape, measure
                measure(Shape(2))
            """,
            "tests/test_shapes.py": """
                from repro.shapes import Hidden, Shape
                Shape(1).scale(2)
                Hidden()
            """,
            "README.md": """
                Call `Shape.scale` or `Hidden`.

                ```python
                from repro.shapes import Shape
                ```
            """,
        }
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        return _callerless_in_repo(tmp_path)

    def test_method_named_only_in_a_docstring_and_a_test_is_flagged(self, callerless):
        assert "Shape.scale" in callerless

    def test_method_reached_through_a_getattr_string_is_live(self, callerless):
        assert "measure" not in callerless
        assert "Shape.area" not in callerless

    def test_dunders_of_a_live_class_are_live(self, callerless):
        assert "Shape" not in callerless
        assert "Shape.__init__" not in callerless
        assert "Shape.__repr__" not in callerless

    def test_class_named_only_in_all_is_flagged(self, callerless):
        assert "Hidden" in callerless
        assert callerless == {"Hidden", "Shape.scale"}


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

    def test_every_definition_has_a_caller(self):
        """No code without a caller: every ``def`` and ``class`` in
        ``src/repro``, methods included, is reached from the code of an
        example, a benchmark, the ledger or a README ``python`` block,
        through live ``src/`` code.  Tests, docstrings and prose do not
        count.  ``CALLERLESS`` names the exceptions; drop an entry once its
        definition gains a caller."""
        root = Path(__file__).resolve().parents[1]
        assert _callerless_in_repo(root) == CALLERLESS
        assert len(CALLERLESS) <= 20

    def test_no_unused_imports(self):
        """pyflakes' F401 (``ruff check .`` under ``pyproject.toml``'s lint
        select), without ruff: no module outside an ``__init__`` imports a
        name it never uses.  A name is used when it appears as an
        ``ast.Name``, inside a string annotation, or in ``__all__``."""
        root = Path(__file__).resolve().parents[1]
        paths = [root / "conftest.py", root / "setup.py"]
        for directory in ("src", "tests", "benchmarks", "examples", "ledger"):
            paths += sorted((root / directory).rglob("*.py"))
        unused = [
            f"{path.relative_to(root)}:{name}"
            for path in paths
            if path.name != "__init__.py"
            for name in _unused_imports(path)
        ]
        assert unused == []

    def test_kernel_config_fields_are_pinned(self):
        """Adding a kernel knob is a visible edit of this list."""
        from dataclasses import fields

        from repro.core.kernel import KernelConfig

        assert [field.name for field in fields(KernelConfig)] == [
            "latency_budget_s",
            "enable_samples",
            "sample_factor",
            "batch_execution",
            "enable_indexing",
        ]

    def test_worker_config_fields_are_pinned(self):
        """Adding a worker knob is a visible edit of this list."""
        from dataclasses import fields

        from repro.serving.worker import WorkerConfig

        assert [field.name for field in fields(WorkerConfig)] == [
            "snapshot_path",
            "scheduler_workers",
            "max_pending",
            "max_session_pending",
            "latency_budget_s",
            "cache_bytes",
            "trace_sample_rate",
            "slow_trace_threshold_s",
            "flight_recorder_capacity",
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
