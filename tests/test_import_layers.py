"""The import layering of ``src/repro``: every import points down.

The source is read with ``ast`` and nothing is imported.  Four rules:

- every ``repro`` import goes to the importer's own layer of
  :data:`LAYERS` or a lower one;
- the module-level import graph has no cycle;
- an import inside a function carries a comment, on its line or the one
  above, that gives its reason, and hides no cycle between packages;
- only :data:`POOL_OWNER` reaches ``concurrent.futures``'
  ``ProcessPoolExecutor``, so every process pool is an execution
  backend.

Peers in one layer may import each other (``repro.knobs`` imports
``repro.errors``); the cycle checks keep them apart.  Importing
``repro.a.b`` also runs the package ``repro.a``'s ``__init__``, so that
implicit edge counts too -- except into the importer's own packages,
which are already loading by the time the importer runs.
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Bottom to top.  A module belongs to the longest entry that prefixes its
#: dotted name.
LAYERS = (
    ("repro", "repro.errors", "repro.version", "repro.knobs", "repro.cache",
     "repro.profiling", "repro.arrays", "repro.journal"),
    ("repro.numeric", "repro.batching"),
    ("repro.mx", "repro.models", "repro.data"),
    ("repro.accelerator", "repro.share"),
    ("repro.platform",),
    ("repro.learn",),
    ("repro.core",),
    ("repro.exec",),
    ("repro.experiments",),
    ("repro.sweep", "repro.service"),
    # The reference registry recomputes its cases through sweeps and
    # service sessions, so it sits on top, beside the CLI.
    ("repro.reference", "repro.__main__"),
)

_LAYER_OF = {
    entry: index for index, entries in enumerate(LAYERS) for entry in entries
}

#: The one module that may start a ``ProcessPoolExecutor``.
POOL_OWNER = "repro.exec.backends"


def module_names(src: Path) -> dict[str, Path]:
    """Dotted module name -> file, for every module under ``src/repro``."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def entry_of(module: str) -> str | None:
    """The :data:`LAYERS` entry a module belongs to (None: unlisted)."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        prefix = ".".join(parts[:end])
        if prefix in _LAYER_OF:
            return prefix
    return None


def _ancestors(module: str) -> list[str]:
    parts = module.split(".")
    return [".".join(parts[:end]) for end in range(1, len(parts))]


class _Imports(ast.NodeVisitor):
    """Each ``repro`` import: (line, target module, inside a function)."""

    def __init__(self, module: str, is_package: bool, modules) -> None:
        self.package = module if is_package else module.rpartition(".")[0]
        self.modules = modules
        self.found: list[tuple[int, str, bool]] = []
        self._depth = 0

    def _function(self, node) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _function

    def _add(self, line: int, target: str) -> None:
        if target == "repro" or target.startswith("repro."):
            self.found.append((line, target, self._depth > 0))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(node.lineno, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            package = self.package.split(".")
            package = package[: len(package) - node.level + 1]
            base = ".".join(package + ([base] if base else []))
        for alias in node.names:
            submodule = f"{base}.{alias.name}"
            self._add(
                node.lineno, submodule if submodule in self.modules else base
            )


def scan(src: Path = SRC):
    """``(importer, line, target, function_level)`` for every repro import.

    Targets include the implicit package imports; a target is always a
    module present under ``src``.
    """
    modules = module_names(src)
    edges = set()
    for module, path in modules.items():
        visitor = _Imports(module, path.name == "__init__.py", modules)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        own = set(_ancestors(module)) | {module}
        for line, target, nested in visitor.found:
            implicit = [p for p in _ancestors(target) if p not in own]
            for name in implicit + [target]:
                if name in modules:
                    edges.add((module, line, name, nested))
    return modules, sorted(edges)


def upward_imports(src: Path = SRC) -> list[str]:
    """Imports that go up a layer (and modules in no layer at all)."""
    modules, edges = scan(src)
    problems = [
        f"{module} is in no layer" for module in modules if not entry_of(module)
    ]
    for module, line, target, _ in edges:
        source, dest = entry_of(module), entry_of(target)
        if source and dest and _LAYER_OF[dest] > _LAYER_OF[source]:
            problems.append(
                f"{module}:{line} imports {target} "
                f"(layer {_LAYER_OF[dest] + 1} from layer "
                f"{_LAYER_OF[source] + 1})"
            )
    return problems


def _cyclic(graph: dict[str, set[str]]) -> list[str]:
    """Nodes on or between cycles: peel sinks and sources to a fixpoint."""
    while True:
        targets = set().union(*graph.values())
        keep = {node for node, out in graph.items() if out and node in targets}
        if keep == graph.keys():
            return sorted(graph)
        graph = {node: graph[node] & keep for node in keep}


def module_cycles(src: Path = SRC) -> list[str]:
    """The modules on or between cycles of the module-level import graph."""
    modules, edges = scan(src)
    graph: dict[str, set[str]] = {module: set() for module in modules}
    for module, _, target, nested in edges:
        if not nested and target != module:
            graph[module].add(target)
    return _cyclic(graph)


def package_cycles(src: Path = SRC) -> list[str]:
    """Layer entries on or between cycles, function-level imports included."""
    _, edges = scan(src)
    graph: dict[str, set[str]] = {entry: set() for entry in _LAYER_OF}
    for module, _, target, _ in edges:
        source, dest = entry_of(module), entry_of(target)
        if source and dest and source != dest:
            graph[source].add(dest)
    return _cyclic(graph)


def _comment_lines(path: Path) -> set[int]:
    """Lines carrying a comment that says something (not a pragma)."""
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            if text and not text.startswith(("noqa", "type:", "pragma")):
                lines.add(token.start[0])
    return lines


def unexplained_function_imports(src: Path = SRC) -> list[str]:
    """Function-level repro imports with no comment giving a reason."""
    modules, edges = scan(src)
    problems = []
    comments: dict[str, set[int]] = {}
    for module, line, target, nested in edges:
        if not nested:
            continue
        if module not in comments:
            comments[module] = _comment_lines(modules[module])
        if not comments[module] & {line, line - 1}:
            problems.append(f"{module}:{line} imports {target} in a function")
    return sorted(set(problems))


def pool_importers(src: Path = SRC) -> list[str]:
    """Modules besides :data:`POOL_OWNER` that reach ``ProcessPoolExecutor``.

    Both ways in count: importing the name from ``concurrent.futures`` (or
    a submodule), and reading it as an attribute of an imported module.
    """
    problems = []
    for module, path in module_names(src).items():
        if module == POOL_OWNER:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                hit = (node.module or "").startswith("concurrent") and any(
                    alias.name == "ProcessPoolExecutor" for alias in node.names
                )
            else:
                hit = (
                    isinstance(node, ast.Attribute)
                    and node.attr == "ProcessPoolExecutor"
                )
            if hit:
                problems.append(
                    f"{module}:{node.lineno} reaches ProcessPoolExecutor"
                )
    return problems


def test_every_import_points_down():
    assert upward_imports() == []


def test_module_level_imports_have_no_cycle():
    assert module_cycles() == []


def test_function_level_imports_give_their_reason():
    assert unexplained_function_imports() == []
    assert package_cycles() == []


def test_only_the_backends_start_a_process_pool():
    assert pool_importers() == []


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_an_upward_import_and_its_cycle_are_reported(tmp_path):
    src = _tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "",
        "repro/core/bad.py": "from repro.exec import run\n",
        "repro/exec/__init__.py": "",
        "repro/exec/run.py": "import repro.core.bad\n",
    })
    assert upward_imports(src) == [
        "repro.core.bad:1 imports repro.exec (layer 8 from layer 7)",
        "repro.core.bad:1 imports repro.exec.run (layer 8 from layer 7)",
    ]
    assert module_cycles(src) == ["repro.core.bad", "repro.exec.run"]
    assert package_cycles(src) == ["repro.core", "repro.exec"]


def test_an_unexplained_function_import_is_reported(tmp_path):
    src = _tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/errors.py": "",
        "repro/knobs.py": (
            "def a():\n"
            "    import repro.errors\n"
            "\n"
            "def b():\n"
            "    # Deferred: keeps start-up light.\n"
            "    import repro.errors\n"
        ),
    })
    assert unexplained_function_imports(src) == [
        "repro.knobs:2 imports repro.errors in a function"
    ]


def test_a_second_pool_importer_is_reported(tmp_path):
    pool = "from concurrent.futures import ProcessPoolExecutor\n"
    src = _tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/exec/__init__.py": "",
        "repro/exec/backends.py": pool,
        "repro/exec/run.py": pool,
        "repro/experiments/table2.py": (
            "import concurrent.futures\n"
            "\n"
            "POOL = concurrent.futures.ProcessPoolExecutor\n"
        ),
    })
    assert pool_importers(src) == [
        "repro.exec.run:1 reaches ProcessPoolExecutor",
        "repro.experiments.table2:3 reaches ProcessPoolExecutor",
    ]
