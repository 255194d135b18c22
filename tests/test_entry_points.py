"""Every module under ``src/repro`` is reached from something that is not a test.

The entry points are what a user or the benchmark runs: the CLI, the four
evaluators, the service, the claims table, the end-to-end harness and the
examples.  From them the test walks the import graph of the source, read
from the AST without importing anything:

* ``import a.b`` and ``from a import b`` (``b`` a submodule) reach the
  module they name; so does a module-level or function-local import of a
  module that is itself reached;
* ``from pkg import name`` resolves through ``pkg/__init__``'s re-export to
  the module that defines ``name`` (a lazy ``__getattr__`` in the package
  counts as its re-export), and so does ``pkg.name`` on an imported package;
* a package ``__init__`` is executed when anything below it is reached, but
  its re-exports are not followed: a module that only its ``__init__``
  imports is dead code, and the test names it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

ENTRY_MODULES = (
    "repro.cli",
    "repro.__main__",
    "repro.core.protocol",
    "repro.baselines.cdn",
    "repro.extensions.it_yoso",
    "repro.baselines.turbopack",
    "repro.service.service",
)
ENTRY_SCRIPTS = ("benchmarks/claims.py", "benchmarks/e2e/*.py", "examples/*.py")


class ImportGraph:
    """The modules of one package tree under ``src`` and what reaches them."""

    def __init__(self, src: Path, package: str) -> None:
        self.paths: dict[str, Path] = {}
        for path in sorted((src / package).rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            self.paths[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
        self.reached: set[str] = set()
        self._trees: dict[str, ast.Module] = {}

    def tree(self, module: str) -> ast.Module:
        if module not in self._trees:
            self._trees[module] = ast.parse(self.paths[module].read_text())
        return self._trees[module]

    def is_package(self, module: str) -> bool:
        return module in self.paths and self.paths[module].name == "__init__.py"

    def reach(self, module: str) -> None:
        """Mark ``module`` and its packages executed; follow a module's imports."""
        if module not in self.paths or module in self.reached:
            return
        self.reached.add(module)
        package = module.rpartition(".")[0]
        if package:
            self.reach(package)
        if not self.is_package(module):
            self.follow(self.tree(module))

    def resolve(self, module: str, name: str) -> tuple[str, bool]:
        """Where ``module.name`` is defined, and whether it is that module itself."""
        if f"{module}.{name}" in self.paths:
            return f"{module}.{name}", True
        if not self.is_package(module):
            return module, False
        body = self.tree(module).body
        for node in body:
            if isinstance(node, ast.ImportFrom):
                source = _source(node)
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return self.resolve(source, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname == name:
                        return alias.name, True
        for node in body:  # not a static re-export: the package's lazy ones
            if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
                self.follow(node)
        return module, False

    def follow(self, tree: ast.AST) -> None:
        """Reach everything ``tree`` imports or reads off an imported package."""
        bound: dict[str, str] = {}  # local name -> the module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.reach(alias.name)
                    top = alias.name.partition(".")[0]
                    bound[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom):
                source = _source(node)
                self.reach(source)
                for alias in node.names:
                    target, is_module = self.resolve(source, alias.name)
                    self.reach(target)
                    if is_module:
                        bound[alias.asname or alias.name] = target
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else []
            if not chain or chain[0] not in bound:
                continue
            module = bound[chain[0]]
            for attr in chain[1:]:
                module, is_module = self.resolve(module, attr)
                self.reach(module)
                if not is_module:
                    break


def _source(node: ast.ImportFrom) -> str:
    assert not node.level, "relative import: this tree imports by absolute name"
    return node.module or ""


def _dotted(node: ast.Attribute) -> list[str]:
    """``a.b.c`` as ``["a", "b", "c"]``; empty unless the chain starts at a name."""
    attrs: list[str] = []
    value: ast.expr = node
    while isinstance(value, ast.Attribute):
        attrs.append(value.attr)
        value = value.value
    return [value.id, *reversed(attrs)] if isinstance(value, ast.Name) else []


def unreachable(src: Path, package: str, modules=(), scripts=()) -> list[str]:
    """The modules of ``package`` that no entry module or script reaches."""
    graph = ImportGraph(src, package)
    for module in modules:
        assert module in graph.paths, f"entry point {module} does not exist"
        graph.reach(module)
    for script in scripts:
        graph.follow(ast.parse(Path(script).read_text()))
    return sorted(set(graph.paths) - graph.reached)


def test_every_module_is_reached_from_an_entry_point():
    scripts = [path for pattern in ENTRY_SCRIPTS for path in sorted(ROOT.glob(pattern))]
    assert {str(p.relative_to(ROOT).parent) for p in scripts} == {
        "benchmarks", "benchmarks/e2e", "examples"}
    dead = unreachable(ROOT / "src", "repro", ENTRY_MODULES, scripts)
    assert not dead, (
        "modules no CLI command, evaluator, service, claim row, e2e workload "
        f"or example imports (delete them, or reach them from one): {dead}")


@pytest.fixture
def toy(tmp_path):
    """``app.toy`` re-exports ``used`` from ``live`` and ``unused`` from ``dead``."""
    files = {
        "app/__init__.py": "",
        "app/toy/__init__.py": "from app.toy.live import used\nfrom app.toy.dead import unused\n",
        "app/toy/live.py": "def used():\n    return 1\n",
        "app/toy/dead.py": "def unused():\n    return 0\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)

    def run(entry: str) -> list[str]:
        script = tmp_path / "entry.py"
        script.write_text(entry)
        return unreachable(tmp_path, "app", scripts=[script])

    return run


@pytest.mark.parametrize("entry", [
    "from app.toy import used\nused()\n",
    "import app.toy\napp.toy.used()\n",
    "from app import toy\ntoy.used()\n",
], ids=["from-package-import", "import-package", "package-attribute"])
def test_a_module_only_its_init_reexports_is_reported(toy, entry):
    assert toy(entry) == ["app.toy.dead"]


def test_attribute_access_on_an_imported_package_reaches_the_module(toy):
    assert toy("from app import toy\ntoy.unused()\n") == ["app.toy.live"]
    assert toy("from app import toy\nprint(toy)\n") == ["app.toy.dead", "app.toy.live"]
