"""Every module under ``src/repro`` is reached from something the project runs.

The roots are the command line (``repro.cli`` and ``repro.__main__``),
every benchmark script (``benchmarks/**/*.py``) and every example
(``examples/*.py``); ``tests/test_examples.py`` runs the examples.  A
module counts as reached when a root, or a module reached from one,
imports it.  The graph is read from the source with ``ast``:

* ``import a.b`` and ``from a import b`` (where ``a.b`` is a module)
  reach ``a.b``;
* a name imported from a package, or read as ``pkg.name`` from an
  imported package, reaches the submodule that defines it;
* a package ``__init__``'s own re-exports count as nothing, so a module
  that only its package re-exports is not reached (the ``__init__``
  files, which hold re-exports only, are not checked themselves).

A module that only tests reach belongs under ``tests/``, or goes.  The
allow-list names the exceptions, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLI_FILES = (SRC / "repro" / "cli.py", SRC / "repro" / "__main__.py")

#: module -> why it stays although nothing the project runs reaches it.
ALLOWED_UNREACHED = {
    "repro.ebeam.kernel": (
        "the erf oracle: the brute-force Gaussian kernel that "
        "tests/ebeam/test_intensity.py checks the closed-form Eq. 3 against"
    ),
}


def _module_name(src: Path, path: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ImportGraph:
    """The modules of one source tree and the imports between them."""

    def __init__(self, src: Path):
        self.files = {_module_name(src, path): path for path in src.rglob("*.py")}
        self.packages = {
            name for name, path in self.files.items() if path.name == "__init__.py"
        }
        self._exports: dict[str, dict[str, str]] = {}

    def exports(self, package: str) -> dict[str, str]:
        """A package's re-exported names -> the module that defines each."""
        if package not in self._exports:
            exported = self._exports[package] = {}
            for node in ast.walk(ast.parse(self.files[package].read_text())):
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        target = self.member(node.module, alias.name)
                        if target is not None:
                            exported[alias.asname or alias.name] = target
        return self._exports[package]

    def member(self, module: str, name: str) -> str | None:
        """The source module that ``module.name`` resolves to, if any."""
        if f"{module}.{name}" in self.files:
            return f"{module}.{name}"
        if module in self.packages:
            return self.exports(module).get(name)
        return module if module in self.files else None

    def imports(self, path: Path) -> set[str]:
        """The source modules one file's imports and attribute reads reach."""
        tree = ast.parse(path.read_text())
        reached: set[str] = set()
        bound: dict[str, str] = {}  # local name -> module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.files:
                        reached.add(alias.name)
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else local
                    if target in self.files:
                        bound[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    target = self.member(node.module, alias.name)
                    if target is None:
                        continue
                    reached.add(target)
                    if target == f"{node.module}.{alias.name}":
                        bound[alias.asname or alias.name] = target
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reached.update(self._attribute_chain(node, bound))
        return reached

    def _attribute_chain(self, node: ast.Attribute, bound: dict[str, str]) -> list[str]:
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in bound:
            return []
        module, reached = bound[node.id], []
        for name in reversed(names):
            target = self.member(module, name)
            if target is None or target == module:
                break
            reached.append(target)
            module = target
        return reached

    def reached(self, root_files: list[Path]) -> set[str]:
        """Every source module reachable from ``root_files``, roots included."""
        queue = list(root_files)
        seen = {name for name, path in self.files.items() if path in queue}
        while queue:
            for module in self.imports(queue.pop()):
                if module in seen:
                    continue
                seen.add(module)
                if module not in self.packages:
                    queue.append(self.files[module])
        return seen

    def unreached(self, root_files: list[Path]) -> list[str]:
        """Source modules (package ``__init__`` files aside) nothing reaches."""
        reached = self.reached(root_files)
        return sorted(
            name for name in self.files
            if name not in self.packages and name not in reached
        )


class TestImportGraph:
    def test_every_src_module_is_reached(self):
        roots = [
            *CLI_FILES,
            *sorted((ROOT / "benchmarks").rglob("*.py")),
            *sorted((ROOT / "examples").glob("*.py")),
        ]
        unreached = set(ImportGraph(SRC).unreached(roots))
        stray = sorted(unreached - set(ALLOWED_UNREACHED))
        assert not stray, (
            "src modules that no command, benchmark or example reaches "
            f"(move them under tests/ or delete them): {stray}"
        )
        stale = sorted(set(ALLOWED_UNREACHED) - unreached)
        assert not stale, f"allow-listed, but reached now or gone: {stale}"
        assert all(reason.strip() for reason in ALLOWED_UNREACHED.values())


class TestGraphRules:
    """The resolution rules, on a small synthetic tree."""

    def _unreached(self, tmp_path, files, root_text):
        for rel, text in files.items():
            path = tmp_path / "src" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        root = tmp_path / "root.py"
        root.write_text(root_text)
        return ImportGraph(tmp_path / "src").unreached([root])

    PACKAGE = {
        "pkg/__init__.py": "from pkg.a import f\nfrom pkg.b import g\n",
        "pkg/a.py": "def f(): pass\n",
        "pkg/b.py": "from pkg.c import h\ndef g(): pass\n",
        "pkg/c.py": "def h(): pass\n",
    }

    def test_name_from_package_reaches_its_module(self, tmp_path):
        assert self._unreached(tmp_path, self.PACKAGE, "from pkg import f\n") == [
            "pkg.b", "pkg.c",
        ]

    def test_attribute_read_reaches_its_module(self, tmp_path):
        root = "import pkg\npkg.g()\n"
        assert self._unreached(tmp_path, self.PACKAGE, root) == ["pkg.a"]

    def test_aliased_package_attribute(self, tmp_path):
        root = "from pkg import b as bee\nimport pkg as p\np.f()\n"
        assert self._unreached(tmp_path, self.PACKAGE, root) == []

    def test_package_reexport_alone_reaches_nothing(self, tmp_path):
        assert self._unreached(tmp_path, self.PACKAGE, "import pkg\n") == [
            "pkg.a", "pkg.b", "pkg.c",
        ]
