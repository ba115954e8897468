"""Every exported name resolves, so deletions leave no dangling exports."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import lamina


def _modules():
    return [importlib.import_module(f"lamina.{m.name}") for m in pkgutil.iter_modules(lamina.__path__)]


def test_module_exports_resolve():
    for module in _modules():
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def test_package_names_are_exported_by_their_modules():
    exported = {name for module in _modules() for name in module.__all__}
    public = {name for name in vars(lamina) if not name.startswith("_")}
    submodules = {m.name for m in pkgutil.iter_modules(lamina.__path__)}
    assert public - submodules <= exported


def _unused_imports(source: str) -> list[str]:
    """The names a module imports but neither reads nor lists in __all__;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used | exported)


def test_unused_imports_detector():
    source = "from __future__ import annotations\nimport os, math as m\nfrom x import a, b\n__all__ = ['b']\nm.pi\n"
    assert _unused_imports(source) == ["a (line 3)", "os (line 2)"]


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted(Path(lamina.__path__[0]).glob("*.py"))
    unused = {p.name: _unused_imports(p.read_text()) for p in paths if p.name != "__init__.py"}
    assert len(unused) >= 12
    assert {name: found for name, found in unused.items() if found} == {}


def test_no_test_module_imports_a_name_it_does_not_use():
    paths = sorted(Path(__file__).parent.glob("*.py"))
    unused = {p.name: _unused_imports(p.read_text()) for p in paths}
    assert len(unused) >= 13
    assert {name: found for name, found in unused.items() if found} == {}


def test_only_circle_reads_fraction_slots():
    # Fraction's private slots are an interpreter detail that circle.py
    # pins (test_circle.test_fraction_slot_layout); no other module names them
    paths = sorted(Path(lamina.__path__[0]).glob("*.py"))
    naming = [p.name for p in paths if re.search(r"_numerator|_denominator", p.read_text())]
    assert len(paths) >= 13 and naming == ["circle.py"]


def test_readme_names_every_exported_name():
    # each module's row in README's library table names its public functions
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", readme))))
    missing = {module.__name__: [name for name in module.__all__ if name not in named] for module in _modules()}
    assert len(missing) >= 12 and {name: names for name, names in missing.items() if names} == {}
