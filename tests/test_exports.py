"""Every exported name resolves, so deletions leave no dangling exports."""

import importlib
import pkgutil

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
