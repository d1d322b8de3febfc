"""Every public name the repo hands out still resolves.

Three places name ``repro`` attributes without a test calling them: the
``__all__`` lists of the packages, the ``from repro... import`` lines of
the example scripts, and the layer targets the traced benchmark wraps.
A deletion that leaves one of them stale would only show when a user or
the benchmark hits it; these tests read them statically and resolve
each name.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]


def _packages():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


def _resolve(module_name, attribute_path):
    """Import ``module_name`` and walk the dotted ``attribute_path``."""
    target = importlib.import_module(module_name)
    for part in attribute_path.split("."):
        if inspect.ismodule(target) and not hasattr(target, part):
            # ``from package import submodule`` names a module, not an attribute.
            target = importlib.import_module(f"{target.__name__}.{part}")
        else:
            target = getattr(target, part)
    return target


def _example_imports():
    imports = []
    for path in sorted((REPO / "examples").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                imports.extend((path.name, node.module, alias.name) for alias in node.names)
    return imports


def _layer_targets():
    """``(module, attribute path)`` pairs of ``perfbench/layers.py``, read without importing it."""
    tree = ast.parse((REPO / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    targets = []
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name, value = node.target.id, node.value
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name, value = node.targets[0].id, node.value
        else:
            continue
        if name == "TARGETS":
            targets.extend((module, path) for _, module, path in ast.literal_eval(value))
        elif name == "_FETCH":
            targets.append(tuple(ast.literal_eval(value)))
    return targets


@pytest.mark.parametrize("package", _packages())
def test_package_all_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"


def test_examples_import_only_existing_names():
    imports = _example_imports()
    assert imports, "no repro imports found in examples/"
    for example, module, name in imports:
        assert _resolve(module, name) is not None, f"{example}: {module}.{name}"


def test_perfbench_layer_targets_resolve():
    targets = _layer_targets()
    assert len(targets) > 20, "TARGETS not found in perfbench/layers.py"
    for module, path in targets:
        assert callable(_resolve(module, path)), f"{module}.{path}"
