"""The package's public surface is exactly its modules' ``__all__`` lists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import lapdetect
from lapdetect import detector, divergence, laplace, mechanism, montecarlo, quadrature

MODULES = [detector, divergence, laplace, mechanism, montecarlo, quadrature]


def test_package_all_is_the_module_lists_plus_version():
    names = [name for mod in MODULES for name in mod.__all__] + ["__version__"]
    assert len(set(names)) == len(names)
    assert len(set(lapdetect.__all__)) == len(lapdetect.__all__)
    assert set(lapdetect.__all__) == set(names)


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_the_module_object(mod):
    for name in mod.__all__:
        assert getattr(lapdetect, name) is getattr(mod, name), name


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_module_all_names_no_private_object(mod):
    for name in mod.__all__:
        assert not name.startswith("_"), name
        obj = getattr(mod, name)
        assert not getattr(obj, "__name__", name).startswith("_"), name


def test_version_matches_pyproject():
    # A regex, not tomllib: tomllib needs Python 3.11 and 3.10 is supported.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None, "no version line in pyproject.toml"
    assert lapdetect.__version__ == match.group(1)


def _bench_names() -> set[str]:
    """Each X of ``from lapdetect import X`` and of ``ld.X``, where ``ld`` is
    an alias of lapdetect, in the benchmark's sources."""
    names = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = {
            a.asname or a.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for a in node.names if a.name == "lapdetect"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "lapdetect":
                names.update(a.name for a in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                names.add(node.attr)
    return names


def test_every_name_the_benchmark_uses_resolves():
    # Only the traced benchmark run would otherwise notice a dropped name.
    names = _bench_names()
    assert names
    missing = []
    for name in sorted(names):
        if not hasattr(lapdetect, name):
            try:
                importlib.import_module(f"lapdetect.{name}")  # a submodule, such as cli
            except ModuleNotFoundError:
                missing.append(name)
    assert missing == [], missing
