"""The package's public surface is exactly its modules' ``__all__`` lists."""

import ast
import importlib
import inspect
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


def _bench_trees():
    """(path, syntax tree) of each of the benchmark's sources."""
    for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _bench_names() -> set[str]:
    """Each X of ``from lapdetect import X`` and of ``ld.X``, where ``ld`` is
    an alias of lapdetect, in the benchmark's sources."""
    names = set()
    for _, tree in _bench_trees():
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


def _resolve(name: str):
    """``lapdetect.<name>``, or the submodule of that name, such as cli."""
    if hasattr(lapdetect, name):
        return getattr(lapdetect, name)
    return importlib.import_module(f"lapdetect.{name}")


def test_every_name_the_benchmark_uses_resolves():
    # Only the traced benchmark run would otherwise notice a dropped name.
    names = _bench_names()
    assert names
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except ModuleNotFoundError:
            missing.append(name)
    assert missing == [], missing


def _dotted(node) -> str | None:
    """The dotted name of a chain of attributes on a plain name, else None."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def _bench_calls():
    """(where, target, call) for each call in the benchmark's sources whose
    callee is a lapdetect object: ``ld.X(...)`` with ``ld`` an alias of
    lapdetect, ``X(...)`` after ``from lapdetect import X``, ``self.X(...)``
    after ``self.X = X``, and attributes of these, such as ``ld.X.from_alpha``."""
    for path, tree in _bench_trees():
        roots = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases = (a.asname or a.name for a in node.names if a.name == "lapdetect")
                roots.update((alias, lapdetect) for alias in aliases)
            elif isinstance(node, ast.ImportFrom) and node.module == "lapdetect":
                roots.update((a.asname or a.name, _resolve(a.name)) for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (
                    zip(target.elts, value.elts)
                    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                    else [(target, value)]
                )
                for t, v in pairs:
                    if _dotted(t) and _dotted(v) in roots:
                        roots[_dotted(t)] = roots[_dotted(v)]
        for node in ast.walk(tree):
            name = isinstance(node, ast.Call) and _dotted(node.func)
            if not name:
                continue
            parts = name.split(".")
            for i in range(len(parts), 0, -1):
                if ".".join(parts[:i]) in roots:
                    target = roots[".".join(parts[:i])]
                    for attr in parts[i:]:
                        target = getattr(target, attr)
                    yield f"{path.name}:{node.lineno} {name}", target, node
                    break


def test_every_call_the_benchmark_makes_binds():
    # A dropped keyword, such as workers=, would otherwise first show as a
    # failed benchmark run.
    calls = list(_bench_calls())
    keywords = {(t, k.arg) for _, t, c in calls for k in c.keywords}
    assert (lapdetect.run_grid, "workers") in keywords
    unbound = []
    for where, target, call in calls:
        args = () if any(isinstance(a, ast.Starred) for a in call.args) else call.args
        kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            inspect.signature(target).bind_partial(*(None for _ in args), **kwargs)
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert unbound == [], unbound
