"""The public API keeps one dense-size setting: ``LCUTRUNC_QUBIT_CAP``."""

import ast
import inspect
from pathlib import Path

import lcutrunc

SRC = Path(lcutrunc.__file__).resolve().parent


def _public_callables():
    for name in lcutrunc.__all__:
        obj = getattr(lcutrunc, name)
        yield name, obj
        if inspect.isclass(obj):
            for attribute, member in vars(obj).items():
                if not attribute.startswith("_") and callable(member):
                    yield f"{name}.{attribute}", member


def test_no_public_callable_takes_a_cap_parameter():
    found = []
    for name, obj in _public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        found += [f"{name}({parameter})" for parameter in parameters if "cap" in parameter.lower()]
    assert found == []


def test_qubit_cap_is_read_only_by_densesim_qubit_cap():
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        enclosing = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                enclosing[child] = node.name if isinstance(node, ast.FunctionDef) else enclosing.get(node)
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("environ", "getenv", "QUBIT_CAP_ENV") and isinstance(node.ctx, ast.Load):
                readers.append(f"{path.stem}.{enclosing.get(node)}")
        if "LCUTRUNC_QUBIT_CAP" in path.read_text():
            assert path.name == "densesim.py"
    assert set(readers) == {"densesim.qubit_cap"}
