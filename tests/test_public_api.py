"""The package's public surface: what `from diffnms import ...` offers, and from where."""

import ast
import importlib
import inspect

import pytest

import diffnms


def _source_modules() -> dict[str, str]:
    """Each name the package imports from one of its modules, mapped to that module."""
    tree = ast.parse(inspect.getsource(diffnms))
    return {
        alias.name: f"diffnms.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


@pytest.mark.parametrize("name", diffnms.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(diffnms, name)


@pytest.mark.parametrize("name", diffnms.__all__)
def test_every_exported_name_is_exported_by_its_module(name):
    module = importlib.import_module(_source_modules()[name])
    assert name in module.__all__, module.__name__


@pytest.mark.parametrize("name", ["classical_soft_nms", "prune_matrix", "solve_unit_lower"])
def test_removed_helpers_are_gone(name):
    assert name not in diffnms.__all__
    with pytest.raises(ImportError):
        exec(f"from diffnms import {name}", {})
