"""Every name a ``lindeberg_lab`` module lists in ``__all__`` exists on it,
and every name the package re-exports is in its module's ``__all__``.

A name left in ``__all__`` after a move or a deletion breaks only
``from module import *``, which no other test runs.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import lindeberg_lab

MODULES = ["lindeberg_lab", *(f"lindeberg_lab.{info.name}" for info
                              in pkgutil.iter_modules(lindeberg_lab.__path__))]


def test_modules_found():
    assert "lindeberg_lab.core" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def package_imports():
    """(module, name) of every ``from .module import name`` in
    ``lindeberg_lab/__init__.py``."""
    tree = ast.parse(inspect.getsource(lindeberg_lab))
    return [(f"lindeberg_lab.{node.module}", alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.level == 1 for alias in node.names]


def test_package_imports_found():
    assert ("lindeberg_lab.core", "clt_experiment") in package_imports()


@pytest.mark.parametrize("module, name", package_imports(),
                         ids=lambda v: v.removeprefix("lindeberg_lab."))
def test_reexported_name_is_in_its_modules_all(module, name):
    assert name in importlib.import_module(module).__all__
