"""Every name a ``lindeberg_lab`` module lists in ``__all__`` exists on it.

A name left in ``__all__`` after a move or a deletion breaks only
``from module import *``, which no other test runs.
"""

import importlib
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
