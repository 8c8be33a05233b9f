"""Every name a ``lindeberg_lab`` module lists in ``__all__`` exists on it,
every name the package re-exports is in its module's ``__all__``, and no
source, test or demo file imports a name it never reads.

A name left in ``__all__`` after a move or a deletion breaks only
``from module import *``, which no other test runs; an import left behind
by one costs its load time and misleads a reader.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent
# (file, imported name) pairs kept on purpose though never read
DELIBERATE_IMPORTS = {
    # numpy 2 loads numpy.random lazily; the stream module loads it at import
    ("src/lindeberg_lab/rng.py", "numpy.random"),
}


def unread_imports(path: Path) -> list[tuple[int, str]]:
    """(line, imported name) of every import in ``path`` whose bound name
    is never read.  A package's ``__init__.py`` imports are its exports,
    checked against ``__all__`` above, so it is not scanned."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    (node.lineno, alias.name)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.lineno, alias.name)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT).as_posix()
    return sorted(place for name, place in bound.items()
                  if name not in read
                  and (rel, place[1]) not in DELIBERATE_IMPORTS)


SCANNED = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def test_scanned_files_found():
    assert ROOT / "demos" / "01_clt_gap.py" in SCANNED


@pytest.mark.parametrize("path", SCANNED,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unread_imports(path) == []
