"""Every name a ``lindeberg_lab`` module lists in ``__all__`` exists on it
and is read outside the unit tests, every name the package re-exports is in
its module's ``__all__``, no source, test or demo file imports a name it
never reads, and no source file loads scipy.

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


# calls that load a module named by their first argument
LOADERS = {"find_spec", "import_module", "__import__"}


def module_loads(path: Path, module: str) -> list[tuple[int, str]]:
    """(line, module) of every import of ``module`` or of one of its
    submodules in ``path`` and of every ``find_spec``, ``import_module`` or
    ``__import__`` call that names one."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call) and node.args and isinstance(
                node.args[0], ast.Constant) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) in LOADERS:
            names = [str(node.args[0].value)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] == module]
    return found


def test_scipy_loads_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import importlib.util, scipy.linalg\n"
                     "from scipy import special\n"
                     "importlib.util.find_spec('scipy')\n"
                     "__import__('scipy.linalg._flapack')\n"
                     "import scipyx\n"
                     "from ctypes import util\n", encoding="utf-8")
    assert module_loads(probe, "scipy") == [
        (1, "scipy.linalg"), (2, "scipy"), (3, "scipy"),
        (4, "scipy.linalg._flapack")]
    assert module_loads(probe, "ctypes") == [(6, "ctypes")]


SOURCES = [path for path in SCANNED if path.is_relative_to(ROOT / "src")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_loads_no_scipy(path):
    # the spectral suites call numpy's own LAPACK; scipy is a test oracle
    assert module_loads(path, "scipy") == []


def test_only_wigner_loads_ctypes():
    # foreign calls stay in the one module that binds LAPACK
    assert [path for path in SOURCES if module_loads(path, "ctypes")] == \
        [ROOT / "src" / "lindeberg_lab" / "wigner.py"]


# the files that count as callers of an exported name: the package, the
# demos, the claims gate and the benchmark, but no unit test
OUTSIDE_UNIT_TESTS = sorted(
    path for path in (*(ROOT / "src").rglob("*.py"),
                      *(ROOT / "demos").rglob("*.py"),
                      ROOT / "tests" / "test_acceptance.py",
                      *(ROOT / "perfbench").rglob("*.py")))
# (module, name) exported though nothing outside the unit tests reads it:
# the swap bound of a smoothed max at a given alpha, kept for the bounds
# that minimise over alpha (ROADMAP item 1)
UNREAD_EXPORTS = [("lindeberg_lab.smoothmax", "max_swap_bound")]


def names_read(path: Path) -> set[str]:
    """Every name ``path`` reads, as a variable or as an attribute; an
    import binds a name, so only its use counts."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_names_read_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from m import a, b\nimport c\n\n\ndef d():\n"
                     "    e = a(c.f)\n", encoding="utf-8")
    assert names_read(probe) == {"a", "c", "f"}
    assert ROOT / "tests" / "test_acceptance.py" in OUTSIDE_UNIT_TESTS


def test_every_export_is_read_outside_the_unit_tests():
    # an exported name that only unit tests read is surface with no caller
    read = set().union(*map(names_read, OUTSIDE_UNIT_TESTS))
    unread = [(name, attr) for name in MODULES
              for attr in getattr(importlib.import_module(name), "__all__",
                                  []) if attr not in read]
    assert unread == UNREAD_EXPORTS
