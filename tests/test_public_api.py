"""Every exported name exists: ``repro.__all__`` and each subpackage's.

A module deleted from under a package leaves its name behind in an
``__all__`` list; ``from package import *`` then fails, long after the
deletion.  Walk the packages instead of listing them, so a new one is covered.
The two package maps (README's "Package layout" block and the one in
``repro/__init__.py``) are held to the same walk.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def test_the_walk_finds_the_subpackages():
    assert {"repro.sim", "repro.sim.parallel", "repro.control", "repro.network"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_once(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names nothing for {missing}"


def test_the_package_docstring_examples_run():
    """Both quick starts in ``repro/__init__.py`` construct policies by public name."""
    results = doctest.testmod(repro)
    assert results.attempted >= 11 and results.failed == 0


def _readme_package_map() -> set:
    """The ``  name/`` rows under ``src/repro/`` in README's layout block."""
    readme = (Path(repro.__path__[0]).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Package layout", 1)[1].split("```")[1]
    rows = block.split("src/repro/", 1)[1]
    return set(re.findall(r"^  (\w+)/ ", rows, re.M))


def _docstring_package_map() -> set:
    """The ````repro.name```` headings of the package docstring's layout."""
    section = repro.__doc__.split("Package layout\n--------------\n", 1)[1]
    section = re.split(r"^\w.*\n-{3,}$", section, maxsplit=1, flags=re.M)[0]
    return set(re.findall(r"^``repro\.(\w+)``$", section, re.M))


def test_both_package_maps_name_the_packages_that_exist():
    existing = {info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg}
    assert _readme_package_map() == existing, "README's Package layout block"
    assert _docstring_package_map() == existing, "repro/__init__.py's Package layout"


def test_no_module_under_src_imports_benchmarks():
    """``src/repro`` must work without ``benchmarks/`` on ``sys.path``."""
    offenders = []
    for path in sorted(Path(repro.__path__[0]).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "benchmarks" for module in modules):
                offenders.append(f"{path}:{node.lineno}")
    assert not offenders, f"src/ imports benchmarks/: {offenders}"


def test_setup_py_names_the_package(tmp_path):
    """``setup()`` with no arguments installed a package called UNKNOWN."""
    root = Path(repro.__path__[0]).parents[1]
    shutil.copy(root / "setup.py", tmp_path / "setup.py")
    done = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro"]
