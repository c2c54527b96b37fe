"""Every exported name exists: ``repro.__all__`` and each subpackage's.

A module deleted from under a package leaves its name behind in an
``__all__`` list; ``from package import *`` then fails, long after the
deletion.  Walk the packages instead of listing them, so a new one is covered.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def test_the_walk_finds_the_subpackages():
    assert {"repro.sim", "repro.sim.parallel", "repro.core", "repro.network"} <= set(PACKAGES)


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
