"""Package metadata for ``repro``, the simulated Harmony reproduction.

This file is the only packaging metadata in the repository (there is no
``pyproject.toml``).  ``pip install -e . --no-use-pep517`` installs the
``src/repro`` package offline; the tests and benchmarks need no install and
run with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.10",
)
