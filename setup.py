"""Package metadata for ``pip install -e .`` / ``python setup.py develop``.

A plain ``setup.py`` (no pyproject.toml) so editable installs work with
setuptools versions that lack PEP 660 editable-wheel support.  The core
library is pure standard library; numpy only speeds up the GF(2) homology
kernel, and networkx is needed only by the communication-graph cross-check
tests (``tests/test_graph.py``).
"""
from setuptools import find_packages, setup

setup(
    name="repro-set-consensus",
    version="1.0.0",
    description="Unbeatable set consensus (Castañeda–Gonczarowski–Moses 2016) — reproduction",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={
        "numpy": ["numpy"],
        "test": ["pytest", "pytest-benchmark", "networkx"],
    },
    entry_points={"console_scripts": ["repro-set-consensus = repro.cli:main"]},
)
