"""Packaging and import-graph checks: metadata, console script, optional deps."""

import os
import subprocess
import sys

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def run_python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, *args], cwd=REPO, env=env, capture_output=True, text=True,
        check=True,
    )
    return result.stdout


def test_setup_metadata_names_the_package():
    lines = run_python("setup.py", "--name", "--version").split()
    assert lines == ["repro-set-consensus", repro.__version__]


def test_cli_import_leaves_networkx_out():
    # networkx backs only the communication-graph cross-check
    # (repro.model.graph); the CLI and the survey stack must not load it.
    out = run_python("-c", "import sys, repro.cli; print('networkx' in sys.modules)")
    assert out.strip() == "False"
