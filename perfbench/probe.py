"""Setup probe: a fresh interpreter imports ``repro.cli`` and builds a workload's inputs.

The parent times this process from spawn to exit (``setup_s``).  Usage:
``python3 perfbench/probe.py sweep|census [--smoke]`` with ``src`` on
``PYTHONPATH``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import repro.cli  # noqa: E402,F401

from workloads import build_inputs  # noqa: E402

if __name__ == "__main__":
    build_inputs(sys.argv[1], smoke="--smoke" in sys.argv[2:])
