"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one experiment from the paper (named in
its module docstring).  Conventions:

* each benchmark prints the paper-style rows/series it reproduces (captured
  with ``pytest benchmarks/ --benchmark-only -s`` or in the benchmark logs),
  and *asserts* the qualitative shape (who wins, by how much, where the
  crossover is);
* the timed portion (the ``benchmark(...)`` call) is the experiment's core
  computation, so ``--benchmark-only`` runs double as a performance record;
* engineering benchmarks additionally *record* their trajectory: each calls
  :func:`record_benchmark` to emit a machine-readable ``BENCH_<name>.json``
  (wall times, speedup vs the reference/baseline path, system size), so the
  perf history can be collected as CI artifacts instead of only being
  asserted against a floor.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys

import pytest

from repro.adversaries import AdversaryGenerator
from repro.model import Context


def print_table(title: str, headers, rows) -> None:
    """Print an aligned table (used by every benchmark for its paper-style output)."""
    from repro.analysis import format_table

    print()
    print(format_table(headers, rows, title=title))


def record_benchmark(name: str, payload: dict) -> str:
    """Write one benchmark's machine-readable record as ``BENCH_<name>.json``.

    ``payload`` carries the benchmark's own fields — by convention at least
    wall times in seconds, the realised speedup over the reference/baseline
    path, and the size of the swept system (adversaries / vertices / runs) —
    and is wrapped with the interpreter/platform stamp plus the process's
    peak RSS (``max_rss_kb``), so records from different runners stay
    comparable and memory regressions show up in the perf history alongside
    wall times.  (``compare_bench`` only diffs ``*_seconds`` / ``speedup``
    leaves, so the stamp fields never trip the baseline comparison.)  The
    destination directory defaults to the working directory and is
    overridden with ``BENCH_OUTPUT_DIR`` (the CI smoke job points that at
    its artifact directory).  Returns the path written.
    """
    directory = os.environ.get("BENCH_OUTPUT_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    # ru_maxrss is KiB on Linux but bytes on macOS.
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        max_rss //= 1024
    record = {
        "benchmark": name,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
        "max_rss_kb": max_rss,
        **payload,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n[bench] recorded {path}")
    return path


@pytest.fixture
def small_context() -> Context:
    return Context(n=6, t=4, k=2)


@pytest.fixture
def generator(small_context: Context) -> AdversaryGenerator:
    return AdversaryGenerator(small_context, seed=20160523)
