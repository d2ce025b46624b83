"""Shared plumbing: checkout paths, probes, statistics and the result line."""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

from refnorm import Bracketer, BenchmarkError, Sample

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: Setup probes per run; spread evenly through the measured time.
SETUP_PROBES = 8

#: ``-X importtime`` probes per traced run.
IMPORT_PROBES = 3


def require_checkout() -> None:
    """Fail before measuring anything when the program's sources are absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchmarkError(f"no program sources under {SRC}: run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    return env


def work_dir(name: str) -> str:
    path = os.path.join(STATE_DIR, f"work-{os.getpid()}", name)
    os.makedirs(path, exist_ok=True)
    return path


def remove_work_dirs() -> None:
    shutil.rmtree(os.path.join(STATE_DIR, f"work-{os.getpid()}"), ignore_errors=True)


def setup_probe(bracketer: Bracketer, workload: str, smoke: bool) -> Sample:
    """A fresh interpreter importing ``repro.cli`` and building the inputs."""
    command = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload]
    if smoke:
        command.append("--smoke")
    env = child_env()

    def spawn() -> int:
        return subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=120).returncode

    sample = bracketer.measure(spawn)
    if sample.value != 0:
        raise BenchmarkError(f"setup probe {command} exited {sample.value}")
    return sample


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def importtime_probe(bracketer: Bracketer) -> Tuple[float, float]:
    """Normalised cumulative import seconds of ``repro.cli`` and of ``networkx``."""
    command = [sys.executable, "-X", "importtime", "-c", "import repro.cli"]

    def spawn() -> str:
        done = subprocess.run(command, env=child_env(), cwd=ROOT, stderr=subprocess.PIPE,
                              stdout=subprocess.DEVNULL, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchmarkError(f"import probe failed: {done.stderr[-400:]}")
        return done.stderr

    sample = bracketer.measure(spawn)
    cumulative = {}
    for line in sample.value.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            cumulative[match.group(3).strip()] = int(match.group(2)) / 1e6
    if "repro.cli" not in cumulative:
        raise BenchmarkError("-X importtime printed no line for repro.cli")
    return (cumulative["repro.cli"] * sample.factor,
            cumulative.get("networkx", 0.0) * sample.factor)


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    """Inclusive-method 90th percentile (exact for small samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def print_table(title: str, header: List[str], rows: List[Sequence]) -> None:
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    print(f"\n{title}")
    print("  ".join(str(cell).ljust(width) for cell, width in zip(header, widths)))
    print("  ".join("-" * width for width in widths))
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


def load_declared(mode: str) -> Dict[str, str]:
    """Metric name -> unit declared in BENCHMARK.json for ``end_to_end``/``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in declared[mode]}


def load_layers() -> Dict:
    """``layers.json``: nominal reference speed, metric definitions, layer map."""
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as handle:
        return json.load(handle)


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], declared: Dict[str, str]) -> str:
    """The benchmark's last output line: every declared metric with its unit."""
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in declared.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})
