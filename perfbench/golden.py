"""Correctness checks of every benchmark output.

Each check returns a list of human-readable mismatches; an empty list means
the output is correct.  A mismatch counts as a failed operation and makes
the benchmark exit non-zero.  ``goldens.json`` was captured from the
library (``python3 perfbench/capture_goldens.py``) and pins what every
sweep and census of the benchmark must answer.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def load_goldens() -> Dict[str, Any]:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def report_payload(report) -> Dict[str, Any]:
    """A ``CheckReport`` as plain data, histogram in insertion order."""
    return {
        "runs_checked": report.runs_checked,
        "max_decision_time": report.max_decision_time,
        "histogram": [[time_, count] for time_, count in report.decision_time_histogram.items()],
        "violations": [
            [index, violation.property_name, violation.message, violation.process]
            for index, violation in report.violations
        ],
    }


def report_bytes(report) -> bytes:
    return json.dumps(report_payload(report), sort_keys=True).encode("utf-8")


def census_payload(census) -> Dict[str, Any]:
    """A ``CapacityCensus`` row as plain data (``homology_runs`` is bookkeeping)."""
    return {"row": list(census.row), "classes": census.classes}


def census_bytes(census) -> bytes:
    return json.dumps(census_payload(census), sort_keys=True).encode("utf-8")


def check_sweep(payload: Dict[str, Any], golden: Dict[str, Any], member_count: int) -> List[str]:
    errors = []
    if payload["runs_checked"] != member_count:
        errors.append(
            f"runs_checked {payload['runs_checked']} != closed-form member count {member_count}"
        )
    if payload["violations"]:
        errors.append(f"{len(payload['violations'])} violations, first {payload['violations'][0]}")
    for field in ("runs_checked", "max_decision_time", "histogram"):
        if payload[field] != golden[field]:
            errors.append(f"{field} {payload[field]} != golden {golden[field]}")
    return errors


def check_warm(cold: bytes, warm: bytes) -> List[str]:
    if cold != warm:
        return [f"warm report differs from the cold one: {warm[:120]!r} vs {cold[:120]!r}"]
    return []


def check_store_clean(report) -> List[str]:
    """A run whose result store degraded would measure pure compute as warm."""
    degraded = {kind: count for kind, count in report.kinds().items()
                if kind.startswith("store_")}
    return [f"result store events {degraded}"] if degraded else []


def check_census(payload: Dict[str, Any], golden: Dict[str, Any]) -> List[str]:
    errors = []
    vertices, high, consistent, _connected, _connected_high = payload["row"]
    if consistent != high:
        errors.append(f"Proposition 2 broken: consistent {consistent} != high_capacity {high}")
    if payload["row"] != golden["row"]:
        errors.append(f"row {payload['row']} != golden {golden['row']}")
    if payload["classes"] != golden["classes"]:
        errors.append(f"classes {payload['classes']} != golden {golden['classes']}")
    if vertices <= 0:
        errors.append("empty complex")
    return errors


def check_served(served: Any, direct: Dict[str, Any]) -> List[str]:
    if served != direct:
        return [f"served result {json.dumps(served)[:160]} != direct {json.dumps(direct)[:160]}"]
    return []
