"""Recompute ``goldens.json`` from the library.

Run from the repository root: ``PYTHONPATH=src python3 perfbench/capture_goldens.py``.
Only do so on a commit whose answers are trusted: the goldens are what
every later run of the benchmark is checked against.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from golden import GOLDENS_PATH, census_payload, report_payload  # noqa: E402
from workloads import build_inputs, census_members, sweep_members  # noqa: E402


def main() -> None:
    from repro.runtime import resilient_census, resilient_check
    from repro.topology import build_restricted_complex

    goldens = {"sweep": {}, "census": {}}
    for smoke in (False, True):
        for member, (protocol, space) in zip(sweep_members(smoke), build_inputs("sweep", smoke)):
            outcome = resilient_check(protocol, space, member["t"])
            payload = report_payload(outcome.value)
            del payload["violations"]
            goldens["sweep"][member["name"]] = payload
        for member, context in zip(census_members(smoke), build_inputs("census", smoke)):
            pc = build_restricted_complex(context, time=member["m"])
            census = resilient_census(pc, member["k"], symmetry="quotient").value
            goldens["census"][member["name"]] = census_payload(census)
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        for position, workload in enumerate(sorted(goldens)):
            rows = [f"  {json.dumps(name)}: {json.dumps(value, sort_keys=True)}"
                    for name, value in sorted(goldens[workload].items())]
            closing = "}" if position == len(goldens) - 1 else "},"
            handle.write(f' {json.dumps(workload)}: {{\n' + ",\n".join(rows) + f"\n {closing}\n")
        handle.write("}\n")
    print(f"wrote {GOLDENS_PATH}")


if __name__ == "__main__":
    main()
