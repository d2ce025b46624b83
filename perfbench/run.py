"""Layered end-to-end benchmark of the survey stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|census|service --seed N \\
        --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each was chosen, ``layers.json``
which layer should move which metric):

- ``sweep``: cold ``resilient_check`` surveys of Optmin[2] and u-Pmin[2] into
  an empty result store, each re-answered warm from that store;
- ``census``: ``build_restricted_complex`` + ``resilient_census`` over seven
  Proposition 2 contexts;
- ``service``: a ``repro.cli serve`` process under a closed loop of two
  clients submitting fresh small jobs over HTTP.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps the layers' public functions in spans and reports per-layer
self time.  CPU-bound times are normalised to a reference kernel's nominal
speed (``refnorm.py``); every table prints raw seconds and the scale factor
beside them.  Every output is checked (``golden.py``); a mismatch fails the
run with exit code 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import load_declared, load_layers, remove_work_dirs, require_checkout, result_line  # noqa: E402
from refnorm import BenchmarkError  # noqa: E402

WORKLOADS = ("sweep", "census", "service")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input families, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    mode = "per_layer" if args.trace else "end_to_end"
    try:
        require_checkout()
        declared = load_declared(mode)
        if args.workload == "service":
            from service import run_service as run
        else:
            from surveys import run_census, run_sweep
            run = run_sweep if args.workload == "sweep" else run_census
        values, attempted, failures = run(args.seconds, args.seed, bool(args.trace), args.smoke)
        if args.trace:
            # Layers this workload never enters read 0 (layers.json says which).
            for name, layer in load_layers()["layers"].items():
                if args.workload not in layer["workloads"]:
                    values.setdefault(name, 0.0)
        line = result_line(not failures, attempted, len(failures), values, declared)
    except (BenchmarkError, OSError, ValueError) as error:
        traceback.print_exc()
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    finally:
        remove_work_dirs()
    for failure in failures:
        print(f"FAILED: {failure}")
    print(line, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
