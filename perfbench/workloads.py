"""The benchmark's input families and their seeded order.

The seed only permutes the order of inputs; the program receives only the
generated inputs.  ``smoke`` families are tiny stand-ins exercising the same
layers, used by the benchmark's own tests.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: Protocols of the sweep workload (Optmin[k] and u-Pmin[k], k=2).
SWEEP_PROTOCOLS = ("optmin", "upmin")

#: (n, t, max_crash_round) spaces of the sweep workload, k=2.
SWEEP_SPACES = {
    False: [(5, 2, None), (5, 3, 1), (6, 3, 1)],
    True: [(4, 2, 1), (4, 3, 1)],
}

#: (k, m, n, t) contexts of the census workload: m-round restricted complexes.
CENSUS_CONTEXTS = {
    False: [
        (2, 2, 4, 2), (2, 2, 4, 3), (2, 2, 5, 1), (2, 2, 5, 2),
        (2, 1, 6, 5),
        (3, 1, 5, 4), (3, 1, 6, 3),
    ],
    True: [(2, 1, 4, 3), (2, 2, 3, 2)],
}

#: The k-set protocols the service workload draws sweeps from.
SERVICE_PROTOCOLS = ("optmin", "upmin", "floodmin", "early", "uearly")

#: (n, t, k) of the m=1 censuses the service workload submits (all admitted).
SERVICE_CENSUSES = [
    (3, 1, 1), (3, 2, 1), (3, 2, 2), (4, 1, 1), (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 2),
    (5, 1, 1), (5, 2, 1), (5, 2, 2),
]


def sweep_members(smoke: bool = False) -> List[Dict[str, Any]]:
    return [
        {"name": f"{protocol}/n{n}t{t}" + (f"m{mcr}" if mcr else ""),
         "protocol": protocol, "n": n, "t": t, "k": 2, "max_crash_round": mcr}
        for n, t, mcr in SWEEP_SPACES[smoke]
        for protocol in SWEEP_PROTOCOLS
    ]


def census_members(smoke: bool = False) -> List[Dict[str, Any]]:
    return [
        {"name": f"k{k}m{m}/n{n}t{t}", "k": k, "m": m, "n": n, "t": t}
        for k, m, n, t in CENSUS_CONTEXTS[smoke]
    ]


def service_specs(count: int) -> List[Dict[str, Any]]:
    """``count`` specs of the service family, the same ones for every seed.

    The family: small sweeps (n in {5, 6}, t=2, k=2, the five k-set protocols
    x max_failures <= 1 x max_crash_round x receiver_policy) and the m=1
    censuses the service admits.  A fixed draw keeps the served set identical
    across runs; only its order depends on the seed.
    """
    family: List[Dict[str, Any]] = []
    for n in (5, 6):
        for protocol in SERVICE_PROTOCOLS:
            for max_failures in (0, 1):
                for max_crash_round in (1, 2, 3):
                    for policy in ("all", "canonical", "none"):
                        family.append({
                            "kind": "sweep", "protocol": protocol, "n": n, "t": 2, "k": 2,
                            "max_failures": max_failures, "max_crash_round": max_crash_round,
                            "receiver_policy": policy,
                        })
    for n, t, k in SERVICE_CENSUSES:
        family.append({"kind": "census", "n": n, "t": t, "k": k, "time": 1})
    if count > len(family):
        raise ValueError(f"the service family has {len(family)} specs, {count} requested")
    chosen = set(random.Random("service-family").sample(range(len(family)), count))
    return [spec for index, spec in enumerate(family) if index in chosen]


def seeded_order(items: List[Any], seed: int, salt: str = "") -> List[Any]:
    """A permutation of ``items`` that depends only on ``seed`` and ``salt``."""
    order = list(items)
    random.Random(f"{seed}/{salt}").shuffle(order)
    return order


def build_inputs(workload: str, smoke: bool = False) -> List[Any]:
    """The program objects one workload's surveys start from (setup probes time this)."""
    from repro.cli import PROTOCOLS
    from repro.adversaries.enumeration import RestrictedSpace
    from repro.model import Context

    if workload == "sweep":
        return [
            (PROTOCOLS[m["protocol"]](m["k"]),
             RestrictedSpace(Context(n=m["n"], t=m["t"], k=m["k"]),
                             max_crash_round=m["max_crash_round"]))
            for m in sweep_members(smoke)
        ]
    if workload == "census":
        return [Context(n=m["n"], t=m["t"], k=m["k"]) for m in census_members(smoke)]
    raise ValueError(f"no library inputs for workload {workload!r}")
