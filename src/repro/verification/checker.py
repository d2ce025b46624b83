"""Bulk correctness checking over adversary families (exhaustive or sampled).

The paper's theorems are of the form "for every adversary, ...".  This module
discharges those quantifiers over finite families: it runs a protocol against
every adversary of an enumerated or sampled family, applies the property
checks of :mod:`repro.verification.properties`, and aggregates the outcome
into a :class:`CheckReport` that the exhaustive tests and the PROP1/THM3
benchmarks consume.

Two execution engines are available (``engine=`` on every entry point):

* ``"batch"`` (default) — the prefix-sharing batch engine of
  :mod:`repro.engine`, which amortises simulation work across the family and
  is the throughput path for exhaustive sweeps;
* ``"reference"`` — one :class:`repro.model.run.Run` per adversary; the
  semantic oracle the batch engine is differentially tested against.

Orthogonally, ``symmetry="quotient"`` quotients the family by process
renaming before the sweep (:func:`repro.symmetry.quotient_family`): one
representative per orbit is simulated and checked, and its outcome is folded
into the report with the orbit size as weight.  Every recorded quantity —
violation existence, the decision-time histogram, the maximum decision time —
is constant on renaming orbits (decision times transport along the renaming,
decision values are untouched), so the quotient report reproduces the
exhaustive census exactly; ``tests/test_quotient_differential.py`` pins the
identity.  Violations are reported once per orbit (the representative is the
concrete counterexample; the rest of the orbit is its renamings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..model.adversary import Adversary, Context
from .properties import Violation


@dataclass
class CheckReport:
    """Aggregated result of checking one protocol over many adversaries."""

    protocol: str
    runs_checked: int = 0
    violations: List[Tuple[int, Violation]] = field(default_factory=list)
    #: Histogram of last-correct-decision times over the family.
    decision_time_histogram: Dict[int, int] = field(default_factory=dict)
    #: The largest observed (last correct) decision time and the paper bound it
    #: was checked against, per run maximum.
    max_decision_time: int = 0

    @property
    def ok(self) -> bool:
        """Whether no violation was found."""
        return not self.violations

    def record(self, index: int, run, run_violations: List[Violation], weight: int = 1) -> None:
        """Fold one outcome into the report (the only place its counters change).

        ``run`` may be a reference :class:`repro.model.run.Run` or a batch
        :class:`repro.engine.BatchRun`; only the shared read API is used.  A
        memoised verdict passes its last correct decision time (an ``int``,
        or ``None``) in place of the run, so store hits fold exactly like the
        runs they were computed from — histogram insertion order included.
        ``weight`` is the orbit size of a quotient sweep's representative
        (the number of family members sharing this outcome); violations stay
        one entry per representative.
        """
        self.runs_checked += weight
        for violation in run_violations:
            self.violations.append((index, violation))
        last = (
            run
            if run is None or isinstance(run, int)
            else run.last_decision_time(correct_only=True)
        )
        if last is not None:
            self.decision_time_histogram[last] = (
                self.decision_time_histogram.get(last, 0) + weight
            )
            self.max_decision_time = max(self.max_decision_time, last)

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        histogram = ", ".join(
            f"t={time}: {count}" for time, count in sorted(self.decision_time_histogram.items())
        )
        return (
            f"{self.protocol}: {status} over {self.runs_checked} runs "
            f"(decision-time histogram: {histogram or 'n/a'})"
        )


def check_protocol(
    protocol,
    adversaries: Iterable[Adversary],
    t: int,
    enforce_paper_bound: bool = True,
    engine: str = "batch",
    processes: Optional[int] = None,
    symmetry: str = "none",
) -> CheckReport:
    """Run ``protocol`` against every adversary and check its specification.

    ``symmetry="quotient"`` checks one representative per process-renaming
    orbit and weights its outcome by the orbit's member count; the report's
    census fields equal the exhaustive ones (see the module docstring).
    ``symmetry="constructive"`` does the same but *generates* the
    representatives from a space description instead of deduplicating the
    family — ``adversaries`` must then be a
    :class:`repro.adversaries.RestrictedSpace` (or a pre-built
    :func:`repro.adversaries.enumerate_orbits` stream), which is what makes
    spaces too large to enumerate checkable.

    The family is folded in one batch of the survey loop
    (:func:`repro.runtime.runner.check_stream`) with no runtime hooks.
    """
    (report,) = check_protocols(
        [protocol], adversaries, t, enforce_paper_bound, engine, processes, symmetry
    ).values()
    return report


def check_protocols(
    protocols: Iterable,
    adversaries: List[Adversary],
    t: int,
    enforce_paper_bound: bool = True,
    engine: str = "batch",
    processes: Optional[int] = None,
    symmetry: str = "none",
) -> Dict[str, CheckReport]:
    """Check several protocols over the same adversary family.

    The ``(index, representative, weight)`` stream — every member with
    weight 1, or the ``quotient_family`` / ``constructive_quotient`` orbit
    front, whose canonical-form pass dominates a quotient sweep's cost and
    does not depend on the protocol under check — is built once and shared
    across protocols.
    """
    from ..adversaries.enumeration import constructive_quotient
    from ..engine import runs_over_family, validate_engine_choice
    from ..runtime.runner import check_stream
    from ..symmetry import quotient_family, validate_symmetry_choice

    validate_engine_choice(engine, processes)
    validate_symmetry_choice(symmetry)
    if symmetry == "none":
        stream = [(index, adversary, 1) for index, adversary in enumerate(adversaries)]
    else:
        quotient = constructive_quotient if symmetry == "constructive" else quotient_family
        representatives, weights, indices = quotient(adversaries)
        stream = list(zip(indices, representatives, weights))
    return {
        getattr(protocol, "name", repr(protocol)): check_stream(
            getattr(protocol, "name", "protocol"),
            iter(stream),
            lambda representatives: runs_over_family(
                protocol, representatives, t, engine, processes
            ),
            enforce_paper_bound=enforce_paper_bound,
        ).value
        for protocol in protocols
    }


def exhaustive_context_check(
    protocol,
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
    limit: Optional[int] = None,
    engine: str = "batch",
    processes: Optional[int] = None,
    symmetry: str = "none",
) -> CheckReport:
    """Check a protocol over the (restricted) exhaustive adversary space of a context.

    With ``symmetry="quotient"`` the enumerated space is quotiented by
    process renaming before the sweep; the restricted spaces are closed under
    renaming for every restriction flag, so the report still accounts for the
    full space (``runs_checked`` and the histogram are orbit-weighted).
    ``symmetry="constructive"`` skips the enumeration entirely and generates
    one representative per orbit from the restriction flags themselves
    (``limit`` then caps *orbits* rather than adversaries).
    """
    from ..adversaries.enumeration import RestrictedSpace

    space = RestrictedSpace(
        context,
        max_crash_round=max_crash_round,
        receiver_policy=receiver_policy,
        max_failures=max_failures,
        limit=limit,
    )
    return check_protocol(
        protocol, space, context.t, engine=engine, processes=processes, symmetry=symmetry
    )
