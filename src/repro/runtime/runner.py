"""The survey loop: batched folds with optional checkpoint, store and budget hooks.

Every survey — checker sweeps and Proposition 2 censuses, plain or
resilient — runs through one loop (:meth:`_Survey.run`) over a
*deterministic* stream (an orbit stream, a plain enumeration, a quotiented
family, or the canonical-class stream of a built protocol complex), folding
each batch into a ``CheckReport`` (:func:`check_stream`) or a
``CapacityCensus`` (:func:`census_stream`).  The plain entry points fold in
one batch with no hooks; :func:`resilient_check` / :func:`resilient_census`
attach them.  Because the streams replay identically from their specs, a
resumed run folds exactly the items an uninterrupted run would have folded,
in the same order — results are byte-identical (``tests/test_resilience.py``
pins interrupted-at-every-batch-boundary == uninterrupted).

Budgets turn hard death into checkpoint-and-stop: a wall-clock
``deadline_seconds`` and a peak-RSS ``max_rss_kb`` are checked at batch
boundaries (and the deadline also bounds the supervised pool mid-batch);
when either trips, the runner flushes its checkpoint, records the stop on
the :class:`RunReport`, and returns a partial :class:`ResilientOutcome`
with ``completed=False`` — resume later with the same spec.

``KeyboardInterrupt`` gets the same treatment (flush, record, re-raise),
which is what lets the CLI exit 130 with a resumable run on disk instead of
leaking pool workers and three hours of work.
"""

from __future__ import annotations

import itertools
import resource
import sys
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .checkpoint import Checkpoint, CheckpointStore
from .report import RunReport
from .supervisor import DeadlineExceeded, SupervisionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store import ResultStore

#: Stream items folded between checkpoint flushes.  Large enough that the
#: trie keeps its prefix sharing inside one sweep call (smaller batches
#: measurably re-compute shared round prefixes across batch boundaries) and
#: the atomic-write cost stays <5% (gated by
#: ``benchmarks/bench_resilience.py``), small enough that an interrupted
#: hour-scale survey loses minutes, not hours.
DEFAULT_BATCH_SIZE = 8192


def peak_rss_kb() -> int:
    """This process's peak RSS in KiB (``ru_maxrss`` is bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


@dataclass(frozen=True)
class ResilientOutcome:
    """What a resilient runner produced — possibly a checkpointed prefix.

    ``value`` is the consumer aggregate (``CheckReport`` / ``CapacityCensus``)
    over the ``cursor`` stream items folded so far; ``completed`` says whether
    that is the whole stream.  ``stop_reason`` is ``None`` on completion, else
    ``"deadline"`` or ``"rss"``; ``resumed_from`` is the checkpoint cursor the
    run started at (``None`` for a fresh run).
    """

    value: Any
    report: RunReport
    completed: bool
    stop_reason: Optional[str]
    cursor: int
    resumed_from: Optional[int]


class _Survey:
    """The survey loop and its optional per-batch hooks.

    After every batch: flush the result store, checkpoint the aggregate
    (only with a checkpoint ``store``, whose spec the caller ``pin``s; no
    spec or snapshot is built otherwise), check the budgets.
    """

    def __init__(
        self,
        store: Optional[CheckpointStore] = None,
        resume: bool = False,
        result_store: Optional["ResultStore"] = None,
        deadline_seconds: Optional[float] = None,
        max_rss_kb: Optional[int] = None,
        report: Optional[RunReport] = None,
    ) -> None:
        self.report = report if report is not None else RunReport()
        for hook in (store, result_store):
            if hook is not None and hook.report is None:
                hook.report = self.report
        self.store, self.resume, self.result_store = store, resume, result_store
        self.deadline = (
            time.monotonic() + deadline_seconds if deadline_seconds is not None else None
        )
        self.max_rss_kb = max_rss_kb
        self.spec, self.cursor, self.payload, self.resumed_from = None, 0, None, None

    def pin(self, spec: Dict[str, Any]) -> None:
        """Set the stream identity; with ``resume``, start at its newest checkpoint."""
        self.spec = spec
        checkpoint = self.store.latest(spec=spec) if self.resume else None
        if checkpoint is not None:
            self.report.record("resume", cursor=checkpoint.cursor)
            self.cursor = self.resumed_from = checkpoint.cursor
            self.payload = checkpoint.payload

    def run(
        self,
        stream: Iterator,
        batch_size: Optional[int],
        fold: Callable[[List], None],
        snapshot: Callable[[], Dict[str, Any]],
        value: Callable[[], Any],
    ) -> ResilientOutcome:
        """Fold ``stream`` from the cursor on; ``value()`` is the aggregate."""
        store, report, cursor = self.store, self.report, self.cursor
        # Checkpoints always describe a batch *boundary*: the payload snapshot
        # is taken right after a batch finishes folding, so a mid-batch
        # interrupt flushes the last boundary state, never a partially-folded
        # aggregate (which would double-count the partial batch on resume).
        boundary = snapshot() if store is not None else None

        def flush() -> None:
            if self.result_store is not None:
                self.result_store.flush()
            if store is not None:
                store.save(Checkpoint(spec=self.spec, cursor=cursor, payload=boundary))

        stop_reason = None
        try:
            stream = itertools.islice(stream, cursor, None)
            # ``batch_size=None`` folds the whole stream as one batch.
            for batch in iter(lambda: list(itertools.islice(stream, batch_size)), []):
                fold(batch)
                cursor += len(batch)
                if store is not None:
                    boundary = snapshot()
                flush()
                # The budget hooks: stop at this boundary once one trips.
                if self.deadline is not None and time.monotonic() >= self.deadline:
                    report.record("deadline_stop", cursor=cursor)
                    stop_reason = "deadline"
                elif self.max_rss_kb is not None and peak_rss_kb() > self.max_rss_kb:
                    report.record("rss_stop", cursor=cursor, peak_rss_kb=peak_rss_kb())
                    stop_reason = "rss"
                if stop_reason is not None:
                    break
        except DeadlineExceeded:
            # Mid-batch deadline abort from the supervised pool: the aggregate
            # is still at the last batch boundary, which is what we flush.
            report.record("deadline_stop", cursor=cursor, mid_batch=True)
            stop_reason = "deadline"
            flush()
        except KeyboardInterrupt:
            report.record("interrupt", cursor=cursor)
            flush()
            raise
        return ResilientOutcome(
            value(), report, stop_reason is None, stop_reason, cursor, self.resumed_from
        )


# --------------------------------------------------------------- checker runs
def _checker_stream(space, symmetry: str) -> Iterator[Tuple[int, Any, int]]:
    """The deterministic ``(index, adversary, weight)`` stream of a space.

    ``symmetry="constructive"`` generates canonical representatives (orbit
    weights); ``"quotient"`` streams the hash-dedup orbit front (the oracle
    ordering); ``"none"`` streams every member with weight 1.  All three
    replay identically from the space description, which is what makes the
    cursor meaningful across process lifetimes.

    A ``limit`` caps orbits on the constructive path and members otherwise:
    a truncated quotient space is deduplicated over its first ``limit``
    members, weighted by member counts (it is not closed under renaming).
    """
    if symmetry == "quotient" and space.limit is not None:
        from ..symmetry import quotient_family

        representatives, weights, _first = quotient_family(space)
        yield from zip(itertools.count(), representatives, weights)
    elif symmetry in ("constructive", "quotient"):
        mode = "constructive" if symmetry == "constructive" else "dedup"
        for index, orbit in enumerate(space.orbits(symmetry=mode)):
            yield index, orbit.representative, orbit.size
    elif symmetry == "none":
        for index, adversary in enumerate(space):
            yield index, adversary, 1
    else:  # pragma: no cover - validated upstream
        raise ValueError(f"unknown symmetry {symmetry!r}")


def checker_spec(
    protocol, space, t: int, symmetry: str, engine: str, enforce_paper_bound: bool
) -> Dict[str, Any]:
    """The stream-identity spec a checker checkpoint must match to resume."""
    context = space.context
    return {
        "kind": "check",
        "schema_note": "cursor counts stream items (orbits or adversaries)",
        "protocol": getattr(protocol, "name", type(protocol).__name__),
        "n": context.n,
        "t": t,
        "k": context.k,
        "max_crash_round": space.max_crash_round,
        "receiver_policy": space.receiver_policy,
        "max_failures": space.max_failures,
        "limit": space.limit,
        "symmetry": symmetry,
        "engine": engine,
        "enforce_paper_bound": enforce_paper_bound,
    }


def _check_report_payload(report) -> Dict[str, Any]:
    """Serialize a ``CheckReport`` losslessly (order-preserving histogram)."""
    return {
        "runs_checked": report.runs_checked,
        "max_decision_time": report.max_decision_time,
        "histogram": [[time_, count] for time_, count in report.decision_time_histogram.items()],
        "violations": [
            [index, violation.property_name, violation.message, violation.process]
            for index, violation in report.violations
        ],
    }


def check_stream(
    protocol_name: str,
    stream: Iterator[Tuple[int, Any, int]],
    sweep: Callable[[List[Any]], Iterable],
    survey: Optional[_Survey] = None,
    *,
    batch_size: Optional[int] = None,
    enforce_paper_bound: bool = True,
    memo_spec: Optional[str] = None,
) -> ResilientOutcome:
    """Fold an ``(index, adversary, weight)`` stream into a ``CheckReport``.

    The one checker fold, under :func:`repro.verification.check_protocol`
    (one batch, no hooks) and :func:`resilient_check`; ``sweep`` maps a
    batch's representatives to their runs.  Given ``memo_spec``, store hits
    skip ``sweep`` and fold through the same :meth:`CheckReport.record` as
    computed runs, in stream order.
    """
    from ..verification.checker import CheckReport
    from ..verification.properties import Violation, check_run_for_protocol

    survey = survey if survey is not None else _Survey()
    result_store = survey.result_store
    if memo_spec is not None:
        from ..store import adversary_key
    aggregate = CheckReport(protocol=protocol_name)
    payload = survey.payload
    if payload is not None:  # resumed: restore the checkpointed boundary aggregate
        aggregate = CheckReport(
            protocol_name,
            payload["runs_checked"],
            [(index, Violation(*violation)) for index, *violation in payload["violations"]],
            {time_: count for time_, count in payload["histogram"]},
            payload["max_decision_time"],
        )

    def fold(batch: List[Tuple[int, Any, int]]) -> None:
        # Consult the durable memo first: verdicts found there skip the
        # engine; only the misses are swept.  ``available`` is re-read every
        # batch so a store that degrades mid-run falls back to pure compute
        # from the next batch on.
        use_store = memo_spec is not None and result_store.available
        if use_store:
            keys = [adversary_key(adversary) for _index, adversary, _weight in batch]
            found = result_store.get_many("check", memo_spec, keys)
        else:
            keys, found = (), {}
        representatives = [
            adversary
            for position, (_index, adversary, _weight) in enumerate(batch)
            if not found or keys[position] not in found
        ]
        runs = iter(sweep(representatives) if representatives else ())
        for position, (index, _adversary, weight) in enumerate(batch):
            hit = found.get(keys[position]) if found else None
            if hit is not None:
                aggregate.record(
                    index,
                    hit["decision_time"],
                    [Violation(*violation) for violation in hit["violations"]],
                    weight,
                )
                continue
            run = next(runs)
            run_violations = check_run_for_protocol(run, enforce_paper_bound)
            aggregate.record(index, run, run_violations, weight)
            if use_store:
                result_store.put(
                    "check",
                    memo_spec,
                    keys[position],
                    {
                        "decision_time": run.last_decision_time(correct_only=True),
                        "violations": [
                            [violation.property_name, violation.message, violation.process]
                            for violation in run_violations
                        ],
                    },
                )

    return survey.run(
        stream, batch_size, fold, lambda: _check_report_payload(aggregate), lambda: aggregate
    )


def resilient_check(
    protocol,
    space,
    t: Optional[int] = None,
    *,
    symmetry: str = "constructive",
    engine: str = "batch",
    processes: Optional[int] = None,
    chunk_size: Optional[int] = None,
    mp_context: Optional[str] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
    result_store: Optional["ResultStore"] = None,
    policy: Optional[SupervisionPolicy] = None,
    deadline_seconds: Optional[float] = None,
    max_rss_kb: Optional[int] = None,
    enforce_paper_bound: bool = True,
    report: Optional[RunReport] = None,
) -> ResilientOutcome:
    """Checkpointed, supervised :func:`repro.verification.check_protocol`.

    ``space`` must be a :class:`repro.adversaries.RestrictedSpace` (the spec
    that makes the stream replayable).  A completed outcome's ``value`` is
    the same :class:`CheckReport` the plain ``symmetry="constructive"``
    checker path produces over the space.

    ``result_store`` is the durable cross-run memo
    (:class:`repro.store.ResultStore`): verdicts found there skip the engine
    entirely, verdicts computed here are written back at the same batch
    boundaries the checkpoint flushes at.  The store key excludes
    engine/symmetry (a verdict is a property of the adversary), so quotient
    and exhaustive sweeps share entries.  Folding order is the stream order
    either way, so store-enabled output is byte-identical.
    """
    from ..engine import SweepRunner, runs_over_family, validate_engine_choice
    from ..symmetry import validate_symmetry_choice

    validate_engine_choice(engine, processes)
    validate_symmetry_choice(symmetry)
    if t is None:
        t = space.context.t
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    memo_spec = None
    if result_store is not None:
        from ..store import check_store_spec, spec_hash

        name = getattr(protocol, "name", type(protocol).__name__)
        memo_spec = spec_hash(check_store_spec(name, t, space.context.k, enforce_paper_bound))
    survey = _Survey(store, resume, result_store, deadline_seconds, max_rss_kb, report)
    if store is not None:
        survey.pin(checker_spec(protocol, space, t, symmetry, engine, enforce_paper_bound))
    if policy is not None and survey.deadline is not None and policy.deadline is None:
        # The supervised pool gets the same absolute deadline (mid-batch aborts).
        policy = replace(policy, deadline=survey.deadline)
    if engine == "batch":
        sweep = SweepRunner(
            protocol,
            t,
            processes=processes,
            chunk_size=chunk_size,
            mp_context=mp_context,
            supervision=policy,
            runtime_report=survey.report,
        ).sweep
    else:
        sweep = lambda representatives: runs_over_family(  # noqa: E731
            protocol, representatives, t, engine
        )
    return check_stream(
        getattr(protocol, "name", "protocol"),
        _checker_stream(space, symmetry),
        sweep,
        survey,
        batch_size=batch_size,
        enforce_paper_bound=enforce_paper_bound,
        memo_spec=memo_spec,
    )


# ---------------------------------------------------------------- census runs
def census_spec(pc, k: int, symmetry: str, backend: str, extra: Optional[Dict] = None) -> Dict:
    """The stream-identity spec of a census run.

    The class stream is derived from the built complex, so the spec
    fingerprints the complex (vertex/facet counts, round count) alongside
    the survey knobs; ``extra`` lets the CLI add the build description
    (context and engine) for defence in depth.
    """
    spec = {
        "kind": "census",
        "schema_note": "cursor counts canonical vertex classes",
        "k": k,
        "symmetry": symmetry,
        "backend": backend,
        "time": pc.time,
        "vertices": pc.complex.vertex_count,
        "facets": len(pc.complex.facet_masks),
    }
    if extra:
        spec.update(extra)
    return spec


def census_stream(
    pc,
    k: int,
    groups: List[Tuple[Any, int]],
    profile: Callable[[Any], int],
    cache,
    survey: Optional[_Survey] = None,
    *,
    batch_size: Optional[int] = None,
    memo_spec: Optional[str] = None,
) -> ResilientOutcome:
    """Fold the class stream of ``census_classes`` into a census row.

    The one census fold, under
    :func:`repro.topology.capacity_connectivity_census` (one batch, no
    hooks) and :func:`resilient_census` (``memo_spec`` memoises classes).
    ``homology_runs`` counts cache misses, or probed stars without a cache.
    """
    from ..topology.protocol_complex import CapacityCensus, vertex_capacity

    survey = survey if survey is not None else _Survey()
    result_store = survey.result_store
    if memo_spec is not None:
        from ..store import vertex_key
    payload = survey.payload
    counters = list(payload["counters"]) if payload is not None else [0, 0, 0, 0, 0]
    homology_runs = payload["homology_runs"] if payload is not None else 0
    misses_before = cache.misses if cache is not None else 0

    def fold(batch: List[Tuple[Any, int]]) -> None:
        nonlocal homology_runs, misses_before
        use_store = memo_spec is not None and result_store.available
        if use_store:
            keys = [vertex_key(representative) for representative, _weight in batch]
            found = result_store.get_many("census_class", memo_spec, keys)
        else:
            keys, found = (), {}
        probed = 0
        for position, (representative, weight) in enumerate(batch):
            hit = found.get(keys[position]) if found else None
            if hit is not None:
                capacity, level = hit["capacity"], hit["level"]
            else:
                capacity = vertex_capacity(representative)
                level = profile(pc.complex.star(representative))
                probed += 1
                if use_store:
                    result_store.put(
                        "census_class",
                        memo_spec,
                        keys[position],
                        {"capacity": capacity, "level": level},
                    )
            counters[0] += weight
            if capacity >= k:
                counters[1] += weight
                if level >= k - 1:
                    counters[2] += weight
            if level >= k - 1:
                counters[3] += weight
                if capacity >= k:
                    counters[4] += weight
        if cache is not None:
            homology_runs += cache.misses - misses_before
            misses_before = cache.misses
        else:
            homology_runs += probed

    return survey.run(
        iter(groups),
        batch_size,
        fold,
        lambda: {"counters": list(counters), "homology_runs": homology_runs},
        lambda: CapacityCensus(*counters, classes=len(groups), homology_runs=homology_runs),
    )


def resilient_census(
    pc,
    k: int,
    *,
    symmetry: str = "quotient",
    backend: Optional[str] = None,
    spec_extra: Optional[Dict[str, Any]] = None,
    batch_size: int = 64,
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
    result_store: Optional["ResultStore"] = None,
    deadline_seconds: Optional[float] = None,
    max_rss_kb: Optional[int] = None,
    report: Optional[RunReport] = None,
) -> ResilientOutcome:
    """Checkpointed :func:`repro.topology.capacity_connectivity_census`.

    The class stream and the per-class fold are shared with the plain census
    (:func:`repro.topology.protocol_complex.census_classes`,
    :func:`census_stream`), so a completed outcome's census *row* is
    byte-identical to the uninterrupted survey's.
    ``homology_runs`` counts profiles computed in *this* process — a resumed
    run re-misses its connectivity cache, so that bookkeeping field (and
    only it) may exceed the uninterrupted run's.

    ``result_store`` adds the durable memo at three tiers: the whole census
    row (a completed survey's counters, keyed by the complex fingerprint
    and fold shape — a hit answers without even grouping the vertices), per
    census class (``(capacity, level)`` keyed by the class's canonical
    vertex, skipping even the star construction on a hit) and per
    connectivity profile (threaded into the
    :class:`repro.topology.ConnectivityCache`, shared across *every* survey
    that probes an isomorphic star).  Store hits do not count as
    ``homology_runs`` — like cache hits, they ran no homology.
    """
    from ..topology.connectivity import DEFAULT_HOMOLOGY_BACKEND
    from ..topology.protocol_complex import CapacityCensus, census_classes

    if backend is None:
        backend = DEFAULT_HOMOLOGY_BACKEND
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    survey = _Survey(store, resume, result_store, deadline_seconds, max_rss_kb, report)
    class_spec_h = row_key = None
    if result_store is not None:
        from ..store import census_class_store_spec, census_row_key, spec_hash

        class_spec_h = spec_hash(census_class_store_spec(pc, k))
        row_key = census_row_key(symmetry)
        if result_store.available:
            # The coarsest memo tier: the whole census row.  A hit answers
            # the survey without even grouping the vertices into classes —
            # the warm-census fast path `bench_store.py` gates.  A damaged
            # row is quarantined by the read and the census falls through
            # to the per-class tier below (which heals it on completion).
            row_hit = result_store.get("census_row", class_spec_h, row_key)
            if row_hit is not None:
                census = CapacityCensus(
                    *row_hit["counters"], classes=row_hit["classes"], homology_runs=0
                )
                return ResilientOutcome(
                    census, survey.report, True, None, row_hit["classes"], None
                )
    groups, profile, cache = census_classes(
        pc, k, symmetry=symmetry, backend=backend, result_store=result_store
    )
    if store is not None:
        extra = {**(spec_extra or {}), "classes": len(groups)}
        survey.pin(census_spec(pc, k, symmetry, backend, extra))
    outcome = census_stream(
        pc, k, groups, profile, cache, survey, batch_size=batch_size, memo_spec=class_spec_h
    )
    if outcome.completed and result_store is not None and result_store.available:
        result_store.put(
            "census_row",
            class_spec_h,
            row_key,
            {"counters": list(outcome.value.row), "classes": len(groups)},
        )
        result_store.flush()
    return outcome
