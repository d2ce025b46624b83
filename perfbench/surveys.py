"""The library workloads: ``sweep`` (checker surveys) and ``census`` (Proposition 2).

Both run serially in this process.  Every survey is one bracketed sample
(:class:`refnorm.Bracketer`); a sweep also slices at each of its batch
boundaries, so every stretch of it is normalised by slices at most one
batch away.  A round runs every family member once, in a seed-permuted
order, and rounds repeat until the measured time is spent.
End-to-end figures are per-member medians summed over the family, so one
slow sample moves nothing.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import golden
from common import (
    IMPORT_PROBES, SETUP_PROBES, STATE_DIR, importtime_probe, median, p90, peak_rss_mb_self,
    print_table, setup_probe, work_dir,
)
from refnorm import Bracketer, Sample
from tracer import Tracer, counted_iter, instrument, traced_call, traced_iter
from workloads import build_inputs, census_members, seeded_order, sweep_members

#: Span of the reference slices a traced sweep takes at batch boundaries.
SLICE_SPAN = "refnorm.slice"

#: Census re-surveys of one prebuilt complex per warm sample (a single one
#: takes a few milliseconds, too short to bracket on its own).
CENSUS_WARM_REPEATS = 20


class Survey:
    """Samples, failures and (when traced) per-layer totals of one workload run."""

    def __init__(self, workload: str, seconds: float, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.seconds = seconds
        self.seed = seed
        self.smoke = smoke
        self.bracketer = Bracketer()
        self.samples: Dict[str, Dict[str, List[Sample]]] = {
            "cold": defaultdict(list), "warm": defaultdict(list)}
        self.traced: Dict[str, Dict[str, List[Sample]]] = {
            "cold": defaultdict(list), "warm": defaultdict(list)}
        self.probes: List[Sample] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.tracer: Optional[Tracer] = None
        # pass -> span or counter name -> normalised seconds / count, summed
        self.layer_s: Dict[str, Dict[str, float]] = {"cold": defaultdict(float),
                                                     "warm": defaultdict(float)}
        self.counts: Dict[str, Dict[str, float]] = {"cold": defaultdict(float),
                                                    "warm": defaultdict(float)}
        self.layer_raw_s: Dict[str, Dict[str, float]] = {"cold": defaultdict(float),
                                                         "warm": defaultdict(float)}
        self.uncovered_s = self.uncovered_raw_s = 0.0
        self.traced_rounds = 0
        self.probing = True
        # Untraced round -> normalised seconds of its cold pass over the family.
        self.pass_s: Dict[int, float] = defaultdict(float)
        self.round = 0

    # --------------------------------------------------------------- samples
    def measure(self, phase: str, member: str, fn: Callable[[], object]) -> Sample:
        self.attempted += 1
        sample = self.bracketer.measure(fn)
        traced = self.tracer is not None
        (self.traced if traced else self.samples)[phase][member].append(sample)
        if phase == "cold" and not traced:
            self.pass_s[self.round] += sample.normalised_s
        if traced:
            self_s, counters, top_s = self.tracer.take()
            # Boundary slices are not part of the sample: drop their span.
            top_s -= self_s.pop(SLICE_SPAN, 0.0)
            for name, seconds in self_s.items():
                self.layer_s[phase][name] += seconds * sample.factor
                self.layer_raw_s[phase][name] += seconds
            for name, amount in counters.items():
                self.counts[phase][name] += amount
            if phase == "cold":
                self.uncovered_s += (sample.raw_s - top_s) * sample.factor
                self.uncovered_raw_s += sample.raw_s - top_s
            self.tracer.run_id += 1
        return sample

    def boundary(self) -> None:
        """A batch boundary inside a sample: slice there (as a span when traced)."""
        if self.tracer is None:
            self.bracketer.boundary()
            return
        self.tracer.enter(SLICE_SPAN)
        try:
            self.bracketer.boundary()
        finally:
            self.tracer.exit()

    def fail(self, member: str, errors: List[str]) -> None:
        """One failed operation, whatever number of checks it failed."""
        failure = f"{self.workload} {member}: {'; '.join(errors)}"
        self.failures.append(failure)
        print(f"CORRECTNESS FAILURE {failure}", flush=True)

    def run_rounds(self, members: List[dict], run_member: Callable[[dict, int], None],
                   until: float, min_rounds: int, first_round: int = 0) -> int:
        """Rounds of every member until ``until``, with setup probes spread through."""
        probe_every = self.seconds / SETUP_PROBES
        rounds, last_probe = 0, 0.0
        while True:
            self.round = first_round + rounds
            for member in seeded_order(members, self.seed, f"{self.workload}/{self.round}"):
                run_member(member, self.round)
                if self.probing and time.monotonic() - last_probe >= probe_every:
                    self.probes.append(setup_probe(self.bracketer, self.workload, self.smoke))
                    last_probe = time.monotonic()
            rounds += 1
            if rounds >= min_rounds and time.monotonic() >= until:
                return rounds

    # --------------------------------------------------------------- figures
    def family_sum(self, phase: str, samples=None) -> Dict[str, float]:
        samples = self.samples if samples is None else samples
        by_member = samples[phase]
        return {
            "normalised": sum(median([s.normalised_s for s in v]) for v in by_member.values()),
            "raw": sum(median([s.raw_s for s in v]) for v in by_member.values()),
        }

    def end_to_end(self, warm_divisor: int = 1) -> Dict[str, float]:
        passes = list(self.pass_s.values())
        return {
            "setup_s": median([p.normalised_s for p in self.probes]),
            "survey_s": self.family_sum("cold")["normalised"],
            "warm_s": self.family_sum("warm")["normalised"] / warm_divisor,
            "job_p50_s": median(passes),
            "job_p90_s": p90(passes),
            "peak_rss_mb": peak_rss_mb_self(),
        }

    def print_samples(self, warm_divisor: int = 1) -> None:
        rows = []
        for phase, divisor in (("cold", 1), ("warm", warm_divisor)):
            for member, samples in sorted(self.samples[phase].items()):
                raw = median([s.raw_s for s in samples]) / divisor
                factor = median([s.factor for s in samples])
                norm = median([s.normalised_s for s in samples]) / divisor
                rows.append((phase, member, len(samples), f"{raw:.4f}", f"{factor:.3f}",
                             f"{norm:.4f}"))
        probes = self.probes
        rows.append(("setup", "probe", len(probes), f"{median([p.raw_s for p in probes]):.4f}",
                     f"{median([p.factor for p in probes]):.3f}",
                     f"{median([p.normalised_s for p in probes]):.4f}"))
        print_table(f"{self.workload}: per-member medians (seed {self.seed})",
                    ["pass", "member", "samples", "raw_s", "scale", "normalised_s"], rows)

    def startup_layers(self) -> Dict[str, float]:
        probes = [importtime_probe(self.bracketer) for _ in range(IMPORT_PROBES)]
        return {"startup.import_s": median([p[0] for p in probes]),
                "startup.networkx_s": median([p[1] for p in probes])}

    def per_round(self, phase: str, name: str) -> float:
        return self.layer_s[phase].get(name, 0.0) / max(self.traced_rounds, 1)

    def count_per_round(self, phase: str, name: str) -> float:
        return self.counts[phase].get(name, 0.0) / max(self.traced_rounds, 1)

    def print_layers(self, untraced: Dict[str, float], traced: Dict[str, float],
                     warm_divisor: int) -> None:
        """Self time per span and per layer, beside the untraced medians."""
        spans, layers = [], []
        for phase in ("cold", "warm"):
            rounds = max(self.traced_rounds, 1) * (warm_divisor if phase == "warm" else 1)
            total = traced[phase] or 1.0
            by_span = {name: (seconds, self.layer_raw_s[phase][name])
                       for name, seconds in self.layer_s[phase].items()}
            if phase == "cold":
                by_span["(no span)"] = (self.uncovered_s, self.uncovered_raw_s)
            by_layer: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
            for name, (seconds, raw) in by_span.items():
                by_layer[name.split(".")[0]][0] += seconds
                by_layer[name.split(".")[0]][1] += raw
            for rows, items in ((spans, by_span), (layers, by_layer)):
                for name, (seconds, raw) in sorted(items.items(), key=lambda kv: -kv[1][0]):
                    rows.append((phase, name, f"{raw / rounds:.4f}",
                                 f"{seconds / raw if raw else 1.0:.3f}",
                                 f"{seconds / rounds:.4f}", f"{100 * seconds / rounds / total:.1f}%"))
        context = (f"{self.traced_rounds} traced round(s).  Traced family totals: cold "
                   f"{traced['cold']:.4f}s, warm {traced['warm']:.4f}s.  Untraced medians of "
                   f"this run: survey_s {untraced['cold']:.4f}s, warm_s {untraced['warm']:.4f}s")
        header = ["pass", "layer", "raw_s", "scale", "self_s", "share"]
        print_table(f"{self.workload}: self time per span, s per family pass; " + context,
                    ["pass", "span"] + header[2:], spans)
        print_table(f"{self.workload}: self time per layer, s per family pass; " + context,
                    header, layers)


# ------------------------------------------------------------------- sweep
def bracketed_checkpoints(directory: str, survey: Survey):
    """A checkpoint store that closes a bracketed segment after every save.

    ``resilient_check`` saves once per batch boundary, so a sweep of several
    batches is normalised batch by batch rather than by two slices seconds
    apart.
    """
    from repro.runtime import CheckpointStore

    class BracketedCheckpoints(CheckpointStore):
        def save(self, checkpoint):
            saved = super().save(checkpoint)
            survey.boundary()
            return saved

    return BracketedCheckpoints(directory)


def _sweep_patches(tracer: Tracer):
    import repro.runtime
    import repro.store
    import repro.symmetry
    import repro.verification.properties as properties
    from repro.adversaries.enumeration import RestrictedSpace
    from repro.engine import SweepRunner
    from repro.runtime import CheckpointStore
    from repro.store import ResultStore
    from repro.verification.checker import CheckReport

    def count_sweep(_result, args, _kwargs):
        report = args[0].last_report
        tracer.count("engine.runs", report.adversaries)
        tracer.count("engine.layers_computed", report.layers_computed)
        tracer.count("engine.reference_layers", report.reference_layer_estimate)

    def count_get(result, args, kwargs):
        tracer.count("store.rows_read", len(result))
        tracer.count("store.keys_requested", len(args[3] if len(args) > 3 else kwargs["keys"]))

    def orbits(original):
        def wrapper(self, *args, **kwargs):
            return traced_iter(tracer, "adversaries.orbit_stream", original(self, *args, **kwargs),
                               counter="adversaries.orbits")
        return wrapper

    def span(name, after=None):
        return lambda fn: traced_call(tracer, name, fn, after)

    return [
        (repro.runtime, "resilient_check", span("runtime.fold")),
        (RestrictedSpace, "orbits", orbits),
        (repro.symmetry, "vector_orbit_size", span("symmetry.orbit_size")),
        (SweepRunner, "sweep", span("engine.sweep", count_sweep)),
        (properties, "check_run_for_protocol", span("verification.check")),
        (CheckReport, "record", span("verification.record")),
        (CheckpointStore, "save",
         span("runtime.checkpoint", lambda *_: tracer.count("runtime.checkpoints"))),
        (repro.store, "adversary_key", span("store.key")),
        (ResultStore, "put", span("store.put")),
        (ResultStore, "flush",
         span("store.flush", lambda result, *_: tracer.count("store.rows_written", result))),
        (ResultStore, "get_many", span("store.get_many", count_get)),
    ]


def run_sweep(seconds: float, seed: int, trace: bool, smoke: bool):
    import repro.runtime as runtime
    from repro.store import ResultStore

    survey = Survey("sweep", seconds, seed, smoke)
    goldens = golden.load_goldens()["sweep"]
    members = sweep_members(smoke)
    inputs = dict(zip((m["name"] for m in members), build_inputs("sweep", smoke)))
    expected = {name: space.estimated_size() for name, (_p, space) in inputs.items()}
    root = work_dir("sweep")

    def run_member(member: dict, round_: int) -> None:
        name = member["name"]
        protocol, space = inputs[name]
        directory = os.path.join(root, f"r{round_}-{name.replace('/', '-')}")
        store_path = os.path.join(directory, "results.sqlite")

        def survey_once(pass_: str):
            checkpoints = bracketed_checkpoints(os.path.join(directory, f"ck-{pass_}"), survey)
            store = ResultStore(store_path)
            try:
                return runtime.resilient_check(protocol, space, member["t"],
                                               store=checkpoints, result_store=store)
            finally:
                store.close()

        try:
            cold = survey.measure("cold", name, lambda: survey_once("cold")).value
            warm = survey.measure("warm", name, lambda: survey_once("warm")).value
            cold_bytes = golden.report_bytes(cold.value)
            errors = [] if cold.completed and warm.completed else ["survey did not complete"]
            errors += golden.check_sweep(golden.report_payload(cold.value), goldens[name],
                                         expected[name])
            errors += golden.check_warm(cold_bytes, golden.report_bytes(warm.value))
            errors += golden.check_store_clean(cold.report) + golden.check_store_clean(warm.report)
        except Exception as error:  # a crashing survey is a failed operation
            errors = [f"{type(error).__name__}: {error}"]
        if errors:
            survey.fail(name, errors)
        shutil.rmtree(directory, ignore_errors=True)

    return _finish(survey, members, run_member, trace, _sweep_patches, _sweep_layers)


def _sweep_layers(survey: Survey) -> Dict[str, float]:
    both = lambda name: survey.per_round("cold", name) + survey.per_round("warm", name)  # noqa: E731
    count_both = lambda name: (survey.count_per_round("cold", name)  # noqa: E731
                               + survey.count_per_round("warm", name))
    cold_counts = survey.counts["cold"]
    warm_counts = survey.counts["warm"]
    return {
        "adversaries.orbit_stream_s": both("adversaries.orbit_stream"),
        "adversaries.orbits": count_both("adversaries.orbits"),
        "symmetry.orbit_size_s": both("symmetry.orbit_size"),
        "engine.sweep_s": both("engine.sweep"),
        "engine.runs": count_both("engine.runs"),
        "engine.sharing_factor": (cold_counts.get("engine.reference_layers", 0.0)
                                  / max(cold_counts.get("engine.layers_computed", 0.0), 1.0)),
        "verification.check_s": both("verification.check"),
        "verification.record_s": both("verification.record"),
        "runtime.fold_self_s": both("runtime.fold"),
        "runtime.checkpoint_s": both("runtime.checkpoint"),
        "runtime.checkpoints": count_both("runtime.checkpoints"),
        "store.key_s": both("store.key"),
        "store.put_s": both("store.put"),
        "store.flush_s": both("store.flush"),
        "store.rows_written": count_both("store.rows_written"),
        "store.get_many_s": both("store.get_many"),
        "store.rows_read": count_both("store.rows_read"),
        "store.hit_ratio": (warm_counts.get("store.rows_read", 0.0)
                            / max(warm_counts.get("store.keys_requested", 0.0), 1.0)),
    }


# ------------------------------------------------------------------ census
def _census_patches(tracer: Tracer):
    import repro.runtime
    import repro.topology
    import repro.topology.protocol_complex as protocol_complex
    from repro.topology.complexes import SimplicialComplex
    from repro.topology.connectivity import ConnectivityCache

    def assemble(original):
        def wrapper(adversaries, *args, **kwargs):
            family = traced_iter(tracer, "topology.patterns", adversaries,
                                 counter="topology.patterns_kept")
            tracer.enter("topology.assemble")
            try:
                pc = original(family, *args, **kwargs)
            finally:
                tracer.exit()
            tracer.count("topology.vertices", pc.complex.vertex_count)
            tracer.count("topology.facets", len(pc.complex.facet_masks))
            return pc
        return wrapper

    def generated(original):
        return lambda *args, **kwargs: counted_iter(
            tracer, "topology.patterns_generated", original(*args, **kwargs))

    def span(name, after=None):
        return lambda fn: traced_call(tracer, name, fn, after)

    return [
        (repro.topology, "build_restricted_complex", span("topology.build")),
        (protocol_complex, "build_protocol_complex", assemble),
        (protocol_complex, "per_round_crash_patterns", generated),
        (protocol_complex, "run_facets_pass", span("engine.facets_pass")),
        (repro.runtime, "resilient_census", span("runtime.census_fold")),
        (protocol_complex, "census_classes", span("symmetry.group")),
        (SimplicialComplex, "star", span("topology.star")),
        (ConnectivityCache, "profile",
         span("topology.homology", lambda *_: tracer.count("topology.profiles"))),
    ]


def run_census(seconds: float, seed: int, trace: bool, smoke: bool):
    import repro.runtime as runtime
    import repro.topology as topology

    survey = Survey("census", seconds, seed, smoke)
    goldens = golden.load_goldens()["census"]
    members = census_members(smoke)
    contexts = dict(zip((m["name"] for m in members), build_inputs("census", smoke)))

    def run_member(member: dict, _round: int) -> None:
        name, k = member["name"], member["k"]

        def cold_once():
            pc = topology.build_restricted_complex(contexts[name], time=member["m"])
            return pc, runtime.resilient_census(pc, k, symmetry="quotient")

        def warm_once(pc):
            return [runtime.resilient_census(pc, k, symmetry="quotient")
                    for _ in range(CENSUS_WARM_REPEATS)]

        try:
            pc, cold = survey.measure("cold", name, cold_once).value
            if survey.tracer is not None:
                survey.counts["cold"]["topology.homology_runs"] += cold.value.homology_runs
            warm = survey.measure("warm", name, lambda: warm_once(pc)).value
            payload = golden.census_payload(cold.value)
            errors = [] if cold.completed else ["census did not complete"]
            errors += golden.check_census(payload, goldens[name])
            for again in warm:
                errors += golden.check_warm(golden.census_bytes(cold.value),
                                            golden.census_bytes(again.value))
        except Exception as error:  # a crashing survey is a failed operation
            errors = [f"{type(error).__name__}: {error}"]
        if errors:
            survey.fail(name, errors)

    return _finish(survey, members, run_member, trace, _census_patches, _census_layers,
                   warm_divisor=CENSUS_WARM_REPEATS)


def _census_layers(survey: Survey) -> Dict[str, float]:
    cold = lambda name: survey.per_round("cold", name)  # noqa: E731
    count = lambda name: survey.count_per_round("cold", name)  # noqa: E731
    profiles = count("topology.profiles")
    return {
        "topology.patterns_s": cold("topology.patterns"),
        "topology.patterns_generated": count("topology.patterns_generated"),
        "topology.pattern_yield": (count("topology.patterns_kept")
                                   / max(count("topology.patterns_generated"), 1.0)),
        "engine.facets_pass_s": cold("engine.facets_pass"),
        "topology.assemble_s": cold("topology.assemble"),
        "topology.vertices": count("topology.vertices"),
        "topology.facets": count("topology.facets"),
        "symmetry.group_s": cold("symmetry.group"),
        "topology.star_s": cold("topology.star"),
        "topology.homology_s": cold("topology.homology"),
        "topology.homology_runs": count("topology.homology_runs"),
        "topology.profile_cache_hit_ratio": (
            (profiles - count("topology.homology_runs")) / profiles if profiles else 0.0),
        "runtime.census_fold_self_s": cold("runtime.census_fold"),
    }


# ------------------------------------------------------------------ common
def _finish(survey: Survey, members, run_member, trace: bool, patches, layers,
            warm_divisor: int = 1):
    """Run the rounds; end-to-end figures untraced, or the traced split."""
    start = time.monotonic()
    if not trace:
        survey.run_rounds(members, run_member, start + survey.seconds,
                          1 if survey.smoke else 2)
        survey.print_samples(warm_divisor)
        print("raw seconds:", json.dumps({
            "setup_s": median([p.raw_s for p in survey.probes]),
            "survey_s": survey.family_sum("cold")["raw"],
            "warm_s": survey.family_sum("warm")["raw"] / warm_divisor}))
        return survey.end_to_end(warm_divisor), survey.attempted, survey.failures
    # Untraced rounds for the first half of the time, traced rounds for the rest:
    # the difference between the two is the tracing overhead.
    survey.probing = False
    rounds = survey.run_rounds(members, run_member, start + survey.seconds / 2, 1)
    survey.tracer = Tracer()
    with instrument(patches(survey.tracer)):
        survey.traced_rounds = survey.run_rounds(
            members, run_member, start + survey.seconds, 1, first_round=rounds)
    untraced = {"cold": survey.family_sum("cold")["normalised"],
                "warm": survey.family_sum("warm")["normalised"] / warm_divisor}
    traced = {"cold": survey.family_sum("cold", survey.traced)["normalised"],
              "warm": survey.family_sum("warm", survey.traced)["normalised"] / warm_divisor}
    survey.print_layers(untraced, traced, warm_divisor)
    values = layers(survey)
    values.update(survey.startup_layers())
    values["trace.residual_s"] = survey.uncovered_s / max(survey.traced_rounds, 1)
    values["trace.overhead_s"] = traced["cold"] - untraced["cold"]
    values["trace.spans"] = survey.tracer.spans
    os.makedirs(STATE_DIR, exist_ok=True)
    survey.tracer.write(
        os.path.join(STATE_DIR, f"trace-{survey.workload}-seed{survey.seed}.spans"),
        {"workload": survey.workload, "seed": survey.seed, "rounds": survey.traced_rounds})
    return values, survey.attempted, survey.failures
