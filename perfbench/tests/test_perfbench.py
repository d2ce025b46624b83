"""Tests of the benchmark itself: seeding, normalisation, metric names, checks."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import golden  # noqa: E402
import refnorm  # noqa: E402
from refnorm import BenchmarkError, Bracketer, NOMINAL_REF_S  # noqa: E402
from workloads import (  # noqa: E402
    census_members, seeded_order, service_specs, sweep_members,
)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(root, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


# ------------------------------------------------------------------ seeding
def test_same_seed_gives_same_input_order():
    for items, salt in ((sweep_members(), "sweep/0"), (census_members(), "census/0"),
                        (service_specs(100), "service")):
        assert seeded_order(items, 7, salt) == seeded_order(items, 7, salt)
        assert sorted(map(repr, seeded_order(items, 7, salt))) == sorted(map(repr, items))
        assert any(seeded_order(items, 7, salt) != seeded_order(items, seed, salt)
                   for seed in range(8, 12))


def test_service_family_does_not_depend_on_the_seed():
    assert service_specs(120) == service_specs(120)
    assert len({json.dumps(spec, sort_keys=True) for spec in service_specs(120)}) == 120


# ------------------------------------------------------------ normalisation
class FakeMachine:
    """A clock that advances only when modelled work runs."""

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def slice_fn(self, slowdown):
        def run():
            start = self.now
            self.now += NOMINAL_REF_S * slowdown
            return self.now - start
        return run

    def work(self, seconds):
        def run():
            self.now += seconds
        return run


@pytest.mark.parametrize("slowdown", [1.0, 1.6, 2.5])
def test_uniform_slowdown_leaves_normalised_value_unchanged(slowdown):
    machine = FakeMachine()
    bracketer = Bracketer(clock=machine.clock, slice_fn=machine.slice_fn(slowdown))
    sample = bracketer.measure(machine.work(0.8 * slowdown))
    assert sample.raw_s == pytest.approx(0.8 * slowdown)
    assert sample.normalised_s == pytest.approx(0.8)


def test_slowdown_of_the_sample_alone_shows():
    machine = FakeMachine()
    bracketer = Bracketer(clock=machine.clock, slice_fn=machine.slice_fn(1.0))
    assert bracketer.measure(machine.work(0.8)).normalised_s == pytest.approx(0.8)
    assert bracketer.measure(machine.work(1.2)).normalised_s == pytest.approx(1.2)


@pytest.mark.parametrize("slowdown", [1.0, 2.5])
def test_segments_split_at_boundaries_normalise_like_one_sample(slowdown):
    machine = FakeMachine()
    bracketer = Bracketer(clock=machine.clock, slice_fn=machine.slice_fn(slowdown))

    def three_batches():
        for _ in range(3):
            machine.work(0.4 * slowdown)()
            bracketer.boundary()

    sample = bracketer.measure(three_batches)
    assert sample.raw_s == pytest.approx(1.2 * slowdown)
    assert sample.normalised_s == pytest.approx(1.2)


def test_each_segment_gets_the_slices_on_either_side_of_it():
    machine = FakeMachine()
    slowdown = [1.0]
    bracketer = Bracketer(clock=machine.clock,
                          slice_fn=lambda: machine.slice_fn(slowdown[0])())

    def machine_halves_its_speed_between_batches():
        machine.work(0.5)()
        bracketer.boundary()
        slowdown[0] = 2.0
        bracketer.boundary()  # an empty segment, sliced at the new speed
        machine.work(1.0)()

    sample = bracketer.measure(machine_halves_its_speed_between_batches)
    assert sample.raw_s == pytest.approx(1.5)
    # 0.5 s between two 1x slices, 1.0 s between two 2x slices.
    assert sample.normalised_s == pytest.approx(1.0)


def test_boundaries_keep_a_long_sample_within_the_gap_limit():
    machine = FakeMachine()
    bracketer = Bracketer(clock=machine.clock, slice_fn=machine.slice_fn(1.0))

    def batches():
        for _ in range(4):
            machine.work(refnorm.MAX_GAP_S / 2)()
            bracketer.boundary()

    assert bracketer.measure(batches).raw_s == pytest.approx(2 * refnorm.MAX_GAP_S)
    with pytest.raises(BenchmarkError):
        bracketer.boundary()  # only inside a sample


def test_slices_too_far_apart_are_an_error():
    machine = FakeMachine()
    bracketer = Bracketer(clock=machine.clock, slice_fn=machine.slice_fn(1.0))
    with pytest.raises(BenchmarkError):
        bracketer.measure(machine.work(refnorm.MAX_GAP_S + 1.0))


def test_reference_slice_is_about_nominal():
    assert 0.2 * NOMINAL_REF_S < refnorm.reference_slice() < 10 * NOMINAL_REF_S


# ---------------------------------------------------------- declared names
def test_layer_map_names_declared_metrics_and_workloads():
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)
    bench = declared()
    workloads = {workload["name"] for workload in bench["workloads"]}
    end_to_end = {metric["name"] for metric in bench["end_to_end"]}
    for layer in layers["layers"].values():
        assert set(layer["moves"]) <= end_to_end
        assert set(layer["workloads"]) <= workloads


@pytest.mark.parametrize("workload,trace", [
    ("sweep", 0), ("sweep", 1), ("census", 0), ("census", 1), ("service", 0), ("service", 1),
])
def test_minimal_run_prints_every_declared_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    mode = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in declared()[mode]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


# ------------------------------------------------------- correctness checks
@pytest.fixture(scope="module")
def smoke_sweep():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.runtime import resilient_check
    from workloads import build_inputs

    member = sweep_members(smoke=True)[0]
    protocol, space = build_inputs("sweep", smoke=True)[0]
    report = resilient_check(protocol, space, member["t"]).value
    return member, space.estimated_size(), report


def test_sweep_check_accepts_the_truth_and_rejects_wrong_goldens(smoke_sweep):
    member, count, report = smoke_sweep
    payload = golden.report_payload(report)
    truth = golden.load_goldens()["sweep"][member["name"]]
    assert golden.check_sweep(payload, truth, count) == []
    for field, wrong in (("runs_checked", truth["runs_checked"] + 1),
                         ("max_decision_time", truth["max_decision_time"] + 1),
                         ("histogram", truth["histogram"][::-1])):
        assert golden.check_sweep(payload, dict(truth, **{field: wrong}), count)
    assert golden.check_sweep(payload, truth, count + 1)
    broken = dict(payload, violations=[[0, "agreement", "too many values", 1]])
    assert golden.check_sweep(broken, truth, count)


def test_warm_check_rejects_a_different_report(smoke_sweep):
    _member, _count, report = smoke_sweep
    cold = golden.report_bytes(report)
    assert golden.check_warm(cold, cold) == []
    assert golden.check_warm(cold, cold.replace(b"runs_checked\": ", b"runs_checked\": 1"))


def test_census_check_rejects_wrong_goldens():
    truth = golden.load_goldens()["census"]["k2m1/n6t5"]
    assert golden.check_census(dict(truth), truth) == []
    assert golden.check_census(dict(truth), dict(truth, classes=truth["classes"] + 1))
    row = list(truth["row"])
    row[0] += 1
    assert golden.check_census(dict(truth), dict(truth, row=row))
    inconsistent = list(truth["row"])
    inconsistent[2] -= 1  # consistent != high_capacity
    assert golden.check_census(dict(truth, row=inconsistent), dict(truth, row=inconsistent))


def test_store_check_rejects_a_degraded_store():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.runtime import RunReport

    report = RunReport()
    assert golden.check_store_clean(report) == []
    report.record("store_degraded", reason="unopenable")
    assert golden.check_store_clean(report)


def test_served_check_rejects_a_different_answer():
    direct = {"kind": "census", "vertices": 28, "classes": 3}
    assert golden.check_served(dict(direct), direct) == []
    assert golden.check_served(dict(direct, classes=4), direct)
    assert golden.check_served(None, direct)


def _copy_benchmark(tmp_path, with_sources):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    if with_sources:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return str(tmp_path)


def test_wrong_golden_fails_the_run(tmp_path):
    root = _copy_benchmark(tmp_path, with_sources=True)
    path = os.path.join(root, "perfbench", "goldens.json")
    with open(path, encoding="utf-8") as handle:
        goldens = json.load(handle)
    goldens["census"]["k2m1/n4t3"]["classes"] += 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle)
    done = run_bench(root, "census", 0)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    root = _copy_benchmark(tmp_path, with_sources=False)
    done = run_bench(root, "sweep", 0)
    assert done.returncode not in (0, None)
    assert '"metrics"' not in done.stdout
