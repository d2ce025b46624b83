"""The ``service`` workload: a real ``repro.cli serve`` process under a closed loop.

One ``serve`` subprocess (1 runner, ``auto`` result store) is driven by two
client threads in this process.  Each thread submits a fresh spec over HTTP,
polls for its result, then submits the next: a closed loop, so a slow
service receives less load.  Requests go through the client the ``jobs
--url`` commands use; the server closes every connection after one
response, so each request opens its own connection.  Every run serves
the same fixed set of specs (``workloads.service_specs``), each once, in a
seed-permuted order.

Job latency is waiting (HTTP, the SQLite queue and the runner's claim poll)
and is reported in raw wall seconds.  After the load, with the server
stopped, every served result is re-derived by a direct library call with no
store (cold), again into an empty result store, and re-answered from that
store (warm).  The cold and warm passes run three times each, bracketed and
normalised like the library workloads, and give the service's ``survey_s``
and ``warm_s`` per served spec.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.service.api import request_json

import golden
from common import (
    IMPORT_PROBES, ROOT, STATE_DIR, child_env, importtime_probe, median, p90,
    peak_rss_mb_of, print_table, work_dir,
)
from refnorm import BenchmarkError, Bracketer, Sample
from workloads import seeded_order, service_specs

#: Concurrent clients of the closed loop.
CLIENTS = 2

#: Client pause between result polls.
POLL_S = 0.05

#: Fresh jobs a run must complete, so that p90 has at least 10 samples beyond it.
MIN_JOBS = 100

#: Jobs per second of measured time.  The runner's 0.5 s idle claim poll
#: paces the closed loop at about this rate, so a run serves
#: ``JOBS_PER_S x seconds`` specs (at least MIN_JOBS) in about ``seconds``.
JOBS_PER_S = 4

#: Setup probes (spawn ``serve`` until ``/readyz`` answers 200) before and
#: after the load; the main server's own start is one more.
PROBES_BEFORE, PROBES_AFTER = 3, 3

#: Specs per bracketed sample of the verification passes (one is milliseconds).
VERIFY_CHUNK = 8

#: Timed repeats of the cold and of the warm verification pass; each chunk
#: reports its median over the repeats.
VERIFY_REPEATS = 3

#: Seconds a spawned ``serve`` may take to answer ``/readyz`` with 200.
READY_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


class Server:
    """One ``repro.cli serve`` subprocess with its own queue and workdir."""

    def __init__(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self._log = open(os.path.join(directory, "serve.log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--queue",
             os.path.join(directory, "queue.sqlite"), "--workdir", os.path.join(directory, "work"),
             "--port", "0", "--runners", "1"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._log)
        self.url = ""

    def wait_ready(self) -> None:
        line = self.process.stdout.readline().decode("utf-8", "replace")
        match = _LISTENING.search(line)
        if match is None:
            raise BenchmarkError(f"serve did not announce its port: {line!r}")
        self.url = f"http://127.0.0.1:{match.group(2)}"
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, _body = request_json(self.url, "GET", "/readyz", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                return
            time.sleep(0.005)
        raise BenchmarkError("serve never became ready")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self._log.close()


def start_server(bracketer: Bracketer, directory: str) -> Tuple[Server, Sample]:
    """Spawn ``serve`` and wait for ``/readyz``: one ``setup_s`` sample."""
    holder: List[Server] = []

    def spawn() -> None:
        holder.append(Server(directory))
        holder[0].wait_ready()

    try:
        sample = bracketer.measure(spawn)
    except BaseException:
        for server in holder:
            server.stop()
        raise
    return holder[0], sample


def serve_probe(bracketer: Bracketer, directory: str) -> Sample:
    server, sample = start_server(bracketer, directory)
    server.stop()
    return sample


class ClosedLoop:
    """Two client threads submitting fresh specs and polling for their results."""

    def __init__(self, url: str, specs: List[dict]) -> None:
        self.url = url
        self.pending = list(reversed(specs))
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.jobs: List[Dict[str, Any]] = []
        self.errors: List[str] = []
        self.status_429 = 0
        self.result_reads = 0

    def _next_spec(self) -> Optional[dict]:
        with self.lock:
            return self.pending.pop() if self.pending and not self.stop.is_set() else None

    def client(self) -> None:
        while True:
            spec = self._next_spec()
            if spec is None:
                return
            try:
                job = self._one_job(spec)
            except Exception as error:  # a failed request is a failed operation
                with self.lock:
                    self.errors.append(f"{spec}: {type(error).__name__}: {error}")
                continue
            with self.lock:
                self.jobs.append(job)

    def _one_job(self, spec: dict) -> Dict[str, Any]:
        start = time.perf_counter()
        while True:
            status, body = request_json(self.url, "POST", "/jobs", spec)
            if status != 429:
                break
            with self.lock:
                self.status_429 += 1
            time.sleep(POLL_S)
        submitted = time.perf_counter()
        if status != 202 or not body.get("created"):
            raise BenchmarkError(f"submit answered {status} {body}: specs must be fresh")
        job_id = body["job"]
        reads = []
        while True:
            read_start = time.perf_counter()
            status, result = request_json(self.url, "GET", f"/jobs/{job_id}/result")
            reads.append((read_start, time.perf_counter()))
            if status == 200:
                break
            if status != 409:
                raise BenchmarkError(f"result read answered {status} {result}")
            time.sleep(POLL_S)
        done = time.perf_counter()
        with self.lock:
            self.result_reads += len(reads)
        return {"spec": spec, "id": job_id, "latency_s": done - start,
                "submit_s": submitted - start, "start": start, "end": done,
                "reads": reads, "answer": result}

    def run(self, max_seconds: float) -> float:
        """Serve every pending spec; stop early only past ``max_seconds``."""
        threads = [threading.Thread(target=self.client, name=f"client-{i}", daemon=True)
                   for i in range(CLIENTS)]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            if time.monotonic() - start >= max_seconds:
                self.stop.set()
            time.sleep(0.05)
        for thread in threads:
            thread.join(timeout=60)
        return time.monotonic() - start


def direct_answer(spec: dict, result_store=None) -> Dict[str, Any]:
    """The result a served job must equal, from a direct library call."""
    import repro.runtime as runtime
    import repro.topology as topology
    from repro.model import Context
    from repro.service.specs import build_protocol, build_space, normalize_spec

    spec = normalize_spec(spec)
    if spec["kind"] == "sweep":
        report = runtime.resilient_check(
            build_protocol(spec), build_space(spec), spec["t"], symmetry=spec["symmetry"],
            engine=spec["engine"], result_store=result_store,
            enforce_paper_bound=spec["enforce_paper_bound"]).value
        return {"kind": "sweep", "ok": not report.violations,
                "report": golden.report_payload(report)}
    pc = topology.build_restricted_complex(
        Context(n=spec["n"], t=spec["t"], k=spec["k"]), time=spec["time"], engine=spec["engine"])
    census = runtime.resilient_census(
        pc, spec["k"], symmetry="none" if spec["symmetry"] == "none" else "quotient",
        backend=spec["backend"], result_store=result_store).value
    return {"kind": "census", "vertices": census.vertices,
            "high_capacity": census.high_capacity, "consistent": census.consistent,
            "connected_stars": census.connected_stars, "connected_high": census.connected_high,
            "classes": census.classes, "holds": census.consistent == census.high_capacity}


def verify_pass(bracketer: Bracketer, jobs: List[dict], errors: Dict[str, List[str]],
                result_store) -> List[Sample]:
    """Re-derive every served result in bracketed chunks; mismatches go to ``errors``."""
    samples = []
    for offset in range(0, len(jobs), VERIFY_CHUNK):
        chunk = jobs[offset:offset + VERIFY_CHUNK]
        sample = bracketer.measure(
            lambda: [direct_answer(job["spec"], result_store) for job in chunk])
        samples.append(sample)
        for job, direct in zip(chunk, sample.value):
            errors[job["id"]] += golden.check_served(job["answer"].get("result"), direct)
    return samples


def per_spec(passes: List[List[Sample]], field: str) -> float:
    """Seconds per spec: each chunk's median over the repeated passes, summed."""
    chunks = list(zip(*passes))
    specs = VERIFY_CHUNK * (len(chunks) - 1) + len(chunks[-1][0].value)
    return sum(median([getattr(sample, field) for sample in chunk]) for chunk in chunks) / specs


def run_service(seconds: float, seed: int, trace: bool, smoke: bool):
    from repro.store import ResultStore

    root = work_dir("service")
    bracketer = Bracketer()
    count = 6 if smoke else max(MIN_JOBS, round(JOBS_PER_S * seconds))
    specs = seeded_order(service_specs(count), seed, "service")
    probes = [serve_probe(bracketer, os.path.join(root, f"probe-{i}"))
              for i in range(PROBES_BEFORE)]
    server, sample = start_server(bracketer, os.path.join(root, "main"))
    probes.append(sample)
    try:
        loop = ClosedLoop(server.url, specs)
        load_s = loop.run(max_seconds=max(3 * seconds, 60.0))
        peak_rss = peak_rss_mb_of(server.process.pid)
        # Outside the timed window: the job rows' own timestamps.
        for job in loop.jobs:
            status, row = request_json(server.url, "GET", f"/jobs/{job['id']}")
            if status != 200:
                raise BenchmarkError(f"job row read answered {status}")
            job["queue_wait_s"] = row["started_at"] - row["submitted_at"]
            job["run_s"] = row["finished_at"] - row["started_at"]
            job["server_s"] = row["finished_at"] - row["submitted_at"]
    finally:
        server.stop()
    bracketer.invalidate()
    probes += [serve_probe(bracketer, os.path.join(root, f"probe-{PROBES_BEFORE + i}"))
               for i in range(PROBES_AFTER)]

    if not loop.jobs:
        raise BenchmarkError(f"no job completed: {loop.errors[:3]}")
    # Canonical order and a fresh store: the verification passes, and so
    # survey_s and warm_s, do not depend on the order the seed served in.
    jobs = sorted(loop.jobs, key=lambda job: json.dumps(job["spec"], sort_keys=True))
    errors: Dict[str, List[str]] = {job["id"]: [] for job in jobs}
    for job in jobs:
        if job["answer"].get("state") != "done":
            errors[job["id"]].append(f"job ended {job['answer']}")
    cold = [verify_pass(bracketer, jobs, errors, None) for _ in range(VERIFY_REPEATS)]
    with ResultStore(os.path.join(root, "verify.sqlite")) as store:
        verify_pass(bracketer, jobs, errors, store)  # fills the store: checked, not reported
        warm = [verify_pass(bracketer, jobs, errors, store) for _ in range(VERIFY_REPEATS)]
    # One entry per failed operation: a job failing several checks counts once.
    failures = list(loop.errors) + [
        f"job {job_id}: {'; '.join(found)}" for job_id, found in errors.items() if found]
    if len(loop.jobs) < count:
        failures.append(f"only {len(loop.jobs)} of {count} jobs completed")
    for failure in failures:
        print(f"CORRECTNESS FAILURE service: {failure}", flush=True)

    latencies = [job["latency_s"] for job in jobs]
    _print_tables(seed, jobs, load_s, probes, cold, warm, loop)
    attempted = len(jobs) + len(loop.errors)
    if trace:
        values = _layers(jobs, loop, bracketer)
        _write_spans(jobs, seed)
    else:
        print("raw seconds:", json.dumps({
            "setup_s": median([p.raw_s for p in probes]),
            "survey_s": per_spec(cold, "raw_s"),
            "warm_s": per_spec(warm, "raw_s")}))
        values = {
            "setup_s": median([p.normalised_s for p in probes]),
            "survey_s": per_spec(cold, "normalised_s"),
            "warm_s": per_spec(warm, "normalised_s"),
            "job_p50_s": median(latencies),
            "job_p90_s": p90(latencies),
            "peak_rss_mb": peak_rss,
        }
    return values, attempted, failures


def _layers(jobs: List[dict], loop: ClosedLoop, bracketer: Bracketer) -> Dict[str, float]:
    imports = [importtime_probe(bracketer) for _ in range(IMPORT_PROBES)]
    residual = [job["latency_s"] - job["submit_s"] - job["server_s"] for job in jobs]
    return {
        "service.queue_wait_s": median([job["queue_wait_s"] for job in jobs]),
        "service.run_s": median([job["run_s"] for job in jobs]),
        "service.submit_s": median([job["submit_s"] for job in jobs]),
        "service.result_polls": len(jobs) / loop.result_reads,
        "service.status_429": loop.status_429,
        "startup.import_s": median([i[0] for i in imports]),
        "startup.networkx_s": median([i[1] for i in imports]),
        "trace.residual_s": median(residual),
        # Nothing is wrapped in the server: the client timestamps are the
        # same ones the untraced run takes.
        "trace.overhead_s": 0.0,
        "trace.spans": sum(2 + len(job["reads"]) for job in jobs),
    }


def _write_spans(jobs: List[dict], seed: int) -> None:
    """Client spans of the traced run (job, submit, result reads), as JSON lines."""
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(os.path.join(STATE_DIR, f"trace-service-seed{seed}.jsonl"), "w") as handle:
        for run_id, job in enumerate(jobs):
            spans = [("service.job", job["start"], job["end"], None),
                     ("service.submit", job["start"], job["start"] + job["submit_s"],
                      "service.job")]
            spans += [("service.result_read", start, end, "service.job")
                      for start, end in job["reads"]]
            for name, start, end, parent in spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run": run_id}) + "\n")


def _print_tables(seed, jobs, load_s, probes, cold, warm, loop) -> None:
    latencies = [job["latency_s"] for job in jobs]
    print_table(
        f"service: {len(jobs)} fresh jobs in {load_s:.1f}s, {CLIENTS} closed-loop clients "
        f"(seed {seed}); raw wall seconds",
        ["metric", "p50", "p90", "samples"],
        [("job latency", f"{median(latencies):.4f}", f"{p90(latencies):.4f}", len(jobs)),
         ("submit round trip", f"{median([j['submit_s'] for j in jobs]):.4f}",
          f"{p90([j['submit_s'] for j in jobs]):.4f}", len(jobs)),
         ("claim wait (started - submitted)", f"{median([j['queue_wait_s'] for j in jobs]):.4f}",
          f"{p90([j['queue_wait_s'] for j in jobs]):.4f}", len(jobs)),
         ("run (finished - started)", f"{median([j['run_s'] for j in jobs]):.4f}",
          f"{p90([j['run_s'] for j in jobs]):.4f}", len(jobs)),
         ("result reads per job", f"{median([len(j['reads']) for j in jobs])}",
          f"{p90([len(j['reads']) for j in jobs])}", len(jobs))])
    rows = [("setup (spawn -> /readyz), median", len(probes),
             f"{median([p.raw_s for p in probes]):.4f}",
             f"{median([p.factor for p in probes]):.3f}",
             f"{median([p.normalised_s for p in probes]):.4f}")]
    for name, passes in (("direct cold, no store, per spec", cold),
                         ("warm from a filled store, per spec", warm)):
        samples = [sample for one_pass in passes for sample in one_pass]
        rows.append((name, len(samples), f"{per_spec(passes, 'raw_s'):.4f}",
                     f"{median([s.factor for s in samples]):.3f}",
                     f"{per_spec(passes, 'normalised_s'):.4f}"))
    print_table("service: normalised samples", ["what", "samples", "raw_s", "scale",
                                                "normalised_s"], rows)
