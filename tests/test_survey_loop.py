"""The single survey loop: plain and resilient entry points share one fold.

``check_protocol`` and ``resilient_check`` (and the two census entry
points) fold through the same batched loop of ``repro.runtime.runner``;
these tests pin the paths that used to be separate code: a stored verdict
that carries violations folding back byte-identically, a limited quotient
space meaning the same members on both entry points, and the CLI routing
every sweep through ``resilient_check`` so runtime flags always apply.
"""

from repro import OptMin
from repro.adversaries import RestrictedSpace
from repro.model import Context
from repro.runtime import canonical_json, resilient_check
from repro.runtime.runner import _check_report_payload
from repro.store import ResultStore
from repro.verification import EagerOptMin, check_protocol


def report_bytes(report) -> str:
    """The report's serialized form: violation list and histogram order included."""
    return canonical_json(_check_report_payload(report))


class TestWarmStoreFoldsViolations:
    def test_stored_violation_folds_byte_identically(self, tmp_path):
        # 619,893 members in 6,786 orbits, exactly one of them violating
        # k-Agreement: the warm sweep answers every orbit from the store,
        # the violating verdict included.
        protocol = EagerOptMin(2, 1)
        space = RestrictedSpace(Context(5, 3, 2), max_crash_round=1)
        plain = check_protocol(protocol, space, 3, symmetry="constructive")
        assert len(plain.violations) == 1
        assert plain.runs_checked == 619_893

        path = str(tmp_path / "memo.sqlite")
        cold_store = ResultStore(path)
        cold = resilient_check(protocol, space, 3, result_store=cold_store)
        assert cold_store.hits == 0
        cold_store.close()

        warm_store = ResultStore(path)
        warm = resilient_check(protocol, space, 3, result_store=warm_store)
        assert warm_store.misses == 0 and warm_store.hits == space.orbit_count()
        warm_store.close()

        assert cold.completed and warm.completed
        assert report_bytes(cold.value) == report_bytes(plain)
        assert report_bytes(warm.value) == report_bytes(plain)
        assert list(warm.value.decision_time_histogram) == list(
            plain.decision_time_histogram
        )


class TestLimitedQuotientStream:
    def test_limit_truncates_members_before_deduplication(self):
        # A limited quotient space covers exactly its first ``limit``
        # members on both entry points, so the CLI's single path reports
        # what the plain checker reports.
        space = RestrictedSpace(Context(4, 2, 2), max_crash_round=2, limit=1500)
        plain = check_protocol(OptMin(2), space, 2, symmetry="quotient")
        resilient = resilient_check(OptMin(2), space, 2, symmetry="quotient", batch_size=64)
        assert resilient.completed
        assert resilient.value.runs_checked == plain.runs_checked == 1500
        assert list(resilient.value.decision_time_histogram.items()) == list(
            plain.decision_time_histogram.items()
        )


class TestCliSweepPath:
    def test_max_retries_alone_reaches_the_runner(self, monkeypatch, capsys):
        # --max-retries is a runtime flag like the others: with no
        # --checkpoint/--store/--deadline it must still reach the supervised
        # pool's policy.
        import repro.runtime

        seen = {}

        def spy(*args, **kwargs):
            seen["policy"] = kwargs["policy"]
            return resilient_check(*args, **kwargs)

        monkeypatch.setattr(repro.runtime, "resilient_check", spy)
        from repro.cli import main

        code = main(
            ["sweep", "-n", "4", "-t", "2", "-k", "2", "--max-crash-round", "1",
             "--processes", "2", "--max-retries", "0"]
        )
        assert code == 0
        assert seen["policy"].max_retries == 0
        assert "OK over" in capsys.readouterr().out
