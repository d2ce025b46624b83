"""Unit tests for protocol complexes, star complexes and Proposition 2."""

import pytest

import repro.topology.protocol_complex as protocol_complex
from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run
from repro.topology import (
    build_protocol_complex,
    build_restricted_complex,
    is_homologically_q_connected,
    per_round_crash_patterns,
    reduced_betti_numbers,
)


@pytest.fixture(scope="module")
def consensus_complex():
    """One-round protocol complex, n=4, at most one crash per round."""
    context = Context(n=4, t=2, k=1)
    return context, build_restricted_complex(context, time=1, max_crashes_per_round=1)


@pytest.fixture(scope="module")
def kset_complex():
    """One-round protocol complex, n=5, at most two crashes per round."""
    context = Context(n=5, t=4, k=2)
    return context, build_restricted_complex(context, time=1, max_crashes_per_round=2)


class TestPatternEnumeration:
    def test_per_round_crash_counts_respected(self):
        patterns = list(per_round_crash_patterns(4, rounds=2, max_crashes_per_round=1, receiver_policy="none"))
        for pattern in patterns:
            for round_ in (1, 2):
                assert len(pattern.crashes_in_round(round_)) <= 1

    def test_includes_failure_free_pattern(self):
        patterns = list(per_round_crash_patterns(3, rounds=1, max_crashes_per_round=1, receiver_policy="none"))
        assert any(p.num_failures == 0 for p in patterns)

    def test_crashed_process_does_not_crash_again(self):
        patterns = list(per_round_crash_patterns(3, rounds=2, max_crashes_per_round=1, receiver_policy="none"))
        for pattern in patterns:
            assert len({e.process for e in pattern.crashes}) == pattern.num_failures


def _filtered_grid():
    """``(n, rounds, per_round, policy)`` cases for the pruned-generator differential.

    ``receiver_policy="all"`` stops at n=4, and n=5 with two crashes per
    round stops at two rounds: the unbounded n=5 three-round family has
    405,091 patterns, too many for a fast test.
    """
    for n in range(2, 6):
        for rounds in (1, 2, 3):
            for per_round in (1, 2):
                for policy in ("none", "canonical", "all"):
                    if policy == "all" and n > 4:
                        continue
                    if n == 5 and rounds == 3 and per_round == 2 and policy != "none":
                        continue
                    yield n, rounds, per_round, policy


class TestBoundedGeneration:
    """``max_failures`` prunes during generation, never changing what is kept."""

    @pytest.mark.parametrize("n, rounds, per_round, policy", list(_filtered_grid()))
    def test_bound_equals_filter_in_order(self, n, rounds, per_round, policy):
        unbounded = list(per_round_crash_patterns(n, rounds, per_round, policy))
        for t in range(n):
            bounded = list(
                per_round_crash_patterns(n, rounds, per_round, policy, max_failures=t)
            )
            assert bounded == [p for p in unbounded if p.num_failures <= t]

    def test_two_process_canonical_receivers_are_not_duplicated(self):
        # With one other process the canonical "full set" is the singleton:
        # the bounded stream must not reintroduce the duplicate.
        patterns = list(per_round_crash_patterns(2, 2, 1, "canonical", max_failures=1))
        assert len(patterns) == len(set(patterns)) == 1 + 2 * 2 * 2

    def test_negative_bound_is_rejected(self):
        with pytest.raises(ValueError, match="max_failures"):
            list(per_round_crash_patterns(3, 1, 1, max_failures=-1))

    def test_bound_above_model_limit_is_clamped(self):
        assert list(per_round_crash_patterns(4, 2, 2, max_failures=9)) == list(
            per_round_crash_patterns(4, 2, 2)
        )

    def test_restricted_complex_generates_only_kept_patterns(self, monkeypatch):
        """Nothing the restricted builder generates is discarded afterwards."""
        original = protocol_complex.per_round_crash_patterns
        yielded = []

        def counting(*args, **kwargs):
            for pattern in original(*args, **kwargs):
                yielded.append(pattern)
                yield pattern

        monkeypatch.setattr(protocol_complex, "per_round_crash_patterns", counting)
        context = Context(n=5, t=1, k=2)
        build_restricted_complex(context, time=2)
        assert len(yielded) == 61
        assert all(pattern.num_failures <= context.t for pattern in yielded)


class TestProtocolComplexStructure:
    def test_whole_complex_is_connected(self, consensus_complex):
        _, pc = consensus_complex
        assert is_homologically_q_connected(pc.complex, 0)

    def test_facets_correspond_to_executions(self, consensus_complex):
        context, pc = consensus_complex
        # A facet of full dimension n-1 exists (the failure-free execution).
        assert any(len(facet) == context.n for facet in pc.complex.facets)

    def test_vertices_are_process_view_pairs(self, consensus_complex):
        _, pc = consensus_complex
        processes = {vertex[0] for vertex in pc.complex.vertices}
        assert processes == {0, 1, 2, 3}

    def test_vertex_lookup_matches_run(self, consensus_complex):
        context, pc = consensus_complex
        adversary = Adversary([1] * context.n, FailurePattern.failure_free(context.n))
        vertex = pc.vertex_of(adversary, 0, context.t)
        assert vertex in pc.complex.vertices

    def test_build_from_explicit_adversaries(self):
        context = Context(n=3, t=1, k=1)
        adversaries = [
            Adversary([1, 1, 1], FailurePattern.failure_free(3)),
            Adversary([1, 1, 1], FailurePattern(3, [CrashEvent(0, 1, frozenset())])),
        ]
        pc = build_protocol_complex(adversaries, time=1, t=context.t)
        assert len(pc.complex.facets) == 2


class TestStarComplexes:
    def test_star_is_nonempty_and_connected(self, kset_complex):
        context, pc = kset_complex
        adversary = Adversary([2] * context.n, FailurePattern.failure_free(context.n))
        star = pc.star_of(adversary, 0, context.t)
        assert not star.is_empty()
        assert is_homologically_q_connected(star, 0)

    def test_star_contains_only_simplices_with_the_vertex(self, kset_complex):
        context, pc = kset_complex
        adversary = Adversary([2] * context.n, FailurePattern.failure_free(context.n))
        vertex = pc.vertex_of(adversary, 0, context.t)
        star = pc.star_of(adversary, 0, context.t)
        assert all(vertex in facet for facet in star.facets)


class TestProposition2:
    """Hidden capacity >= k in every round ⇒ (k-1)-connected star complex (homology proxy)."""

    def test_k2_capacity_implies_one_connected_star(self, kset_complex):
        context, pc = kset_complex
        # Two silent crashes in round 1 give the observer hidden capacity 2.
        adversary = Adversary(
            [2] * context.n,
            FailurePattern(context.n, [CrashEvent(1, 1, frozenset()), CrashEvent(2, 1, frozenset())]),
        )
        run = Run(None, adversary, context.t, horizon=1)
        assert run.view(0, 1).hidden_capacity() >= 2
        star = pc.star_of(adversary, 0, context.t)
        assert is_homologically_q_connected(star, 1)

    def test_k1_capacity_implies_connected_star(self, consensus_complex):
        context, pc = consensus_complex
        adversary = Adversary(
            [1] * context.n, FailurePattern(context.n, [CrashEvent(1, 1, frozenset())])
        )
        run = Run(None, adversary, context.t, horizon=1)
        assert run.view(0, 1).hidden_capacity() >= 1
        star = pc.star_of(adversary, 0, context.t)
        assert is_homologically_q_connected(star, 0)

    def test_all_high_capacity_vertices_have_connected_stars(self, kset_complex):
        """Sweep every execution of the restricted family and check the implication."""
        context, pc = kset_complex
        checked = 0
        for adversary, process in list(pc.vertex_views.values()):
            run = Run(None, adversary, context.t, horizon=1)
            if not run.has_view(process, 1):
                continue
            if run.view(process, 1).hidden_capacity() < 2:
                continue
            star = pc.star_of(adversary, process, context.t)
            assert is_homologically_q_connected(star, 1)
            checked += 1
        assert checked > 0
