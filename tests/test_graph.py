"""Unit tests for the explicit communication-graph export and its cross-check with views."""

import pytest

from repro.adversaries import AdversaryGenerator, figure1_scenario
from repro.model import Adversary, Context, CrashEvent, FailurePattern, ProcessTimeNode, Run
from repro.model.graph import (
    communication_graph,
    latest_seen_per_process,
    layer_counts,
    message_chain_exists,
    seen_nodes,
    view_subgraph,
)


def chain_adversary():
    # p1 crashes in round 1 delivering only to p2; p2 crashes in round 2
    # delivering only to p3 (the Fig. 1 shape on 5 processes).
    events = [CrashEvent(1, 1, frozenset({2})), CrashEvent(2, 2, frozenset({3}))]
    return Adversary([1, 0, 1, 1, 1], FailurePattern(5, events))


class TestGraphConstruction:
    def test_nodes_exclude_crashed_layers(self):
        graph = communication_graph(chain_adversary(), horizon=2)
        assert (1, 0) in graph
        assert (1, 1) not in graph
        assert (2, 1) in graph
        assert (2, 2) not in graph
        assert (0, 2) in graph

    def test_initial_values_attached(self):
        graph = communication_graph(chain_adversary(), horizon=1)
        assert graph.nodes[(1, 0)]["initial_value"] == 0
        assert graph.nodes[(0, 0)]["initial_value"] == 1
        assert "initial_value" not in graph.nodes[(0, 1)]

    def test_faulty_flag(self):
        graph = communication_graph(chain_adversary(), horizon=1)
        assert graph.nodes[(1, 0)]["faulty"]
        assert not graph.nodes[(0, 0)]["faulty"]

    def test_edges_follow_failure_pattern(self):
        graph = communication_graph(chain_adversary(), horizon=2)
        assert graph.has_edge((1, 0), (2, 1))       # the crashing delivery
        assert not graph.has_edge((1, 0), (0, 1))   # withheld from the observer
        assert graph.has_edge((0, 0), (4, 1))       # correct senders reach everyone
        assert graph.has_edge((0, 0), (0, 1))       # self edge

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            communication_graph(chain_adversary(), horizon=-1)

    def test_layer_counts(self):
        graph = communication_graph(chain_adversary(), horizon=2)
        counts = layer_counts(graph)
        assert counts[0] == 5
        assert counts[1] == 4
        assert counts[2] == 3


class TestViewSubgraph:
    def test_view_subgraph_matches_seen_nodes(self):
        adversary = chain_adversary()
        graph = communication_graph(adversary, horizon=2)
        run = Run(None, adversary, t=2, horizon=2)
        observer = ProcessTimeNode(0, 2)
        explicit = seen_nodes(graph, observer)
        view = run.view(0, 2)
        for j in range(5):
            for layer in range(3):
                node = ProcessTimeNode(j, layer)
                assert (node in explicit) == view.is_seen(node)

    def test_latest_seen_matches_run_engine(self):
        adversary = chain_adversary()
        graph = communication_graph(adversary, horizon=2)
        run = Run(None, adversary, t=2, horizon=2)
        explicit = latest_seen_per_process(graph, ProcessTimeNode(0, 2), n=5)
        assert tuple(explicit[j] for j in range(5)) == run.view(0, 2).latest_seen

    def test_latest_seen_matches_on_random_adversaries(self):
        context = Context(n=6, t=4, k=2)
        generator = AdversaryGenerator(context, seed=5)
        for adversary in generator.sample(25):
            graph = communication_graph(adversary, horizon=2)
            run = Run(None, adversary, context.t, horizon=2)
            for process, view in run.views_at(2).items():
                explicit = latest_seen_per_process(graph, ProcessTimeNode(process, 2), n=6)
                assert tuple(explicit[j] for j in range(6)) == view.latest_seen

    def test_view_subgraph_unknown_node_rejected(self):
        graph = communication_graph(chain_adversary(), horizon=1)
        with pytest.raises(KeyError):
            view_subgraph(graph, ProcessTimeNode(1, 1))


class TestMessageChains:
    def test_chain_exists_along_the_hidden_chain(self):
        scenario = figure1_scenario(chain_length=2)
        graph = communication_graph(scenario.adversary, horizon=3)
        chain = scenario.roles["chain"]
        assert message_chain_exists(
            graph, ProcessTimeNode(chain[0], 0), ProcessTimeNode(chain[-1], 2)
        )

    def test_no_chain_to_the_observer_while_hidden(self):
        scenario = figure1_scenario(chain_length=2)
        graph = communication_graph(scenario.adversary, horizon=3)
        chain = scenario.roles["chain"]
        assert not message_chain_exists(
            graph, ProcessTimeNode(chain[0], 0), ProcessTimeNode(scenario.observer, 2)
        )
        # One round later the tail relays and the chain reaches the observer.
        assert message_chain_exists(
            graph, ProcessTimeNode(chain[0], 0), ProcessTimeNode(scenario.observer, 3)
        )

    def test_reflexive_chain(self):
        graph = communication_graph(chain_adversary(), horizon=1)
        node = ProcessTimeNode(0, 1)
        assert message_chain_exists(graph, node, node)

    def test_missing_nodes_mean_no_chain(self):
        graph = communication_graph(chain_adversary(), horizon=1)
        assert not message_chain_exists(graph, ProcessTimeNode(1, 1), ProcessTimeNode(0, 1))
