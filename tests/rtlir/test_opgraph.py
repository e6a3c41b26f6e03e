"""Unit tests for the dataflow operation graph."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import benchmark_names, load_benchmark
from repro.locking import AssureLocker
from repro.rtlir import (OperationNode, SignalNode, analyze_design,
                         build_operation_graph)
from repro.rtlir.opgraph import acyclic_view, topological_order
from repro.verilog.parser import parse_module

from ..conftest import MIXER_SOURCE, PLUS_CHAIN_SOURCE


class TestGraphConstruction:
    def test_every_site_becomes_a_node(self, mixer_design):
        graph = build_operation_graph(mixer_design.top)
        assert len(graph.operation_nodes()) == mixer_design.num_operations()

    def test_signal_nodes_present(self, mixer_design):
        graph = build_operation_graph(mixer_design.top)
        names = {node.name for node in graph.signal_nodes()}
        assert {"a", "b", "t1", "t3"}.issubset(names)

    def test_chain_depth(self, plus_chain_design):
        graph = build_operation_graph(plus_chain_design.top)
        # Six chained additions produce a long dependency path.
        assert graph.depth() >= 6

    def test_fanout(self, plus_chain_design):
        graph = build_operation_graph(plus_chain_design.top)
        assert graph.fanout("i0") >= 2
        assert graph.fanout("does_not_exist") == 0

    def test_statistics_keys(self, mixer_design):
        stats = build_operation_graph(mixer_design.top).statistics()
        assert set(stats) == {"num_operations", "num_signals", "num_edges",
                              "depth", "avg_fanout"}
        assert stats["num_operations"] == mixer_design.num_operations()


class TestTopologicalOrder:
    def test_topological_order_respects_dataflow(self, plus_chain_design):
        graph = build_operation_graph(plus_chain_design.top)
        order = graph.topological_site_order()
        # In the chain s0 -> s1 -> ... the additions must come out in order.
        positions = {site.index: position for position, site in enumerate(order)}
        indices = sorted(positions)
        assert [positions[i] for i in indices] == sorted(positions.values())

    def test_order_covers_all_sites(self, mixer_design):
        graph = build_operation_graph(mixer_design.top)
        order = graph.topological_site_order()
        assert len(order) == mixer_design.num_operations()
        assert len({site.index for site in order}) == len(order)

    def test_order_is_deterministic(self, mixer_design):
        first = [s.index for s in
                 build_operation_graph(mixer_design.top).topological_site_order()]
        second = [s.index for s in
                  build_operation_graph(mixer_design.top).topological_site_order()]
        assert first == second

    def test_cyclic_design_does_not_crash(self):
        module = parse_module("""
            module loopy (input [3:0] a, output [3:0] y);
              wire [3:0] u;
              wire [3:0] v = u + a;
              assign u = v - a;
              assign y = v;
            endmodule
        """)
        graph = build_operation_graph(module)
        # The search starts at the ``+`` (site 0) and closes the loop
        # op0 -> v -> op1 -> u -> op0, so the edge out of op0 goes.
        assert _removed_edges(graph.graph, acyclic_view(graph.graph)) == [(0, "v")]
        assert [site.index for site in graph.topological_site_order()] == [1, 0]
        assert graph.depth() == 3


class TestOperationNetworks:
    def test_plus_network_is_connected(self, plus_chain_design):
        graph = build_operation_graph(plus_chain_design.top)
        components = graph.connected_operation_network("+")
        assert len(components) == 1
        assert len(components[0]) == 6

    def test_disjoint_networks_detected(self):
        module = parse_module("""
            module split (input [3:0] a, b, c, d, output [3:0] x, y);
              assign x = a + b;
              assign y = c + d;
            endmodule
        """)
        graph = build_operation_graph(module)
        components = graph.connected_operation_network("+")
        assert len(components) == 2

    def test_node_dataclasses(self):
        assert SignalNode("x") == SignalNode("x")
        assert OperationNode(0, "+") != OperationNode(1, "+")


def _removed_edges(graph, view):
    return [(node, child) for node, children in graph.items()
            for child in children if child not in view[node]]


def _first_cycle_edge(successors):
    """The edge the first back edge of a depth-first search condemns: the
    active-path edge out of the back edge's head (a self-loop condemns
    itself).  ``None`` when the graph is acyclic."""
    finished = set()
    for root in successors:
        if root in finished:
            continue
        path = [root]
        pending = [iter(successors[root])]
        while pending:
            for child in pending[-1]:
                if child in path:
                    head = path.index(child)
                    return child, (path + [child])[head + 1]
                if child not in finished:
                    path.append(child)
                    pending.append(iter(successors[child]))
                    break
            else:
                finished.add(path.pop())
                pending.pop()
    return None


def _reference_acyclic_view(graph):
    """Delete the first cycle edge and search again from scratch, until no
    cycle is left; return the view and the edges in deletion order."""
    successors = {node: dict(children) for node, children in graph.items()}
    removed = []
    while (edge := _first_cycle_edge(successors)) is not None:
        del successors[edge[0]][edge[1]]
        removed.append(edge)
    return successors, removed


@st.composite
def digraphs(draw):
    """Random digraphs in random node and edge order, self-loops included."""
    size = draw(st.integers(1, 12))
    nodes = draw(st.permutations(range(size)))
    edges = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                    st.sampled_from(nodes)),
                          max_size=size * 4))
    graph = {node: {} for node in nodes}
    for source, target in edges:
        graph[source][target] = None
    return graph


class TestAcyclicView:
    @settings(max_examples=300, deadline=None)
    @given(graph=digraphs())
    def test_one_pass_equals_restarting_reference(self, graph):
        view = acyclic_view(graph)
        reference, removed = _reference_acyclic_view(graph)
        assert [(node, list(children)) for node, children in view.items()] == \
            [(node, list(children)) for node, children in reference.items()]
        assert sorted(_removed_edges(graph, view)) == sorted(removed)
        assert topological_order(view) == topological_order(reference)

    @settings(max_examples=100, deadline=None)
    @given(graph=digraphs())
    def test_view_is_acyclic_and_order_is_topological(self, graph):
        view = acyclic_view(graph)
        order = topological_order(view)
        assert sorted(order) == sorted(graph)
        position = {node: index for index, node in enumerate(order)}
        assert all(position[node] < position[child]
                   for node, children in view.items() for child in children)

    def test_acyclic_graph_is_kept_whole(self):
        graph = {"a": {0: None, 1: None}, 0: {"b": None}, 1: {"b": None},
                 "b": {}}
        assert acyclic_view(graph) == graph
        assert topological_order(graph) == ["a", 0, 1, "b"]


def _digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


#: (topological site order, statistics) digests per benchmark at scale 0.3,
#: unlocked and serial-locked with 16 key bits (``random.Random(0)``).
_BENCHMARK_GOLDENS = {
    ("DES3", "unlocked"): ("8b495ba2b65eca9f", "a327c916035173c6"),
    ("DES3", "serial"): ("1a190cd8ed928f81", "376fb56803e4f709"),
    ("DFT", "unlocked"): ("f5bc03413ec93073", "571a82c843982f81"),
    ("DFT", "serial"): ("70a31936ea9fe53c", "2c4538454f5a4649"),
    ("FIR", "unlocked"): ("cacd721e51a36387", "0341a2326fb5fef6"),
    ("FIR", "serial"): ("37815f4ed4fe8a61", "2f21673b3611b94a"),
    ("IDFT", "unlocked"): ("f5bc03413ec93073", "571a82c843982f81"),
    ("IDFT", "serial"): ("70a31936ea9fe53c", "2c4538454f5a4649"),
    ("IIR", "unlocked"): ("21f46987346123b6", "89b141e8395d2399"),
    ("IIR", "serial"): ("76513b3e274c3863", "6a125eeb9e6ee37d"),
    ("MD5", "unlocked"): ("c8918a6e98f2e207", "a89dc778e6ff6b28"),
    ("MD5", "serial"): ("13ab5928fdbecdf2", "c99b3748c84622cb"),
    ("RSA", "unlocked"): ("0e55bc553aceb62f", "9148fb109c6aa030"),
    ("RSA", "serial"): ("04f718a4d2e3deb1", "5d6cfcc6228c217f"),
    ("SHA256", "unlocked"): ("d71bdde547319bb8", "f44881ec5922574a"),
    ("SHA256", "serial"): ("09fb51a476314c73", "26cee9777a2abc87"),
    ("SASC", "unlocked"): ("67f7de9ec5aa195e", "dfc13aaffc6f0eeb"),
    ("SASC", "serial"): ("068e82f93a8e6ab6", "e504d31e8061daf2"),
    ("SIM_SPI", "unlocked"): ("372d70b58c989df2", "51a6d4d42cf821fc"),
    ("SIM_SPI", "serial"): ("6846069e891b1053", "f5f827301f695c55"),
    ("USB_PHY", "unlocked"): ("8d0bfcae07e36740", "0dda17062fe3e5f2"),
    ("USB_PHY", "serial"): ("b4517431c1da1ffe", "eb0fdbd97fa30713"),
    ("I2C_SL", "unlocked"): ("0f5da103f5e8e400", "70483d84e0c8caa9"),
    ("I2C_SL", "serial"): ("1ba5891e4e8015e8", "bdce35a2f0af15fd"),
    ("N_2046", "unlocked"): ("667a0f139fa39d0a", "41b8de5a77a913f1"),
    ("N_2046", "serial"): ("7ff09cf905b967f3", "369137584e567ef0"),
    ("N_1023", "unlocked"): ("667a0f139fa39d0a", "41b8de5a77a913f1"),
    ("N_1023", "serial"): ("7ff09cf905b967f3", "369137584e567ef0"),
}

#: ``analyze_design`` text of MD5 at scale 0.3.
_MD5_REPORT_DIGEST = "aa87e3529e573224"

#: The ``+``-networks of MD5 at scale 0.3, in discovery order.
_MD5_PLUS_NETWORKS = [
    {0, 2, 4, 10, 11, 13, 14, 18, 21, 25, 32, 38, 40, 41, 43, 46, 49, 51, 55,
     59, 61, 62, 63, 65, 68, 70, 78},
    {28, 36},
]


class TestBenchmarkGoldens:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_order_and_statistics(self, name):
        unlocked = load_benchmark(name, scale=0.3)
        serial = AssureLocker("serial", rng=random.Random(0)).lock(
            unlocked, 16).design
        for variant, design in (("unlocked", unlocked), ("serial", serial)):
            graph = build_operation_graph(design.top, design.key_names())
            order = [site.index for site in graph.topological_site_order()]
            assert (_digest(order), _digest(graph.statistics())) == \
                _BENCHMARK_GOLDENS[name, variant], variant

    def test_md5_report_and_plus_networks(self):
        md5 = load_benchmark("MD5", scale=0.3)
        text = analyze_design(md5).to_text()
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == _MD5_REPORT_DIGEST
        assert build_operation_graph(md5.top).connected_operation_network("+") \
            == _MD5_PLUS_NETWORKS
