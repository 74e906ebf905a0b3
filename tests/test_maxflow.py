"""The threshold-network Dinic in ``hyperdense.maxflow`` and the frozen
general Dinic it replaced.

``ReferenceFlowGraph`` is checked against networkx on arbitrary networks, and
the package's ``FlowGraph`` against it on expansion networks: the value and
the edges of both the smallest and the largest minimum-cut source side, which
do not depend on which maximum flow either engine finds.  ``edge_half`` maps
a frozen node set to its edges and checks that they fix it.
"""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import hyperdense.expansion
from hyperdense import Hypergraph, mpu_sqrt_m
from hyperdense.expansion import build_expansion_network, max_flow_min_cut
from hyperdense.maxflow import FlowGraph
from hyperdense.oracle import generate_uniform
from reference import ReferenceFlowGraph, cap_inf, edge_half, reference_max_flow_min_cut


def path_graph(num_nodes, caps):
    g = ReferenceFlowGraph(num_nodes)
    for u, cap in enumerate(caps):
        g.add_edge(u, u + 1, cap)
    return g


class TestLongPaths:
    # Augmenting paths longer than the interpreter's recursion limit (1000 by
    # default) must not need one stack frame per node.
    def test_path_of_2000_nodes(self):
        caps = [2] * 1999
        caps[1200] = 1
        g = path_graph(2000, caps)
        assert g.max_flow(0, 1999) == 1
        assert g.source_side(0) == frozenset(range(1201))

    def test_saturated_path_keeps_only_the_source(self):
        g = path_graph(2000, [3] * 1999)
        assert g.max_flow(0, 1999) == 3
        assert g.source_side(0) == frozenset({0})

    def test_expansion_chain_of_3000_edges(self):
        # First fit gives edge (i, i + 1) vertex i, so every vertex but the
        # last is full and the size-1 edge's only augmenting path runs back
        # along the whole chain: about 6,000 arcs.
        chain = 3000
        edges = tuple((i, i + 1) for i in range(chain)) + ((0,),)
        net = build_expansion_network(Hypergraph(chain + 1, edges), 1, 1)
        value, positions = max_flow_min_cut(net)
        assert value == chain + 1
        assert (value, positions) == edge_half(net, reference_max_flow_min_cut(net))


class TestFlowGraph:
    def test_source_equal_to_sink_rejected(self):
        with pytest.raises(ValueError):
            ReferenceFlowGraph(2).max_flow(1, 1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReferenceFlowGraph(2).add_edge(0, 1, -1)

    @pytest.mark.parametrize("flow", [-1, 3])
    def test_flow_outside_capacity_rejected(self, flow):
        with pytest.raises(ValueError):
            ReferenceFlowGraph(2).add_edge(0, 1, 2, flow)

    def test_parallel_and_antiparallel_arcs(self):
        g = ReferenceFlowGraph(3)
        g.add_edge(0, 1, 2)
        g.add_edge(0, 1, 3)
        g.add_edge(1, 0, 4)
        g.add_edge(1, 2, 4)
        assert g.max_flow(0, 2) == 4
        assert g.source_side(0) == frozenset({0, 1})


@st.composite
def networks(draw):
    """A small network as (node count, arcs); parallel and antiparallel arcs allowed."""
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 9)), max_size=30))
    return n, [(u, v, cap) for u, v, cap in arcs if u != v]


def residual_reach(n, caps, flow, s):
    """Nodes reachable from s over residual capacity cap(u,v) - f(u,v) + f(v,u)."""
    def residual(u, v):
        return caps.get((u, v), 0) - flow[u].get(v, 0) + flow[v].get(u, 0)

    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v not in seen and residual(u, v) > 0:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


def residual_reach_to(n, caps, flow, t):
    """Nodes that reach t over residual capacity cap(u,v) - f(u,v) + f(v,u)."""
    def residual(u, v):
        return caps.get((u, v), 0) - flow[u].get(v, 0) + flow[v].get(u, 0)

    seen = {t}
    stack = [t]
    while stack:
        v = stack.pop()
        for u in range(n):
            if u not in seen and residual(u, v) > 0:
                seen.add(u)
                stack.append(u)
    return frozenset(seen)


def cut_capacity(caps, side):
    return sum(cap for (u, v), cap in caps.items() if u in side and v not in side)


class TestAgainstNetworkx:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(networks())
    def test_value_and_source_side(self, network):
        nx = pytest.importorskip("networkx")
        n, arcs = network
        s, t = 0, n - 1
        g = ReferenceFlowGraph(n)
        caps = defaultdict(int)
        for u, v, cap in arcs:
            g.add_edge(u, v, cap)
            caps[u, v] += cap
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        for (u, v), cap in caps.items():
            ref.add_edge(u, v, capacity=cap)
        value, flow = nx.maximum_flow(ref, s, t)

        assert g.max_flow(s, t) == value == nx.maximum_flow_value(ref, s, t)
        # Every maximum flow leaves the same residual reach from s: the
        # smallest source side of a minimum cut.
        side = g.source_side(s)
        assert side == residual_reach(n, caps, flow, s)
        assert t not in side
        assert value == cut_capacity(caps, side)
        # Likewise the nodes that cannot reach t: the largest source side.
        largest = g.largest_source_side(t)
        assert largest == frozenset(range(n)) - residual_reach_to(n, caps, flow, t)
        assert s in largest and side <= largest
        assert value == cut_capacity(caps, largest)

        # Started from networkx's maximum flow, nothing is left to add and
        # both sides are the same.
        started = ReferenceFlowGraph(n)
        for (u, v), cap in caps.items():
            started.add_edge(u, v, cap, flow[u].get(v, 0))
        assert started.max_flow(s, t) == 0
        assert started.source_side(s) == side
        assert started.largest_source_side(t) == largest


@st.composite
def expansion_networks(draw):
    """A threshold network with duplicate edges, size-1 edges and vertices in no edge."""
    used = draw(st.integers(1, 9))
    edge = st.lists(st.integers(0, used - 1), min_size=1, max_size=4, unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=9))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    n = used + draw(st.integers(0, 2))
    h = Hypergraph(n, tuple(map(tuple, edges)))
    return build_expansion_network(h, draw(st.integers(1, 6)), draw(st.integers(1, 6)))


def frozen_network(net):
    """The frozen general network of ``net`` at zero flow, with a sink arc per used vertex."""
    m, sink = net.m, net.m + net.n + 1
    g = ReferenceFlowGraph(sink + 1)
    for i, edge in enumerate(net.edges, start=1):
        g.add_edge(0, i, net.cap_src)
        for v in edge:
            g.add_edge(i, m + 1 + v, cap_inf(net))
    for v in sorted({v for edge in net.edges for v in edge}):
        g.add_edge(m + 1 + v, sink, net.cap_sink)
    return g, sink


class TestThresholdNetwork:
    @settings(deadline=None, derandomize=True, max_examples=500)
    @given(expansion_networks())
    def test_matches_the_frozen_cut(self, net):
        general, sink = frozen_network(net)
        g = FlowGraph(net.edges, net.cap_sink, net.cap_src)
        value = g.max_flow()
        assert value == general.max_flow(0, sink)
        for largest, side in ((False, general.source_side(0)),
                              (True, general.largest_source_side(sink))):
            assert (value, g.source_side(largest)) == edge_half(net, (value, side), largest)
        assert max_flow_min_cut(net) == edge_half(net, reference_max_flow_min_cut(net))

    def test_benchmark_networks_match_the_frozen_cut(self, monkeypatch):
        # Every network of the first 36 ops of the seed-1 flow-sqrt-m
        # benchmark workload, generated as perfbench/run.py generates them.
        nets = []

        def recording(net):
            nets.append(net)
            return max_flow_min_cut(net)

        monkeypatch.setattr(hyperdense.expansion, "max_flow_min_cut", recording)
        rng = random.Random("flow-sqrt-m/1")
        for op in range(36):
            h = generate_uniform(500, 500, rng.randrange(2**31), sizes=(2, 4))
            mpu_sqrt_m(h, 490 - 10 * (op % 5))
        assert len(nets) == 746
        for net in nets:
            assert max_flow_min_cut(net) == edge_half(net, reference_max_flow_min_cut(net))
