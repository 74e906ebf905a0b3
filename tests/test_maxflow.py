from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from hyperdense.maxflow import FlowGraph


def path_graph(num_nodes, caps):
    g = FlowGraph(num_nodes)
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


class TestFlowGraph:
    def test_source_equal_to_sink_rejected(self):
        with pytest.raises(ValueError):
            FlowGraph(2).max_flow(1, 1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowGraph(2).add_edge(0, 1, -1)

    @pytest.mark.parametrize("flow", [-1, 3])
    def test_flow_outside_capacity_rejected(self, flow):
        with pytest.raises(ValueError):
            FlowGraph(2).add_edge(0, 1, 2, flow)

    def test_parallel_and_antiparallel_arcs(self):
        g = FlowGraph(3)
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
        g = FlowGraph(n)
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
        started = FlowGraph(n)
        for (u, v), cap in caps.items():
            started.add_edge(u, v, cap, flow[u].get(v, 0))
        assert started.max_flow(s, t) == 0
        assert started.source_side(s) == side
        assert started.largest_source_side(t) == largest
