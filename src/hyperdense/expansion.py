"""Exact minimum-expansion edge subsets by parametric min-cut.

The bipartite incidence view of a hypergraph puts one left node per hyperedge
and one right node per vertex.  For an edge subset E' the neighborhood
Gamma(E') on the right side is exactly the vertex union of E'.  The goal is a
nonempty E' maximizing |E'| / |Gamma(E')|.  The paper finds it with an LP
relaxation and threshold rounding; that route is kept in
``tests/lp_reference.py`` as the reference this one must agree with.

The flow route decides, for an exact rational threshold a/b, whether some
subset beats the threshold: source arcs to edge nodes carry capacity b, vertex
arcs to the sink carry capacity a, and incidence arcs carry an effectively
infinite integer capacity.  A minimum cut below m*b certifies a strictly
better subset (its s-side edge nodes); otherwise no subset beats a/b.  All
arithmetic is integral, so the decision is exact.  Iterating from the current
best ratio converges to the optimum because each accepted subset strictly
increases an exact fraction that takes finitely many values.

Each decision after the first runs only on the edges of the last certificate,
and returns what the decision on all edges would.  Write
g_l(X) = |X| - l*|Gamma(X)| for an edge set X.  A cut whose s-side holds the
edge nodes of X must also hold the vertex nodes of Gamma(X), and with exactly
those it costs b*m - b*g_{a/b}(X).  |Gamma| is submodular, so g_l is
supermodular: g_l(X & Y) + g_l(X | Y) >= g_l(X) + g_l(Y).  Hence the
maximisers of g_l are closed under union and intersection, the smallest one
is unique, and it is the edge part of the smallest minimum-cut s-side, which
``FlowGraph.source_side`` returns whichever maximum flow was found.

Nesting: let C maximise g_l1 and X maximise g_l2, with l2 > l1.  Then

    g_l2(C) - g_l2(C | X)
        = [g_l1(C) - g_l1(C | X)] + (l2 - l1) * (|Gamma(C | X)| - |Gamma(C)|),

where the bracket is >= 0 because C maximises g_l1 and the last factor is
>= 0 because Gamma is monotone.  By supermodularity
g_l2(C & X) >= g_l2(X) + g_l2(C) - g_l2(C | X) >= g_l2(X), so C & X maximises
g_l2 as well.  The smallest maximiser at l2 thus lies inside C, and the
network on C's edges returns the same certificate, or the same "no better
set", as the network on all edges.  Each certificate is the smallest
maximiser at the previous threshold and its ratio is the next threshold, so
this holds at every step, and the decision that ends the loop runs on the
smallest network of the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import json
from typing import Iterable, Iterator

from hyperdense.core import Hypergraph, edge_subhypergraph, union_of
from hyperdense.maxflow import FlowGraph


class EmptyHypergraphError(ValueError):
    """Expansion is undefined for instances without edges."""


@dataclass(frozen=True)
class ExpansionCertificate:
    """A nonempty edge subset with its neighborhood and exact ratio |E'| / |Gamma(E')|.

    ratio_num and ratio_den hold the unreduced set sizes; the ``ratio``
    property reduces them.
    """

    edge_indices: tuple[int, ...]
    neighborhood: tuple[int, ...]
    ratio_num: int
    ratio_den: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.ratio_num, self.ratio_den)

    def to_json(self) -> str:
        payload = {
            "edge_indices": list(self.edge_indices),
            "neighborhood": list(self.neighborhood),
            "ratio_num": self.ratio_num,
            "ratio_den": self.ratio_den,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def expansion_certificate(h: Hypergraph, edge_indices: Iterable[int]) -> ExpansionCertificate:
    idx = tuple(sorted(edge_indices))
    if not idx:
        raise ValueError("certificate needs a nonempty edge subset")
    nb = union_of(h, idx)
    return ExpansionCertificate(idx, nb, len(idx), len(nb))


@dataclass(frozen=True)
class ExpansionNetwork:
    """Parametric flow network for the threshold test at ratio cap_sink / cap_src.

    Node layout: source 0, edge nodes 1..m, vertex nodes m+1..m+n, sink m+n+1.
    cap_inf exceeds m * cap_src, so incidence arcs never appear in a finite cut.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    cap_src: int
    cap_sink: int
    cap_inf: int

    @property
    def m(self) -> int:
        return len(self.edges)


def build_expansion_network(h: Hypergraph, a: int, b: int) -> ExpansionNetwork:
    """Network whose min cut decides whether some subset has ratio above a/b."""
    if h.m == 0:
        raise EmptyHypergraphError("expansion needs at least one edge")
    if a < 1 or b < 1:
        raise ValueError("threshold numerator and denominator must be positive")
    return ExpansionNetwork(h.n, h.edges, cap_src=b, cap_sink=a, cap_inf=h.m * b + 1)


def max_flow_min_cut(net: ExpansionNetwork) -> tuple[int, frozenset[int]]:
    """Exact max-flow value and the s-side node set of one minimum cut.

    Vertex nodes of no edge get no sink arc: nothing reaches them, so the
    flow value and the s-side are the same as with the arc.
    """
    m = len(net.edges)
    sink = m + net.n + 1
    g = FlowGraph(sink + 1)
    add = g.add_edge
    cap_src, cap_inf = net.cap_src, net.cap_inf
    used = [False] * net.n
    for node, edge in enumerate(net.edges, start=1):
        add(0, node, cap_src)
        for v in edge:
            add(node, m + 1 + v, cap_inf)
            used[v] = True
    for v in range(net.n):
        if used[v]:
            add(m + 1 + v, sink, net.cap_sink)
    value = g.max_flow(0, sink)
    return value, g.source_side(0)


def decide_expansion(h: Hypergraph, a: int, b: int) -> ExpansionCertificate | None:
    """Return a subset with ratio strictly above a/b, or None if none exists.

    The returned certificate is the s-side of a minimum cut; the strict
    inequality |E'| * b > a * |Gamma(E')| is re-checked in exact integers.
    """
    net = build_expansion_network(h, a, b)
    value, s_side = max_flow_min_cut(net)
    if value >= h.m * b:
        return None
    chosen = [i for i in range(h.m) if i + 1 in s_side]
    cert = expansion_certificate(h, chosen)
    if cert.ratio_num * b <= a * cert.ratio_den:
        raise RuntimeError("min cut produced an unsound expansion certificate")
    return cert


def _improving_certificates(h: Hypergraph) -> Iterator[ExpansionCertificate]:
    """The full edge set, then each strictly better subset the decisions find.

    Each decision runs on the edges of the last certificate only (see the
    module docstring for why that gives the same sequence as running it on
    all of h).  The last certificate yielded is optimal.
    """
    current = expansion_certificate(h, range(h.m))
    yield current
    scope = h
    while True:
        better = decide_expansion(scope, current.ratio_num, current.ratio_den)
        if better is None:
            return
        index = current.edge_indices
        current = ExpansionCertificate(
            tuple(index[j] for j in better.edge_indices),
            better.neighborhood,
            better.ratio_num,
            better.ratio_den,
        )
        yield current
        scope = edge_subhypergraph(h, current.edge_indices)


def min_expansion_flow(h: Hypergraph) -> ExpansionCertificate:
    """Exact maximum of |E'| / |Gamma(E')| over all nonempty edge subsets.

    Starts from the full edge set and repeatedly asks the decision network for
    a strictly better subset at the current exact ratio until none exists.
    """
    if h.m == 0:
        raise EmptyHypergraphError("expansion needs at least one edge")
    for current in _improving_certificates(h):
        pass
    return current
