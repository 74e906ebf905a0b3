"""Exact minimum-expansion edge subsets by parametric min-cut.

The bipartite incidence view of a hypergraph puts one left node per hyperedge
and one right node per vertex.  For an edge subset E' the neighborhood
Gamma(E') on the right side is exactly the vertex union of E'.  The goal is a
nonempty E' maximizing |E'| / |Gamma(E')| among the subsets of a scope of
edge ids of the instance (all of them by default; below, "the edges" are the
scope's).  The paper finds it with an LP relaxation and threshold rounding;
that route is kept in ``tests/lp_reference.py`` as the reference this one
must agree with.

The flow route decides, for an exact rational threshold a/b, whether some
subset beats the threshold: source arcs to edge nodes carry capacity b, vertex
arcs to the sink carry capacity a, and incidence arcs carry an effectively
infinite integer capacity.  A cut is named by the edges on its s-side, which
also holds their vertices and no others.  A minimum cut below m*b certifies a
strictly better subset (its edges); otherwise no subset beats a/b.  All
arithmetic is integral, so the decision is exact.  Iterating from the current
best ratio converges to the optimum because each accepted subset strictly
increases an exact fraction that takes finitely many values.

Cuts and maximisers.  Write g_l(X) = |X| - l*|Gamma(X)| for an edge set X.
A cut whose s-side holds the edge nodes of X must also hold the vertex nodes
of Gamma(X), and with exactly those it costs b*m - b*g_{a/b}(X).  |Gamma| is
submodular, so g_l is supermodular: g_l(X & Y) + g_l(X | Y) >= g_l(X) + g_l(Y).
Hence the maximisers of g_l are closed under union and intersection, and the
smallest and the largest one are unique.  They are the edges of the
smallest and the largest minimum-cut s-side, which
``maxflow.FlowGraph.source_side`` reads off the residual network whichever
maximum flow was found.  So any feasible flow can start the max-flow, and
any maximum flow will do: ``FlowGraph`` runs Dinic on the bipartite network
itself, from a first-fit flow along s -> edge -> vertex -> t.

The answer.  Let l* be the optimal ratio and D the union of all subsets of
ratio l*.  No subset beats l*, so the maximum of g_l* is 0 and the optimal
subsets are maximisers; so is their union D, which thus has ratio l* and is
the unique largest optimal subset.  It is what ``min_expansion_flow``
returns.  At l = l* the maximisers of g_l are the empty set and the optimal
subsets, so D is the largest maximiser.  For
l < l*, D lies inside every maximiser X of g_l: if Y = X & D were a proper
subset of D, then

    g_l(D) - g_l(Y) = -g_l*(Y) + (l* - l) * (|Gamma(D)| - |Gamma(Y)|) > 0,

because g_l*(Y) <= 0, and if g_l*(Y) = 0 then Y is empty or optimal, so
|Gamma(Y)| < |Gamma(D)| (|Y| < |D| at the same ratio).  Supermodularity gives
g_l(X | D) >= g_l(X) + g_l(D) - g_l(Y) > g_l(X), against X maximising g_l.

Nesting: let C maximise g_l1 and X maximise g_l2, with l2 > l1.  Then

    g_l2(C) - g_l2(C | X)
        = [g_l1(C) - g_l1(C | X)] + (l2 - l1) * (|Gamma(C | X)| - |Gamma(C)|),

where the bracket is >= 0 because C maximises g_l1 and the last factor is
>= 0 because Gamma is monotone.  By supermodularity
g_l2(C & X) >= g_l2(X) + g_l2(C) - g_l2(C | X) >= g_l2(X), so C & X maximises
g_l2 as well.  So the maximisers of g_l2 among subsets of C are exactly the
maximisers at l2 that lie inside C, and the smallest one is among them.
When C beat l1, then l1 < l*, and D lies inside C by the previous paragraph.
So once a certificate C is the smallest maximiser at the threshold it beat,
the next decision runs on C's edges only and still finds the smallest
maximiser at C's ratio, or, when none beats it, the largest maximiser D.

Three exact shortcuts keep the flows few and small:

* Peeling start.  Greedy peeling (Charikar: repeatedly drop a vertex of
  least degree with its edges) meets vertex sets, the whole scope first;
  builtin ``max`` over ``_peel``'s float ratios picks the first best, r >=
  the full set's ratio, and the first decision runs at r.  It is a
  threshold, not a certificate: r is the ratio of an edge set, so if no
  subset beats r, then r = l* and the largest maximiser D is read off the
  same cut after a single flow.  Otherwise the smallest maximiser at r is a
  certificate and nesting continues from it.  Distinct ratios differ by
  >= 1/n^2, so floats order them exactly while n^2 * m < 2^52; past that a
  near-tie picks an earlier set, still a real set's ratio, and the answer
  is D from any such start.
* Core pruning.  Before each flow at a/b, an edge e whose private vertices
  (those of no other live edge) number priv(e) with a * priv(e) > b is
  dropped, repeatedly.  For every live X containing e,
  g(X - e) - g(X) >= -1 + (a/b) * priv(e) > 0, so no maximiser keeps e, and
  the maximisers on the surviving edges are exactly those on the scope.
* The answer off the last cut, as above: the decision that finds no better
  set returns the largest maximiser, which is D on every scope that
  contains D (the whole scope, or a certificate C by the nesting paragraph).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
import json
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Sequence

from hyperdense.core import Hypergraph, union_of
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

    s sends cap_src to each of the m edges, and each of the n vertices sends
    cap_sink to t.  Incidence arcs are unbounded (``maxflow.FlowGraph``
    stores no capacity for them), so they never appear in a finite cut.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    cap_src: int
    cap_sink: int

    @property
    def m(self) -> int:
        return len(self.edges)


def build_expansion_network(
    h: Hypergraph, a: int, b: int, edge_ids: Sequence[int] | None = None
) -> ExpansionNetwork:
    """Network whose min cut decides whether some subset of the edges has ratio above a/b.

    The edges are ``edge_ids`` of h (all of h by default), in that order.
    """
    edges = h.edges if edge_ids is None else tuple(h.edges[i] for i in edge_ids)
    if not edges:
        raise EmptyHypergraphError("expansion needs at least one edge")
    if a < 1 or b < 1:
        raise ValueError("threshold numerator and denominator must be positive")
    return ExpansionNetwork(h.n, edges, cap_src=b, cap_sink=a)


def max_flow_min_cut(net: ExpansionNetwork) -> tuple[int, list[int]]:
    """Exact max-flow value and the ascending positions in ``net.edges`` of the answering cut.

    Below m * cap_src some subset beats the threshold and the cut's edges
    are the smallest maximiser; otherwise they are the largest maximiser
    (see the module docstring).
    """
    g = FlowGraph(net.edges, net.cap_sink, net.cap_src)
    value = g.max_flow()
    return value, g.source_side(largest=value >= net.m * net.cap_src)


def _core(h: Hypergraph, scope: Iterable[int], a: int, b: int) -> list[int]:
    """The scope's edges left after dropping, repeatedly, every edge e with a * priv(e) > b.

    priv(e) counts e's vertices that no other live edge uses; no maximiser of
    |X| - (a/b)|Gamma(X)| keeps such an edge (see the module docstring).  Keeps
    the scope's order.  A pass that finds edges to drop but keeps every live
    edge would loop, so it raises RuntimeError.
    """
    edges = h.edges
    live = list(scope)
    limit = b // a  # a * priv > b  iff  priv > b // a
    while True:
        owner: dict[int, int] = {}  # a live edge's vertex -> its one live edge, or -1
        for i in live:
            for v in edges[i]:
                owner[v] = -1 if v in owner else i
        private = Counter(owner.values())
        dropped = {i for i, count in private.items() if count > limit and i >= 0}
        if not dropped:
            return live
        kept = [i for i in live if i not in dropped]
        if len(kept) == len(live):
            raise RuntimeError("core pass found edges to drop but kept every live edge")
        live = kept


def _threshold_cut(
    h: Hypergraph, scope: Iterable[int], a: int, b: int
) -> tuple[bool, list[int]]:
    """Whether some subset of the scope beats a/b, and a maximiser of |X| - (a/b)|Gamma(X)|.

    The maximiser is the smallest one when some subset beats a/b and the
    largest one otherwise; its ids ascend when the scope's do.
    """
    live = _core(h, scope, a, b)
    if not live:  # then the empty set is the only maximiser
        return False, []
    net = build_expansion_network(h, a, b, live)
    value, positions = max_flow_min_cut(net)
    return value < net.m * b, [live[j] for j in positions]


def decide_expansion(h: Hypergraph, a: int, b: int) -> ExpansionCertificate | None:
    """Return a subset with ratio strictly above a/b, or None if none exists.

    The returned certificate is the s-side of a minimum cut; the strict
    inequality |E'| * b > a * |Gamma(E')| is re-checked in exact integers.
    """
    if h.m == 0:
        raise EmptyHypergraphError("expansion needs at least one edge")
    better, chosen = _threshold_cut(h, range(h.m), a, b)
    if not better:
        return None
    cert = expansion_certificate(h, chosen)
    if cert.ratio_num * b <= a * cert.ratio_den:
        raise RuntimeError("min cut produced an unsound expansion certificate")
    return cert


def _peel(h: Hypergraph, scope: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(|E(S)|, |Gamma(E(S))|) for each vertex set S met while peeling the scope.

    Charikar-style greedy peeling: repeatedly drop a vertex of least degree
    together with its edges.  E(S) is the set of scope edges inside S and
    Gamma(E(S)) the vertices of S of positive degree.  The whole scope comes
    first, then the set left after each dropped vertex while an edge remains.
    """
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i in scope:
        for v in h.edges[i]:
            incident[v].append(i)
    degree = [len(ids) for ids in incident]
    heap = [(d, v) for v, d in enumerate(degree) if d]
    heapify(heap)
    alive = [True] * h.m
    num, den = len(scope), len(heap)
    yield num, den
    while heap:
        d, v = heappop(heap)
        if d != degree[v]:
            continue  # stale entry
        degree[v] = 0
        den -= 1
        for i in incident[v]:
            if not alive[i]:
                continue
            alive[i] = False
            num -= 1
            for u in h.edges[i]:
                if u != v:
                    degree[u] -= 1
                    if degree[u]:
                        heappush(heap, (degree[u], u))
                    else:
                        den -= 1
        if num:
            yield num, den


def _improving_certificates(
    h: Hypergraph, scope: Sequence[int]
) -> Iterator[ExpansionCertificate]:
    """The scope's full edge set, then each strictly better subset the decisions find.

    The scope is a nonempty ascending list of distinct edge ids of h.  The
    first decision runs on it at the peeling ratio; each later one runs on the
    last certificate's edges at its ratio.  A decision that finds no better
    subset yields the largest maximiser if that is new.  The last certificate
    yielded is the scope's largest optimal subset (see the module docstring).
    """
    current = expansion_certificate(h, scope)
    yield current
    a, b = max(_peel(h, scope), key=lambda sizes: sizes[0] / sizes[1])
    while True:
        better, chosen = _threshold_cut(h, scope, a, b)
        if not better and tuple(chosen) == current.edge_indices:
            return
        previous, current = current, expansion_certificate(h, chosen)
        above = current.ratio_num * b - a * current.ratio_den  # sign of ratio - a/b
        if (above <= 0 if better else above != 0) or current.ratio <= previous.ratio:
            raise RuntimeError("min cut produced an unsound expansion certificate")
        yield current
        if not better:
            return
        a, b = current.ratio_num, current.ratio_den
        scope = current.edge_indices


def min_expansion_flow(
    h: Hypergraph, edge_ids: Iterable[int] | None = None
) -> ExpansionCertificate:
    """Exact maximum of |E'| / |Gamma(E')| over the nonempty subsets of the edges.

    The edges are ``edge_ids`` of h (all of h by default); the certificate
    names them by their ids in h.  Returns the largest subset of that ratio.
    Starts from the peeling ratio and repeatedly asks the decision network
    for a strictly better subset until none exists.  Peeling, core pruning
    and the network all follow the ascending ids, so the answer equals the
    one on ``edge_subhypergraph(h, sorted(edge_ids))`` with its ids mapped
    back.
    """
    scope = range(h.m) if edge_ids is None else sorted(edge_ids)
    if not scope:
        raise EmptyHypergraphError("expansion needs at least one edge")
    if scope[0] < 0 or scope[-1] >= h.m:
        raise ValueError(f"edge ids must lie in [0, {h.m})")
    if any(i == j for i, j in zip(scope, scope[1:])):
        raise ValueError("edge ids must be distinct")
    for current in _improving_certificates(h, scope):
        pass
    return current
