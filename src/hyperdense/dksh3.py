"""Densest k-subhypergraph heuristics for 3-uniform hypergraphs.

Several incomparable strategies run side by side and the densest output wins:

- a three-layer greedy anchored on the top-degree vertices,
- a case split that scores vertices against the anchor set and also feeds a
  pair-weight graph into a pluggable dense-subgraph subroutine,
- a per-vertex neighborhood search over iteratively pruned link graphs: one
  sweep over the edges lists every vertex's companion pairs, each link graph
  is pruned once, and at every threshold both the built-in greedy selection
  and a plugged subroutine pick from the same pruned graph,
- a trivial edge packing that guarantees at least floor(k/3) covered edges.

Every candidate is padded to exactly k vertices with the smallest unused ids
(padding never uncovers an edge) and its covered count is recomputed from the
instance's incidence index (``Hypergraph.edges_by_last``), which visits only
the edges that end inside the candidate.  One best-of rule picks every
winner: the candidate covering the most edges, the earliest on a tie.  The
neighborhood searches apply it to bare counts and build one solution each.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from hyperdense.core import (
    Hypergraph,
    VertexSolution,
    covered_count,
    induced,
    top_by_degree,
)

DkSSubroutine = Callable[["WeightedGraph", int], Sequence[int]]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive integer edge weights and no self-loops."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (u, v, weight), u < v

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        for u, v, w in self.edges:
            if u >= v:
                raise ValueError(f"edge ({u}, {v}) must be ordered and loop-free")
            if w < 1:
                raise ValueError(f"edge ({u}, {v}) has nonpositive weight {w}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")

    @cached_property
    def adjacency(self) -> dict[int, dict[int, int]]:
        adj: dict[int, dict[int, int]] = {v: {} for v in self.vertices}
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return adj

    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)


def greedy_weighted_dks(graph: WeightedGraph, k: int) -> tuple[int, ...]:
    """Default dense-subgraph subroutine: two greedy stages, at most k vertices.

    Picks floor(k/2) vertices of highest weighted degree, then ceil(k/2)
    vertices with the largest weight into that seed set (overlap allowed).
    Both rankings come from one read of the adjacency: a vertex's pull is
    summed by walking the seed vertices' neighbors.
    """
    if k <= 0 or not graph.vertices:
        return ()
    s_size = k // 2
    t_size = k - s_size
    adj = graph.adjacency
    degree = {u: sum(nbrs.values()) for u, nbrs in adj.items()}
    by_degree = sorted(graph.vertices, key=lambda u: (-degree[u], u))
    seed = set(by_degree[:s_size])
    pull = dict.fromkeys(adj, 0)
    for s in seed:
        for u, w in adj[s].items():
            pull[u] += w
    by_pull = sorted(graph.vertices, key=lambda u: (-pull[u], u))
    return tuple(sorted(seed | set(by_pull[:t_size])))


def _require_three_uniform(h: Hypergraph) -> None:
    if not h.is_uniform(3):
        raise ValueError("instance must be 3-uniform")


def _check_k(h: Hypergraph, k: int) -> None:
    if k < 3 or k > h.n:
        raise ValueError(f"k must be in [3, {h.n}], got {k}")


def _top_scoring(scores: Sequence[int], t: int) -> list[int]:
    order = sorted(range(len(scores)), key=lambda v: (-scores[v], v))
    return order[:t]


def _pad_to_k(n: int, base: Iterable[int], k: int) -> tuple[int, ...]:
    chosen = set(base)
    if len(chosen) > k:
        raise ValueError("candidate exceeds the vertex budget")
    for v in range(n):
        if len(chosen) == k:
            break
        chosen.add(v)
    return tuple(sorted(chosen))


def _padded(h: Hypergraph, base: Iterable[int], k: int, algorithm: str) -> VertexSolution:
    """The candidate ``base`` padded to exactly k vertices, with its cover recounted."""
    return VertexSolution.from_vertices(h, _pad_to_k(h.n, base, k), algorithm)


def dksh_best_of(candidates: Iterable[VertexSolution]) -> VertexSolution:
    """The candidate covering the most edges; the earliest one wins a tie."""
    best: VertexSolution | None = None
    for sol in candidates:
        if best is None or sol.covered_count > best.covered_count:
            best = sol
    if best is None:
        raise ValueError("best-of needs at least one candidate")
    return best


def greedy_three_layer(h: Hypergraph, k: int, k1: Iterable[int]) -> VertexSolution:
    """Three anchored greedy layers of floor(k/3) vertices each.

    Layer two ranks vertices by the number of incident edges meeting the
    anchor layer; layer three by the number of incident edges with one other
    endpoint in each previous layer.  Layers may overlap; the result is padded
    to exactly k vertices.
    """
    _require_three_uniform(h)
    _check_k(h, k)
    anchors = tuple(sorted(set(k1)))
    if len(anchors) != k // 3:
        raise ValueError(f"anchor layer must have {k // 3} vertices")
    k1set = set(anchors)

    deg1 = [0] * h.n
    for e in h.edges:
        if k1set.intersection(e):
            for v in e:
                deg1[v] += 1
    k2 = _top_scoring(deg1, k // 3)
    k2set = set(k2)

    deg2 = [0] * h.n
    for a, b, c in h.edges:
        for u, y, z in ((a, b, c), (b, a, c), (c, a, b)):
            if (y in k2set and z in k1set) or (z in k2set and y in k1set):
                deg2[u] += 1
    k3 = _top_scoring(deg2, k // 3)

    base = k1set | k2set | set(k3)
    return _padded(h, base, k, "greedy-three-layer")


def _link_pairs(h: Hypergraph) -> list[list[tuple[int, int]]]:
    """Every vertex's companion pairs in one sweep: (u, x) per hyperedge {v, u, x}.

    Pairs are listed in edge order, one per incident edge (duplicate edges
    repeat their pair), each ordered u < x.
    """
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
    for a, b, c in h.edges:
        pairs[a].append((b, c))
        pairs[b].append((a, c))
        pairs[c].append((a, b))
    return pairs


def _link_graph(pairs: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Neighborhood graph of a vertex from its companion pairs."""
    adj: dict[int, set[int]] = {}
    for u, x in pairs:
        adj.setdefault(u, set()).add(x)
        adj.setdefault(x, set()).add(u)
    return adj


def _pruned_link_graphs(
    g: dict[int, set[int]], max_threshold: int
) -> Iterator[tuple[int, dict[int, set[int]]]]:
    """Yield (threshold, graph pruned to min degree >= threshold) until empty.

    Pruning is incremental: raising the threshold keeps shrinking the same
    live graph, so the loop ends as soon as everything is deleted.  That live
    graph is ``g`` itself: the function consumes its argument, and every
    yielded graph is ``g`` in its current state.
    """
    for dhat in range(1, max_threshold + 1):
        stack = [u for u in g if len(g[u]) < dhat]
        while stack:
            u = stack.pop()
            if u not in g:
                continue
            for w in g.pop(u):
                nb = g.get(w)
                if nb is not None:
                    nb.discard(u)
                    if len(nb) < dhat:
                        stack.append(w)
        if not g:
            return
        yield dhat, g


def _st_pick(g: dict[int, set[int]], kk: int) -> set[int]:
    """floor(kk/2) vertices of top degree, then as many with most neighbors there."""
    size = kk // 2
    s = sorted(g, key=lambda u: (-len(g[u]), u))[:size]
    sset = set(s)
    t = sorted(g, key=lambda u: (-len(g[u] & sset), u))[:size]
    return sset | set(t)


def _weighted_from_link(
    g: dict[int, set[int]], counts: dict[tuple[int, int], int]
) -> WeightedGraph:
    """Surviving link pairs as a weighted graph; weights carry edge multiplicity."""
    vertices = tuple(sorted(g))
    edges = tuple(
        (u, v, counts[(u, v)]) for u in vertices for v in sorted(g[u]) if u < v
    )
    return WeightedGraph(vertices, edges)


def neighborhood_search(h: Hypergraph, k: int) -> VertexSolution:
    """Search every vertex's pruned link graph for a dense k-set.

    For each vertex v and each degree threshold, greedily selects two halves of
    k-1 companion vertices from the pruned link graph; the candidate covering
    the most hyperedges wins.
    """
    return neighborhood_searches(h, k)[0]


def neighborhood_search_plugged(
    h: Hypergraph, k: int, sub: DkSSubroutine = greedy_weighted_dks
) -> VertexSolution:
    """Neighborhood search with the companion selection delegated to ``sub``."""
    return neighborhood_searches(h, k, sub)[1]


def neighborhood_searches(
    h: Hypergraph, k: int, sub: DkSSubroutine = greedy_weighted_dks
) -> tuple[VertexSolution, VertexSolution]:
    """Both neighborhood searches in one pass: (built-in greedy, plugged ``sub``).

    Each vertex's link graph is pruned once, and at every threshold both
    selectors pick k-1 companions from the same pruned graph.  Each search
    keeps its own best over candidates in order of vertex, then threshold,
    under the best-of rule applied to (covered count, padded k-set) pairs; a
    plugged pick equal to the plain one reuses its count.  Only the two
    winners become solutions.
    """
    _require_three_uniform(h)
    _check_k(h, k)
    plain: tuple[int, tuple[int, ...]] = (-1, ())
    plugged: tuple[int, tuple[int, ...]] = (-1, ())
    for v, pairs in enumerate(_link_pairs(h)):
        if not pairs:
            continue
        counts = Counter(pairs)
        for _, g in _pruned_link_graphs(_link_graph(pairs), k - 1):
            plain_set = _pad_to_k(h.n, {v} | _st_pick(g, k - 1), k)
            plain_count = covered_count(h, plain_set)
            if plain_count > plain[0]:
                plain = (plain_count, plain_set)
            picked = tuple(sub(_weighted_from_link(g, counts), k - 1))
            if len(picked) > k - 1 or not set(picked) <= set(g):
                raise ValueError("subroutine returned an invalid vertex set")
            plugged_set = _pad_to_k(h.n, {v} | set(picked), k)
            plugged_count = (
                plain_count if plugged_set == plain_set else covered_count(h, plugged_set)
            )
            if plugged_count > plugged[0]:
                plugged = (plugged_count, plugged_set)
    if plain[0] < 0:
        plain = plugged = (0, _pad_to_k(h.n, (), k))
    return (
        VertexSolution.from_vertices(h, plain[1], "neighborhood"),
        VertexSolution.from_vertices(h, plugged[1], "neighborhood-plugged"),
    )


def k1_pair_weights(h: Hypergraph, k1: Iterable[int]) -> list[int]:
    """Per-vertex count of incident edges whose other two endpoints lie in k1."""
    k1set = set(k1)
    weights = [0] * h.n
    for a, b, c in h.edges:
        for u, y, z in ((a, b, c), (b, a, c), (c, a, b)):
            if y in k1set and z in k1set:
                weights[u] += 1
    return weights


def k1_weighted_graph(h: Hypergraph, k1: Iterable[int]) -> WeightedGraph:
    """Pair-weight graph outside the anchors: w(u, v) counts edges {u, v, x}, x in k1."""
    k1set = set(k1)
    weights: dict[tuple[int, int], int] = {}
    for e in h.edges:
        inside = [v for v in e if v in k1set]
        outside = [v for v in e if v not in k1set]
        if len(inside) == 1 and len(outside) == 2:
            pair = (outside[0], outside[1]) if outside[0] < outside[1] else (outside[1], outside[0])
            weights[pair] = weights.get(pair, 0) + 1
    vertices = tuple(v for v in range(h.n) if v not in k1set)
    edges = tuple((u, v, w) for (u, v), w in sorted(weights.items()))
    return WeightedGraph(vertices, edges)


def k1_case_split(
    h: Hypergraph, k: int, k1: Iterable[int], sub: DkSSubroutine = greedy_weighted_dks
) -> VertexSolution:
    """Run both anchored recovery routes unconditionally and keep the better.

    Route one ranks every vertex by the number of incident edges with both
    other endpoints in the anchor set and takes the top floor(2k/3).  Route two
    builds the pair-weight graph outside the anchors and asks the pluggable
    dense-subgraph subroutine for floor(2k/3) vertices.  Both candidates gain
    the anchors and are padded to exactly k.
    """
    _require_three_uniform(h)
    _check_k(h, k)
    anchors = set(k1)
    if len(anchors) != k // 3:
        raise ValueError(f"anchor layer must have {k // 3} vertices")
    budget = (2 * k) // 3

    top = _top_scoring(k1_pair_weights(h, anchors), budget)
    cand1 = _padded(h, anchors | set(top), k, "k1-case-split")

    graph = k1_weighted_graph(h, anchors)
    picked = tuple(sub(graph, budget))
    if len(picked) > budget or not set(picked) <= set(graph.vertices):
        raise ValueError("subroutine returned an invalid vertex set")
    cand2 = _padded(h, anchors | set(picked), k, "k1-case-split")
    return dksh_best_of((cand1, cand2))


def trivial_pick(h: Hypergraph, k: int) -> VertexSolution:
    """Greedy edge packing floor: spans edges in index order while they fit in k.

    Guarantees at least min(floor(k/3), m) covered edges, the hard floor every
    combined solver inherits.
    """
    _require_three_uniform(h)
    _check_k(h, k)
    span: set[int] = set()
    for e in h.edges:
        grown = span | set(e)
        if len(grown) <= k:
            span = grown
    return _padded(h, span, k, "trivial")


def dksh_candidates(
    h: Hypergraph, k: int, sub: DkSSubroutine = greedy_weighted_dks
) -> list[VertexSolution]:
    """Every component strategy's solution, each on exactly k vertices.

    The neighborhood searches run on the instance induced away from the
    anchors (their results are lifted back to original ids); they are skipped
    when fewer than k vertices remain there.
    """
    _require_three_uniform(h)
    _check_k(h, k)
    anchors = top_by_degree(h, k // 3)
    out = [
        k1_case_split(h, k, anchors, sub),
        greedy_three_layer(h, k, anchors),
    ]
    rest, lift = induced(h, set(range(h.n)) - set(anchors))
    if 3 <= k <= rest.n:
        for sol in neighborhood_searches(rest, k, sub):
            out.append(_padded(h, {lift[v] for v in sol.vertices}, k, sol.algorithm))
    out.append(trivial_pick(h, k))
    return out


def dksh_3uniform(
    h: Hypergraph, k: int, sub: DkSSubroutine = greedy_weighted_dks
) -> VertexSolution:
    """Best-of combination of all component strategies; never below any of them."""
    return dksh_best_of(dksh_candidates(h, k, sub))
