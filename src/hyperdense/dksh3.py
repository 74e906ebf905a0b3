"""Densest k-subhypergraph heuristics for 3-uniform hypergraphs.

Several incomparable strategies run side by side and the densest output wins:

- a three-layer greedy anchored on the top-degree vertices,
- a case split that scores vertices against the anchor set and also feeds a
  pair-weight graph into a pluggable dense-subgraph subroutine,
- a per-vertex neighborhood search over iteratively pruned link graphs, run
  on the instance itself with the anchors skipped.  One walk
  (``_link_graphs``) sweeps the edges that miss the anchors once and yields
  each vertex's link graph at every pruning threshold, pruned in place; a
  link graph without a cycle is a forest, whose 2-core is empty, so it is
  yielded at threshold 1 only and never pruned.  At each yield the built-in
  greedy selection and a plugged subroutine pick from the same graph,
  reading one degree order and one pull order (the default subroutine builds
  no weighted graph unless the link repeats a pair).
  mpu3's pruned-neighborhood probe (``probe_candidates``) reads the same
  walk and the same pull order,
- a trivial edge packing that guarantees at least floor(k/3) covered edges.

Every candidate is padded to exactly k vertices with the smallest unused ids
(padding never uncovers an edge); the neighborhood searches pad every pick
from one list of the k smallest ids outside the anchors.  Covered counts visit
only the edges that end inside the candidate (``Hypergraph.edges_by_last``);
the neighborhood searches count their own unsorted sets with ``_covered_3u``,
without the input checks.  The anchored scans (both three-layer layers and
both pair-weight routes) read ``Hypergraph.edges_at`` and visit only the edges
that meet the anchors; one count (``_pair_counts``) serves the third layer and
the pair weights, and one check (``_anchor_layer``) the anchors.  One best-of
rule picks every winner: the builtin ``max`` over the covered count, which
returns the earliest of equal candidates.  The neighborhood searches apply it
to bare counts and build one solution each.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Sequence

from hyperdense.core import (
    Hypergraph,
    VertexSolution,
    _check_range,
    _pad_to_k,
    _ranked,
    _top_scoring,
    induced,  # unused; kept bound for perfbench/tracing.py (ROADMAP item 2, step 2a)
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
        if len(vset) != len(self.vertices):
            raise ValueError("vertex ids must be distinct")
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


def greedy_weighted_dks(graph: WeightedGraph, k: int) -> tuple[int, ...]:
    """Default dense-subgraph subroutine: two greedy stages, at most k vertices.

    Picks floor(k/2) vertices of highest weighted degree, then ceil(k/2)
    vertices with the largest weight into that seed set (overlap allowed),
    both ranked by ``_ranked``.  A vertex's pull is summed by walking the seed
    vertices' neighbors.  With every weight 1 the rankings are by degree and
    by seed neighbors, which ``_pull_order`` computes on a plain adjacency for
    ``neighborhood_searches``.
    """
    if k <= 0 or not graph.vertices:
        return ()
    adj = graph.adjacency
    seed = set(_ranked(adj, lambda u: sum(adj[u].values()))[: k // 2])
    pull = dict.fromkeys(adj, 0)
    for s in seed:
        for u, w in adj[s].items():
            pull[u] += w
    return tuple(sorted(seed | set(_ranked(adj, pull.__getitem__)[: k - k // 2])))


def _require_three_uniform(h: Hypergraph) -> None:
    if not h.is_uniform(3):
        raise ValueError("instance must be 3-uniform")


def _check_k(h: Hypergraph, k: int) -> None:
    """Reject ``h`` unless it is 3-uniform, then ``k`` unless it is in [3, h.n]."""
    _require_three_uniform(h)
    _check_range("k", k, 3, h.n)


def _anchor_layer(h: Hypergraph, k: int, k1: Iterable[int]) -> set[int]:
    """The anchor set ``k1`` after ``_check_k``, rejected unless it has floor(k/3) vertices."""
    _check_k(h, k)
    anchors = set(k1)
    if len(anchors) != k // 3:
        raise ValueError(f"anchor layer must have {k // 3} vertices")
    return anchors


def _covered_3u(h: Hypergraph, vs: set[int]) -> int:
    """``len(covered_edges(h, vs))`` for a 3-uniform ``h``, unchecked: a solver's own set."""
    g = h.edges_by_last
    return len([i for v in vs if v in g for i, (a, b, _) in g[v] if a in vs and b in vs])


def _padded(h: Hypergraph, base: Iterable[int], k: int, algorithm: str) -> VertexSolution:
    """The candidate ``base`` padded to exactly k vertices, with its cover recounted."""
    return VertexSolution.from_vertices(h, _pad_to_k(range(h.n), base, k), algorithm)


def dksh_best_of(candidates: Iterable[VertexSolution]) -> VertexSolution:
    """The candidate covering the most edges; the earliest one wins a tie."""
    return max(candidates, key=lambda sol: sol.covered_count)


def _checked_pick(sub: DkSSubroutine, graph: WeightedGraph, budget: int) -> tuple[int, ...]:
    """``sub``'s pick on ``graph``, rejected unless it is at most ``budget`` of its vertices."""
    picked = tuple(sub(graph, budget))
    if len(picked) > budget or not set(picked) <= set(graph.vertices):
        raise ValueError("subroutine returned an invalid vertex set")
    return picked


def _meeting(h: Hypergraph, anchors: Collection[int]) -> set[int]:
    """Ids of the edges that meet ``anchors``, read from ``h.edges_at``, each once.

    One ``update`` per anchor: ``set().union(*generator)`` would build its
    argument tuple by resizing, which fills CPython's tuple free lists.
    """
    at, met = h.edges_at, set()
    for v in anchors:
        met.update(at.get(v, ()))
    return met


def _pair_counts(
    h: Hypergraph, met: Iterable[int], left: Collection[int], right: Collection[int]
) -> list[int]:
    """Per vertex u, the edges {u, y, z} among the ids ``met`` with y in ``left``
    and z in ``right`` or the other way round, each counted once per u."""
    edges, counts = h.edges, [0] * h.n
    for i in met:
        a, b, c = edges[i]
        for u, y, z in ((a, b, c), (b, a, c), (c, a, b)):
            if (y in left and z in right) or (z in left and y in right):
                counts[u] += 1
    return counts


def greedy_three_layer(h: Hypergraph, k: int, k1: Iterable[int]) -> VertexSolution:
    """Three anchored greedy layers of floor(k/3) vertices each.

    Layer two ranks vertices by the number of incident edges meeting the
    anchor layer; layer three by the number of incident edges with one other
    endpoint in each previous layer (``_pair_counts``).  Every edge either
    layer counts meets the anchors, so both visit only the anchors' edges
    (``_meeting``).  Layers may overlap; the result is padded to exactly k.
    """
    k1set = _anchor_layer(h, k, k1)
    met, edges = _meeting(h, k1set), h.edges
    deg1 = [0] * h.n
    for i in met:
        for v in edges[i]:
            deg1[v] += 1
    k2set = set(_top_scoring(deg1, k // 3))
    k3 = _top_scoring(_pair_counts(h, met, k2set, k1set), k // 3)
    return _padded(h, k1set | k2set | set(k3), k, "greedy-three-layer")


def _has_cycle(pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether the graph on ``pairs`` has a cycle; a repeated pair counts as one.

    Union-find with path halving: ``up`` maps a vertex to its parent, and a
    root has no entry.
    """
    up: dict[int, int] = {}
    for u, x in pairs:
        while u in up:
            up[u] = up.get(up[u], up[u])
            u = up[u]
        while x in up:
            up[x] = up.get(up[x], up[x])
            x = up[x]
        if u == x:
            return True
        up[u] = x
    return False


def _link_graphs(
    h: Hypergraph, max_threshold: int, skip: Collection[int] = ()
) -> Iterator[tuple[int, list[tuple[int, int]], dict[int, set[int]]]]:
    """Yield (v, pairs, g) per vertex and pruning threshold 1..max_threshold.

    One sweep over the edges that miss ``skip`` lists v's companion pairs,
    (u, x) with u < x per incident edge {v, u, x} in edge order (a duplicate
    edge repeats its pair).  g is v's link graph, pruned in place to minimum
    degree >= the threshold, and is yielded while nonempty: each yield is
    the same dict, shrunk.  Threshold 1 yields g as built, since every vertex
    of g has a neighbor, so its scan is skipped.  A forest's 2-core is empty,
    so a g without a cycle (``_has_cycle``) is yielded at threshold 1 only
    and never pruned; the check runs only when max_threshold >= 2.  Vertices
    without pairs (skipped ones among them) yield nothing.  Below threshold 1
    nothing is yielded and no edge is read.
    """
    if max_threshold < 1:
        return
    link_pairs: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
    for a, b, c in h.edges:
        if skip and (a in skip or b in skip or c in skip):
            continue
        link_pairs[a].append((b, c))
        link_pairs[b].append((a, c))
        link_pairs[c].append((a, b))
    for v, pairs in enumerate(link_pairs):
        if not pairs:
            continue
        g: dict[int, set[int]] = {}
        for u, x in pairs:
            g.setdefault(u, set()).add(x)
            g.setdefault(x, set()).add(u)
        yield v, pairs, g
        if max_threshold < 2 or not _has_cycle(pairs):
            continue
        for dhat in range(2, max_threshold + 1):
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
                break
            yield v, pairs, g


def _pull_order(g: dict[int, set[int]], size: int) -> tuple[list[int], list[int]]:
    """(seed, by_pull): the ``size`` top-degree vertices, then every vertex by pull.

    A vertex's pull is its number of neighbors in the seed, summed by walking
    the seed vertices' neighbor sets (the graph is symmetric).  Both orders
    come from ``_ranked``.
    """
    seed = _ranked(g, lambda u: len(g[u]))[:size]
    pull = dict.fromkeys(g, 0)
    for s in seed:
        for u in g[s]:
            pull[u] += 1
    return seed, _ranked(g, pull.__getitem__)


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
    h: Hypergraph,
    k: int,
    sub: DkSSubroutine = greedy_weighted_dks,
    skip: Collection[int] = (),
) -> tuple[VertexSolution, VertexSolution]:
    """Both neighborhood searches in one pass: (built-in greedy, plugged ``sub``).

    The search runs on ``h`` with the vertices in ``skip`` removed: edges that
    meet them are left out of every link graph, and candidates are padded
    with the smallest ids outside ``skip``.  One pass over the walk
    (``_link_graphs``) visits every vertex's link graph at each pruning
    threshold (a link graph without a cycle at threshold 1 only), and at each
    both selectors pick k-1 companions from the same pruned graph.  Every
    pick lies outside ``skip``, so both are padded from one list, built once:
    the k smallest ids outside ``skip``.  Each search lists its (covered count,
    padded k-set) pairs in order of vertex, then threshold, for the best-of
    rule; a set stays unsorted, and a plugged one equal to the plain one reuses
    its count.  Only the two winners are sorted, as solutions.

    Both picks read one degree order and one pull order (``_pull_order``).
    When ``sub`` is ``greedy_weighted_dks`` and the vertex's pairs are
    distinct, every weight is 1, so that subroutine's pick is the seed plus
    the first ceil((k-1)/2) vertices by pull, and it is read off the same
    orders without building a ``WeightedGraph``.  Any other ``sub``, and any
    vertex with a repeated pair (a duplicate edge), calls ``sub`` on the
    weighted link graph and checks its answer.
    """
    _check_k(h, k)
    skip = frozenset(skip)
    if k > h.n - len(skip):
        raise ValueError(f"k must be at most {h.n - len(skip)} outside the skipped vertices")
    kk = k - 1
    half = kk // 2
    pads = [u for u in range(h.n) if u not in skip][:k]
    plain: list[tuple[int, tuple[int, ...]]] = []
    plugged: list[tuple[int, tuple[int, ...]]] = []
    for v, pairs, g in _link_graphs(h, kk, skip):
        seed, by_pull = _pull_order(g, half)
        pick = {v, *seed, *by_pull[:half]}
        plain_set = _pad_to_k(pads, pick, k)
        count = _covered_3u(h, plain_set)
        plain.append((count, tuple(plain_set)))
        if sub is greedy_weighted_dks and len(set(pairs)) == len(pairs):
            pick.update(by_pull[half : kk - half])
        else:
            pick = {v, *_checked_pick(sub, _weighted_from_link(g, Counter(pairs)), kk)}
        plugged_set = _pad_to_k(pads, pick, k)
        if plugged_set != plain_set:
            count = _covered_3u(h, plugged_set)
        plugged.append((count, tuple(plugged_set)))
    empty = (0, tuple(pads))
    return tuple(
        VertexSolution.from_vertices(h, max(found, key=lambda c: c[0], default=empty)[1], tag)
        for found, tag in ((plain, "neighborhood"), (plugged, "neighborhood-plugged"))
    )


def probe_candidates(
    h: Hypergraph, probe_size: int, skip: Collection[int]
) -> Iterator[set[int]]:
    """Pruned link-graph candidates at the given probe size, outside ``skip``.

    One pass over the walk that ``neighborhood_searches`` reads
    (``_link_graphs``): edges that meet ``skip`` are left out, so no candidate
    holds a skipped vertex.  For each vertex and degree threshold, yields the
    vertex plus either the whole pruned graph (when it has fewer than
    probe_size vertices) or the seed and the first as many by pull from
    ``_pull_order``: floor((probe_size - 1)/2) companions in each stage.
    """
    half = (probe_size - 1) // 2
    for v, _, g in _link_graphs(h, probe_size - 1, skip):
        if len(g) < probe_size:
            yield {v, *g}
        else:
            seed, by_pull = _pull_order(g, half)
            yield {v, *seed, *by_pull[:half]}


def k1_pair_weights(h: Hypergraph, k1: Iterable[int]) -> list[int]:
    """Per-vertex count of incident edges whose other two endpoints lie in k1.

    ``_pair_counts`` with k1 as both sets, over the edges that meet k1.
    """
    k1set = set(k1)
    return _pair_counts(h, _meeting(h, k1set), k1set, k1set)


def k1_weighted_graph(h: Hypergraph, k1: Iterable[int]) -> WeightedGraph:
    """Pair-weight graph outside the anchors: w(u, v) counts edges {u, v, x}, x in k1.

    Only the edges that meet k1 are visited, and edges are sorted, so u < v;
    the pairs are listed sorted, so the visiting order does not show.
    """
    k1set, edges = set(k1), h.edges
    weights: Counter[tuple[int, int]] = Counter()
    for i in _meeting(h, k1set):
        outside = [v for v in edges[i] if v not in k1set]
        if len(outside) == 2 == len(edges[i]) - 1:
            weights[outside[0], outside[1]] += 1
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
    the anchors (checked by ``_anchor_layer``) and are padded to exactly k.
    """
    anchors = _anchor_layer(h, k, k1)
    budget = (2 * k) // 3

    top = _top_scoring(k1_pair_weights(h, anchors), budget)
    cand1 = _padded(h, anchors | set(top), k, "k1-case-split")

    picked = _checked_pick(sub, k1_weighted_graph(h, anchors), budget)
    cand2 = _padded(h, anchors | set(picked), k, "k1-case-split")
    return dksh_best_of((cand1, cand2))


def trivial_pick(h: Hypergraph, k: int) -> VertexSolution:
    """Greedy edge packing floor: spans edges in index order while they fit in k.

    Guarantees at least min(floor(k/3), m) covered edges, the hard floor every
    combined solver inherits.
    """
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

    The neighborhood searches run on ``h`` with the anchors skipped (see
    ``neighborhood_searches``), so no induced copy is built; they do not run
    when fewer than k vertices lie outside the anchors.
    """
    _check_k(h, k)
    anchors = top_by_degree(h, k // 3)
    out = [
        k1_case_split(h, k, anchors, sub),
        greedy_three_layer(h, k, anchors),
    ]
    if k <= h.n - len(anchors):
        out.extend(neighborhood_searches(h, k, sub, anchors))
    out.append(trivial_pick(h, k))
    return out


def dksh_3uniform(
    h: Hypergraph, k: int, sub: DkSSubroutine = greedy_weighted_dks
) -> VertexSolution:
    """Best-of combination of all component strategies; never below any of them."""
    return dksh_best_of(dksh_candidates(h, k, sub))
