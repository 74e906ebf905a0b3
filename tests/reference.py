"""Frozen references: one exact copy of each solver stage a speed change replaced.

Each function here is the body of a stage before a change made it faster,
copied so that it cannot change along with the code it checks.  The tests
compare the package against these functions on seeded instances.  A new
speed change freezes its parent here, one copy per stage, and
``tests/test_surface.py`` pins that no test file defines its own.  The
paper's LP route is the reference of acceptance criterion 2 and lives in
``lp_reference.py``.

A reference calls package code only where that code is not the stage under
test: the data types, ``induced``, and the parts a stage composes (the mpu3
round's candidate builders, the expansion network's capacities and
``mpu_sqrt_m``).  ``tests/test_surface.py`` lists every package name this
module imports.  The package leaves incidence arcs unbounded; the frozen
general network gives them ``cap_inf``.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush

from hyperdense import (
    EdgeSolution,
    Hypergraph,
    VertexSolution,
    WeightedGraph,
    greedy_weighted_dks,
    greedy_weighted_spes,
    mpu_sqrt_m,
)
from hyperdense.core import _top_scoring, covered_edges, degrees, induced, top_by_degree
from hyperdense.dksh3 import (
    _padded,
    greedy_three_layer,
    k1_pair_weights,
    k1_weighted_graph,
)
from hyperdense.expansion import build_expansion_network, expansion_certificate
from hyperdense.mpu3 import MpU3Params, _ceil_sqrt_fraction
from hyperdense.mpu_general import StalledGeneratorError


# -- Covers and padding: the full edge-mask scan the incidence index replaced --


@lru_cache(maxsize=4)
def _edge_masks(h):
    return tuple(sum(1 << v for v in e) for e in h.edges)


def reference_covered_edges(h, vertices):
    """Ids of the edges inside ``vertices``, from a scan of every edge's mask."""
    vm = 0
    for v in vertices:
        vm |= 1 << v
    return tuple(i for i, em in enumerate(_edge_masks(h)) if em & vm == em)


def reference_pad_to_k(n, base, k):
    chosen = set(base)
    if len(chosen) > k:
        raise ValueError("candidate exceeds the vertex budget")
    for v in range(n):
        if len(chosen) == k:
            break
        chosen.add(v)
    return tuple(sorted(chosen))


# -- dksh3: the entry checks before ``_check_k`` ran the uniformity check --


def reference_require_three_uniform(h):
    if not h.is_uniform(3):
        raise ValueError("instance must be 3-uniform")


def reference_check_k(h, k):
    if not 3 <= k <= h.n:
        raise ValueError(f"k must be in [3, {h.n}], got {k}")


# -- dksh3: link graphs, selectors, neighborhood searches and the probe --
# The bodies before one link-pair sweep, one pull order and count-first
# scoring served the searches, and before the anchors were skipped in place.


# The sweep, link-graph build and pruning before one generator walked them.


def reference_link_pairs(h, skip=()):
    """Every vertex's companion pairs in one sweep: (u, x) per hyperedge {v, u, x}.

    Pairs are listed in edge order, one per incident edge (duplicate edges
    repeat their pair), each ordered u < x.  Edges that meet ``skip`` are left
    out, so a skipped vertex has no pairs and is in no other vertex's pairs.
    """
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
    for a, b, c in h.edges:
        if skip and (a in skip or b in skip or c in skip):
            continue
        pairs[a].append((b, c))
        pairs[b].append((a, c))
        pairs[c].append((a, b))
    return pairs


def reference_link_graph(pairs):
    """Neighborhood graph of a vertex from its companion pairs."""
    adj: dict[int, set[int]] = {}
    for u, x in pairs:
        adj.setdefault(u, set()).add(x)
        adj.setdefault(x, set()).add(u)
    return adj


def reference_pruned_link_graphs(g, max_threshold):
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


def reference_link(h, v):
    """Vertex v's link graph and its pair counts, from a scan of all edges."""
    adj, counts = {}, {}
    for e in h.edges:
        if v in e:
            u, x = (w for w in e if w != v)
            adj.setdefault(u, set()).add(x)
            adj.setdefault(x, set()).add(u)
            counts[(u, x)] = counts.get((u, x), 0) + 1
    return adj, counts


def reference_st_pick(g, kk):
    size = kk // 2
    s = sorted(g, key=lambda u: (-len(g[u]), u))[:size]
    sset = set(s)
    t = sorted(g, key=lambda u: (-len(g[u] & sset), u))[:size]
    return sset | set(t)


def reference_weighted_from_link(g, counts):
    vertices = tuple(sorted(g))
    edges = tuple(
        (u, v, counts[(u, v)]) for u in vertices for v in sorted(g[u]) if u < v
    )
    return WeightedGraph(vertices, edges)


def reference_greedy_weighted_dks(graph, k):
    if k <= 0 or not graph.vertices:
        return ()
    adj = graph.adjacency
    s_size = k // 2
    by_degree = sorted(graph.vertices, key=lambda u: (-sum(adj[u].values()), u))
    seed = set(by_degree[:s_size])

    def weight_into(u):
        return sum(w for v, w in adj[u].items() if v in seed)

    by_pull = sorted(graph.vertices, key=lambda u: (-weight_into(u), u))
    return tuple(sorted(seed | set(by_pull[: k - s_size])))


def reference_neighborhood_searches(h, k, sub=greedy_weighted_dks, skip=()):
    """Both neighborhood searches outside ``skip``: (plain, plugged) solutions.

    They run on the induced copy without ``skip``.  Every vertex's link graph
    and pair counts come from a scan of all edges, and each threshold of its
    pruned link graph proposes the two-stage pick and ``sub``'s pick on the
    weighted link graph (``sub`` is always called).  A proposal is padded in
    the copy, lifted back to ids of h and scored by the mask scan; the first
    best proposal of each search wins.
    """
    reference_require_three_uniform(h)
    skip = set(skip)
    if not 3 <= k <= h.n - len(skip):
        raise ValueError(f"k must be in [3, {h.n - len(skip)}] outside the skipped vertices")
    rest, lift = induced(h, set(range(h.n)) - skip)
    best = {"neighborhood": None, "neighborhood-plugged": None}

    def offer(proposal, tag):
        vertices = tuple(lift[u] for u in reference_pad_to_k(rest.n, proposal, k))
        covered = reference_covered_edges(h, vertices)
        if best[tag] is None or len(covered) > best[tag].covered_count:
            best[tag] = VertexSolution(vertices, covered, tag)

    for v in range(rest.n):
        adj, counts = reference_link(rest, v)
        if not adj:
            continue
        for _, g in reference_pruned_link_graphs(adj, k - 1):
            offer({v} | reference_st_pick(g, k - 1), "neighborhood")
            picked = tuple(sub(reference_weighted_from_link(g, counts), k - 1))
            if len(picked) > k - 1 or not set(picked) <= set(g):
                raise ValueError("subroutine returned an invalid vertex set")
            offer({v} | set(picked), "neighborhood-plugged")
    for tag, sol in best.items():
        if sol is None:
            offer(set(), tag)
    return best["neighborhood"], best["neighborhood-plugged"]


def reference_probe_candidates(h, probe_size, skip=()):
    """The probe's candidates outside ``skip``, from the induced copy lifted back."""
    rest, lift = induced(h, set(range(h.n)) - set(skip))
    for v in range(rest.n):
        adj, _ = reference_link(rest, v)
        if not adj:
            continue
        for _, g in reference_pruned_link_graphs(adj, probe_size - 1):
            if len(g) < probe_size:
                picked = set(g)
            else:
                picked = reference_st_pick(g, probe_size - 1)
            yield {lift[u] for u in {v} | picked}


def reference_dksh_best_of(candidates):
    best = None
    for sol in candidates:
        if best is None or sol.covered_count > best.covered_count:
            best = sol
    if best is None:
        raise ValueError("best-of needs at least one candidate")
    return best


# -- Anchored scans: the full edge sweeps the per-vertex incidence index replaced --
# Each visits every edge of h; the package reads only the edges that meet the
# anchors, from ``Hypergraph.edges_at``.


def reference_degrees(h):
    """Per-vertex edge counts."""
    counts = [0] * h.n
    for e in h.edges:
        for v in e:
            counts[v] += 1
    return tuple(counts)


def reference_greedy_three_layer(h, k, k1):
    reference_require_three_uniform(h)
    reference_check_k(h, k)
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


def reference_k1_pair_weights(h, k1):
    """Per-vertex count of incident edges whose other two endpoints lie in k1."""
    k1set = set(k1)
    weights = [0] * h.n
    for a, b, c in h.edges:
        for u, y, z in ((a, b, c), (b, a, c), (c, a, b)):
            if y in k1set and z in k1set:
                weights[u] += 1
    return weights


def reference_k1_weighted_graph(h, k1):
    """Pair-weight graph outside the anchors: w(u, v) counts edges {u, v, x}, x in k1."""
    k1set = set(k1)
    weights = {}
    for e in h.edges:
        inside = [v for v in e if v in k1set]
        outside = [v for v in e if v not in k1set]
        if len(inside) == 1 and len(outside) == 2:
            pair = (outside[0], outside[1]) if outside[0] < outside[1] else (outside[1], outside[0])
            weights[pair] = weights.get(pair, 0) + 1
    vertices = tuple(v for v in range(h.n) if v not in k1set)
    edges = tuple((u, v, w) for (u, v), w in sorted(weights.items()))
    return WeightedGraph(vertices, edges)


# -- mpu3: the cover round and the guess loop --
# The round before the three-layer short-cut came first: it ranked the
# anchors and built the pair-weight candidates first, and every round, the
# first included, covered a re-validated copy of its residual.  The probe ran
# on an induced copy without the anchors.  The single-edge candidate, the
# round's density pick and the final best-of are the hand-written first-best
# loops that preceded the builtin min, so the reference shares no best-of
# code with the module.  The guess loop runs every k, without reuse, with
# delta from ``top_by_degree``.


def reference_greedy_weighted_spes(graph, target_weight):
    """Each round recomputes every outside vertex's weight into the picked set."""
    if target_weight <= 0 or not graph.edges:
        return ()
    adj = graph.adjacency
    u0, v0, w0 = min(graph.edges, key=lambda e: (-e[2], e[0], e[1]))
    picked = {u0, v0}
    got = w0
    while got < target_weight:
        best_u, best_gain = -1, 0
        for u in sorted(graph.vertices):
            if u in picked:
                continue
            gain = sum(w for v, w in adj[u].items() if v in picked)
            if gain > best_gain:
                best_u, best_gain = u, gain
        if best_gain <= 0:
            break
        picked.add(best_u)
        got += best_gain
    return tuple(sorted(picked))


def reference_densest_single_edge(h):
    counts = Counter(h.edges)
    best_edge, best_count = None, 0
    for e, c in sorted(counts.items()):
        if c > best_count:
            best_edge, best_count = e, c
    assert best_edge is not None
    return best_edge


def reference_mpu_best_of(h, p, candidates):
    if not candidates:
        raise ValueError("need at least one candidate")
    for sol in candidates:
        if len(sol.edge_indices) != p:
            raise ValueError(
                f"candidate {sol.algorithm!r} has {len(sol.edge_indices)} edges, expected {p}"
            )
    best = candidates[0]
    for sol in candidates[1:]:
        if sol.union_size < best.union_size:
            best = sol
    return best


def reference_candidate_generator_3u(residual, params):
    if residual.m == 0:
        raise ValueError("generator needs a nonempty residual")
    reference_require_three_uniform(residual)
    n = residual.n
    anchors = top_by_degree(residual, params.anchor_size)
    anchor_set = set(anchors)
    candidates = []

    pair_counts = k1_pair_weights(residual, anchors)
    top = _top_scoring(pair_counts, params.k)
    candidates.append(("anchored-pairs", anchor_set | set(top)))

    graph = k1_weighted_graph(residual, anchors)
    picked = tuple(greedy_weighted_spes(graph, params.p))
    candidates.append(("anchored-spes", anchor_set | set(picked)))

    budget = params.anchor_size
    if 3 <= budget <= n:
        layer_anchors = top_by_degree(residual, budget // 3)
        layered = greedy_three_layer(residual, budget, layer_anchors)
        if layered.covered_count >= params.p:
            return VertexSolution.from_vertices(residual, layered.vertices, "three-layer")
        candidates.append(("three-layer", set(layered.vertices)))

    if params.khat >= 2:
        for cand in reference_probe_candidates(residual, params.khat, anchor_set):
            candidates.append(("pruned-neighborhood", cand))

    candidates.append(("single-edge", set(reference_densest_single_edge(residual))))

    best = None
    for tag, verts in candidates:
        if not verts:
            continue
        num = len(covered_edges(residual, verts))
        den = len(verts)
        if best is None or num * best[3] > best[2] * den:
            best = (tag, verts, num, den)
    return VertexSolution.from_vertices(residual, best[1], best[0])


def reference_iterative_cover(h, p, k, generator):
    chosen = []
    residual = list(range(h.m))
    while len(chosen) < p:
        sub = Hypergraph(h.n, tuple(h.edges[i] for i in residual))
        picked = generator(sub, k)
        found = [residual[j] for j in covered_edges(sub, picked.vertices)]
        if not found:
            raise StalledGeneratorError("generator covered no edge on a nonempty residual")
        chosen.extend(found)
        taken = set(found)
        residual = [i for i in residual if i not in taken]
    return EdgeSolution.from_indices(h, chosen[:p], "iterative-cover")


def reference_mpu_3uniform(h, p, trace, generator=reference_candidate_generator_3u):
    """The guess loop without reuse: parameters from the top-degree anchors and
    one reference cover for every k, then the best-of with mpu_sqrt_m.

    anchor_size keeps the float ceil(k * n^0.4): it is exact on the n these
    instances use, none of which is a fifth power from 243 up.
    """
    best = None
    for k in range(1, h.n + 1):
        anchor_size = min(math.ceil(k * h.n**0.4), h.n)
        deg = degrees(h)
        delta = min((deg[v] for v in top_by_degree(h, anchor_size)), default=0)
        khat = max(1, _ceil_sqrt_fraction(k**4 * delta, 9 * p))
        params = MpU3Params(k, p, h.n, anchor_size, delta, khat)
        try:
            sol = reference_iterative_cover(
                h, p, anchor_size, lambda residual, _k: generator(residual, params)
            )
        except StalledGeneratorError:
            continue
        trace.append({"k": k, "khat": khat, "delta": delta, "union": sol.union_size})
        if best is None or sol.union_size < best.union_size:
            best = sol
    candidates = []
    if best is not None:
        candidates.append(EdgeSolution.from_indices(h, best.edge_indices, "three-uniform"))
    candidates.append(mpu_sqrt_m(h, p))
    return reference_mpu_best_of(h, p, candidates)


# -- maxflow: the general arc-list Dinic the bipartite engine replaced --


class ReferenceFlowGraph:
    """Flat-array flow network.  Arcs are mutable; build one per computation.

    Arc ``a`` runs into ``head[a]`` with residual capacity ``cap[a]``; arcs are
    added in pairs, so the reverse of arc ``a`` is ``a ^ 1`` and its tail is
    ``head[a ^ 1]``.  ``arcs[u]`` lists the ids of the arcs leaving node u.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.head: list[int] = []
        self.cap: list[int] = []
        self.arcs: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: int, flow: int = 0) -> None:
        """Add an arc u -> v of capacity ``cap`` that already carries ``flow`` units."""
        if cap < 0:
            raise ValueError("capacity must be nonnegative")
        if not 0 <= flow <= cap:
            raise ValueError("flow must lie in [0, capacity]")
        a = len(self.head)
        self.head += (v, u)
        self.cap += (cap - flow, flow)
        self.arcs[u].append(a)
        self.arcs[v].append(a + 1)

    def _levels(self, s: int, t: int) -> list[int] | None:
        """BFS distances from s over arcs with residual capacity, or None if t is cut off.

        The search stops at t's distance, and every other node at that
        distance is marked unreached: no s-t path of the level graph runs
        through it.
        """
        head, cap, arcs = self.head, self.cap, self.arcs
        level = [-1] * self.num_nodes
        level[s] = 0
        queue = [s]
        for u in queue:
            if level[u] == level[t]:
                break
            down = level[u] + 1
            for a in arcs[u]:
                if cap[a] and level[head[a]] < 0:
                    level[head[a]] = down
                    queue.append(head[a])
        last = level[t]
        if last < 0:
            return None
        for v in reversed(queue):
            if level[v] != last:
                break
            level[v] = -1
        level[t] = last
        return level

    def max_flow(self, s: int, t: int) -> int:
        """Augment the current flow to a maximum s-t flow; return the value added.

        The current flow is the one ``add_edge`` put on the arcs: zero unless
        the caller gave a feasible starting flow.  The residual network stays
        in place for the cut queries.

        Each phase finds a blocking flow in the level graph with an iterative
        depth-first search: ``path`` holds the arcs from s to the current node
        and ``it[u]`` is u's current-arc pointer, so no arc is rescanned within
        a phase and path length is bounded only by the node count.
        """
        if s == t:
            raise ValueError("source and sink must differ")
        head, cap, arcs = self.head, self.cap, self.arcs
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.num_nodes
            path: list[int] = []
            u = s
            while True:
                out = arcs[u]
                i = it[u]
                end = len(out)
                down = level[u] + 1
                while i < end:
                    a = out[i]
                    if cap[a] and level[head[a]] == down:
                        break
                    i += 1
                else:
                    it[u] = end
                    if u == s:
                        break
                    # Dead end: retreat and skip the arc that led here.
                    u = head[path.pop() ^ 1]
                    it[u] += 1
                    continue
                it[u] = i
                path.append(a)
                u = head[a]
                if u != t:
                    continue
                pushed = min([cap[a] for a in path])
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                flow += pushed
                # Resume from the tail of the first saturated arc.
                for i, a in enumerate(path):
                    if not cap[a]:
                        del path[i:]
                        u = head[a ^ 1]
                        break

    def source_side(self, s: int) -> frozenset[int]:
        """Nodes reachable from s in the residual network: the s-side of a min cut.

        After a maximum flow this is the smallest source side over all minimum
        cuts, so it does not depend on which maximum flow was found.
        """
        head, cap, arcs = self.head, self.cap, self.arcs
        seen = {s}
        queue = [s]
        for u in queue:
            for a in arcs[u]:
                if cap[a] and head[a] not in seen:
                    seen.add(head[a])
                    queue.append(head[a])
        return frozenset(seen)

    def largest_source_side(self, t: int) -> frozenset[int]:
        """Nodes that cannot reach t in the residual network: the s-side of a min cut.

        After a maximum flow this is the largest source side over all minimum
        cuts, so, like ``source_side``, it does not depend on which maximum
        flow was found.
        """
        head, cap, arcs = self.head, self.cap, self.arcs
        reach = {t}
        queue = [t]
        for w in queue:
            for a in arcs[w]:
                # a runs w -> u; its reverse a ^ 1 is the residual arc u -> w.
                u = head[a]
                if cap[a ^ 1] and u not in reach:
                    reach.add(u)
                    queue.append(u)
        return frozenset(range(self.num_nodes)).difference(reach)


def cap_inf(net):
    """The incidence arcs' capacity in the frozen general network: above
    m * cap_src, so no finite cut holds one."""
    return net.m * net.cap_src + 1


def reference_max_flow_min_cut(net):
    """Exact max-flow value and the s-side node set of the minimum cut that answers the test.

    Below m * cap_src some subset beats the threshold and the s-side is the
    smallest one, whose edge nodes are the smallest maximiser; otherwise it
    is the largest one, whose edge nodes are the largest maximiser (see the
    ``hyperdense.expansion`` docstring).  A first-fit flow along s -> edge ->
    vertex -> t starts the max-flow.  Vertex nodes of no edge get no sink arc: nothing reaches
    them, so the flow value and the edge part of either s-side are the same
    as with the arc.
    """
    m = len(net.edges)
    sink = m + net.n + 1
    g = ReferenceFlowGraph(sink + 1)
    add = g.add_edge
    cap_src, cap_sink, inf = net.cap_src, net.cap_sink, cap_inf(net)
    used = [False] * net.n
    room = [cap_sink] * net.n  # sink capacity the first-fit flow leaves free
    value = 0
    for node, edge in enumerate(net.edges, start=1):
        left = cap_src
        for v in edge:
            push = min(left, room[v])
            room[v] -= push
            left -= push
            add(node, m + 1 + v, inf, push)
            used[v] = True
        add(0, node, cap_src, cap_src - left)
        value += cap_src - left
    for v in range(net.n):
        if used[v]:
            add(m + 1 + v, sink, cap_sink, cap_sink - room[v])
    value += g.max_flow(0, sink)
    if value < m * cap_src:
        return value, g.source_side(0)
    return value, g.largest_source_side(sink)


def edge_half(net, cut, largest=None):
    """A frozen (value, s-side node set) of ``net`` as (value, the ascending
    positions in ``net.edges`` of its edge nodes), the package's form.

    Checks that the edges fix the cut: the set holds s and not t, and its
    vertex nodes are exactly its edges' vertices, plus, on the largest side
    only, the vertices of no edge.  ``largest`` says which side the set is;
    by default the one ``reference_max_flow_min_cut`` returns at this value.
    """
    value, side = cut
    m = net.m
    if largest is None:
        largest = value >= m * net.cap_src
    assert 0 in side and m + net.n + 1 not in side
    positions = [i for i in range(m) if 1 + i in side]
    vertices = {v for i in positions for v in net.edges[i]}
    if largest:
        vertices |= set(range(net.n)).difference(*net.edges)
    assert {node - m - 1 for node in side if node > m} == vertices
    return value, positions


# -- expansion: the improvement loop before peeling, nesting and core pruning --


def unpruned_decision(h, a, b):
    """The threshold decision on one network over all of h, without core pruning."""
    value, s_side = reference_max_flow_min_cut(build_expansion_network(h, a, b))
    if value >= h.m * b:
        return None
    return expansion_certificate(h, [i for i in range(h.m) if i + 1 in s_side])


def reference_improving_certificates(h):
    """The improvement loop from the full edge set, every decision on all of h.

    No peeling start, no nested scope and no core pruning.
    """
    current = expansion_certificate(h, range(h.m))
    sequence = [current]
    while True:
        better = unpruned_decision(h, current.ratio_num, current.ratio_den)
        if better is None:
            return sequence
        current = better
        sequence.append(current)


def reference_min_expansion_flow(h):
    return reference_improving_certificates(h)[-1]


# -- expansion: the peeling start as one running best, before ``_peel`` --


def reference_peel_ratio(h, scope):
    """Best |E(S)| / |Gamma(E(S))| over the vertex sets S met while peeling the scope.

    Charikar-style greedy peeling: repeatedly drop a vertex of least degree
    together with its edges.  E(S) is the set of scope edges inside S and
    Gamma(E(S)) the vertices of S of positive degree.  The first set is the
    whole scope, so the result is at least its ratio; ties keep the earlier set.
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
    best = (num, den)
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
        if num and num * best[1] > best[0] * den:
            best = (num, den)
    return best


# -- interval: the unbounded fill and both queries --
# As they were before each query filled only the part of the table it can
# read, and the bounded fill as it was before its prefix minimum.


@dataclass(frozen=True)
class ReferenceTable:
    order: tuple
    contained: tuple
    values: tuple
    back: tuple
    m: int

    def best_cell(self, p):
        column = [self.values[i][p - 1] for i in range(p - 1, self.m)]
        best = min(column)
        return p - 1 + column.index(best), best

    def reconstruct(self, i, j):
        picked = []
        while (pointer := self.back[i][j - 1]) is not None:
            istar = pointer[0]
            picked.extend(q for q in self.contained[i] if q > istar)
            i, j = pointer
        picked.extend(self.contained[i][: j - 1])
        picked.append(i)
        return tuple(sorted(self.order[q] for q in picked))


def reference_fill_table(inst):
    order = tuple(
        sorted(range(inst.m), key=lambda q: (inst.intervals[q][1], inst.intervals[q][0], q))
    )
    ivs = tuple(inst.intervals[q] for q in order)
    contained = tuple(
        tuple(q for q in range(i + 1) if ivs[q][0] >= a_i) for i, (a_i, _) in enumerate(ivs)
    )
    values = []
    back = []
    for i, (a_i, b_i) in enumerate(ivs):
        length = b_i - a_i + 1
        rec_v = []
        rec_b = []
        inside = 0
        for istar in range(i):
            a_s, b_s = ivs[istar]
            if a_s >= a_i:
                inside += 1
                continue
            tail = length if b_s < a_i else b_i - b_s
            prev = values[istar]
            for r in range(len(rec_v)):
                cand = prev[inside + r] + tail
                if cand < rec_v[r]:
                    rec_v[r] = cand
                    rec_b[r] = (istar, inside + r + 1)
            rec_v.append(prev[istar] + tail)
            rec_b.append((istar, istar + 1))
        base = len(contained[i])
        values.append((length,) * base + tuple(rec_v))
        back.append((None,) * base + tuple(rec_b))
    return ReferenceTable(order, contained, tuple(values), tuple(back), inst.m)


def reference_bounded_fill_table(inst, bound=None, width=None):
    """The bounded fill as it was before the disjoint predecessors were read off a prefix minimum."""
    kept = [
        q for q, (a, b) in enumerate(inst.intervals) if bound is None or b - a + 1 <= bound
    ]
    order = tuple(
        sorted(kept, key=lambda q: (inst.intervals[q][1], inst.intervals[q][0], q))
    )
    ivs = tuple(inst.intervals[q] for q in order)
    contained = tuple(
        tuple(q for q in range(i + 1) if ivs[q][0] >= a_i) for i, (a_i, _) in enumerate(ivs)
    )
    values = []
    back = []
    for i, (a_i, b_i) in enumerate(ivs):
        length = b_i - a_i + 1
        cells = i + 1 if width is None else min(i + 1, width)
        base = min(len(contained[i]), cells)
        room = cells - base
        rec_v = []
        rec_b = []
        inside = 0
        for istar in range(i):
            a_s, b_s = ivs[istar]
            if a_s >= a_i:
                inside += 1
                continue
            tail = length if b_s < a_i else b_i - b_s
            prev = values[istar]
            for r in range(len(rec_v)):
                cand = prev[inside + r] + tail
                if cand < rec_v[r]:
                    rec_v[r] = cand
                    rec_b[r] = (istar, inside + r + 1)
            if len(rec_v) < room:
                rec_v.append(prev[istar] + tail)
                rec_b.append((istar, istar + 1))
        values.append((length,) * base + tuple(rec_v))
        back.append((None,) * base + tuple(rec_b))
    return ReferenceTable(order, contained, tuple(values), tuple(back), len(order))


def reference_to_hypergraph(inst):
    return Hypergraph(inst.n, tuple(tuple(range(a, b + 1)) for a, b in inst.intervals))


def reference_mpu_interval(inst, p):
    if not 1 <= p <= inst.m:
        raise ValueError(f"p must be in [1, {inst.m}], got {p}")
    table = reference_fill_table(inst)
    best_i, best_value = table.best_cell(p)
    indices = table.reconstruct(best_i, p)
    sol = EdgeSolution.from_indices(reference_to_hypergraph(inst), indices, "interval-dp")
    assert sol.union_size == best_value
    return sol


def reference_dksh_interval(inst, k):
    if not 1 <= k <= inst.n:
        raise ValueError(f"k must be in [1, {inst.n}], got {k}")
    h = reference_to_hypergraph(inst)
    table = reference_fill_table(inst)
    # The largest fitting p, scanned down from m: no monotonicity in p assumed.
    p = next((p for p in range(inst.m, 0, -1) if table.best_cell(p)[1] <= k), None)
    if p is None:
        return VertexSolution.from_vertices(h, range(k), "interval-dp")
    indices = table.reconstruct(table.best_cell(p)[0], p)
    span = set()
    for idx in indices:
        span.update(h.edges[idx])
    vertices = sorted(span)
    for v in range(inst.n):
        if len(vertices) == k:
            break
        if v not in span:
            vertices.append(v)
            span.add(v)
    return VertexSolution.from_vertices(h, vertices, "interval-dp")


# -- Instance parse: the generator skeleton the one-list pass replaced --


class ReferenceFormatError(ValueError):
    """The frozen parse's error; the tests compare its message with the package's."""


def _reference_content_lines(text):
    """Yield (line number, tokens) for non-blank, non-comment lines."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:  # numbered as splitlines numbers the text
            lineno = len((text[: exc.start].decode("utf-8") + ".").splitlines())
            raise ReferenceFormatError(f"line {lineno}: not UTF-8 text") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _reference_int_tokens(tokens, lineno):
    """The tokens as integers; the first non-integer token is reported with its line."""
    try:
        return list(map(int, tokens))
    except ValueError:
        for token in tokens:
            try:
                int(token)
            except ValueError:
                raise ReferenceFormatError(
                    f"line {lineno}: non-integer token {token!r}"
                ) from None
        raise


def _reference_parse_rows(text, noun, row):
    """The skeleton both instance formats share: header ``n m``, m rows, nothing after."""
    lines = _reference_content_lines(text)
    header = next(lines, None)
    if header is None:
        raise ReferenceFormatError("line 1: missing 'n m' header")
    lineno, tokens = header
    if len(tokens) != 2:
        raise ReferenceFormatError(f"line {lineno}: header must be 'n m'")
    n, m = _reference_int_tokens(tokens, lineno)
    if n < 0 or m < 0:
        raise ReferenceFormatError(f"line {lineno}: header counts must be nonnegative")
    rows = []
    for _ in range(m):
        line = next(lines, None)
        if line is None:
            raise ReferenceFormatError(
                f"expected {m} {noun} lines, found only {len(rows)}"
            )
        rows.append(row(n, *line))
    extra = next(lines, None)
    if extra is not None:
        raise ReferenceFormatError(
            f"line {extra[0]}: trailing content after {m} {noun}s"
        )
    return n, rows


def _reference_edge_row(n, lineno, tokens):
    vs = sorted(_reference_int_tokens(tokens, lineno))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ReferenceFormatError(
                f"line {lineno}: repeated vertex {a} within edge"
            )
    if vs and (vs[0] < 0 or vs[-1] >= n):
        bad = vs[0] if vs[0] < 0 else vs[-1]
        raise ReferenceFormatError(
            f"line {lineno}: vertex id {bad} out of range [0, {n})"
        )
    return tuple(vs)


def _reference_interval_row(n, lineno, tokens):
    if len(tokens) != 2:
        raise ReferenceFormatError(f"line {lineno}: interval line must be 'a b'")
    a, b = _reference_int_tokens(tokens, lineno)
    if not 0 <= a <= b < n:
        raise ReferenceFormatError(
            f"line {lineno}: interval ({a}, {b}) out of range for n={n}"
        )
    return a, b


def reference_parse_hypergraph(text):
    """(n, edge rows) of an instance text; a bad text raises ReferenceFormatError."""
    return _reference_parse_rows(text, "edge", _reference_edge_row)


def reference_parse_intervals(text):
    """(n, interval rows) of an interval text; a bad text raises ReferenceFormatError."""
    return _reference_parse_rows(text, "interval", _reference_interval_row)
