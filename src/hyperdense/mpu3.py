"""Minimum p-union on 3-uniform hypergraphs.

The solver guesses the vertex count k of an optimal witness (trying every
value), derives the guess's parameters, and runs the iterative cover loop with
a generator that proposes several anchored candidates per round and keeps the
one with the best exact density (covered residual edges per vertex).  A round
whose three-layer candidate alone covers p edges returns it before the other
candidates are built.  The first round of every cover runs on the instance
itself, not a copy, and a round builds no copy of its own: one degree ranking
gives both anchor sets, and the pruned-neighborhood probe runs on the residual
with the anchors skipped in place.  The final answer is never worse than the
general 2*sqrt(m) solver because both enter a best-of.  One best-of rule picks
every winner, the builtin ``max`` or ``min`` over an exact key, which returns
the earliest of equal candidates: a round keeps its first densest candidate,
and a solve its first smallest union.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from hyperdense.core import (
    EdgeSolution,
    Hypergraph,
    VertexSolution,
    _check_range,
    _top_scoring,
    covered_edges,
    degrees,
    induced,  # unused; kept bound for perfbench/tracing.py (ROADMAP item 1)
    top_by_degree,  # unused; kept bound for perfbench/tracing.py (ROADMAP item 1)
)
from hyperdense.dksh3 import (
    WeightedGraph,
    _require_three_uniform,
    greedy_three_layer,
    k1_pair_weights,
    k1_weighted_graph,
    probe_candidates,
)
from hyperdense.mpu_general import (
    StalledGeneratorError,
    _check_p,
    iterative_cover,
    mpu_best_of,
    mpu_sqrt_m,
)


def _ceil_sqrt_fraction(num: int, den: int) -> int:
    """Smallest integer z with z*z >= num/den, computed in exact integers."""
    if num <= 0:
        return 0
    t = -(-num // den)
    z = math.isqrt(t)
    if z * z < t:
        z += 1
    return z


def _anchor_size(k: int, n: int) -> int:
    """ceil(k * n^(2/5)) capped at n, in exact integers: the least a with
    a^5 >= k^5 * n^2, or n if no a < n qualifies."""
    target = k**5 * n**2
    # The float estimate is at most a step off; correct it exactly.
    a = min(n, math.ceil(k * n**0.4))
    while a > 1 and (a - 1) ** 5 >= target:
        a -= 1
    while a < n and a**5 < target:
        a += 1
    return a


@dataclass(frozen=True)
class MpU3Params:
    """Parameters derived from one witness-size guess k.

    anchor_size caps ceil(k * n^(2/5)) at n, in exact integers; delta is the
    minimum degree among the anchor_size top-degree vertices; khat is the
    probe size for the pruned-neighborhood route, the exact integer ceiling
    of sqrt(k^4 * delta / (9p)) and at least 1.
    """

    k: int
    p: int
    n: int
    anchor_size: int
    delta: int
    khat: int

    @classmethod
    def for_guess(
        cls, h: Hypergraph, p: int, k: int, ranked_degrees: Sequence[int]
    ) -> "MpU3Params":
        """Parameters for guess k; ``ranked_degrees`` is ``sorted(degrees(h),
        reverse=True)``, which one solve computes once for all its guesses."""
        _check_p(h, p)
        _check_range("k", k, 1, h.n)
        anchor_size = _anchor_size(k, h.n)
        # The least degree among the top anchor_size vertices (anchor_size >= 1).
        delta = ranked_degrees[anchor_size - 1]
        khat = max(1, _ceil_sqrt_fraction(k**4 * delta, 9 * p))
        return cls(k, p, h.n, anchor_size, delta, khat)


def greedy_weighted_spes(graph: WeightedGraph, target_weight: int) -> tuple[int, ...]:
    """Coverage-first subroutine of the anchored-spes candidate: grow a vertex
    set until its induced weight reaches the target or no vertex adds weight.

    Seeds with the heaviest pair, then repeatedly adds the vertex with the
    largest marginal weight into the picked set (the smallest id on a tie).
    Each vertex's weight into the picked set is kept as a running sum, raised
    by the new vertex's adjacency after every pick.
    """
    if target_weight <= 0 or not graph.edges:
        return ()
    u0, v0, w0 = min(graph.edges, key=lambda e: (-e[2], e[0], e[1]))
    adj = graph.adjacency
    gain = dict.fromkeys(adj, 0)
    for u, w in adj[u0].items():
        gain[u] += w
    for u, w in adj[v0].items():
        gain[u] += w
    picked = {u0, v0}
    got = w0
    order = sorted(graph.vertices)
    while got < target_weight:
        best_u = max((u for u in order if u not in picked), key=gain.__getitem__, default=None)
        if best_u is None or gain[best_u] <= 0:
            break
        picked.add(best_u)
        got += gain[best_u]
        for u, w in adj[best_u].items():
            gain[u] += w
    return tuple(sorted(picked))


def _densest_single_edge(h: Hypergraph) -> tuple[int, ...]:
    """Vertex set of the most repeated edge (ties: smallest vertex tuple)."""
    counts = Counter(h.edges)
    return min(counts, key=lambda e: (-counts[e], e))


def candidate_generator_3u(residual: Hypergraph, params: MpU3Params) -> VertexSolution:
    """One cover-loop round: propose anchored candidates, return the densest.

    The three-layer greedy at the inflated anchor budget is built first: if it
    already covers p edges it is returned at once, before any other candidate
    is built.  Otherwise the candidates, in order: the anchors plus the top k
    vertices by anchored pair count; the anchors plus the coverage
    subroutine's pick on the pair-weight graph; the three-layer candidate; the
    pruned link-graph search at probe size khat outside the anchors (whole
    pruned graphs are returned when smaller than the probe size); and the most
    repeated single edge, which guarantees progress.  Density ties keep the
    earliest candidate.
    """
    if residual.m == 0:
        raise ValueError("generator needs a nonempty residual")
    _require_three_uniform(residual)
    budget = params.anchor_size
    # One degree ranking gives both anchor sets: the layer anchors are its prefix.
    ranked = _top_scoring(degrees(residual), budget)
    layered = None
    if 3 <= budget <= residual.n:
        layered = greedy_three_layer(residual, budget, ranked[: budget // 3])
        if layered.covered_count >= params.p:
            # Covering p edges in one shot ends the loop for this guess.
            return replace(layered, algorithm="three-layer")

    anchor_set = set(ranked)
    top = _top_scoring(k1_pair_weights(residual, anchor_set), params.k)
    graph = k1_weighted_graph(residual, anchor_set)
    picked = greedy_weighted_spes(graph, params.p)
    candidates = [
        ("anchored-pairs", anchor_set | set(top)),
        ("anchored-spes", anchor_set | set(picked)),
    ]
    if layered is not None:
        candidates.append(("three-layer", set(layered.vertices)))
    if params.khat >= 2:
        for cand in probe_candidates(residual, params.khat, anchor_set):
            candidates.append(("pruned-neighborhood", cand))
    candidates.append(("single-edge", set(_densest_single_edge(residual))))

    tag, verts = max(
        candidates, key=lambda c: Fraction(len(covered_edges(residual, c[1])), len(c[1]))
    )
    return VertexSolution.from_vertices(residual, verts, tag)


def mpu_3uniform(h: Hypergraph, p: int, *, trace: list[dict] | None = None) -> EdgeSolution:
    """Minimum p-union by witness-size guessing, floored by the 2*sqrt(m) solver.

    Tries every k in 1..n, runs the iterative cover with that guess's
    parameters, and keeps the smallest union among the covers, in order of k,
    and mpu_sqrt_m, listed last, so the general guarantee always transfers.
    When ``trace`` is a list, one row per guess is appended: {k, khat, delta,
    union}; a guess whose generator stalls appends none.

    A saturated guess (anchor_size == n) runs once: every residual keeps all n
    vertices, so every vertex is an anchor, the probe outside the anchors is
    empty and the cover depends only on (h, p).  Each later k reuses that
    outcome with its own khat and delta in the trace.
    """
    _require_three_uniform(h)
    _check_p(h, p)
    ranked = sorted(degrees(h), reverse=True)
    candidates: list[EdgeSolution] = []
    saturated = False
    for k in range(1, h.n + 1):
        params = MpU3Params.for_guess(h, p, k, ranked)
        if not saturated:
            saturated = params.anchor_size == h.n
            try:
                sol = iterative_cover(
                    h, p, params.anchor_size,
                    lambda residual, _k: candidate_generator_3u(residual, params),
                )
            except StalledGeneratorError:
                sol = None
        if sol is None:
            continue
        if trace is not None:
            trace.append(
                {
                    "k": k,
                    "khat": params.khat,
                    "delta": params.delta,
                    "union": sol.union_size,
                }
            )
        candidates.append(replace(sol, algorithm="three-uniform"))
    candidates.append(mpu_sqrt_m(h, p))
    return mpu_best_of(p, candidates)
