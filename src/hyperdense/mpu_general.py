"""Minimum p-union on arbitrary hypergraphs.

Two building blocks live here: a two-phase solver with a hard 2*sqrt(m)
approximation guarantee (repeated minimum-expansion extraction, then a
smallest-edges top-up), and a generic cover loop that drives any vertex-set
generator until p edges are collected.

One best-of rule picks a winner among candidate solutions: the builtin
``min`` over the union size, which returns the earliest of equal candidates.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from hyperdense.core import (
    EdgeSolution,
    Hypergraph,
    VertexSolution,
    _check_range,
    covered_edges,
    edge_subhypergraph,
)
from hyperdense.expansion import min_expansion_flow

CoverGenerator = Callable[[Hypergraph, int], VertexSolution]


class StalledGeneratorError(RuntimeError):
    """The generator covered no residual edge, so the cover loop cannot progress."""


def _check_p(h: Hypergraph, p: int) -> None:
    _check_range("p", p, 1, h.m)


def mpu_sqrt_m(h: Hypergraph, p: int) -> EdgeSolution:
    """Two-phase minimum p-union with union at most 2*sqrt(m) times the optimum.

    Phase 1 repeatedly extracts a minimum-expansion subset from the residual
    edges (vertices are kept) until at least p - ceil(sqrt(m)) edges are
    chosen, truncating by ascending edge index if a subset would overshoot p.
    Phase 2 tops up with the smallest residual edges (ties by index).  The
    residual is a list of edge ids of h; no instance is built per round.
    """
    _check_p(h, p)
    root = math.isqrt(h.m)
    if root * root < h.m:
        root += 1
    chosen: list[int] = []
    residual = list(range(h.m))
    while len(chosen) < p - root:
        found = min_expansion_flow(h, residual).edge_indices[: p - len(chosen)]
        chosen.extend(found)
        taken = set(found)
        residual = [i for i in residual if i not in taken]
    residual.sort(key=lambda i: (len(h.edges[i]), i))
    chosen.extend(residual[: p - len(chosen)])
    return EdgeSolution.from_indices(h, chosen, "sqrt-m")


def iterative_cover(
    h: Hypergraph, p: int, k: int, generator: CoverGenerator
) -> EdgeSolution:
    """Collect edges by repeatedly covering the residual instance.

    Each round calls ``generator(residual, k)``, takes every residual edge its
    vertex set covers, and removes those edges (never the vertices).  Stops
    once p edges are collected, then truncates to exactly p, dropping the
    latest additions first.
    """
    _check_p(h, p)
    chosen: list[int] = []
    residual = list(range(h.m))
    while len(chosen) < p:
        sub = edge_subhypergraph(h, residual)
        picked = generator(sub, k)
        found = [residual[j] for j in covered_edges(sub, picked.vertices)]
        if not found:
            raise StalledGeneratorError(
                "generator covered no edge on a nonempty residual"
            )
        chosen.extend(found)
        taken = set(found)
        residual = [i for i in residual if i not in taken]
    return EdgeSolution.from_indices(h, chosen[:p], "iterative-cover")


def mpu_best_of(p: int, candidates: Sequence[EdgeSolution]) -> EdgeSolution:
    """The candidate of minimum union size, each holding p edges; ties keep the earliest."""
    for sol in candidates:
        if len(sol.edge_indices) != p:
            raise ValueError(
                f"candidate {sol.algorithm!r} has {len(sol.edge_indices)} edges, expected {p}"
            )
    return min(candidates, key=lambda sol: sol.union_size)
