"""Brute-force exact solvers and seeded instance generators for verification.

Every oracle exhausts its search space within a configurable subset budget and
fails loudly when the budget is exceeded; oracle output is ground truth, never
a sample.  Generators are deterministic functions of their seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from itertools import combinations

from hyperdense.core import EdgeSolution, Hypergraph, VertexSolution, _check_range
from hyperdense.dksh3 import WeightedGraph
from hyperdense.expansion import (
    EmptyHypergraphError,
    ExpansionCertificate,
    expansion_certificate,
)
from hyperdense.interval import IntervalInstance

DEFAULT_SUBSET_BUDGET = 2_000_000
BUDGET_ENV_VAR = "HYPERDENSE_ORACLE_BUDGET"


class OracleBudgetError(RuntimeError):
    """The requested exhaustive search exceeds the configured subset budget."""


def resolve_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_SUBSET_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None


def _check_budget(count: int, budget: int | None, what: str) -> None:
    limit = resolve_budget(budget)
    if count > limit:
        raise OracleBudgetError(f"{what} needs {count} subsets, budget is {limit}")


def _mask(vertices) -> int:
    """Bit v set for each vertex v: the searches below union and count edges
    bit-parallel, which pays off over the C(m, p) or C(n, k) subsets they visit."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def brute_mpu(h: Hypergraph, p: int, budget: int | None = None) -> EdgeSolution:
    """Exact minimum p-union by enumerating all C(m, p) subsets (lexicographic ties)."""
    _check_range("p", p, 1, h.m)
    _check_budget(math.comb(h.m, p), budget, "brute_mpu")
    masks = [_mask(e) for e in h.edges]
    best_size, best_combo = h.n + 1, None
    for combo in combinations(range(h.m), p):
        u = 0
        for i in combo:
            u |= masks[i]
        size = u.bit_count()
        if size < best_size:
            best_size, best_combo = size, combo
    assert best_combo is not None
    return EdgeSolution.from_indices(h, best_combo, "brute-force")


def brute_dksh(h: Hypergraph, k: int, budget: int | None = None) -> VertexSolution:
    """Exact densest k-set by enumerating all C(n, k) subsets (lexicographic ties)."""
    _check_range("k", k, 1, h.n)
    _check_budget(math.comb(h.n, k), budget, "brute_dksh")
    masks = [_mask(e) for e in h.edges]
    best_count, best_combo = -1, None
    for combo in combinations(range(h.n), k):
        vm = _mask(combo)
        count = sum(1 for em in masks if em & vm == em)
        if count > best_count:
            best_count, best_combo = count, combo
    assert best_combo is not None
    return VertexSolution.from_vertices(h, best_combo, "brute-force")


def brute_min_expansion(h: Hypergraph, budget: int | None = None) -> ExpansionCertificate:
    """Exact maximum of |E'| / |Gamma(E')| over all nonempty subsets.

    Enumerates by ascending subset size then lexicographic order, keeping the
    first strictly best ratio, so ties resolve to the smallest such subset.
    """
    if h.m == 0:
        raise EmptyHypergraphError("expansion needs at least one edge")
    _check_budget(2 ** h.m - 1, budget, "brute_min_expansion")
    masks = [_mask(e) for e in h.edges]
    best_num, best_den, best_combo = 0, 1, None
    for size in range(1, h.m + 1):
        for combo in combinations(range(h.m), size):
            u = 0
            for i in combo:
                u |= masks[i]
            den = u.bit_count()
            if size * best_den > best_num * den:
                best_num, best_den, best_combo = size, den, combo
    assert best_combo is not None
    return expansion_certificate(h, best_combo)


def exact_weighted_dks(
    graph: WeightedGraph, k: int, budget: int | None = None
) -> tuple[int, ...]:
    """Exhaustive densest-k-subgraph subroutine for weighted graphs (lexicographic ties)."""
    if k <= 0 or not graph.vertices:
        return ()
    size = min(k, len(graph.vertices))
    _check_budget(math.comb(len(graph.vertices), size), budget, "exact_weighted_dks")
    adj = graph.adjacency
    best_weight, best_combo = -1, None
    for combo in combinations(graph.vertices, size):
        inside = set(combo)
        weight = 0
        for u in combo:
            for v, w in adj[u].items():
                if v in inside and u < v:
                    weight += w
        if weight > best_weight:
            best_weight, best_combo = weight, combo
    assert best_combo is not None
    return tuple(sorted(best_combo))


@dataclass(frozen=True)
class PlantedSpec:
    """Parameters of a 3-uniform instance with a known dense block."""

    n: int
    noise_edges: int
    block_size: int
    block_edges: int
    seed: int

    def __post_init__(self) -> None:
        if self.block_size > self.n:
            raise ValueError("block cannot exceed the vertex count")
        if self.block_size < 3:
            raise ValueError("block needs at least 3 vertices")
        if self.block_edges > math.comb(self.block_size, 3):
            raise ValueError("block cannot hold that many distinct triples")
        if self.noise_edges < 0 or self.block_edges < 0:
            raise ValueError("edge counts must be nonnegative")


@dataclass(frozen=True)
class PlantedInstance:
    """Generated hypergraph plus the ground-truth block it hides."""

    hypergraph: Hypergraph
    block_vertices: tuple[int, ...]
    block_edge_indices: tuple[int, ...]
    spec: PlantedSpec


def generate_planted(spec: PlantedSpec) -> PlantedInstance:
    """Seeded 3-uniform instance hiding block_edges distinct triples in a block.

    The block gives a (block_size, block_edges) witness: the optimum union for
    p = block_edges is at most block_size by construction.
    """
    rng = random.Random(spec.seed)
    block = tuple(sorted(rng.sample(range(spec.n), spec.block_size)))
    triples = list(combinations(block, 3))
    planted = [tuple(t) for t in rng.sample(triples, spec.block_edges)]
    noise = [
        tuple(sorted(rng.sample(range(spec.n), 3))) for _ in range(spec.noise_edges)
    ]
    pool = planted + noise
    position = list(range(len(pool)))
    rng.shuffle(position)
    edges = tuple(pool[i] for i in position)
    block_idx = tuple(i for i, src in enumerate(position) if src < spec.block_edges)
    return PlantedInstance(Hypergraph(spec.n, edges), block, block_idx, spec)


def generate_uniform(
    n: int, m: int, seed: int, sizes: int | tuple[int, int] = 3
) -> Hypergraph:
    """Seeded random hypergraph; ``sizes`` is a fixed edge size or an inclusive range."""
    lo, hi = (sizes, sizes) if isinstance(sizes, int) else sizes
    if lo < 1 or hi < lo:
        raise ValueError("edge size range must satisfy 1 <= lo <= hi")
    if hi > n:
        raise ValueError("edge size cannot exceed the vertex count")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        s = rng.randint(lo, hi)
        edges.append(tuple(sorted(rng.sample(range(n), s))))
    return Hypergraph(n, tuple(edges))


def generate_intervals(n: int, m: int, seed: int) -> IntervalInstance:
    """Seeded random interval instance with m well-ordered intervals."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if m < 0:
        raise ValueError("interval count must be nonnegative")
    rng = random.Random(seed)
    intervals = []
    for _ in range(m):
        a = rng.randint(0, n - 1)
        b = rng.randint(a, n - 1)
        intervals.append((a, b))
    return IntervalInstance(n, tuple(intervals))
