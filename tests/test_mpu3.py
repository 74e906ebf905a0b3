import math
import random
from collections import Counter

import pytest

import hyperdense.mpu3 as mpu3_module
from hyperdense import (
    Hypergraph,
    WeightedGraph,
    greedy_weighted_spes,
    mpu_3uniform,
    mpu_sqrt_m,
    union_of,
)
from hyperdense.core import (
    EdgeSolution,
    VertexSolution,
    _top_scoring,
    covered_edges,
    degrees,
    induced,
    solution_json,
    top_by_degree,
)
from hyperdense.dksh3 import (
    _pruned_link_graphs,
    _require_three_uniform,
    greedy_three_layer,
    k1_pair_weights,
    k1_weighted_graph,
    probe_candidates,
)
from hyperdense.mpu3 import (
    MpU3Params,
    _ceil_sqrt_fraction,
    _densest_single_edge,
    candidate_generator_3u,
)
from hyperdense.mpu_general import StalledGeneratorError, iterative_cover, mpu_best_of
from hyperdense.oracle import (
    PlantedSpec,
    brute_mpu,
    generate_planted,
    generate_uniform,
)
from builds import count_hypergraph_builds


def params_for(h, p, k):
    """``MpU3Params.for_guess`` with the degree ranking a solve passes it."""
    return MpU3Params.for_guess(h, p, k, sorted(degrees(h), reverse=True))


class TestParams:
    def test_fields(self):
        h = generate_uniform(10, 12, 0)
        params = params_for(h, 6, 4)
        assert (params.k, params.p, params.n) == (4, 6, 10)
        assert 1 <= params.anchor_size <= h.n
        assert params.khat >= 1

    def test_khat_is_exact_integer_ceiling(self):
        # 9 * p * khat^2 >= k^4 * delta > 9 * p * (khat - 1)^2
        for seed in range(40):
            h = generate_uniform(9, 10, seed)
            for k in range(1, h.n + 1):
                for p in (1, 3, h.m):
                    params = params_for(h, p, k)
                    lhs = k**4 * params.delta
                    assert 9 * p * params.khat**2 >= lhs
                    if params.delta >= 1:
                        assert 9 * p * (params.khat - 1) ** 2 < lhs
                    else:
                        assert params.khat == 1

    def test_ceil_sqrt_fraction(self):
        assert _ceil_sqrt_fraction(0, 5) == 0
        assert _ceil_sqrt_fraction(4, 1) == 2
        assert _ceil_sqrt_fraction(5, 2) == 2
        assert _ceil_sqrt_fraction(9, 2) == 3

    def test_k_out_of_range(self):
        h = generate_uniform(6, 4, 0)
        with pytest.raises(ValueError):
            params_for(h, 2, 0)


class TestSpESGreedy:
    def test_reaches_target(self):
        g = WeightedGraph((0, 1, 2, 3), ((0, 1, 3), (1, 2, 2), (2, 3, 1)))
        picked = greedy_weighted_spes(g, 5)
        inside = set(picked)
        weight = sum(w for u, v, w in g.edges if u in inside and v in inside)
        assert weight >= 5

    def test_empty_graph(self):
        assert greedy_weighted_spes(WeightedGraph((0, 1), ()), 3) == ()

    def test_stops_when_no_gain(self):
        g = WeightedGraph((0, 1, 2, 3), ((0, 1, 2),))
        picked = greedy_weighted_spes(g, 100)
        assert set(picked) == {0, 1}


class TestGenerator:
    def test_single_edge_residual(self):
        h = Hypergraph(20, ((4, 9, 13),))
        params = params_for(h, 1, 1)
        sol = candidate_generator_3u(h, params)
        assert sol.vertices == (4, 9, 13)
        assert sol.covered == (0,)

    def test_empty_residual_rejected(self):
        h = Hypergraph(4, ())
        params = params_for(generate_uniform(4, 2, 0), 1, 1)
        with pytest.raises(ValueError):
            candidate_generator_3u(h, params)

    def test_whole_pruned_graph_returned_when_probe_exceeds_it(self):
        h = Hypergraph(5, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        # Probe size above any link graph: candidates are whole pruned graphs.
        cands = list(probe_candidates(h, 5, ()))
        assert {0, 1, 2, 3} in cands
        assert all(len(c) <= 4 for c in cands)
        # Probe size equal to the link graphs: the two-stage pick runs instead.
        small = list(probe_candidates(h, 3, ()))
        assert all(len(c) <= 3 for c in small)

    def test_generator_always_covers_something(self):
        for seed in range(40):
            h = generate_uniform(8, 6, seed)
            for k in (1, 3, 8):
                params = params_for(h, 2, k)
                sol = candidate_generator_3u(h, params)
                assert sol.covered_count >= 1

    def test_generator_density_on_planted_blocks(self):
        # With the witness size guessed right, the per-vertex density of the
        # returned candidate should not fall below the plant's density scaled
        # by n^(2/5); the exact densities are printed as the regression record.
        densities = []
        for seed in range(10):
            spec = PlantedSpec(n=30, noise_edges=20, block_size=6, block_edges=15,
                               seed=800 + seed)
            planted = generate_planted(spec)
            h = planted.hypergraph
            params = params_for(h, spec.block_edges, spec.block_size)
            sol = candidate_generator_3u(h, params)
            density = sol.covered_count / len(sol.vertices)
            floor = (spec.block_edges / spec.block_size) / h.n**0.4
            assert density >= floor
            densities.append(round(density, 3))
        print("generator density per seed:", densities)


class TestMpU3Uniform:
    def test_identical_edges(self):
        h = Hypergraph(6, ((1, 2, 3),) * 4)
        sol = mpu_3uniform(h, 4)
        assert sol.union == (1, 2, 3)

    def test_p_equals_m(self):
        h = generate_uniform(8, 5, 3)
        sol = mpu_3uniform(h, 5)
        assert sol.union == union_of(h, range(5))

    def test_never_worse_than_sqrt_m(self):
        for seed in range(30):
            n = 5 + seed % 6
            m = 2 + seed % 9
            h = generate_uniform(n, m, seed + 30)
            p = 1 + seed % min(5, m)
            assert mpu_3uniform(h, p).union_size <= mpu_sqrt_m(h, p).union_size

    def test_hard_bound_and_reported_ratio(self):
        ratios = []
        for seed in range(25):
            h = generate_uniform(8, 9, seed + 60)
            p = 1 + seed % 4
            sol = mpu_3uniform(h, p)
            opt = brute_mpu(h, p).union_size
            assert len(sol.edge_indices) == p
            assert sol.union_size**2 <= 4 * h.m * opt**2
            ratios.append(sol.union_size / opt)
        print("mpu3 ratio distribution:", sorted(set(round(r, 3) for r in ratios)))

    def test_trace_rows(self):
        h = generate_uniform(7, 6, 9)
        trace = []
        mpu_3uniform(h, 2, trace=trace)
        assert len(trace) == h.n
        assert all({"k", "khat", "delta", "union"} <= set(row) for row in trace)
        assert [row["k"] for row in trace] == list(range(1, h.n + 1))

    def test_early_exit_when_layers_cover_everything(self):
        # A planted block dense enough that the three-layer route alone covers
        # p edges: for guesses whose anchor budget spans the block, the cover
        # loop must finish after one generator call.
        spec = PlantedSpec(n=12, noise_edges=0, block_size=6, block_edges=12, seed=2)
        h = generate_planted(spec).hypergraph
        calls_per_guess: dict[int, int] = {}
        original = candidate_generator_3u

        def counting(residual, params):
            calls_per_guess[params.k] = calls_per_guess.get(params.k, 0) + 1
            return original(residual, params)

        try:
            mpu3_module.candidate_generator_3u = counting
            sol = mpu_3uniform(h, 12)
        finally:
            mpu3_module.candidate_generator_3u = original
        assert sol.union_size <= 6
        # 12^(2/5) > 2.7, so every guess k >= 5 caps its anchor budget at n and
        # the three-layer candidate covers all 12 edges in one shot.  Guess 5 is
        # the first saturated one; guesses 6..12 reuse its outcome.
        assert calls_per_guess[5] == 1
        assert not set(calls_per_guess) & set(range(6, h.n + 1))

    def test_rejects_non_uniform(self):
        h = Hypergraph(4, ((0, 1),))
        with pytest.raises(ValueError):
            mpu_3uniform(h, 1)


# -- Reference: the cover round before the three-layer short-cut came first --
# Every round ranked the anchors and built the pair-weight candidates before
# the three-layer candidate that may end it, and every round, the first
# included, covered a re-validated copy of its residual.  The probe ran on an
# induced copy without the anchors and lifted its candidates back; its body is
# frozen here with its two-stage pick, so the reference cannot change along
# with the module's probe.  The single-edge candidate and the final best-of
# are the hand-written first-best loops that preceded the builtin min, frozen
# too, so the reference shares no best-of code with the module.


def reference_st_pick(g, kk):
    size = kk // 2
    s = sorted(g, key=lambda u: (-len(g[u]), u))[:size]
    sset = set(s)
    t = sorted(g, key=lambda u: (-len(g[u] & sset), u))[:size]
    return sset | set(t)


def reference_probe_candidates(h, probe_size):
    pairs = [[] for _ in range(h.n)]
    for a, b, c in h.edges:
        pairs[a].append((b, c))
        pairs[b].append((a, c))
        pairs[c].append((a, b))
    for v, vpairs in enumerate(pairs):
        if not vpairs:
            continue
        adj = {}
        for u, x in vpairs:
            adj.setdefault(u, set()).add(x)
            adj.setdefault(x, set()).add(u)
        for _, g in _pruned_link_graphs(adj, probe_size - 1):
            if len(g) < probe_size:
                yield {v} | set(g)
            else:
                yield {v} | reference_st_pick(g, probe_size - 1)


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
    _require_three_uniform(residual)
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

    rest, lift = induced(residual, set(range(n)) - anchor_set)
    if rest.m > 0 and params.khat >= 2:
        for cand in reference_probe_candidates(rest, params.khat):
            candidates.append(("pruned-neighborhood", {lift[u] for u in cand}))

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
    one reference cover for every k, then the best-of with mpu_sqrt_m."""
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


def _differential_instances():
    for seed in range(60):
        n = 6 + seed % 7
        yield generate_uniform(n, 4 + seed % 11, 5000 + seed)
    for seed in range(50):
        n = 10 + seed % 5
        spec = PlantedSpec(n=n, noise_edges=2 + seed % 6, block_size=5,
                           block_edges=4 + seed % 6, seed=6000 + seed)
        yield generate_planted(spec).hypergraph


def _assert_same_as_reference(h, p, generator=reference_candidate_generator_3u):
    trace, expected_trace = [], []
    got = solution_json("mpu", p, mpu_3uniform(h, p, trace=trace))
    expected = solution_json("mpu", p, reference_mpu_3uniform(h, p, expected_trace, generator))
    assert got == expected
    assert trace == expected_trace
    return trace


def _spy(monkeypatch, name):
    """Count the calls made through ``hyperdense.mpu3.<name>``."""
    calls = []
    original = getattr(mpu3_module, name)

    def spied(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mpu3_module, name, spied)
    return calls


class TestSaturatedGuessReuse:
    def test_matches_loop_without_reuse(self, monkeypatch):
        rounds = _spy(monkeypatch, "candidate_generator_3u")
        best_of_rounds = _spy(monkeypatch, "k1_pair_weights")
        cases = 0
        for h in _differential_instances():
            for p in sorted({1, (h.m + 1) // 2, h.m}):
                _assert_same_as_reference(h, p)
                cases += 1
        # planted-mpu3 benchmark shape: p below, at and above the block.
        for seed in range(3):
            spec = PlantedSpec(n=64, noise_edges=300, block_size=12, block_edges=60,
                               seed=6100 + seed)
            h = generate_planted(spec).hypergraph
            for p in (30, 60, 75):
                _assert_same_as_reference(h, p)
                cases += 1
        assert cases >= 300
        # Both kinds of round occur: those the three-layer short-cut ends and
        # those that reach the density best-of.
        assert 0 < len(best_of_rounds) < len(rounds)

    def test_rounds_match_reference(self):
        # Round by round, tags included: the winning candidate and its tag
        # are the reference's, so the best-of order and tie-breaks hold.
        rng = random.Random(6200)
        tags = set()
        for h in _differential_instances():
            ranked = sorted(degrees(h), reverse=True)
            for _ in range(3):
                ids = sorted(rng.sample(range(h.m), rng.randint(1, h.m)))
                residual = Hypergraph(h.n, tuple(h.edges[i] for i in ids))
                k = rng.randint(1, h.n)
                for p in sorted({1, (h.m + 1) // 2, h.m}):
                    params = MpU3Params.for_guess(h, p, k, ranked)
                    got = candidate_generator_3u(residual, params)
                    assert got == reference_candidate_generator_3u(residual, params)
                    tags.add(got.algorithm)
        assert {"anchored-pairs", "three-layer", "single-edge"} <= tags

    def test_reused_stall_skips_saturated_rows(self, monkeypatch):
        def stall_when_saturated(generator):
            def stalling(residual, params):
                if params.anchor_size == residual.n:
                    return VertexSolution.from_vertices(residual, ())
                return generator(residual, params)
            return stalling

        monkeypatch.setattr(
            mpu3_module, "candidate_generator_3u", stall_when_saturated(candidate_generator_3u)
        )
        spec = PlantedSpec(n=20, noise_edges=15, block_size=6, block_edges=12, seed=1)
        h = generate_planted(spec).hypergraph
        for p in (4, 12, 20):
            trace = _assert_same_as_reference(
                h, p, stall_when_saturated(reference_candidate_generator_3u)
            )
            # 20^(2/5) > 3.3: guesses 1..5 are unsaturated, 6..20 all stall.
            assert [row["k"] for row in trace] == [1, 2, 3, 4, 5]


class TestNoThrowawayWork:
    def _block(self):
        # 12 edges inside a 6-vertex block: at guess 5 the anchor budget is n
        # and the three-layer candidate covers all 12.
        spec = PlantedSpec(n=12, noise_edges=0, block_size=6, block_edges=12, seed=2)
        return generate_planted(spec).hypergraph

    def test_short_cut_builds_no_pair_weights(self, monkeypatch):
        h = self._block()
        pair_calls = _spy(monkeypatch, "k1_pair_weights")
        graph_calls = _spy(monkeypatch, "k1_weighted_graph")
        sol = candidate_generator_3u(h, params_for(h, 12, 5))
        assert sol.algorithm == "three-layer" and sol.covered_count >= 12
        assert pair_calls == [] and graph_calls == []
        # A round that misses p still builds both.
        sol = candidate_generator_3u(h, params_for(h, 12, 1))
        assert len(pair_calls) == 1 and len(graph_calls) == 1

    def test_one_round_cover_builds_no_hypergraph(self, monkeypatch):
        h = self._block()
        params = params_for(h, 12, 5)
        builds = count_hypergraph_builds(monkeypatch)
        rounds = []

        def generator(residual, _k):
            rounds.append(residual)
            return candidate_generator_3u(residual, params)

        sol = iterative_cover(h, 12, params.anchor_size, generator)
        assert len(rounds) == 1 and rounds[0] is h
        assert builds == []
        assert sol.edge_indices == tuple(range(12))

    def test_best_of_round_builds_no_hypergraph(self, monkeypatch):
        # planted-mpu3 shape at guess 3 and p = 60: the three-layer candidate
        # misses p, so the round reaches the best-of and probes (khat = 2)
        # outside the anchors, on the instance and on a later residual.
        spec = PlantedSpec(n=64, noise_edges=300, block_size=12, block_edges=60, seed=6100)
        h = generate_planted(spec).hypergraph
        residual = Hypergraph(h.n, h.edges[20:])
        params = params_for(h, 60, 3)
        assert params.khat >= 2
        builds = count_hypergraph_builds(monkeypatch)
        best_of = _spy(monkeypatch, "k1_pair_weights")
        probes = _spy(monkeypatch, "probe_candidates")
        for r in (h, residual):
            candidate_generator_3u(r, params)
        assert len(best_of) == len(probes) == 2
        assert builds == []


# -- Reference: the greedy coverage subroutine before running gains --
# Each round recomputed every outside vertex's weight into the picked set from
# its adjacency.


def reference_greedy_weighted_spes(graph, target_weight):
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


def weighted_graphs(count):
    """Seeded weighted graphs; about a third of the edges repeat a pair."""
    for seed in range(count):
        rng = random.Random(9100 + seed)
        vertices = tuple(sorted(rng.sample(range(20), 2 + seed % 11)))
        pairs = [(u, v) for u in vertices for v in vertices if u < v]
        edges = [(*rng.choice(pairs), rng.randint(1, 5)) for _ in range(seed % 17)]
        edges += [(u, v, rng.randint(1, 5)) for u, v, _ in edges[: len(edges) // 3]]
        rng.shuffle(edges)
        yield WeightedGraph(vertices, tuple(edges))


class TestSpESRunningGains:
    def test_graphs_include_duplicate_pairs(self):
        dup = sum(
            1 for g in weighted_graphs(200) if len({(u, v) for u, v, _ in g.edges}) < len(g.edges)
        )
        assert dup >= 100

    def test_matches_reference(self):
        for g in weighted_graphs(200):
            total = sum(w for _, _, w in g.edges)
            for target in sorted({0, 1, 3, total // 2, total, total + 1}):
                assert greedy_weighted_spes(g, target) == reference_greedy_weighted_spes(
                    g, target
                )

    def test_matches_reference_on_pair_weight_graphs(self):
        for seed in range(40):
            h = generate_uniform(9 + seed % 6, 10 + seed % 13, 9300 + seed)
            for size in (1, 2, 3):
                graph = k1_weighted_graph(h, top_by_degree(h, size))
                for target in (1, 2, 4, 8):
                    assert greedy_weighted_spes(graph, target) == (
                        reference_greedy_weighted_spes(graph, target)
                    )


class TestRankedDegrees:
    def test_given_ranking_matches_computed_one(self):
        for seed in range(30):
            h = generate_uniform(6 + seed % 7, 5 + seed % 11, 9500 + seed)
            deg = degrees(h)
            ranked = sorted(deg, reverse=True)
            for k in range(1, h.n + 1):
                anchor_size = min(math.ceil(k * h.n**0.4), h.n)
                delta = min(deg[v] for v in top_by_degree(h, anchor_size))
                for p in (1, h.m):
                    khat = max(1, _ceil_sqrt_fraction(k**4 * delta, 9 * p))
                    assert MpU3Params.for_guess(h, p, k, ranked) == (
                        MpU3Params(k, p, h.n, anchor_size, delta, khat)
                    )

    def test_one_degree_pass_per_solve(self, monkeypatch):
        calls = []
        original = mpu3_module.degrees

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mpu3_module, "degrees", counted)
        rounds = _spy(monkeypatch, "candidate_generator_3u")
        h = generate_uniform(12, 14, 9600)
        mpu_3uniform(h, 5)
        # One ranking for the guess loop, then one per cover round, which
        # serves both of the round's anchor sets.
        assert calls[0] == (h,)
        assert len(calls) == 1 + len(rounds) > 1


def edge_solutions(h, p, rng, count):
    """``count`` random p-edge solutions of h, tagged by position."""
    return [
        EdgeSolution.from_indices(h, rng.sample(range(h.m), p), f"c{i}") for i in range(count)
    ]


class TestBestOfRule:
    def test_densest_single_edge_matches_reference(self):
        rng = random.Random(11)
        for seed in range(200):
            n = 5 + seed % 5
            base = generate_uniform(n, 3 + seed % 6, seed + 5000).edges
            # Repeat some edges, so multiplicities differ and tie.
            edges = list(base) + [rng.choice(base) for _ in range(seed % 5)]
            rng.shuffle(edges)
            h = Hypergraph(n, tuple(edges))
            assert _densest_single_edge(h) == reference_densest_single_edge(h)

    def test_densest_single_edge_tie_keeps_smaller_tuple(self):
        h = Hypergraph(6, ((3, 4, 5), (1, 2, 3), (0, 1, 5), (3, 4, 5), (0, 1, 5)))
        assert _densest_single_edge(h) == (0, 1, 5)

    def test_mpu_best_of_matches_reference(self):
        rng = random.Random(12)
        for seed in range(100):
            h = generate_uniform(8, 10, seed + 5200)
            p = 1 + seed % 4
            sols = edge_solutions(h, p, rng, 1 + seed % 6)
            assert mpu_best_of(h, p, sols) is reference_mpu_best_of(h, p, sols)
        with pytest.raises(ValueError):
            mpu_best_of(h, p, [])

    def test_round_density_tie_keeps_earlier_tag(self):
        # anchored-pairs proposes (0, 3, 6) and single-edge (0, 1, 3), one
        # covered edge each on three vertices: the earlier candidate wins.
        h = Hypergraph(7, ((0, 5, 6), (0, 1, 3), (0, 3, 6)))
        params = params_for(h, 1, 1)
        sol = candidate_generator_3u(h, params)
        assert (sol.algorithm, sol.vertices) == ("anchored-pairs", (0, 3, 6))
        assert sol == reference_candidate_generator_3u(h, params)
