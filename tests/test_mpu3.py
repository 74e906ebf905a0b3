import math
import random
from fractions import Fraction

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
    degrees,
    solution_json,
    top_by_degree,
)
from hyperdense.dksh3 import k1_weighted_graph
from hyperdense.mpu3 import MpU3Params, _ceil_sqrt_fraction, candidate_generator_3u
from hyperdense.mpu_general import StalledGeneratorError, iterative_cover, mpu_best_of
from hyperdense.oracle import (
    PlantedSpec,
    brute_mpu,
    generate_planted,
    generate_uniform,
)


class TestParams:
    def test_fields(self):
        h = generate_uniform(10, 12, 0)
        params = MpU3Params.for_guess(h, 6, 4)
        assert params.avg_degree == Fraction(18, 4)
        assert 1 <= params.anchor_size <= h.n
        assert params.khat >= 1

    def test_khat_is_exact_integer_ceiling(self):
        # 9 * p * khat^2 >= k^4 * delta > 9 * p * (khat - 1)^2
        for seed in range(40):
            h = generate_uniform(9, 10, seed)
            for k in range(1, h.n + 1):
                for p in (1, 3, h.m):
                    params = MpU3Params.for_guess(h, p, k)
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
            MpU3Params.for_guess(h, 2, 0)


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
        params = MpU3Params.for_guess(h, 1, 1)
        sol = candidate_generator_3u(h, params)
        assert sol.vertices == (4, 9, 13)
        assert sol.covered == (0,)

    def test_empty_residual_rejected(self):
        h = Hypergraph(4, ())
        params = MpU3Params.for_guess(generate_uniform(4, 2, 0), 1, 1)
        with pytest.raises(ValueError):
            candidate_generator_3u(h, params)

    def test_whole_pruned_graph_returned_when_probe_exceeds_it(self):
        from hyperdense.mpu3 import probe_candidates

        h = Hypergraph(5, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        # Probe size above any link graph: candidates are whole pruned graphs.
        cands = list(probe_candidates(h, 5))
        assert {0, 1, 2, 3} in cands
        assert all(len(c) <= 4 for c in cands)
        # Probe size equal to the link graphs: the two-stage pick runs instead.
        small = list(probe_candidates(h, 3))
        assert all(len(c) <= 3 for c in small)

    def test_generator_always_covers_something(self):
        for seed in range(40):
            h = generate_uniform(8, 6, seed)
            for k in (1, 3, 8):
                params = MpU3Params.for_guess(h, 2, k)
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
            params = MpU3Params.for_guess(h, spec.block_edges, spec.block_size)
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

        def counting(residual, params, spes_sub=greedy_weighted_spes):
            calls_per_guess[params.k] = calls_per_guess.get(params.k, 0) + 1
            return original(residual, params, spes_sub)

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


def reference_mpu_3uniform(h, p, trace):
    """The guess loop without reuse: parameters from the top-degree anchors and
    one iterative cover for every k, then the best-of with mpu_sqrt_m."""
    best = None
    for k in range(1, h.n + 1):
        anchor_size = min(math.ceil(k * h.n**0.4), h.n)
        deg = degrees(h)
        delta = min((deg[v] for v in top_by_degree(h, anchor_size)), default=0)
        khat = max(1, _ceil_sqrt_fraction(k**4 * delta, 9 * p))
        params = MpU3Params(k, p, h.n, anchor_size, delta, Fraction(3 * p, k), khat)

        def generator(residual, _budget, _p=params):
            return mpu3_module.candidate_generator_3u(residual, _p, greedy_weighted_spes)

        try:
            sol = iterative_cover(h, p, anchor_size, generator)
        except StalledGeneratorError:
            continue
        trace.append({"k": k, "khat": khat, "delta": delta, "union": sol.union_size})
        if best is None or sol.union_size < best.union_size:
            best = sol
    candidates = []
    if best is not None:
        candidates.append(EdgeSolution.from_indices(h, best.edge_indices, "three-uniform"))
    candidates.append(mpu_sqrt_m(h, p))
    return mpu_best_of(h, p, candidates)


def _differential_instances():
    for seed in range(60):
        n = 6 + seed % 7
        yield generate_uniform(n, 4 + seed % 11, 5000 + seed)
    for seed in range(50):
        n = 10 + seed % 5
        spec = PlantedSpec(n=n, noise_edges=2 + seed % 6, block_size=5,
                           block_edges=4 + seed % 6, seed=6000 + seed)
        yield generate_planted(spec).hypergraph


def _assert_same_as_reference(h, p):
    trace, expected_trace = [], []
    got = solution_json("mpu", p, mpu_3uniform(h, p, trace=trace))
    expected = solution_json("mpu", p, reference_mpu_3uniform(h, p, expected_trace))
    assert got == expected
    assert trace == expected_trace
    return trace


class TestSaturatedGuessReuse:
    def test_matches_loop_without_reuse(self):
        cases = 0
        for h in _differential_instances():
            for p in sorted({1, (h.m + 1) // 2, h.m}):
                _assert_same_as_reference(h, p)
                cases += 1
        assert cases >= 300

    def test_reused_stall_skips_saturated_rows(self, monkeypatch):
        original = candidate_generator_3u

        def stall_when_saturated(residual, params, spes_sub=greedy_weighted_spes):
            if params.anchor_size == residual.n:
                return VertexSolution.from_vertices(residual, ())
            return original(residual, params, spes_sub)

        monkeypatch.setattr(mpu3_module, "candidate_generator_3u", stall_when_saturated)
        spec = PlantedSpec(n=20, noise_edges=15, block_size=6, block_edges=12, seed=1)
        h = generate_planted(spec).hypergraph
        for p in (4, 12, 20):
            trace = _assert_same_as_reference(h, p)
            # 20^(2/5) > 3.3: guesses 1..5 are unsaturated, 6..20 all stall.
            assert [row["k"] for row in trace] == [1, 2, 3, 4, 5]


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
            ranked = sorted(degrees(h), reverse=True)
            for k in range(1, h.n + 1):
                for p in (1, h.m):
                    assert MpU3Params.for_guess(h, p, k, ranked_degrees=ranked) == (
                        MpU3Params.for_guess(h, p, k)
                    )

    def test_one_degree_pass_per_solve(self, monkeypatch):
        calls = []
        original = mpu3_module.degrees

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mpu3_module, "degrees", counted)
        h = generate_uniform(12, 14, 9600)
        mpu_3uniform(h, 5)
        # One ranking for the guess loop; the generator's own calls see residuals.
        assert sum(1 for args in calls if args == (h,)) == 1
