import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import hyperdense.mpu3 as mpu3_module
from hyperdense import (
    Hypergraph,
    WeightedGraph,
    greedy_weighted_spes,
    mpu_3uniform,
    mpu_sqrt_m,
    union_of,
)
from hyperdense.cli import main
from hyperdense.core import (
    EdgeSolution,
    VertexSolution,
    covered_edges,
    degrees,
    serialize_hypergraph,
    solution_json,
    top_by_degree,
)
from hyperdense.dksh3 import k1_weighted_graph, probe_candidates
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
from builds import count_hypergraph_builds, spy
from reference import (
    reference_candidate_generator_3u,
    reference_densest_single_edge,
    reference_greedy_weighted_spes,
    reference_mpu_3uniform,
    reference_mpu_best_of,
)


def params_for(h, p, k):
    """``MpU3Params.for_guess`` with the degree ranking a solve passes it."""
    return MpU3Params.for_guess(h, p, k, sorted(degrees(h), reverse=True))


def least_anchor_size(k, n):
    """ceil(k * n^(2/5)) capped at n, by its definition: the least a with a^5 >= k^5 n^2."""
    return next((a for a in range(1, n + 1) if a**5 >= k**5 * n**2), n)


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

    def test_anchor_size_is_exact_integer_ceiling(self):
        # At a fifth power n >= 243, k * n**0.4 in floats lands just above the
        # integer k * n^(2/5), and a float ceiling took one anchor too many.
        for n in (5, 12, 32, 64, 243, 244, 1024, 3125):
            h = Hypergraph(n, ((0, 1, 2),))
            for k in (*range(1, min(n, 30) + 1), n):
                assert params_for(h, 1, k).anchor_size == least_anchor_size(k, n)
        for n, size in ((243, 9), (1024, 16), (3125, 25)):
            assert params_for(Hypergraph(n, ((0, 1, 2),)), 1, 1).anchor_size == size

    def test_ceil_sqrt_fraction(self):
        assert _ceil_sqrt_fraction(0, 5) == 0
        assert _ceil_sqrt_fraction(4, 1) == 2
        assert _ceil_sqrt_fraction(5, 2) == 2
        assert _ceil_sqrt_fraction(9, 2) == 3

        # mpu_sqrt_m's ceil(sqrt(m)), once written as isqrt plus a fix-up.
        def isqrt_ceiling(m):
            root = math.isqrt(m)
            return root + 1 if root * root < m else root

        for m in range(1, 20_001):
            assert _ceil_sqrt_fraction(m, 1) == isqrt_ceiling(m)
        for k in (10**6 + 3, 2**40, 10**30 + 7):
            for d, want in ((-1, k), (0, k), (1, k + 1)):
                assert _ceil_sqrt_fraction(k * k + d, 1) == isqrt_ceiling(k * k + d) == want

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

    def test_early_exit_when_layers_cover_everything(self, monkeypatch):
        # A planted block dense enough that the three-layer route alone covers
        # p edges: for guesses whose anchor budget spans the block, the cover
        # loop must finish after one generator call.
        spec = PlantedSpec(n=12, noise_edges=0, block_size=6, block_edges=12, seed=2)
        h = generate_planted(spec).hypergraph
        rounds = spy(monkeypatch, mpu3_module, "candidate_generator_3u")
        sol = mpu_3uniform(h, 12)
        calls_per_guess = Counter(params.k for _, params in rounds)
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


class TestSaturatedGuessReuse:
    def test_matches_loop_without_reuse(self, monkeypatch):
        rounds = spy(monkeypatch, mpu3_module, "candidate_generator_3u")
        best_of_rounds = spy(monkeypatch, mpu3_module, "k1_pair_weights")
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
        khat_one = 0
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
                    khat_one += params.khat == 1
        assert {"anchored-pairs", "three-layer", "single-edge"} <= tags
        # The package probes at every khat; the reference skips khat = 1.
        assert khat_one > 0

    def test_stalled_cover_is_an_internal_error(self, monkeypatch, tmp_path, capsys):
        def stall_when_saturated(residual, params):
            if params.anchor_size == residual.n:
                return VertexSolution.from_vertices(residual, ())
            return candidate_generator_3u(residual, params)

        monkeypatch.setattr(mpu3_module, "candidate_generator_3u", stall_when_saturated)
        spec = PlantedSpec(n=20, noise_edges=15, block_size=6, block_edges=12, seed=1)
        h = generate_planted(spec).hypergraph
        # 20^(2/5) > 3.3: guesses 1..5 are unsaturated, and guess 6 stalls.
        for p in (4, 12, 20):
            with pytest.raises(StalledGeneratorError):
                mpu_3uniform(h, p)
        path = tmp_path / "planted.txt"
        path.write_text(serialize_hypergraph(h))
        code = main(["solve", "mpu", "--algo", "three-uniform", "--p", "4", str(path)])
        out = capsys.readouterr()
        assert code == 5
        assert out.out == ""
        assert out.err == "internal error: generator covered no edge on a nonempty residual\n"


TRIPLES_12 = list(combinations(range(12), 3))


@st.composite
def three_uniform_with_duplicates(draw):
    """A 3-uniform instance on 3..12 vertices with at least one edge; some edges repeat."""
    n = draw(st.integers(3, 12))
    pool = [t for t in TRIPLES_12 if t[2] < n]
    base = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))
    repeats = draw(st.lists(st.sampled_from(base), max_size=5))
    return Hypergraph(n, tuple(draw(st.permutations(base + repeats))))


class TestEveryRoundProgresses:
    def test_rounds_beat_the_single_edge_and_solves_return(self):
        # Every guess k is covered, saturated ones too, so no round is left
        # out.  A round either ends at the three-layer short-cut, which
        # covers p edges, or its best-of winner covers an edge at least as
        # densely as the most repeated edge; the solve never stalls.
        wins = Counter()

        def checked(residual, params):
            sol = candidate_generator_3u(residual, params)
            covered = len(covered_edges(residual, sol.vertices))
            assert covered >= 1
            if sol.algorithm == "three-layer" and covered >= params.p:
                wins["short-cut"] += 1
            else:
                single = Fraction(max(Counter(residual.edges).values()), 3)
                assert Fraction(covered, len(sol.vertices)) >= single
                wins[sol.algorithm] += 1
            return sol

        @settings(deadline=None, derandomize=True, max_examples=150, database=None)
        @given(three_uniform_with_duplicates())
        def every_guess(h):
            ranked = sorted(degrees(h), reverse=True)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mpu3_module, "candidate_generator_3u", checked)
                for p in sorted({1, (h.m + 1) // 2, h.m}):
                    for k in range(1, h.n + 1):
                        params = MpU3Params.for_guess(h, p, k, ranked)
                        iterative_cover(
                            h, p, params.anchor_size,
                            lambda residual, _k: checked(residual, params),
                        )
                    assert len(mpu_3uniform(h, p).edge_indices) == p

        every_guess()
        print("round winners:", dict(wins))
        # The single edge wins some best-of outright, so it is what bounds them.
        assert wins["short-cut"] and wins["single-edge"]

    def test_anchor_budget_above_n_is_rejected(self):
        # for_guess caps the budget at n; a hand-built one above n fails the
        # three-layer greedy's k check like any other k outside [3, n].
        h = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
        with pytest.raises(ValueError, match="k must be in"):
            candidate_generator_3u(h, MpU3Params(1, 1, h.n, h.n + 1, 1, 1))


class TestNoThrowawayWork:
    def _block(self):
        # 12 edges inside a 6-vertex block: at guess 5 the anchor budget is n
        # and the three-layer candidate covers all 12.
        spec = PlantedSpec(n=12, noise_edges=0, block_size=6, block_edges=12, seed=2)
        return generate_planted(spec).hypergraph

    def test_short_cut_builds_no_pair_weights(self, monkeypatch):
        h = self._block()
        pair_calls = spy(monkeypatch, mpu3_module, "k1_pair_weights")
        graph_calls = spy(monkeypatch, mpu3_module, "k1_weighted_graph")
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
        best_of = spy(monkeypatch, mpu3_module, "k1_pair_weights")
        probes = spy(monkeypatch, mpu3_module, "probe_candidates")
        for r in (h, residual):
            candidate_generator_3u(r, params)
        assert len(best_of) == len(probes) == 2
        assert builds == []


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
                anchor_size = least_anchor_size(k, h.n)
                delta = min(deg[v] for v in top_by_degree(h, anchor_size))
                for p in (1, h.m):
                    khat = max(1, _ceil_sqrt_fraction(k**4 * delta, 9 * p))
                    assert MpU3Params.for_guess(h, p, k, ranked) == (
                        MpU3Params(k, p, h.n, anchor_size, delta, khat)
                    )

    def test_one_degree_pass_per_solve(self, monkeypatch):
        calls = spy(monkeypatch, mpu3_module, "degrees")
        rounds = spy(monkeypatch, mpu3_module, "candidate_generator_3u")
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
            assert mpu_best_of(p, sols) is reference_mpu_best_of(h, p, sols)
        with pytest.raises(ValueError):
            mpu_best_of(p, [])

    def test_round_density_tie_keeps_earlier_tag(self):
        # anchored-pairs proposes (0, 3, 6) and single-edge (0, 1, 3), one
        # covered edge each on three vertices: the earlier candidate wins.
        h = Hypergraph(7, ((0, 5, 6), (0, 1, 3), (0, 3, 6)))
        params = params_for(h, 1, 1)
        sol = candidate_generator_3u(h, params)
        assert (sol.algorithm, sol.vertices) == ("anchored-pairs", (0, 3, 6))
        assert sol == reference_candidate_generator_3u(h, params)
