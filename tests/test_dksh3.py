import contextlib
import io
import json
import random
import tempfile
from collections import Counter
from functools import cached_property
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperdense import (
    Hypergraph,
    VertexSolution,
    WeightedGraph,
    dksh_3uniform,
    greedy_weighted_dks,
    serialize_hypergraph,
    solution_json,
)
from hyperdense import dksh3
from hyperdense.cli import main
from hyperdense.core import _pad_to_k, covered_count, degrees, induced, top_by_degree
from hyperdense.dksh3 import (
    _check_k,
    _link_graph,
    _link_pairs,
    _pruned_link_graphs,
    _pull_order,
    _require_three_uniform,
    _st_pick,
    dksh_best_of,
    dksh_candidates,
    greedy_three_layer,
    k1_case_split,
    k1_pair_weights,
    k1_weighted_graph,
    neighborhood_search,
    neighborhood_search_plugged,
    neighborhood_searches,
    probe_candidates,
    trivial_pick,
)
from hyperdense.mpu3 import mpu_3uniform
from hyperdense.oracle import (
    PlantedSpec,
    brute_dksh,
    exact_weighted_dks,
    generate_planted,
    generate_uniform,
)


def complete_3uniform(n):
    return Hypergraph(n, tuple(combinations(range(n), 3)))


def distinct_3uniform(n, m, seed):
    rng = random.Random(seed)
    triples = list(combinations(range(n), 3))
    return Hypergraph(n, tuple(sorted(rng.sample(triples, min(m, len(triples))))))


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph((0, 1), ((1, 1, 2),))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph((0, 1), ((0, 1, 0),))

    def test_degree_and_total(self):
        g = WeightedGraph((0, 1, 2), ((0, 1, 2), (1, 2, 3)))
        assert sum(g.adjacency[1].values()) == 5
        assert sum(w for _, _, w in g.edges) == 5

    def test_greedy_subroutine_size(self):
        g = WeightedGraph((0, 1, 2, 3), ((0, 1, 5), (2, 3, 1)))
        picked = greedy_weighted_dks(g, 2)
        assert len(picked) <= 2
        assert set(picked) <= {0, 1, 2, 3}

    def test_exact_subroutine_finds_heaviest_pair(self):
        g = WeightedGraph((0, 1, 2, 3), ((0, 1, 1), (2, 3, 7)))
        assert exact_weighted_dks(g, 2) == (2, 3)


class TestGreedyThreeLayer:
    def test_complete_hypergraph(self):
        h = complete_3uniform(6)
        sol = greedy_three_layer(h, 6, top_by_degree(h, 2))
        assert sol.vertices == (0, 1, 2, 3, 4, 5)
        assert sol.covered_count == 20

    def test_single_edge_with_isolated_vertices(self):
        h = Hypergraph(6, ((0, 1, 2),))
        sol = greedy_three_layer(h, 3, top_by_degree(h, 1))
        assert sol.vertices == (0, 1, 2)
        assert sol.covered_count == 1 == brute_dksh(h, 3).covered_count

    def test_layer_accounting(self):
        # Edges meeting the anchors number at least delta * |K1| / 3.
        for seed in range(30):
            h = generate_uniform(10, 12, seed)
            k = 6
            anchors = top_by_degree(h, k // 3)
            deg = degrees(h)
            delta = min(deg[v] for v in anchors)
            meeting = sum(1 for e in h.edges if set(e) & set(anchors))
            assert 3 * meeting >= delta * len(anchors)

    def test_exactly_k_vertices(self):
        for seed in range(20):
            h = generate_uniform(9, 6, seed)
            for k in (3, 5, 8):
                sol = greedy_three_layer(h, k, top_by_degree(h, k // 3))
                assert len(sol.vertices) == k

    def test_wrong_anchor_size_rejected(self):
        h = generate_uniform(9, 6, 0)
        with pytest.raises(ValueError):
            greedy_three_layer(h, 6, (0,))

    def test_not_three_uniform_rejected(self):
        h = Hypergraph(4, ((0, 1),))
        with pytest.raises(ValueError):
            greedy_three_layer(h, 3, (0,))


class TestNeighborhoodSearch:
    def test_star_recovers_everything(self):
        h = Hypergraph(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6)))
        sol = neighborhood_search(h, 7)
        assert sol.covered_count >= (7 - 1) // 2
        assert sol.covered_count == brute_dksh(h, 7).covered_count == 3

    def test_one_edge(self):
        h = Hypergraph(3, ((0, 1, 2),))
        sol = neighborhood_search(h, 3)
        assert sol.vertices == (0, 1, 2)
        assert sol.covered_count == 1

    def test_pruning_noop_when_degrees_suffice(self):
        h = complete_3uniform(5)
        adj = _link_graph(_link_pairs(h)[0])
        # The pruning consumes its argument, so hand it a graph of its own.
        levels = list(_pruned_link_graphs(_link_graph(_link_pairs(h)[0]), 3))
        assert levels[0][0] == 1
        assert set(levels[0][1]) == set(adj)

    def test_pruning_fixpoint_property(self):
        for seed in range(20):
            h = generate_uniform(8, 10, seed)
            for pairs in _link_pairs(h):
                adj = _link_graph(pairs)
                if not adj:
                    continue
                for dhat, g in _pruned_link_graphs(adj, 5):
                    assert all(len(nb) >= dhat for nb in g.values())

    def test_link_graph_shape(self):
        # The link graph of v never contains v, and its (simple) edge count is
        # at most the degree of v.  The sweep lists one pair per incident edge,
        # duplicates included.
        for seed in range(20):
            h = generate_uniform(8, 10, seed + 700)
            link_pairs = _link_pairs(h)
            for v in range(h.n):
                adj = _link_graph(link_pairs[v])
                assert v not in adj
                pairs = sum(len(nb) for nb in adj.values()) // 2
                assert pairs <= sum(1 for e in h.edges if v in e)
                assert len(link_pairs[v]) == degrees(h)[v]


class TestNeighborhoodPlugged:
    def test_one_edge_matches_plain(self):
        h = Hypergraph(3, ((0, 1, 2),))
        a = neighborhood_search(h, 3)
        b = neighborhood_search_plugged(h, 3)
        assert a.vertices == b.vertices

    def test_exact_subroutine_dominates(self):
        for seed in range(60):
            n = 5 + seed % 6
            h = generate_uniform(n, 2 + seed % 9, seed + 50)
            for k in range(3, n + 1):
                plain = neighborhood_search(h, k)
                exact = neighborhood_search_plugged(h, k, exact_weighted_dks)
                assert exact.covered_count >= plain.covered_count

    def test_greedy_plug_matches_plain_on_simple_instances(self):
        # With k-1 even both selectors use identical stage sizes; without
        # duplicate edges the weighted degrees reduce to plain degrees.
        for seed in range(40):
            n = 6 + seed % 5
            h = distinct_3uniform(n, 8, seed)
            for k in (3, 5, 7):
                if k > n:
                    continue
                plain = neighborhood_search(h, k)
                plugged = neighborhood_search_plugged(h, k, greedy_weighted_dks)
                assert plugged.covered_count == plain.covered_count


class TestCaseSplit:
    def test_anchor_heavy_edges_fully_recovered(self):
        h = Hypergraph(6, ((0, 1, 2), (0, 1, 3)))
        sol = k1_case_split(h, 6, (0, 1))
        assert sol.covered_count == h.m

    def test_pair_graph_weight_conservation(self):
        # Every edge meeting the anchors in exactly one vertex contributes one
        # unit of weight to the outside pair graph.
        for seed in range(30):
            h = generate_uniform(9, 10, seed)
            anchors = top_by_degree(h, 3)
            g = k1_weighted_graph(h, anchors)
            singles = sum(
                1 for e in h.edges if len(set(e) & set(anchors)) == 1
            )
            assert sum(w for _, _, w in g.edges) == singles

    def test_pair_weights_count_inner_pairs(self):
        h = Hypergraph(5, ((0, 1, 2), (0, 1, 2), (2, 3, 4)))
        w = k1_pair_weights(h, (0, 1))
        assert w[2] == 2
        assert w[0] == 0

    def test_reports_ratio_against_restricted_brute_force(self):
        # Reported, not asserted: the combined output against the best
        # anchor-superset solution.
        rows = []
        for seed in range(10):
            h = generate_uniform(8, 9, seed)
            k = 6
            anchors = top_by_degree(h, k // 3)
            sol = k1_case_split(h, k, anchors)
            best = 0
            rest = [v for v in range(h.n) if v not in anchors]
            for extra in combinations(rest, k - len(anchors)):
                cand = set(anchors) | set(extra)
                count = sum(1 for e in h.edges if set(e) <= cand)
                best = max(best, count)
            rows.append((sol.covered_count, best))
        print("case-split vs anchored brute force:", rows)
        assert all(got >= 0 for got, _ in rows)

    def test_sub_over_budget_rejected(self):
        # k = 6: two anchors, and the subroutine may return floor(2k/3) = 4 vertices.
        h = complete_3uniform(8)
        with pytest.raises(ValueError, match="subroutine returned an invalid vertex set"):
            k1_case_split(h, 6, (0, 1), lambda graph, budget: (2, 3, 4, 5, 6))

    def test_sub_outside_pair_graph_rejected(self):
        # The pair graph leaves out the anchors, so returning one is invalid.
        h = complete_3uniform(8)
        with pytest.raises(ValueError, match="subroutine returned an invalid vertex set"):
            k1_case_split(h, 6, (0, 1), lambda graph, budget: (0, 2))
        with pytest.raises(ValueError, match="subroutine returned an invalid vertex set"):
            k1_case_split(h, 6, (0, 1), lambda graph, budget: (2, 8))


class TestTrivialPick:
    def test_disjoint_edges(self):
        h = Hypergraph(15, ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14)))
        sol = trivial_pick(h, 9)
        assert sol.covered_count == 3

    def test_single_edge(self):
        h = Hypergraph(3, ((0, 1, 2),))
        assert trivial_pick(h, 3).covered_count == 1

    def test_floor_on_corpus(self):
        for seed in range(40):
            n = 6 + seed % 7
            h = generate_uniform(n, 1 + seed % 12, seed)
            for k in range(3, n + 1):
                sol = trivial_pick(h, k)
                assert sol.covered_count >= min(k // 3, h.m)
                assert len(sol.vertices) == k


class TestCombined:
    def test_disjoint_edges_k3(self):
        h = Hypergraph(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
        sol = dksh_3uniform(h, 3)
        assert sol.covered_count == 1 == brute_dksh(h, 3).covered_count

    def test_exactly_k_and_dominance(self):
        for seed in range(40):
            n = 6 + seed % 7
            h = generate_uniform(n, 2 + seed % 11, seed + 900)
            k = 3 + seed % (n - 2)
            best = dksh_3uniform(h, k)
            cands = dksh_candidates(h, k)
            assert len(best.vertices) == k
            assert all(len(c.vertices) == k for c in cands)
            assert best.covered_count == max(c.covered_count for c in cands)
            assert best.covered_count >= min(k // 3, h.m)

    def test_ratio_reported_against_brute_force(self):
        ratios = []
        for seed in range(15):
            h = generate_uniform(9, 10, seed + 40)
            k = 5
            got = dksh_3uniform(h, k).covered_count
            opt = brute_dksh(h, k).covered_count
            assert got >= max(min(k // 3, h.m), 1)
            if got:
                ratios.append(opt / got)
        print("dksh ratio distribution (opt/got):", sorted(ratios))
        assert max(ratios) <= h.n

    def test_k_out_of_range(self):
        h = generate_uniform(6, 4, 0)
        with pytest.raises(ValueError):
            dksh_3uniform(h, 2)
        with pytest.raises(ValueError):
            dksh_3uniform(h, 7)


# -- Frozen selection helpers --
# The bodies of _pad_to_k, _st_pick and _weighted_from_link before one pull
# order served both selectors, copied here so that the references below cannot
# change along with the code they check.


def reference_pad_to_k(n, base, k):
    chosen = set(base)
    if len(chosen) > k:
        raise ValueError("candidate exceeds the vertex budget")
    for v in range(n):
        if len(chosen) == k:
            break
        chosen.add(v)
    return tuple(sorted(chosen))


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


# -- Reference: the two-pass neighborhood searches the merged pass replaced --
# Each search rebuilt every vertex's link graph (and the plugged one its pair
# counts) with a scan over all edges, and pruned it on its own.  The pruning
# helper is shared with the merged pass.


def reference_link_graph(h, v):
    adj = {}
    for e in h.edges:
        if v in e:
            u, x = (w for w in e if w != v)
            adj.setdefault(u, set()).add(x)
            adj.setdefault(x, set()).add(u)
    return adj


def reference_link_pair_counts(h, v):
    counts = {}
    for e in h.edges:
        if v in e:
            u, x = (w for w in e if w != v)
            pair = (u, x) if u < x else (x, u)
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def reference_neighborhood_best(h, k, select_factory, tag):
    _require_three_uniform(h)
    _check_k(h, k)
    best = None
    for v in range(h.n):
        adj = reference_link_graph(h, v)
        if not adj:
            continue
        select = select_factory(v)
        for _, g in _pruned_link_graphs(adj, k - 1):
            cand = {v} | select(g)
            sol = VertexSolution.from_vertices(h, reference_pad_to_k(h.n, cand, k), tag)
            if best is None or sol.covered_count > best.covered_count:
                best = sol
    if best is None:
        best = VertexSolution.from_vertices(h, reference_pad_to_k(h.n, set(), k), tag)
    return best


def reference_neighborhood_search(h, k):
    return reference_neighborhood_best(
        h, k, lambda _v: (lambda g: reference_st_pick(g, k - 1)), "neighborhood"
    )


def reference_neighborhood_search_plugged(h, k, sub):
    def factory(v):
        counts = reference_link_pair_counts(h, v)

        def select(g):
            picked = tuple(sub(reference_weighted_from_link(g, counts), k - 1))
            if len(picked) > k - 1 or not set(picked) <= set(g):
                raise ValueError("subroutine returned an invalid vertex set")
            return set(picked)

        return select

    return reference_neighborhood_best(h, k, factory, "neighborhood-plugged")


def reference_probe_candidates(h, probe_size):
    for v in range(h.n):
        adj = reference_link_graph(h, v)
        if not adj:
            continue
        for _, g in _pruned_link_graphs(adj, probe_size - 1):
            if len(g) < probe_size:
                yield {v} | set(g)
            else:
                yield {v} | reference_st_pick(g, probe_size - 1)


def differential_instances():
    """120 seeded 3-uniform instances, n = 5..10, dense enough to repeat edges."""
    for seed in range(120):
        n = 5 + seed % 6
        yield generate_uniform(n, 2 + seed % (2 * n), seed + 3000)


def as_tuple(sol):
    return sol.vertices, sol.covered, sol.algorithm


class TestMergedNeighborhoodPass:
    def test_instances_include_duplicate_edges(self):
        dup = sum(1 for h in differential_instances() if len(set(h.edges)) < h.m)
        assert dup >= 30

    @pytest.mark.parametrize("sub", [greedy_weighted_dks, exact_weighted_dks])
    def test_matches_two_pass_reference(self, sub):
        for h in differential_instances():
            for k in range(3, h.n + 1):
                plain, plugged = neighborhood_searches(h, k, sub)
                assert as_tuple(plain) == as_tuple(reference_neighborhood_search(h, k))
                assert as_tuple(plugged) == as_tuple(
                    reference_neighborhood_search_plugged(h, k, sub)
                )

    def test_wrappers_match_reference(self):
        for h in list(differential_instances())[:30]:
            for k in range(3, h.n + 1):
                assert as_tuple(neighborhood_search(h, k)) == as_tuple(
                    reference_neighborhood_search(h, k)
                )
                assert as_tuple(
                    neighborhood_search_plugged(h, k, exact_weighted_dks)
                ) == as_tuple(reference_neighborhood_search_plugged(h, k, exact_weighted_dks))

    def test_probe_candidates_match_reference(self):
        for h in differential_instances():
            # With the top-degree pair skipped, the reference runs on the
            # induced copy without it and its candidates are lifted back.
            anchors = set(top_by_degree(h, 2))
            rest, lift = induced(h, set(range(h.n)) - anchors)
            for probe_size in (2, 3, 4, 6):
                assert list(probe_candidates(h, probe_size, ())) == list(
                    reference_probe_candidates(h, probe_size)
                )
                assert list(probe_candidates(h, probe_size, anchors)) == [
                    {lift[u] for u in cand} for cand in reference_probe_candidates(rest, probe_size)
                ]

    def test_invalid_subroutine_rejected(self):
        h = complete_3uniform(6)
        with pytest.raises(ValueError):
            neighborhood_searches(h, 4, lambda g, kk: (99,))


TRIPLES_8 = list(combinations(range(8), 3))


@st.composite
def three_uniform_with_duplicates(draw):
    n = draw(st.integers(3, 8))
    pool = [t for t in TRIPLES_8 if t[2] < n]
    base = draw(st.lists(st.sampled_from(pool), max_size=12))
    repeats = draw(st.lists(st.sampled_from(base), max_size=4)) if base else []
    edges = draw(st.permutations(base + repeats))
    k = draw(st.integers(3, n))
    return Hypergraph(n, tuple(edges)), k


class TestCombinedProperty:
    @settings(deadline=None, derandomize=True)
    @given(three_uniform_with_duplicates())
    def test_output_verifies_with_k_vertices_and_floor(self, case):
        h, k = case
        sol = dksh_3uniform(h, k)
        assert len(sol.vertices) == k
        assert sol.covered_count >= min(k // 3, h.m)
        with tempfile.TemporaryDirectory() as tmp:
            inst = Path(tmp) / "instance.hg"
            inst.write_text(serialize_hypergraph(h))
            out = Path(tmp) / "solution.json"
            out.write_text(solution_json("dksh", k, sol))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["verify", str(inst), str(out)])
        assert code == 0
        assert json.loads(stdout.getvalue())["valid"] is True


# -- Reference: the merged pass before count-first scoring --
# Every candidate became a padded VertexSolution and met the best-of rule on
# its own; the greedy subroutine summed each vertex's weights through the
# adjacency one vertex at a time.  Covers here come from a full edge-mask scan,
# so the comparison also checks the incidence index.


def reference_solution(h, vertices, algorithm):
    vm = 0
    for v in vertices:
        vm |= 1 << v
    covered = tuple(i for i, em in enumerate(h.edge_masks) if em & vm == em)
    return VertexSolution(tuple(vertices), covered, algorithm)


def reference_neighborhood_searches(h, k, sub=greedy_weighted_dks):
    _require_three_uniform(h)
    _check_k(h, k)
    best = {"neighborhood": None, "neighborhood-plugged": None}

    def offer(cand, tag):
        sol = reference_solution(h, reference_pad_to_k(h.n, cand, k), tag)
        if best[tag] is None or sol.covered_count > best[tag].covered_count:
            best[tag] = sol

    for v, pairs in enumerate(_link_pairs(h)):
        if not pairs:
            continue
        counts = Counter(pairs)
        for _, g in _pruned_link_graphs(_link_graph(pairs), k - 1):
            offer({v} | reference_st_pick(g, k - 1), "neighborhood")
            picked = tuple(sub(reference_weighted_from_link(g, counts), k - 1))
            if len(picked) > k - 1 or not set(picked) <= set(g):
                raise ValueError("subroutine returned an invalid vertex set")
            offer({v} | set(picked), "neighborhood-plugged")
    if best["neighborhood"] is None:
        for tag in best:
            best[tag] = reference_solution(h, reference_pad_to_k(h.n, (), k), tag)
    return best["neighborhood"], best["neighborhood-plugged"]


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


def planted_differential_instances():
    """Twelve planted 3-uniform instances, n = 24..35, with a dense block."""
    for seed in range(12):
        spec = PlantedSpec(n=24 + seed, noise_edges=40 + 5 * seed, block_size=8,
                           block_edges=20 + seed, seed=7100 + seed)
        yield generate_planted(spec).hypergraph


@st.composite
def weighted_graphs_with_duplicate_pairs(draw):
    """Weighted graphs whose edge list may repeat a pair with other weights."""
    n = draw(st.integers(1, 9))
    vertices = tuple(sorted(draw(st.sets(st.integers(0, 12), min_size=n, max_size=n))))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = []
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=14)):
            edges.append((u, v, draw(st.integers(1, 4))))
    return WeightedGraph(vertices, tuple(edges))


class TestCountFirstNeighborhood:
    @pytest.mark.parametrize("sub", [greedy_weighted_dks, exact_weighted_dks])
    def test_matches_per_candidate_reference(self, sub):
        for h in differential_instances():
            for k in range(3, h.n + 1):
                got = neighborhood_searches(h, k, sub)
                expected = reference_neighborhood_searches(h, k, sub)
                assert [as_tuple(s) for s in got] == [as_tuple(s) for s in expected]

    def test_matches_reference_on_planted_instances(self):
        for h in planted_differential_instances():
            for k in (3, 5, 8, 12):
                got = neighborhood_searches(h, k)
                expected = reference_neighborhood_searches(h, k)
                assert [as_tuple(s) for s in got] == [as_tuple(s) for s in expected]

    def test_combined_matches_reference_pipeline(self):
        for h in planted_differential_instances():
            for k in (6, 9, 12):
                sol = dksh_3uniform(h, k)
                assert as_tuple(sol) == as_tuple(reference_solution(h, sol.vertices, sol.algorithm))

    def test_plugged_pick_equal_to_plain_pick(self):
        # The plain selector as the plugged subroutine: every plugged pick
        # equals the plain pick, so every plugged count is a reused one.
        def plain_as_sub(graph, kk):
            g = {u: set(nbrs) for u, nbrs in graph.adjacency.items()}
            return tuple(_st_pick(g, kk))

        for h in list(differential_instances())[:60]:
            for k in range(3, h.n + 1):
                plain, plugged = neighborhood_searches(h, k, plain_as_sub)
                assert plain.vertices == plugged.vertices
                assert plain.covered == plugged.covered
                assert [as_tuple(s) for s in (plain, plugged)] == [
                    as_tuple(s) for s in reference_neighborhood_searches(h, k, plain_as_sub)
                ]


class TestGreedyWeightedDksOnePass:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(weighted_graphs_with_duplicate_pairs(), st.integers(-1, 11))
    def test_matches_reference(self, graph, k):
        assert greedy_weighted_dks(graph, k) == reference_greedy_weighted_dks(graph, k)

    def test_duplicate_pair_keeps_last_weight(self):
        g = WeightedGraph((0, 1, 2, 3), ((0, 1, 9), (2, 3, 2), (0, 1, 1), (1, 2, 2)))
        assert g.adjacency[0][1] == 1
        # Weighted degrees 1, 3, 4, 2: vertex 2 seeds and pulls 1 and 3 (weight 2).
        assert greedy_weighted_dks(g, 2) == (1, 2)
        assert greedy_weighted_dks(g, 2) == reference_greedy_weighted_dks(g, 2)


# -- Reference: dksh_candidates before the anchors were skipped in place --
# The neighborhood searches ran on induced(h, V - anchors), a relabelled copy
# with its own incidence index, and their winners were lifted back to h's ids
# and padded again.


def reference_dksh_candidates(h, k, sub=greedy_weighted_dks):
    _require_three_uniform(h)
    _check_k(h, k)
    anchors = top_by_degree(h, k // 3)
    out = [k1_case_split(h, k, anchors, sub), greedy_three_layer(h, k, anchors)]
    rest, lift = induced(h, set(range(h.n)) - set(anchors))
    if 3 <= k <= rest.n:
        for sol in reference_neighborhood_searches(rest, k, sub):
            lifted = reference_pad_to_k(h.n, {lift[v] for v in sol.vertices}, k)
            out.append(reference_solution(h, lifted, sol.algorithm))
    out.append(trivial_pick(h, k))
    return out


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test's duration; the returned list grows per call."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def planted_180(seed):
    spec = PlantedSpec(n=180, noise_edges=800, block_size=20, block_edges=150, seed=seed)
    return generate_planted(spec).hypergraph


@st.composite
def simple_graphs(draw):
    """A symmetric adjacency with no repeated pair, plus its pair list."""
    vertices = sorted(draw(st.sets(st.integers(0, 15), min_size=1, max_size=10)))
    pool = [(u, v) for u in vertices for v in vertices if u < v]
    pairs = sorted(draw(st.sets(st.sampled_from(pool)))) if pool else []
    g = {u: set() for u in vertices}
    for u, v in pairs:
        g[u].add(v)
        g[v].add(u)
    return g, pairs


class TestOnePullOrder:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(simple_graphs(), st.integers(1, 11))
    def test_one_order_serves_both_selectors(self, case, kk):
        g, pairs = case
        before = {u: set(nb) for u, nb in g.items()}
        seed, by_pull = _pull_order(g, kk // 2)
        assert g == before
        assert _st_pick(g, kk) == reference_st_pick(g, kk)
        # Unit weights: the default subroutine's pick is the seed plus the
        # first ceil(kk/2) vertices of the same pull order.
        unit = WeightedGraph(tuple(sorted(g)), tuple((u, v, 1) for u, v in pairs))
        assert set(seed) | set(by_pull[: kk - kk // 2]) == set(greedy_weighted_dks(unit, kk))

    @pytest.mark.parametrize("sub", [greedy_weighted_dks, exact_weighted_dks])
    def test_candidates_match_induced_reference(self, sub, monkeypatch):
        fallbacks = count_calls(monkeypatch, dksh3, "_weighted_from_link")
        picks = count_calls(monkeypatch, dksh3, "_pull_order")
        cases = 0
        for h in differential_instances():
            for k in range(3, h.n + 1):
                got = dksh_candidates(h, k, sub)
                expected = reference_dksh_candidates(h, k, sub)
                assert [as_tuple(s) for s in got] == [as_tuple(s) for s in expected]
                cases += 1
        assert cases >= 300
        if sub is greedy_weighted_dks:
            # Both the repeat-free fast path and the repeated-pair fallback ran.
            assert 0 < len(fallbacks) < len(picks)
        else:
            assert 0 < len(fallbacks) == len(picks)

    def test_candidates_match_induced_reference_on_planted_instances(self):
        for seed in (1, 2, 3):
            h = planted_180(seed)
            for k in (12, 20, 30):
                got = dksh_candidates(h, k)
                expected = reference_dksh_candidates(h, k)
                assert [as_tuple(s) for s in got] == [as_tuple(s) for s in expected]

    def test_skipped_vertices_never_picked_or_padded(self):
        for h in list(differential_instances())[:40]:
            skip = top_by_degree(h, 2)
            for k in range(3, h.n - 1):
                for sol in neighborhood_searches(h, k, skip=skip):
                    assert len(sol.vertices) == k
                    assert not set(sol.vertices) & set(skip)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(three_uniform_with_duplicates(), st.data())
    def test_probe_skips_in_place_like_induced_copy(self, case, data):
        # The probe outside ``skip`` equals the reference probe on the induced
        # copy without ``skip``, lifted back to ids of h, candidate by candidate.
        h, _ = case
        skip = data.draw(st.sets(st.integers(0, h.n - 1), max_size=3))
        probe_size = data.draw(st.integers(2, 6))
        rest, lift = induced(h, set(range(h.n)) - skip)
        expected = [
            {lift[u] for u in cand} for cand in reference_probe_candidates(rest, probe_size)
        ]
        assert list(probe_candidates(h, probe_size, skip)) == expected

    def test_too_few_vertices_outside_skip_rejected(self):
        h = complete_3uniform(6)
        with pytest.raises(ValueError):
            neighborhood_searches(h, 5, skip=(0, 1))


class TestNoThrowawayBuilds:
    def test_default_sub_builds_no_weighted_graph_without_repeats(self, monkeypatch):
        builds = count_calls(monkeypatch, WeightedGraph, "__post_init__")
        for seed in range(10):
            h = distinct_3uniform(12, 40, seed)
            for k in (3, 6, 9):
                neighborhood_searches(h, k)
        assert builds == []
        # A duplicate edge repeats a pair, which takes the fallback.
        neighborhood_searches(Hypergraph(5, ((0, 1, 2), (0, 1, 2), (1, 2, 3))), 3)
        assert builds

    def test_candidates_build_no_hypergraph(self, monkeypatch):
        h = planted_180(1)
        builds = count_calls(monkeypatch, Hypergraph, "__post_init__")
        for k in (12, 20, 30):
            dksh_candidates(h, k)
        assert builds == []

    def test_sub_outside_pruned_graph_rejected(self):
        # Vertex 0's link graph is a triangle 1-2-3 plus the pendant pair
        # (3, 4); threshold 2 prunes vertex 4, which the subroutine still returns.
        h = Hypergraph(5, ((0, 1, 2), (0, 2, 3), (0, 1, 3), (0, 3, 4)))
        with pytest.raises(ValueError, match="subroutine returned an invalid vertex set"):
            neighborhood_searches(h, 3, lambda graph, kk: (4,))

    def test_sub_returning_skipped_vertex_rejected(self):
        h = complete_3uniform(7)
        with pytest.raises(ValueError, match="subroutine returned an invalid vertex set"):
            neighborhood_searches(h, 4, lambda graph, kk: (0,), skip=(0, 1))


class TestUniformityCheckedOnce:
    """Each entry point rejects a non-3-uniform instance, and a solve scans the
    edge sizes of each instance it checks once, however often it checks."""

    MIXED = Hypergraph(6, ((0, 1, 2), (3, 4), (1, 2, 5)))

    def test_entry_points_reject_non_uniform(self):
        for call in (
            lambda h: dksh_candidates(h, 3),
            lambda h: dksh_candidates(h, 3, exact_weighted_dks),
            lambda h: dksh_3uniform(h, 3),
            lambda h: mpu_3uniform(h, 1),
        ):
            # A fresh instance and the one whose sizes are already scanned.
            for h in (Hypergraph(self.MIXED.n, self.MIXED.edges), self.MIXED):
                with pytest.raises(ValueError, match="3-uniform"):
                    call(h)

    @staticmethod
    def _spy_scans(monkeypatch):
        scans = []
        original = Hypergraph._edge_sizes.func

        def counted(self):
            scans.append(self)
            return original(self)

        spy = cached_property(counted)
        spy.__set_name__(Hypergraph, "_edge_sizes")
        monkeypatch.setattr(Hypergraph, "_edge_sizes", spy)
        return scans

    def test_dksh_scans_once(self, monkeypatch):
        scans = self._spy_scans(monkeypatch)
        for k in (12, 20):
            h = planted_180(2)
            scans.clear()
            dksh_3uniform(h, k)
            assert len(scans) == 1 and scans[0] is h

    def test_mpu3_scans_each_instance_once(self, monkeypatch):
        scans = self._spy_scans(monkeypatch)
        spec = PlantedSpec(n=30, noise_edges=60, block_size=8, block_edges=20, seed=4)
        h = generate_planted(spec).hypergraph
        for p in (25, 75):
            mpu_3uniform(h, p)
        # Later cover rounds of p = 75 run on residual copies, each checked too.
        assert len(scans) > 1
        assert sum(g is h for g in scans) == 1
        assert len({id(g) for g in scans}) == len(scans)


# -- Reference: the best-of loops before the builtin max --
# dksh_best_of and the two running bests of neighborhood_searches kept the
# first best by hand, with a sentinel and a fallback for no candidate.  Both
# bodies are frozen here; the helpers they call are the module's own.


def reference_dksh_best_of(candidates):
    best = None
    for sol in candidates:
        if best is None or sol.covered_count > best.covered_count:
            best = sol
    if best is None:
        raise ValueError("best-of needs at least one candidate")
    return best


def reference_running_best_searches(h, k, sub=greedy_weighted_dks, skip=()):
    _require_three_uniform(h)
    _check_k(h, k)
    skip = frozenset(skip)
    if k > h.n - len(skip):
        raise ValueError(f"k must be at most {h.n - len(skip)} outside the skipped vertices")
    kk = k - 1
    half = kk // 2
    plain = (-1, ())
    plugged = (-1, ())
    for v, pairs in enumerate(_link_pairs(h, skip)):
        if not pairs:
            continue
        link = _link_graph(pairs)
        counts = None
        if sub is not greedy_weighted_dks or sum(map(len, link.values())) != 2 * len(pairs):
            counts = Counter(pairs)
        for _, g in _pruned_link_graphs(link, kk):
            seed, by_pull = _pull_order(g, half)
            pick = {v, *seed, *by_pull[:half]}
            plain_set = _pad_to_k(h.n, pick, k, skip)
            plain_count = covered_count(h, plain_set)
            if plain_count > plain[0]:
                plain = (plain_count, plain_set)
            if counts is None:
                pick.update(by_pull[half : kk - half])
            else:
                picked = tuple(sub(dksh3._weighted_from_link(g, counts), kk))
                if len(picked) > kk or not set(picked) <= set(g):
                    raise ValueError("subroutine returned an invalid vertex set")
                pick = {v, *picked}
            plugged_set = _pad_to_k(h.n, pick, k, skip)
            plugged_count = (
                plain_count if plugged_set == plain_set else covered_count(h, plugged_set)
            )
            if plugged_count > plugged[0]:
                plugged = (plugged_count, plugged_set)
    if plain[0] < 0:
        plain = plugged = (0, _pad_to_k(h.n, (), k, skip))
    return (
        VertexSolution.from_vertices(h, plain[1], "neighborhood"),
        VertexSolution.from_vertices(h, plugged[1], "neighborhood-plugged"),
    )


class TestBestOfRule:
    def test_best_of_matches_reference(self):
        rng = random.Random(5)
        cases = 0
        for h in list(differential_instances())[:60]:
            for k in range(3, h.n + 1):
                cands = dksh_candidates(h, k)
                # Shuffled lists and single-count lists put ties in every position.
                for trial in range(4):
                    order = cands[:] if trial == 0 else rng.sample(cands, len(cands))
                    if trial == 3:
                        order = [c for c in order if c.covered_count == order[0].covered_count]
                    assert dksh_best_of(order) is reference_dksh_best_of(order)
                    cases += 1
        assert cases >= 600

    def test_best_of_tie_keeps_earliest(self):
        h = Hypergraph(6, ((0, 1, 2), (3, 4, 5)))
        a = VertexSolution.from_vertices(h, (0, 1, 2), "first")
        b = VertexSolution.from_vertices(h, (3, 4, 5), "second")
        assert dksh_best_of([a, b]) is a
        assert dksh_best_of(iter([b, a])) is b

    def test_best_of_empty_rejected(self):
        for best_of in (dksh_best_of, reference_dksh_best_of):
            with pytest.raises(ValueError):
                best_of([])

    @pytest.mark.parametrize("sub", [greedy_weighted_dks, exact_weighted_dks])
    def test_neighborhood_matches_running_best_reference(self, sub):
        cases = 0
        for h in differential_instances():
            for skip in ((), top_by_degree(h, 1), top_by_degree(h, 2)):
                for k in range(3, h.n - len(skip) + 1):
                    got = neighborhood_searches(h, k, sub, skip)
                    expected = reference_running_best_searches(h, k, sub, skip)
                    assert [as_tuple(s) for s in got] == [as_tuple(s) for s in expected]
                    cases += 1
        assert cases >= 800

    def test_neighborhood_matches_running_best_reference_on_planted_instances(self):
        for seed in (1, 2):
            h = planted_180(seed)
            for k in (12, 20, 30):
                skip = top_by_degree(h, k // 3)
                got = neighborhood_searches(h, k, skip=skip)
                expected = reference_running_best_searches(h, k, skip=skip)
                assert [as_tuple(s) for s in got] == [as_tuple(s) for s in expected]

    def test_neighborhood_tie_keeps_earliest_vertex(self):
        # Vertices 0..2 propose (0, 1, 2) and vertices 3..5 propose (3, 4, 5),
        # each covering one edge: the proposal of vertex 0 wins.
        h = Hypergraph(6, ((0, 1, 2), (3, 4, 5)))
        for sol in neighborhood_searches(h, 3):
            assert sol.vertices == (0, 1, 2)

    def test_neighborhood_tie_keeps_earliest_threshold(self):
        # Vertex 0 proposes (0, 1, 4) at threshold 1 and (0, 2, 3) at threshold
        # 2, and vertex 4 ends on (0, 2, 4): all cover one edge, so the first
        # proposal wins.
        h = Hypergraph(5, ((0, 2, 4), (0, 3, 4), (0, 2, 3), (0, 1, 4), (2, 3, 4)))
        for sol in neighborhood_searches(h, 3):
            assert sol.vertices == (0, 1, 4)
            assert sol.covered_count == 1

    def test_neighborhood_without_links_pads_the_empty_set(self):
        # Every edge meets the skipped vertex, so no vertex has a link graph.
        h = Hypergraph(6, ((0, 1, 2), (0, 3, 4)))
        for sol in neighborhood_searches(h, 3, skip=(0,)):
            assert sol.vertices == (1, 2, 3)
            assert sol.covered_count == 0
