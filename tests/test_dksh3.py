import contextlib
import io
import json
import random
import re
import tempfile
from functools import cached_property, lru_cache
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
from hyperdense import core, dksh3, mpu3
from hyperdense.cli import main
from hyperdense.core import _pad_to_k, _top_scoring, degrees, edge_subhypergraph, top_by_degree
from hyperdense.dksh3 import (
    _link_graphs,
    _pull_order,
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
from builds import count_hypergraph_builds, spy
from reference import (
    reference_covered_edges,
    reference_degrees,
    reference_dksh_best_of,
    reference_greedy_three_layer,
    reference_greedy_weighted_dks,
    reference_k1_pair_weights,
    reference_k1_weighted_graph,
    reference_link_graph,
    reference_link_pairs,
    reference_neighborhood_searches,
    reference_probe_candidates,
    reference_pruned_link_graphs,
    reference_st_pick,
)


def complete_3uniform(n):
    return Hypergraph(n, tuple(combinations(range(n), 3)))


def walked(h, max_threshold, skip=()):
    """The walk's (v, pairs, g) yields, each g copied as it was yielded.

    The walk prunes one graph in place, so a later yield changes an earlier one.
    """
    return [
        (v, pairs, {u: set(nb) for u, nb in g.items()})
        for v, pairs, g in _link_graphs(h, max_threshold, skip)
    ]


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

    def test_rejects_repeated_vertex(self):
        # A repeated id would let a subroutine return a "set" such as (1, 1, 2).
        with pytest.raises(ValueError):
            WeightedGraph((1, 1, 2, 3), ((1, 2, 5), (2, 3, 1)))

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
        # Vertex 0's link graph is K4 on {1, 2, 3, 4}: degree 3 everywhere, so
        # thresholds 1..3 all yield it whole.
        h = complete_3uniform(5)
        k4 = {u: {1, 2, 3, 4} - {u} for u in (1, 2, 3, 4)}
        graphs = [g for v, _, g in walked(h, 3) if v == 0]
        assert graphs == [k4, k4, k4]

    def test_pruning_fixpoint_property(self):
        # A vertex's i-th graph is pruned to threshold i: min degree >= i.
        for seed in range(20):
            h = generate_uniform(8, 10, seed)
            dhat = {}
            for v, _, g in walked(h, 5):
                dhat[v] = dhat.get(v, 0) + 1
                assert g and all(len(nb) >= dhat[v] for nb in g.values())

    def test_link_graph_shape(self):
        # The link graph of v never contains v, and its (simple) edge count is
        # at most the degree of v.  The sweep lists one pair per incident edge,
        # duplicates included.  Threshold 1 yields each vertex with an edge
        # once, unpruned.
        for seed in range(20):
            h = generate_uniform(8, 10, seed + 700)
            links = {v: (pairs, adj) for v, pairs, adj in walked(h, 1)}
            for v in range(h.n):
                pairs, adj = links.get(v, ([], {}))
                assert v not in adj
                simple = sum(len(nb) for nb in adj.values()) // 2
                assert simple <= sum(1 for e in h.edges if v in e)
                assert len(pairs) == degrees(h)[v]


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


def differential_instances():
    """120 seeded 3-uniform instances, n = 5..10, dense enough to repeat edges."""
    for seed in range(120):
        n = 5 + seed % 6
        yield generate_uniform(n, 2 + seed % (2 * n), seed + 3000)


def planted_differential_instances():
    """Twelve planted 3-uniform instances, n = 24..35, with a dense block."""
    for seed in range(12):
        spec = PlantedSpec(n=24 + seed, noise_edges=40 + 5 * seed, block_size=8,
                           block_edges=20 + seed, seed=7100 + seed)
        yield generate_planted(spec).hypergraph


def planted_180(seed):
    spec = PlantedSpec(n=180, noise_edges=800, block_size=20, block_edges=150, seed=seed)
    return generate_planted(spec).hypergraph


def as_tuple(sol):
    return sol.vertices, sol.covered, sol.algorithm


def plain_pick_as_sub(graph, kk):
    """The plain selector as a plugged subroutine: every plugged pick is the plain one."""
    g = {u: set(nbrs) for u, nbrs in graph.adjacency.items()}
    seed, by_pull = _pull_order(g, kk // 2)
    return tuple(set(seed) | set(by_pull[: kk // 2]))


@lru_cache(maxsize=None)
def _expected_searches(h, k, sub, skip):
    return [as_tuple(s) for s in reference_neighborhood_searches(h, k, sub, skip)]


def assert_matches_reference(got, h, k, sub=greedy_weighted_dks, skip=()):
    """``got`` (plain, plugged) equals ``reference_neighborhood_searches``.

    The tests below reach the searches through different entry points on
    overlapping cases; each case's reference is computed once.
    """
    assert [as_tuple(s) for s in got] == _expected_searches(h, k, sub, tuple(skip))


def assert_anchored_and_trivial(got, h, k, sub, anchors):
    """The candidates around the searches: both anchored strategies first, the trivial pick last."""
    assert got[:2] == [k1_case_split(h, k, anchors, sub), greedy_three_layer(h, k, anchors)]
    assert got[-1] == trivial_pick(h, k)


class TestMergedNeighborhoodPass:
    def test_instances_include_duplicate_edges(self):
        dup = sum(1 for h in differential_instances() if len(set(h.edges)) < h.m)
        assert dup >= 30

    @pytest.mark.parametrize("sub", [greedy_weighted_dks, exact_weighted_dks])
    def test_matches_two_pass_reference(self, sub):
        cases = 0
        for h in differential_instances():
            for k in range(3, h.n + 1):
                assert_matches_reference(neighborhood_searches(h, k, sub), h, k, sub)
                cases += 1
        assert cases >= 660

    def test_wrappers_match_reference(self):
        # The plain selector plugged in, through both wrappers.
        for h in differential_instances():
            for k in range(3, h.n + 1):
                got = (
                    neighborhood_search(h, k),
                    neighborhood_search_plugged(h, k, plain_pick_as_sub),
                )
                assert_matches_reference(got, h, k, plain_pick_as_sub)

    def test_probe_candidates_match_reference(self):
        for h in differential_instances():
            anchors = set(top_by_degree(h, 2))
            for probe_size in (2, 3, 4, 6):
                for skip in ((), anchors):
                    assert list(probe_candidates(h, probe_size, skip)) == list(
                        reference_probe_candidates(h, probe_size, skip)
                    )

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


def edge_cover(h):
    """A vertex set that meets every edge of h: each uncovered edge adds its first vertex."""
    cover = set()
    for e in h.edges:
        if cover.isdisjoint(e):
            cover.add(e[0])
    return cover


def second_layer(h, anchors):
    """The three-layer greedy's second layer on ``anchors``: the top len(anchors)
    vertices by incident edges that meet the anchors, from a full sweep."""
    met = [0] * h.n
    for e in h.edges:
        if anchors.intersection(e):
            for v in e:
                met[v] += 1
    return set(_top_scoring(met, len(anchors)))


def assert_scans_match_reference(h, anchors):
    """The pair-weight scans on ``anchors``, and the three-layer greedy on
    every k the anchors fit, equal the full-sweep references.

    Returns whether a three-layer case ran whose second layer shares some but
    not all of its vertices with the anchors: there the third layer counts
    pairs across two different, overlapping sets.
    """
    assert k1_pair_weights(h, anchors) == reference_k1_pair_weights(h, anchors)
    assert k1_weighted_graph(h, anchors) == reference_k1_weighted_graph(h, anchors)
    size = len(set(anchors))
    ks = range(max(3, 3 * size), min(3 * size + 2, h.n) + 1)
    for k in ks:
        assert greedy_three_layer(h, k, anchors) == reference_greedy_three_layer(h, k, anchors)
    anchors = set(anchors)
    k2 = second_layer(h, anchors)
    return bool(ks) and k2 != anchors and bool(k2 & anchors)


def assert_index_scans_match_reference(h, rng):
    """Every anchored scan and ``degrees`` on h, on a wider copy whose extra
    vertices meet no edge, and on a residual, against the references.

    Anchor sets: the top-degree vertices, a random set, the vertices in no
    edge (they meet no edge), an edge cover (it meets every edge) and all
    vertices.  Returns how many three-layer cases had a second layer that
    partly overlaps the anchors.
    """
    wide = Hypergraph(h.n + 3, h.edges)
    residual = edge_subhypergraph(h, sorted(rng.sample(range(h.m), h.m // 2)))
    overlaps = 0
    for g in (h, wide, residual):
        assert degrees(g) == reference_degrees(g)
        used = set(g.edges_at)
        anchor_sets = [top_by_degree(g, size) for size in range(1, g.n // 3 + 1)]
        anchor_sets.append(set(rng.sample(range(g.n), rng.randint(0, g.n))))
        anchor_sets += [set(range(g.n)) - used, edge_cover(g), range(g.n)]
        overlaps += sum(assert_scans_match_reference(g, anchors) for anchors in anchor_sets)
    return overlaps


@st.composite
def anchored_scan_cases(draw):
    """A 3-uniform instance with duplicate edges and a vertex in no edge, and an
    anchor set: random, meeting no edge, or meeting every edge."""
    h, _ = draw(three_uniform_with_duplicates())
    h = Hypergraph(h.n + 1, h.edges)
    kind = draw(st.sampled_from(("random", "none", "every")))
    if kind == "random":
        anchors = draw(st.sets(st.integers(0, h.n - 1)))
    elif kind == "none":
        anchors = set(range(h.n)) - set(h.edges_at)
    else:
        anchors = edge_cover(h)
    return h, anchors, draw(st.lists(st.integers(0, max(h.m - 1, 0)), unique=True))


class TestAnchoredScans:
    """The scans that read ``Hypergraph.edges_at`` give the full sweeps' answers."""

    def test_match_reference_on_seeded_corpus(self):
        rng = random.Random(2300)
        overlaps = 0
        for h in differential_instances():
            overlaps += assert_index_scans_match_reference(h, rng)
        for h in planted_differential_instances():
            overlaps += assert_index_scans_match_reference(h, rng)
        # Some second layer shares vertices with its anchors without equalling
        # them, so ``_pair_counts`` runs on two different, overlapping sets.
        assert overlaps > 0

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(anchored_scan_cases())
    def test_match_reference_property(self, case):
        h, anchors, ids = case
        # A residual carries its own index, built on first use.
        for g in (h, edge_subhypergraph(h, ids) if h.m else h):
            assert degrees(g) == reference_degrees(g)
            assert_scans_match_reference(g, anchors)
            assert_scans_match_reference(g, top_by_degree(g, g.n // 3))

    def test_weighted_graph_matches_reference_off_three_uniform(self):
        # Edges of 1 to 4 vertices.  A 4-edge with two anchors leaves two
        # vertices outside them, yet adds to no pair weight.
        rng = random.Random(2700)
        pinned = 0
        for seed in range(60):
            h = generate_uniform(8 + seed % 5, 30, 2700 + seed, sizes=(1, 4))
            for anchors in (set(top_by_degree(h, 2)), set(rng.sample(range(h.n), rng.randint(0, h.n)))):
                assert k1_weighted_graph(h, anchors) == reference_k1_weighted_graph(h, anchors)
                pinned += sum(len(e) == 4 and len(anchors & set(e)) == 2 for e in h.edges)
        assert pinned > 0


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
        # Through the wrappers, the plugged one given ``sub``.
        for h in differential_instances():
            for k in range(3, h.n + 1):
                got = (neighborhood_search(h, k), neighborhood_search_plugged(h, k, sub))
                assert_matches_reference(got, h, k, sub)

    def test_matches_reference_on_planted_instances(self):
        # Through the wrappers with their default subroutine.
        for h in planted_differential_instances():
            for k in (3, 5, 8, 12):
                got = (neighborhood_search(h, k), neighborhood_search_plugged(h, k))
                assert_matches_reference(got, h, k)

    def test_combined_matches_reference_pipeline(self):
        # Covers come from the full edge-mask scan, so the comparison also
        # checks the incidence index.
        for h in planted_differential_instances():
            for k in (6, 9, 12):
                sol = dksh_3uniform(h, k)
                assert sol.covered == reference_covered_edges(h, sol.vertices)

    def test_plugged_pick_equal_to_plain_pick(self):
        # The plain selector as the plugged subroutine: every plugged pick
        # equals the plain pick, so every plugged count is a reused one.
        for h in list(differential_instances())[:60]:
            for k in range(3, h.n + 1):
                plain, plugged = neighborhood_searches(h, k, plain_pick_as_sub)
                assert plain.vertices == plugged.vertices
                assert plain.covered == plugged.covered


@st.composite
def kernel_cases(draw):
    """(h, vs, k): a 3-uniform h that may repeat edges, and either a set padded
    as ``neighborhood_searches`` pads one (a pick outside a skip set, then the
    k smallest ids outside it, to exactly k) or any set, ids >= n allowed
    (k is None)."""
    h, k = draw(three_uniform_with_duplicates())
    if draw(st.booleans()):
        skip = draw(st.sets(st.integers(0, h.n - 1), max_size=h.n - k))
        outside = [u for u in range(h.n) if u not in skip]
        pick = draw(st.sets(st.sampled_from(outside), max_size=k))
        return h, _pad_to_k(outside[:k], pick, k), k
    vs = draw(st.sets(st.integers(0, h.n - 1)))
    return h, vs | draw(st.sets(st.integers(h.n, h.n + 70), max_size=2)), None


class TestCoveredCountKernel:
    """``_covered_3u`` counts what the frozen edge-mask scan covers."""

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(kernel_cases())
    def test_matches_reference(self, case):
        h, vs, k = case
        if k is not None:
            assert isinstance(vs, set) and len(vs) == k
        assert dksh3._covered_3u(h, vs) == len(reference_covered_edges(h, vs))


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
        # The plain pick: the seed plus the first floor(kk/2) by pull.
        assert set(seed) | set(by_pull[: kk // 2]) == reference_st_pick(g, kk)
        # Unit weights: the default subroutine's pick is the seed plus the
        # first ceil(kk/2) vertices of the same pull order.
        unit = WeightedGraph(tuple(sorted(g)), tuple((u, v, 1) for u, v in pairs))
        assert set(seed) | set(by_pull[: kk - kk // 2]) == set(greedy_weighted_dks(unit, kk))

    @pytest.mark.parametrize("sub", [greedy_weighted_dks, exact_weighted_dks])
    def test_candidates_match_induced_reference(self, sub, monkeypatch):
        # dksh_candidates runs the searches with its anchors skipped, between
        # the anchored candidates and the trivial pick.
        fallbacks = spy(monkeypatch, dksh3, "_weighted_from_link")
        picks = spy(monkeypatch, dksh3, "_pull_order")
        cases = 0
        for h in differential_instances():
            for k in range(3, h.n + 1):
                anchors = top_by_degree(h, k // 3)
                got = dksh_candidates(h, k, sub)
                assert_anchored_and_trivial(got, h, k, sub, anchors)
                if k <= h.n - len(anchors):
                    assert_matches_reference(got[2:-1], h, k, sub, anchors)
                else:
                    assert got[2:-1] == []
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
                anchors = top_by_degree(h, k // 3)
                got = dksh_candidates(h, k)
                assert_anchored_and_trivial(got, h, k, greedy_weighted_dks, anchors)
                assert_matches_reference(got[2:-1], h, k, greedy_weighted_dks, anchors)

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
        expected = list(reference_probe_candidates(h, probe_size, skip))
        assert list(probe_candidates(h, probe_size, skip)) == expected

    def test_too_few_vertices_outside_skip_rejected(self):
        h = complete_3uniform(6)
        with pytest.raises(ValueError):
            neighborhood_searches(h, 5, skip=(0, 1))


class TestNoThrowawayBuilds:
    def test_default_sub_builds_no_weighted_graph_without_repeats(self, monkeypatch):
        builds = spy(monkeypatch, WeightedGraph, "__post_init__")
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
        builds = count_hypergraph_builds(monkeypatch)
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


class TestEntryChecks:
    """One uniformity-then-k check serves the five entry points, and one
    anchor-layer check both anchored components."""

    ENTRY_POINTS = {
        "greedy_three_layer": lambda h, k: greedy_three_layer(h, k, range(k // 3)),
        "neighborhood_searches": neighborhood_searches,
        "k1_case_split": lambda h, k: k1_case_split(h, k, range(k // 3)),
        "trivial_pick": trivial_pick,
        "dksh_candidates": dksh_candidates,
    }

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_uniformity_is_checked_before_k(self, name):
        call = self.ENTRY_POINTS[name]
        for k in (2, 7):
            with pytest.raises(ValueError, match="^instance must be 3-uniform$"):
                call(TestUniformityCheckedOnce.MIXED, k)
            with pytest.raises(ValueError, match=re.escape(f"k must be in [3, 6], got {k}")):
                call(complete_3uniform(6), k)

    @pytest.mark.parametrize("component", [greedy_three_layer, k1_case_split])
    def test_one_anchor_layer_check(self, component):
        h = complete_3uniform(9)
        with pytest.raises(ValueError, match="k must be in"):
            component(h, 10, (0,))
        for k in (6, 7, 8):
            assert len(component(h, k, (3, 5, 3)).vertices) == k  # two distinct anchors
            for anchors in ((), (3,), (3, 3), (3, 5, 7), range(9)):
                with pytest.raises(ValueError, match=re.escape("anchor layer must have 2 vertices")):
                    component(h, k, anchors)


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
            for skip in (top_by_degree(h, 1), top_by_degree(h, 2)):
                for k in range(3, h.n - len(skip) + 1):
                    got = neighborhood_searches(h, k, sub, skip)
                    assert_matches_reference(got, h, k, sub, skip)
                    cases += 1
        assert cases >= 800

    def test_neighborhood_matches_running_best_reference_on_planted_instances(self):
        # Nothing skipped: the anchored cases run in TestOnePullOrder.
        for seed in (1, 2):
            h = planted_180(seed)
            for k in (12, 20, 30):
                assert_matches_reference(neighborhood_searches(h, k), h, k)

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


def frozen_walk(h, max_threshold, skip=()):
    """The frozen sweep, link-graph build and pruning, in the walk's shape."""
    return [
        (v, pairs, {u: set(nb) for u, nb in g.items()})
        for v, pairs in enumerate(reference_link_pairs(h, skip))
        for _, g in reference_pruned_link_graphs(reference_link_graph(pairs), max_threshold)
    ]


def assert_walk_matches_frozen(h, max_threshold, skip=()):
    """The walk equals the frozen one graph by graph, and each vertex's first
    graph is its link graph unpruned: threshold 1 never prunes.  Returns the
    number of graphs pruned to threshold 2 or more."""
    got = walked(h, max_threshold, skip)
    assert got == frozen_walk(h, max_threshold, skip)
    later, seen = 0, set()
    for v, pairs, g in got:
        if v in seen:
            later += 1
        else:
            seen.add(v)
            assert g == reference_link_graph(pairs)
    return later


def skip_sets(h):
    """No skip, the two top-degree vertices, and all but the three top-degree ones."""
    return (
        frozenset(),
        frozenset(top_by_degree(h, 2)),
        frozenset(range(h.n)) - set(top_by_degree(h, 3)),
    )


@st.composite
def walk_cases(draw):
    """An instance (duplicate edges, vertices in no edge, or complete on 5..7
    vertices), a skip set, a threshold cap in 0..6 and residual edge ids."""
    h = draw(
        st.one_of(
            three_uniform_with_duplicates().map(lambda case: case[0]),
            st.integers(5, 7).map(complete_3uniform),
        )
    )
    h = Hypergraph(h.n + draw(st.integers(0, 2)), h.edges)
    kind = draw(st.sampled_from(("empty", "random", "all-but-three")))
    if kind == "empty":
        skip = frozenset()
    elif kind == "random":
        skip = frozenset(draw(st.sets(st.integers(0, h.n - 1))))
    else:
        kept = draw(st.sets(st.integers(0, h.n - 1), min_size=3, max_size=3))
        skip = frozenset(range(h.n)) - kept
    ids = draw(st.lists(st.integers(0, max(h.m - 1, 0)), unique=True))
    return h, skip, draw(st.integers(0, 6)), ids


class TestLinkGraphWalk:
    """``_link_graphs`` yields what the frozen sweep and pruning give."""

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(walk_cases())
    def test_matches_frozen_property(self, case):
        h, skip, max_threshold, ids = case
        for g in (h, edge_subhypergraph(h, ids) if h.m else h):
            assert_walk_matches_frozen(g, max_threshold, skip)

    def test_matches_frozen_on_seeded_corpus(self):
        rng = random.Random(2500)
        corpus = [*differential_instances(), *planted_differential_instances()]
        corpus += [complete_3uniform(6), complete_3uniform(7)]
        later = 0
        for h in corpus:
            residual = edge_subhypergraph(h, sorted(rng.sample(range(h.m), h.m // 2)))
            for g in (h, Hypergraph(h.n + 2, h.edges), residual):
                for skip in skip_sets(g):
                    for max_threshold in range(7):
                        later += assert_walk_matches_frozen(g, max_threshold, skip)
        # Link graphs with a nonempty 2-core reach the pruning.
        assert later >= 1000

    def test_complete_instance_has_a_two_core(self):
        # Vertex 0's link graph in K^(3)_6 is K5: thresholds 1..4 keep it whole,
        # and threshold 5 deletes it.
        k5 = {u: {1, 2, 3, 4, 5} - {u} for u in range(1, 6)}
        graphs = [g for v, _, g in walked(complete_3uniform(6), 6) if v == 0]
        assert graphs == [k5] * 4

    def test_forest_skip_fires_and_is_exact(self, monkeypatch):
        # Every link graph the cycle check calls acyclic prunes to empty at
        # threshold 2 in the reference, so skipping its pruning loses nothing;
        # one with distinct pairs that it calls cyclic keeps a 2-core.
        verdicts = []
        has_cycle = dksh3._has_cycle

        def recorded(pairs):
            verdicts.append((list(pairs), has_cycle(pairs)))
            return verdicts[-1][1]

        monkeypatch.setattr(dksh3, "_has_cycle", recorded)
        corpus = [planted_180(1), *planted_differential_instances()]
        for h in corpus:
            walked(h, 1, frozenset(top_by_degree(h, 4)))
        # At threshold 1 nothing is pruned, so the check does not run.
        assert verdicts == []
        for h in corpus:
            for skip in (frozenset(), frozenset(top_by_degree(h, 4))):
                assert_walk_matches_frozen(h, 19, skip)
        skipped = [pairs for pairs, cyclic in verdicts if not cyclic]
        assert len(skipped) >= 100 and len(skipped) < len(verdicts)
        for pairs, cyclic in verdicts:
            cores = [g for _, g in reference_pruned_link_graphs(reference_link_graph(pairs), 2)]
            if not cyclic:
                assert len(cores) == 1
            elif len(set(pairs)) == len(pairs):
                assert len(cores) == 2

    def test_duplicate_edge_as_the_only_cycle(self):
        # Vertex 0's link graph is the path 1-2-3 with the pair (1, 2) twice.
        # The repeated pair counts as a cycle, so the walk prunes the path at
        # threshold 2, which deletes it: it yields what the reference yields.
        h = Hypergraph(5, ((0, 1, 2), (0, 1, 2), (0, 2, 3), (1, 3, 4)))
        assert dksh3._has_cycle([(1, 2), (1, 2), (2, 3)])
        assert not dksh3._has_cycle([(1, 2), (2, 3)])
        for max_threshold in range(5):
            assert_walk_matches_frozen(h, max_threshold)
        graphs = [g for v, _, g in walked(h, 4) if v == 0]
        assert graphs == [{1: {2}, 2: {1, 3}, 3: {2}}]


class _CountedEdges(tuple):
    """Edges that count how often they are iterated."""

    sweeps = 0

    def __iter__(self):
        self.sweeps += 1
        return super().__iter__()


def counted_copy(h):
    """h on edges that count their sweeps, with its indexes already built."""
    assert h.edges_at and h.edges_by_last and h.is_uniform(3)
    copy = core._trusted(Hypergraph, n=h.n, edges=_CountedEdges(h.edges))
    for name in ("edges_at", "edges_by_last", "_edge_sizes"):
        vars(copy)[name] = vars(h)[name]
    return copy


class TestOneWalk:
    """Each search reads one walk, and the walk sweeps the edges once."""

    def test_each_search_enters_the_walk_once(self, monkeypatch):
        walks = spy(monkeypatch, dksh3, "_link_graphs")
        small = [h for h in differential_instances() if h.n >= 9][:10]
        for h in [*small, *planted_differential_instances()]:
            anchors = frozenset(top_by_degree(h, 2))
            calls = [
                lambda: neighborhood_searches(h, 5),
                lambda: neighborhood_searches(h, 5, skip=anchors),
                lambda: list(probe_candidates(h, 4, anchors)),
                lambda: dksh_candidates(h, 5),
            ]
            if h.n <= 10:
                calls.append(lambda: neighborhood_searches(h, 5, exact_weighted_dks))
            for call in calls:
                walks.clear()
                call()
                assert len(walks) == 1

    def test_the_walk_sweeps_the_edges_once(self):
        h = counted_copy(planted_180(1))
        anchors = frozenset(top_by_degree(h, 6))
        for call in (
            lambda: neighborhood_searches(h, 20, skip=anchors),
            lambda: list(probe_candidates(h, 5, anchors)),
        ):
            h.edges.sweeps = 0
            call()
            assert h.edges.sweeps == 1

    def test_each_mpu3_probe_enters_the_walk_once(self, monkeypatch):
        spec = PlantedSpec(n=30, noise_edges=60, block_size=8, block_edges=20, seed=4)
        h = generate_planted(spec).hypergraph
        probes = spy(monkeypatch, mpu3, "probe_candidates")
        walks = spy(monkeypatch, dksh3, "_link_graphs")
        for p in (25, 75):
            mpu_3uniform(h, p)
        assert len(walks) == len(probes) > 0
