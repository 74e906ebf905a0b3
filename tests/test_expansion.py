import random
from fractions import Fraction

import pytest

import hyperdense.expansion
import hyperdense.mpu_general
from hyperdense import (
    EmptyHypergraphError,
    Hypergraph,
    min_expansion_flow,
    mpu_sqrt_m,
    solution_json,
    union_of,
)
from hyperdense.core import edge_subhypergraph
from hyperdense.expansion import (
    _core,
    _improving_certificates,
    _peel_ratio,
    build_expansion_network,
    decide_expansion,
    expansion_certificate,
    max_flow_min_cut,
)
from hyperdense.oracle import brute_min_expansion, generate_uniform
from lp_reference import (
    InfeasibleSolutionError,
    build_expansion_lp,
    lp_solution_from_certificate,
    optimal_expansion_lp_solution,
    round_expansion_lp,
)
from reference import (
    ReferenceFlowGraph,
    cap_inf,
    edge_half,
    reference_improving_certificates,
    reference_max_flow_min_cut,
    reference_min_expansion_flow,
    unpruned_decision,
)

PAIR = Hypergraph(2, ((0, 1),))
TWIN = Hypergraph(5, ((0, 1), (0, 1), (2, 3, 4)))


def corpus(count, seed0=0):
    for seed in range(seed0, seed0 + count):
        n = 1 + seed % 8
        m = 1 + (seed * 7) % 8
        yield generate_uniform(n, m, seed, sizes=(1, min(4, n)))


class TestDecide:
    def test_single_pair_above_third(self):
        cert = decide_expansion(PAIR, 1, 3)
        assert cert.edge_indices == (0,)
        assert cert.ratio == Fraction(1, 2)

    def test_single_pair_no_better_than_half(self):
        assert decide_expansion(PAIR, 1, 2) is None

    def test_twin_pair_beats_three_quarters(self):
        cert = decide_expansion(TWIN, 3, 4)
        assert cert.edge_indices == (0, 1)
        assert cert.ratio == Fraction(1)

    def test_empty_instance_rejected(self):
        with pytest.raises(EmptyHypergraphError):
            decide_expansion(Hypergraph(3, ()), 1, 2)

    def test_soundness_on_corpus(self):
        for h in corpus(60):
            for a, b in ((1, 2), (1, 1), (2, 3), (3, 2)):
                cert = decide_expansion(h, a, b)
                if cert is not None:
                    assert cert.ratio_num * b > a * cert.ratio_den
                    assert cert.neighborhood == union_of(h, cert.edge_indices)

    def test_core_pruning_keeps_the_decision(self):
        hs = list(corpus(60)) + list(nested_scope_instances())
        for h in hs:
            for a, b in ((1, 2), (1, 1), (2, 3), (3, 2), (3, 4), (1, 3)):
                want = unpruned_decision(h, a, b)
                got = decide_expansion(h, a, b)
                assert (got and got.to_json()) == (want and want.to_json())

    def test_core_drops_edges_in_chains(self):
        # At threshold 1, (3, 4, 5) has two private vertices; once it is
        # gone, so does (1, 2, 3).  The twin pair has none.
        h = Hypergraph(6, ((0, 1), (1, 2, 3), (0, 1), (3, 4, 5)))
        assert _core(h, range(h.m), 1, 1) == [0, 2]
        assert _core(TWIN, range(TWIN.m), 3, 4) == [0, 1]
        assert _core(TWIN, range(TWIN.m), 1, 3) == [0, 1, 2]

    def test_completeness_at_boundary(self):
        for h in corpus(40, seed0=100):
            best = brute_min_expansion(h)
            assert decide_expansion(h, best.ratio_num, best.ratio_den) is None


class TestNetworkShape:
    def test_effectively_infinite_capacity(self):
        for h in corpus(20):
            net = build_expansion_network(h, 3, 5)
            assert cap_inf(net) > h.m * net.cap_src
            assert net.cap_src == 5 and net.cap_sink == 3

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            build_expansion_network(PAIR, 0, 1)


class TestMaxFlowCut:
    def test_cut_at_exact_threshold(self):
        # No subset beats 1/2, so the s-side is the largest minimum cut: the
        # source with the edge node and both vertex nodes, the sink alone on
        # the other side.  Its one edge is position 0.
        net = build_expansion_network(PAIR, 1, 2)
        value, positions = max_flow_min_cut(net)
        assert value == 2 == PAIR.m * 2
        assert (value, positions) == edge_half(net, (2, frozenset({0, 1, 2, 3}))) == (2, [0])

    def test_cut_below_threshold(self):
        net = build_expansion_network(PAIR, 1, 3)
        value, _ = max_flow_min_cut(net)
        assert value == 2 < PAIR.m * 3

    def test_cut_never_exceeds_source_capacity(self):
        for h in corpus(30, seed0=200):
            net = build_expansion_network(h, 2, 3)
            value, _ = max_flow_min_cut(net)
            assert value <= h.m * net.cap_src

    def test_first_fit_start_changes_no_cut(self):
        # The value and the s-side's edges are those of the same network
        # solved from zero flow by the frozen general Dinic, and the value is
        # networkx's.
        nx = pytest.importorskip("networkx")
        for h in list(corpus(30, seed0=800)) + [generate_uniform(60, 60, 3, sizes=(2, 4))]:
            for a, b in ((1, 2), (2, 3), (1, 1), (3, 2)):
                net = build_expansion_network(h, a, b)
                value, positions = max_flow_min_cut(net)
                m, sink = h.m, h.m + h.n + 1
                plain = ReferenceFlowGraph(sink + 1)
                ref = nx.DiGraph()
                for i, edge in enumerate(h.edges, start=1):
                    plain.add_edge(0, i, b)
                    ref.add_edge(0, i, capacity=b)
                    for v in edge:
                        plain.add_edge(i, m + 1 + v, cap_inf(net))
                        ref.add_edge(i, m + 1 + v, capacity=cap_inf(net))
                for v in union_of(h, range(m)):
                    plain.add_edge(m + 1 + v, sink, a)
                    ref.add_edge(m + 1 + v, sink, capacity=a)
                assert value == plain.max_flow(0, sink) == nx.maximum_flow_value(ref, 0, sink)
                side = plain.source_side(0) if value < m * b else plain.largest_source_side(sink)
                assert (value, positions) == edge_half(net, (value, side))

    def test_neighborhood_stays_on_source_side(self):
        # No vertex of an s-side edge may sit on the t-side of the frozen
        # cut: edge_half checks that its vertex nodes are exactly its edges'
        # vertices, and the package's cut has the same edges.
        for h in corpus(30, seed0=300):
            net = build_expansion_network(h, 1, 2)
            value, positions = max_flow_min_cut(net)
            if value >= h.m * 2:
                continue
            assert (value, positions) == edge_half(net, reference_max_flow_min_cut(net))


class TestMinExpansionFlow:
    def test_single_edge(self):
        cert = min_expansion_flow(PAIR)
        assert cert.edge_indices == (0,)
        assert cert.ratio == Fraction(1, 2)

    def test_duplicate_pair_wins(self):
        cert = min_expansion_flow(TWIN)
        assert set(cert.edge_indices) == {0, 1}
        assert cert.ratio == Fraction(1)

    def test_disjoint_edges(self):
        h = Hypergraph(7, ((0, 1), (2, 3), (4, 5, 6)))
        cert = min_expansion_flow(h)
        assert cert.ratio == brute_min_expansion(h).ratio == Fraction(1, 2)

    def test_matches_brute_force_on_corpus(self):
        for h in corpus(80, seed0=400):
            assert min_expansion_flow(h).ratio == brute_min_expansion(h).ratio


def assert_sound(h, cert):
    assert cert.edge_indices == tuple(sorted(set(cert.edge_indices)))
    assert cert.neighborhood == union_of(h, cert.edge_indices)
    assert (cert.ratio_num, cert.ratio_den) == (len(cert.edge_indices), len(cert.neighborhood))


def largest_optimal_subset(h):
    """Union of all subsets of maximum ratio |E'| / |Gamma(E')|, by enumeration."""
    masks = [sum(1 << v for v in e) for e in h.edges]
    best, union = Fraction(0), 0
    for subset in range(1, 2 ** h.m):
        cover = 0
        for i in range(h.m):
            if subset >> i & 1:
                cover |= masks[i]
        ratio = Fraction(subset.bit_count(), cover.bit_count())
        if ratio > best:
            best, union = ratio, subset
        elif ratio == best:
            union |= subset
    return tuple(i for i in range(h.m) if union >> i & 1)


def tiny_instances(count):
    """Seeded instances with n <= 7 and m <= 8; every other one repeats some edges."""
    for seed in range(count):
        rng = random.Random(seed)
        n = 1 + seed % 7
        m = 1 + (seed * 3) % 6
        h = generate_uniform(n, m, 9000 + seed, sizes=(1, min(4, n)))
        edges = list(h.edges)
        if seed % 2:
            edges += rng.choices(edges, k=1 + seed % 2)
            rng.shuffle(edges)
        yield Hypergraph(n, tuple(edges))


class TestPeelRatio:
    def test_twin_pair_peels_to_optimum(self):
        # Peeling vertex 2 drops edge (2, 3, 4) and leaves vertices 3 and 4
        # without edges: 2 edges on 2 vertices.
        assert _peel_ratio(TWIN, range(TWIN.m)) == (2, 2)

    def test_between_full_ratio_and_optimum(self):
        strict = 0
        for h in tiny_instances(400):
            num, den = _peel_ratio(h, range(h.m))
            full = expansion_certificate(h, range(h.m)).ratio
            assert full <= Fraction(num, den) <= brute_min_expansion(h).ratio
            strict += Fraction(num, den) > full
        assert strict >= 50


class TestLargestOptimalSubset:
    def test_matches_enumeration(self):
        duplicated = 0
        for h in tiny_instances(400):
            assert min_expansion_flow(h).edge_indices == largest_optimal_subset(h)
            duplicated += len(set(h.edges)) < h.m
        assert duplicated >= 100


def tiered_instance(seed):
    """Edges drawn from nested vertex pools, densest pool first.

    Each pool is denser than the next, so the loop often passes through an
    intermediate certificate before the optimum.
    """
    rng = random.Random(seed)
    n = 10 + seed % 7
    order = rng.sample(range(n), n)
    edges = []
    size = 0
    for grow, count in ((3, 5), (2, 3), (3, 2)):
        size += grow + rng.randint(0, 1)
        for _ in range(count + rng.randint(0, 2)):
            edges.append(tuple(rng.sample(order[:size], rng.randint(2, min(4, size)))))
    for _ in range(2 + rng.randint(0, 2)):
        edges.append(tuple(rng.sample(order, rng.randint(2, 4))))
    rng.shuffle(edges)
    return Hypergraph(n, tuple(edges))


def nested_scope_instances():
    """240 seeded instances with edge sizes 2..4, many with repeated edges.

    The first 120 are uniform random (every third gets copies of some of its
    edges); the other 120 are tiered.
    """
    for seed in range(120):
        n = 4 + seed % 9
        m = 2 + (seed * 5) % 19
        h = generate_uniform(n, m, seed + 5000, sizes=(2, 4))
        if seed % 3 == 0:
            rng = random.Random(seed)
            edges = list(h.edges) + rng.choices(h.edges, k=1 + seed % 4)
            rng.shuffle(edges)
            h = Hypergraph(n, tuple(edges))
        yield h
    for seed in range(120):
        yield tiered_instance(seed)


class TestNestedScope:
    """Decisions on the last certificate's edges end at the reference's certificate."""

    def test_corpus_has_duplicate_edges(self):
        duplicated = [h for h in nested_scope_instances() if len(set(h.edges)) < h.m]
        assert len(duplicated) >= 50

    def test_every_improving_certificate_matches(self):
        # Intermediate certificates differ from the reference's by design
        # (the loop starts at the peeling ratio); the first and last do not.
        workload_shaped = [
            generate_uniform(500, 500, 7000 + seed, sizes=(2, 4)) for seed in range(10)
        ]
        improved = 0
        for h in list(nested_scope_instances()) + workload_shaped:
            got = list(_improving_certificates(h, range(h.m)))
            want = reference_improving_certificates(h)
            assert got[0].to_json() == want[0].to_json()
            assert got[-1].to_json() == want[-1].to_json()
            assert min_expansion_flow(h).to_json() == want[-1].to_json()
            for before, after in zip(got, got[1:]):
                assert after.ratio > before.ratio
            for cert in got:
                assert_sound(h, cert)
            improved += len(want) > 2
        # Enough instances take two or more improving decisions for the
        # restriction to a certificate's edges to matter.
        assert improved >= 30

    def test_restricted_network_sees_only_the_certificate(self, monkeypatch):
        scopes = []

        def recording(h, a, b, edge_ids=None):
            scopes.append(tuple(range(h.m)) if edge_ids is None else tuple(edge_ids))
            return build_expansion_network(h, a, b, edge_ids)

        monkeypatch.setattr(hyperdense.expansion, "build_expansion_network", recording)
        nested = 0
        uniform = [generate_uniform(60, 60, seed, sizes=(2, 4)) for seed in range(100)]
        for h in uniform + list(nested_scope_instances()):
            want = reference_min_expansion_flow(h).to_json()
            scopes.clear()
            certs = list(_improving_certificates(h, range(h.m)))
            assert certs[-1].to_json() == want
            # Flow i yields certs[i + 1] (unless it finds nothing new), from
            # edges of its own network, and flow i + 1 runs inside that
            # certificate.
            for i, found in enumerate(certs[1:]):
                assert set(found.edge_indices) <= set(scopes[i])
                if i + 1 < len(scopes):
                    assert set(scopes[i + 1]) <= set(found.edge_indices)
            assert len(scopes) in (len(certs) - 1, len(certs))
            nested += len(scopes) > 1 and len(scopes[-1]) < len(scopes[0])
        # The peeling start often ends the loop after one flow; enough
        # instances still nest for the restriction to be exercised.
        assert nested >= 10

    def test_mpu_sqrt_m_at_high_p_matches(self, monkeypatch):
        cases = [
            (h, p)
            for h in nested_scope_instances()
            for p in range(-(-9 * h.m // 10), h.m + 1)
        ]
        cases += [
            (generate_uniform(60, 60, seed, sizes=(2, 4)), p)
            for seed in (9, 11, 19)
            for p in (54, 56, 58)
        ]
        got = [solution_json("mpu", p, mpu_sqrt_m(h, p)) for h, p in cases]

        def copy_and_remap(h, edge_ids):
            # The old extraction round: a residual Hypergraph copy, solved by
            # the reference, its ids mapped back.
            cert = reference_min_expansion_flow(edge_subhypergraph(h, edge_ids))
            return expansion_certificate(h, [edge_ids[j] for j in cert.edge_indices])

        monkeypatch.setattr(hyperdense.mpu_general, "min_expansion_flow", copy_and_remap)
        want = [solution_json("mpu", p, mpu_sqrt_m(h, p)) for h, p in cases]
        assert got == want


def scoped_reference(h, ids):
    """min_expansion_flow on the edge_subhypergraph copy, ids mapped back."""
    sub = min_expansion_flow(edge_subhypergraph(h, ids))
    return expansion_certificate(h, [ids[j] for j in sub.edge_indices])


class TestEdgeScope:
    """A scope of edge ids gives the answer of the copy it replaces."""

    def test_matches_copy_and_remap(self):
        rng = random.Random(17)
        workload_shaped = [
            generate_uniform(500, 500, 7100 + seed, sizes=(2, 4)) for seed in range(4)
        ]
        shuffled = proper = 0
        for h in list(nested_scope_instances()) + workload_shaped:
            for _ in range(3):
                ids = sorted(rng.sample(range(h.m), rng.randint(1, h.m)))
                want = scoped_reference(h, ids).to_json()
                assert min_expansion_flow(h, ids).to_json() == want
                rng.shuffle(ids)
                assert min_expansion_flow(h, ids).to_json() == want
                assert scoped_reference(h, ids).to_json() == want
                shuffled += ids != sorted(ids)
                proper += len(ids) < h.m
            assert min_expansion_flow(h, range(h.m)).to_json() == min_expansion_flow(h).to_json()
        assert shuffled >= 500 and proper >= 500

    def test_scope_ids_are_ids_of_h(self):
        # Edges 1 and 2 repeat (0, 1); without them the best is edges 0 and 3.
        h = Hypergraph(5, ((2, 3, 4), (0, 1), (0, 1), (3, 4)))
        assert min_expansion_flow(h).edge_indices == (1, 2)
        cert = min_expansion_flow(h, [3, 0])
        assert (cert.edge_indices, cert.neighborhood) == ((0, 3), (2, 3, 4))
        assert cert.ratio == Fraction(2, 3)
        assert min_expansion_flow(h, [2]).edge_indices == (2,)

    def test_bad_scopes_rejected(self):
        h = generate_uniform(6, 5, 3, sizes=(2, 3))
        with pytest.raises(EmptyHypergraphError):
            min_expansion_flow(h, [])
        for bad in ([0, 0], [1, 3, 1]):
            with pytest.raises(ValueError, match="distinct"):
                min_expansion_flow(h, bad)
        for bad in ([-1], [h.m], [0, h.m + 3]):
            with pytest.raises(ValueError, match="must lie in"):
                min_expansion_flow(h, bad)


class TestExpansionLP:
    def test_variable_count(self):
        lp = build_expansion_lp(PAIR)
        assert lp.num_variables == 3

    def test_lp_text_shape(self):
        text = build_expansion_lp(TWIN).lp_text()
        assert text.startswith("Minimize")
        assert "mass: y0 + y1 + y2 = 1" in text
        assert "cov_e2_v4: x4 - y2 >= 0" in text
        assert text.rstrip().endswith("End")

    def test_scipy_agrees_with_flow_inverse(self):
        # Independent route: solve the exported LP with HiGHS and compare
        # against the inverse of the exact flow optimum.
        linprog = pytest.importorskip("scipy.optimize").linprog
        import numpy as np

        fixed = [
            PAIR,
            TWIN,
            Hypergraph(2, ((0, 1), (0, 1))),
            Hypergraph(5, ((0, 1), (2, 3, 4))),
        ]
        for h in fixed + list(corpus(20, seed0=500)):
            n, m = h.n, h.m
            c = np.concatenate([np.ones(n), np.zeros(m)])
            a_eq = np.zeros((1, n + m))
            a_eq[0, n:] = 1.0
            rows = []
            for e, edge in enumerate(h.edges):
                for v in edge:
                    row = np.zeros(n + m)
                    row[v] = -1.0
                    row[n + e] = 1.0
                    rows.append(row)
            res = linprog(
                c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)),
                A_eq=a_eq, b_eq=[1.0], bounds=(0, None), method="highs",
            )
            assert res.status == 0
            flow_ratio = min_expansion_flow(h).ratio
            assert res.fun == pytest.approx(float(1 / flow_ratio), abs=1e-7)
            rounded = round_expansion_lp(h, res.x[:n], res.x[n:])
            assert rounded.ratio == flow_ratio


class TestRounding:
    def test_single_edge(self):
        cert = round_expansion_lp(PAIR, (1.0, 1.0), (1.0,))
        assert cert.edge_indices == (0,)
        assert cert.ratio == Fraction(1, 2)

    def test_uniform_mass_over_identical_edges(self):
        h = Hypergraph(2, ((0, 1), (0, 1)))
        cert = round_expansion_lp(h, (0.5, 0.5), (0.5, 0.5))
        assert set(cert.edge_indices) == {0, 1}
        assert cert.ratio == Fraction(1)

    def test_optimal_solution_rounds_to_flow_optimum(self):
        for h in corpus(60, seed0=600):
            x, y = optimal_expansion_lp_solution(h)
            assert round_expansion_lp(h, x, y).ratio == min_expansion_flow(h).ratio

    def test_guarantee_against_lp_objective(self):
        for h in corpus(30, seed0=700):
            cert = min_expansion_flow(h)
            x, y = lp_solution_from_certificate(h, cert)
            objective = sum(x)
            rounded = round_expansion_lp(h, x, y)
            assert rounded.ratio >= 1 / objective

    def test_negative_values_clamped(self):
        cert = round_expansion_lp(PAIR, (1.0, 1.0), (1.0 + 5e-10,))
        assert cert.ratio == Fraction(1, 2)

    def test_infeasible_mass_rejected(self):
        with pytest.raises(InfeasibleSolutionError):
            round_expansion_lp(PAIR, (1.0, 1.0), (0.5,))

    def test_cover_violation_rejected(self):
        with pytest.raises(InfeasibleSolutionError):
            round_expansion_lp(PAIR, (0.2, 1.0), (1.0,))
