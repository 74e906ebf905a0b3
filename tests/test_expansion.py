import random
from fractions import Fraction
from itertools import combinations

import pytest

import hyperdense.expansion
import hyperdense.mpu_general
from hyperdense import (
    EmptyHypergraphError,
    Hypergraph,
    InfeasibleSolutionError,
    build_expansion_lp,
    build_expansion_network,
    decide_expansion,
    edge_subhypergraph,
    expansion_certificate,
    lp_solution_from_certificate,
    max_flow_min_cut,
    min_expansion_flow,
    mpu_sqrt_m,
    optimal_expansion_lp_solution,
    round_expansion_lp,
    solution_json,
    union_of,
)
from hyperdense.expansion import _improving_certificates
from hyperdense.oracle import brute_min_expansion, generate_uniform

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

    def test_completeness_at_boundary(self):
        for h in corpus(40, seed0=100):
            best = brute_min_expansion(h)
            assert decide_expansion(h, best.ratio_num, best.ratio_den) is None


class TestNetworkShape:
    def test_effectively_infinite_capacity(self):
        for h in corpus(20):
            net = build_expansion_network(h, 3, 5)
            assert net.cap_inf > h.m * net.cap_src
            assert net.cap_src == 5 and net.cap_sink == 3

    def test_node_layout(self):
        net = build_expansion_network(TWIN, 1, 1)
        assert net.source == 0
        assert net.edge_node(0) == 1
        assert net.vertex_node(0) == 1 + TWIN.m
        assert net.sink == net.num_nodes - 1

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            build_expansion_network(PAIR, 0, 1)


class TestMaxFlowCut:
    def test_cut_at_exact_threshold(self):
        net = build_expansion_network(PAIR, 1, 2)
        value, s_side = max_flow_min_cut(net)
        assert value == 2 == PAIR.m * 2
        assert s_side == frozenset({net.source})

    def test_cut_below_threshold(self):
        net = build_expansion_network(PAIR, 1, 3)
        value, _ = max_flow_min_cut(net)
        assert value == 2 < PAIR.m * 3

    def test_cut_never_exceeds_source_capacity(self):
        for h in corpus(30, seed0=200):
            net = build_expansion_network(h, 2, 3)
            value, _ = max_flow_min_cut(net)
            assert value <= h.m * net.cap_src

    def test_neighborhood_stays_on_source_side(self):
        # No vertex adjacent to an s-side edge node may sit on the t-side.
        for h in corpus(30, seed0=300):
            net = build_expansion_network(h, 1, 2)
            value, s_side = max_flow_min_cut(net)
            if value >= h.m * 2:
                continue
            chosen = [i for i in range(h.m) if net.edge_node(i) in s_side]
            for v in union_of(h, chosen):
                assert net.vertex_node(v) in s_side


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


def reference_improving_certificates(h):
    """The improvement loop with every decision on all of h (no nested scope)."""
    current = expansion_certificate(h, range(h.m))
    sequence = [current]
    while True:
        better = decide_expansion(h, current.ratio_num, current.ratio_den)
        if better is None:
            return sequence
        current = better
        sequence.append(current)


def reference_min_expansion_flow(h):
    return reference_improving_certificates(h)[-1]


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
    """Each decision on the last certificate's edges gives the same sequence."""

    def test_corpus_has_duplicate_edges(self):
        duplicated = [h for h in nested_scope_instances() if len(set(h.edges)) < h.m]
        assert len(duplicated) >= 50

    def test_every_improving_certificate_matches(self):
        improved = 0
        for h in nested_scope_instances():
            got = [c.to_json() for c in _improving_certificates(h)]
            want = [c.to_json() for c in reference_improving_certificates(h)]
            assert got == want
            assert min_expansion_flow(h).to_json() == want[-1]
            improved += len(want) > 2
        # Enough instances take two or more improving decisions for the
        # restriction to a certificate's edges to matter.
        assert improved >= 30

    def test_restricted_network_sees_only_the_certificate(self, monkeypatch):
        scopes = []

        def recording(h, edge_indices):
            scopes.append(tuple(edge_indices))
            return edge_subhypergraph(h, edge_indices)

        monkeypatch.setattr(hyperdense.expansion, "edge_subhypergraph", recording)
        h = generate_uniform(60, 60, 36, sizes=(2, 4))
        sequence = reference_improving_certificates(h)
        assert min_expansion_flow(h).to_json() == sequence[-1].to_json()
        assert scopes == [c.edge_indices for c in sequence[1:]]

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
        monkeypatch.setattr(
            hyperdense.mpu_general, "min_expansion_flow", reference_min_expansion_flow
        )
        want = [solution_json("mpu", p, mpu_sqrt_m(h, p)) for h, p in cases]
        assert got == want


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
