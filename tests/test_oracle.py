
import pytest

from hyperdense import (
    Hypergraph,
    OracleBudgetError,
    brute_dksh,
    brute_min_expansion,
    brute_mpu,
    serialize_hypergraph,
)
from hyperdense.interval import serialize_intervals
from hyperdense.oracle import (
    BUDGET_ENV_VAR,
    PlantedSpec,
    generate_intervals,
    generate_planted,
    generate_uniform,
    resolve_budget,
)


class TestBruteMpU:
    def test_single_best_edge(self):
        h = Hypergraph(4, ((0, 1), (2, 3)))
        assert brute_mpu(h, 1).union_size == 2

    def test_duplicates_win(self):
        h = Hypergraph(5, ((0, 1), (0, 1), (2, 3, 4)))
        sol = brute_mpu(h, 2)
        assert sol.edge_indices == (0, 1)
        assert sol.union_size == 2

    def test_full_union(self):
        h = Hypergraph(5, ((0, 1), (2, 3), (3, 4)))
        assert brute_mpu(h, 3).union == (0, 1, 2, 3, 4)

    def test_lexicographic_tie(self):
        h = Hypergraph(4, ((0, 1), (2, 3)))
        assert brute_mpu(h, 1).edge_indices == (0,)

    def test_budget_enforced(self):
        h = generate_uniform(10, 14, 0)
        with pytest.raises(OracleBudgetError):
            brute_mpu(h, 7, budget=10)


class TestBruteDkSH:
    def test_single_edge(self):
        h = Hypergraph(4, ((0, 1, 2),))
        assert brute_dksh(h, 3).covered_count == 1

    def test_complete_on_five(self):
        from itertools import combinations

        h = Hypergraph(5, tuple(combinations(range(5), 3)))
        assert brute_dksh(h, 4).covered_count == 4

    def test_duality_spot_check(self):
        for seed in range(15):
            h = generate_uniform(7, 6, seed)
            p = 1 + seed % 4
            union_size = brute_mpu(h, p).union_size
            assert brute_dksh(h, union_size).covered_count >= p

    def test_budget_enforced(self):
        h = generate_uniform(20, 5, 0)
        with pytest.raises(OracleBudgetError):
            brute_dksh(h, 10, budget=100)


class TestBruteMinExpansion:
    def test_single_edge(self):
        h = Hypergraph(2, ((0, 1),))
        cert = brute_min_expansion(h)
        assert cert.edge_indices == (0,)
        assert (cert.ratio_num, cert.ratio_den) == (1, 2)

    def test_budget_enforced(self):
        h = generate_uniform(8, 22, 0)
        with pytest.raises(OracleBudgetError):
            brute_min_expansion(h, budget=1000)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "5")
        assert resolve_budget() == 5
        h = generate_uniform(6, 4, 0)
        with pytest.raises(OracleBudgetError):
            brute_min_expansion(h)
        monkeypatch.delenv(BUDGET_ENV_VAR)
        assert resolve_budget() == 2_000_000

    def test_negative_budget_rejected_from_either_source(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "-1")
        with pytest.raises(ValueError, match=rf"^{BUDGET_ENV_VAR} must be nonnegative, got -1$"):
            brute_mpu(generate_uniform(6, 4, 0), 1)
        with pytest.raises(ValueError, match=r"^budget must be nonnegative, got -1$"):
            resolve_budget(-1)
        assert resolve_budget(0) == 0
        monkeypatch.setenv(BUDGET_ENV_VAR, "0")
        assert resolve_budget() == 0
        monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
        with pytest.raises(ValueError, match=rf"^{BUDGET_ENV_VAR} must be an integer, got 'lots'$"):
            resolve_budget()


class TestGenerators:
    def test_uniform_deterministic(self):
        a = generate_uniform(9, 7, 42, sizes=(1, 4))
        b = generate_uniform(9, 7, 42, sizes=(1, 4))
        assert serialize_hypergraph(a) == serialize_hypergraph(b)

    def test_interval_deterministic_and_valid(self):
        a = generate_intervals(11, 5, 3)
        b = generate_intervals(11, 5, 3)
        assert serialize_intervals(a) == serialize_intervals(b)
        assert a.m == 5
        assert all(0 <= x <= y < 11 for x, y in a.intervals)

    def test_planted_block_is_witness(self):
        spec = PlantedSpec(n=15, noise_edges=8, block_size=6, block_edges=10, seed=9)
        planted = generate_planted(spec)
        h = planted.hypergraph
        assert h.m == 18
        assert len(planted.block_edge_indices) == 10
        for i in planted.block_edge_indices:
            assert set(h.edges[i]) <= set(planted.block_vertices)
        assert brute_mpu(h, 10).union_size <= 6

    def test_planted_deterministic(self):
        spec = PlantedSpec(n=15, noise_edges=8, block_size=6, block_edges=10, seed=9)
        a = generate_planted(spec).hypergraph
        b = generate_planted(spec).hypergraph
        assert serialize_hypergraph(a) == serialize_hypergraph(b)

    def test_infeasible_plant_rejected(self):
        with pytest.raises(ValueError):
            PlantedSpec(n=10, noise_edges=0, block_size=4, block_edges=5, seed=0)

    def test_block_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            PlantedSpec(n=3, noise_edges=0, block_size=4, block_edges=1, seed=0)
