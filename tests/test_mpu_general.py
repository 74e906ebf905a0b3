import math

import pytest

from hyperdense import (
    EdgeSolution,
    Hypergraph,
    StalledGeneratorError,
    VertexSolution,
    iterative_cover,
    mpu_sqrt_m,
    union_of,
)
from hyperdense.mpu_general import mpu_best_of
from hyperdense.oracle import (
    PlantedSpec,
    brute_dksh,
    brute_mpu,
    generate_planted,
    generate_uniform,
)


class TestSqrtM:
    def test_single_edge_forced(self):
        h = Hypergraph(2, ((0, 1),))
        sol = mpu_sqrt_m(h, 1)
        assert sol.edge_indices == (0,)
        assert sol.union_size == 2

    def test_duplicate_pair_found(self):
        h = Hypergraph(7, ((0, 1), (0, 1), (0, 1, 2), (3, 4, 5, 6)))
        sol = mpu_sqrt_m(h, 2)
        assert sol.union == (0, 1)
        opt = brute_mpu(h, 2).union_size
        assert sol.union_size**2 <= 4 * h.m * opt**2

    def test_p_equals_m(self):
        h = Hypergraph(5, ((0, 1), (2, 3), (3, 4)))
        sol = mpu_sqrt_m(h, 3)
        assert sol.edge_indices == (0, 1, 2)
        assert sol.union == (0, 1, 2, 3, 4)

    def test_p_out_of_range(self):
        h = Hypergraph(2, ((0, 1),))
        with pytest.raises(ValueError):
            mpu_sqrt_m(h, 0)
        with pytest.raises(ValueError):
            mpu_sqrt_m(h, 2)

    def test_output_shape_and_union(self):
        for seed in range(40):
            n = 3 + seed % 6
            m = 2 + seed % 9
            h = generate_uniform(n, m, seed, sizes=(1, min(4, n)))
            p = 1 + seed % m
            sol = mpu_sqrt_m(h, p)
            assert len(sol.edge_indices) == p
            assert len(set(sol.edge_indices)) == p
            assert sol.union == union_of(h, sol.edge_indices)

    def test_hard_ratio_bound_on_corpus(self):
        # union <= 2*sqrt(m)*OPT, checked as union^2 <= 4*m*OPT^2 in integers
        for seed in range(60):
            n = 3 + seed % 7
            m = 2 + seed % 11
            h = generate_uniform(n, m, seed + 1000, sizes=(1, min(4, n)))
            p = 1 + seed % min(6, m)
            opt = brute_mpu(h, p).union_size
            got = mpu_sqrt_m(h, p).union_size
            assert got**2 <= 4 * h.m * opt**2

    def test_multi_round_extraction_with_index_remapping(self):
        # Duplicate clusters of strictly decreasing ratio force several
        # expansion rounds; residual indices must map back correctly.
        edges = [(0, 1)] * 3 + [(2, 3)] * 2 + [(4, 5)] * 2
        edges += [tuple(range(6 + 3 * i, 9 + 3 * i)) for i in range(9)]
        h = Hypergraph(33, tuple(edges))
        sol = mpu_sqrt_m(h, 9)
        assert len(sol.edge_indices) == 9
        assert set(sol.edge_indices) >= {0, 1, 2}
        assert sol.union_size == brute_mpu(h, 9).union_size

    def test_topup_phase_takes_smallest_edges(self):
        # With p <= ceil(sqrt(m)) the expansion phase is skipped, so the
        # output is exactly the p smallest edges (ties by index), and each of
        # them is no larger than the largest edge of any optimal solution.
        for seed in range(30):
            n = 4 + seed % 6
            m = 4 + seed % 9
            h = generate_uniform(n, m, seed + 2000, sizes=(1, min(4, n)))
            root = math.isqrt(h.m)
            if root * root < h.m:
                root += 1
            p = max(1, min(root, h.m) - (seed % 2))
            sol = mpu_sqrt_m(h, p)
            expected = tuple(sorted(sorted(range(h.m), key=lambda i: (len(h.edges[i]), i))[:p]))
            assert sol.edge_indices == expected
            opt = brute_mpu(h, p)
            opt_max = max(len(h.edges[i]) for i in opt.edge_indices)
            assert all(len(h.edges[i]) <= opt_max for i in sol.edge_indices)


class TestIterativeCover:
    def test_exact_generator_on_planted_block(self):
        spec = PlantedSpec(n=24, noise_edges=10, block_size=4, block_edges=4, seed=5)
        planted = generate_planted(spec)
        sol = iterative_cover(
            planted.hypergraph, 4, 4, lambda residual, k: brute_dksh(residual, k)
        )
        assert len(sol.edge_indices) == 4
        bound = 4 * (math.ceil(math.log(4)) + 2)
        assert sol.union_size <= bound

    def test_p_one_with_sound_generator(self):
        h = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
        sol = iterative_cover(h, 1, 3, lambda residual, k: brute_dksh(residual, 3))
        assert len(sol.edge_indices) == 1
        assert sol.union == h.edges[sol.edge_indices[0]]

    def test_cover_everything_in_one_call(self):
        h = Hypergraph(4, ((0, 1), (1, 2), (2, 3)))
        generator = lambda residual, k: VertexSolution.from_vertices(
            residual, range(residual.n), "all"
        )
        sol = iterative_cover(h, 3, 4, generator)
        assert sol.edge_indices == (0, 1, 2)
        assert sol.union == (0, 1, 2, 3)

    def test_truncation_drops_latest_first(self):
        h = Hypergraph(4, ((0, 1), (2, 3)))
        calls = []

        def generator(residual, k):
            calls.append(residual.m)
            return VertexSolution.from_vertices(residual, range(residual.n), "all")

        sol = iterative_cover(h, 1, 4, generator)
        assert sol.edge_indices == (0,)
        assert calls == [2]

    def test_stalled_generator_aborts(self):
        h = Hypergraph(3, ((0, 1, 2),))
        generator = lambda residual, k: VertexSolution((), (), "noop")
        with pytest.raises(StalledGeneratorError):
            iterative_cover(h, 1, 3, generator)


class TestBestOf:
    def _sol(self, h, idx, tag):
        return EdgeSolution.from_indices(h, idx, tag)

    def test_smaller_union_wins(self):
        h = Hypergraph(6, ((0, 1, 2, 3), (4, 5), (0, 1)))
        a = self._sol(h, [0], "a")
        b = self._sol(h, [1], "b")
        assert mpu_best_of(h, 1, [a, b]) is b

    def test_single_candidate(self):
        h = Hypergraph(2, ((0, 1),))
        a = self._sol(h, [0], "a")
        assert mpu_best_of(h, 1, [a]) is a

    def test_tie_keeps_first_tag(self):
        h = Hypergraph(4, ((0, 1), (2, 3)))
        a = self._sol(h, [0], "first")
        b = self._sol(h, [1], "second")
        assert mpu_best_of(h, 1, [a, b]).algorithm == "first"

    def test_wrong_size_rejected(self):
        h = Hypergraph(4, ((0, 1), (2, 3)))
        a = self._sol(h, [0], "a")
        with pytest.raises(ValueError):
            mpu_best_of(h, 2, [a])

    def test_empty_rejected(self):
        h = Hypergraph(2, ((0, 1),))
        with pytest.raises(ValueError):
            mpu_best_of(h, 1, [])
