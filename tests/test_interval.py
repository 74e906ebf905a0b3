from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from hyperdense import (
    HypergraphFormatError,
    IntervalInstance,
    VertexSolution,
    brute_dksh,
    brute_mpu,
    dksh_interval,
    mpu_interval,
    parse_intervals,
    serialize_intervals,
    to_hypergraph,
    union_of,
)
from hyperdense.interval import fill_table
from hyperdense.oracle import generate_intervals


@st.composite
def interval_instances(draw, max_n=10, max_m=6):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    intervals = []
    for _ in range(m):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a, n - 1))
        intervals.append((a, b))
    return IntervalInstance(n, tuple(intervals))


class TestInstance:
    def test_parse(self):
        inst = parse_intervals("6 2\n0 2\n4 5\n")
        assert inst.intervals == ((0, 2), (4, 5))

    def test_parse_rejects_misordered(self):
        with pytest.raises(HypergraphFormatError, match="out of range"):
            parse_intervals("6 1\n3 2\n")

    def test_roundtrip(self):
        inst = IntervalInstance(7, ((0, 3), (2, 2), (0, 3)))
        assert parse_intervals(serialize_intervals(inst)) == inst

    def test_to_hypergraph(self):
        inst = IntervalInstance(5, ((1, 3), (4, 4)))
        h = to_hypergraph(inst)
        assert h.edges == ((1, 2, 3), (4,))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            IntervalInstance(4, ((2, 1),))
        with pytest.raises(ValueError):
            IntervalInstance(4, ((0, 4),))


class TestPartition:
    """C_i from fill_table: sorted positions q <= i with a_q >= a_i."""

    IVS = ((0, 2), (1, 3), (4, 5))

    def test_mixed_position(self):
        table = fill_table(IntervalInstance(6, self.IVS))
        assert table.contained[1] == (1,)

    def test_all_left_disjoint(self):
        table = fill_table(IntervalInstance(6, self.IVS))
        assert table.contained[2] == (2,)

    def test_nested(self):
        table = fill_table(IntervalInstance(6, ((1, 2), (0, 5))))
        assert table.contained[1] == (0, 1)

    def test_self_always_contained(self):
        for inst in (generate_intervals(9, 6, s) for s in range(10)):
            table = fill_table(inst)
            for i in range(inst.m):
                assert i in table.contained[i]


class TestMpUInterval:
    def test_single_interval(self):
        inst = IntervalInstance(6, ((1, 4),))
        assert mpu_interval(inst, 1).union_size == 4

    def test_three_interval_example(self):
        inst = IntervalInstance(6, ((0, 2), (1, 3), (4, 5)))
        sol = mpu_interval(inst, 2)
        assert sol.union_size == 4
        assert sol.edge_indices == (0, 1)

    def test_p_equals_m(self):
        inst = IntervalInstance(10, ((0, 2), (5, 6), (8, 9)))
        assert mpu_interval(inst, 3).union_size == 7

    def test_p_out_of_range(self):
        inst = IntervalInstance(4, ((0, 1),))
        with pytest.raises(ValueError):
            mpu_interval(inst, 2)

    def test_matches_brute_force_exhaustively(self):
        for seed in range(60):
            inst = generate_intervals(1 + seed % 12, 1 + seed % 8, seed)
            h = to_hypergraph(inst)
            for p in range(1, inst.m + 1):
                sol = mpu_interval(inst, p)
                assert len(sol.edge_indices) == p
                assert sol.union == union_of(h, sol.edge_indices)
                assert sol.union_size == brute_mpu(h, p).union_size

    @given(interval_instances())
    def test_monotone_in_p(self, inst):
        table = fill_table(inst)
        values = [table.best_cell(p)[1] for p in range(1, inst.m + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_base_case_tightness(self):
        # Every cell (i, j <= i+1) is filled and equals the brute-force minimum
        # union over j-subsets of sorted positions 0..i that contain i.
        for seed in range(40):
            inst = generate_intervals(3 + seed % 8, 1 + seed % 8, seed)
            table = fill_table(inst)
            ivs = table.sorted_intervals
            for i in range(inst.m):
                assert len(table.values[i]) == len(table.back[i]) == i + 1
                for j in range(1, i + 2):
                    brute = min(
                        len({v for q in (*rest, i) for v in range(ivs[q][0], ivs[q][1] + 1)})
                        for rest in combinations(range(i), j - 1)
                    )
                    assert table.values[i][j - 1] == brute
                    if j <= len(table.contained[i]):
                        a, b = ivs[i]
                        assert table.values[i][j - 1] == b - a + 1

    def test_reconstruction_fidelity(self):
        for seed in range(30):
            inst = generate_intervals(12, 7, seed + 100)
            table = fill_table(inst)
            h = to_hypergraph(inst)
            for i in range(inst.m):
                a, b = table.sorted_intervals[i]
                for j in range(1, i + 2):
                    assert table.values[i][j - 1] >= b - a + 1
                    picked = table.reconstruct(i, j)
                    assert len(picked) == j
                    assert table.order[i] in picked
                    assert len(union_of(h, picked)) == table.values[i][j - 1]


def scanned_dksh_interval(inst, k):
    """dksh_interval with the largest fitting p found by scanning down from m."""
    h = to_hypergraph(inst)
    table = fill_table(inst)
    for p in range(inst.m, 0, -1):
        best_i, best_value = table.best_cell(p)
        if best_value <= k:
            span = set(union_of(h, table.reconstruct(best_i, p)))
            vertices = sorted(span)
            for v in range(inst.n):
                if len(vertices) == k:
                    break
                if v not in span:
                    vertices.append(v)
                    span.add(v)
            return VertexSolution.from_vertices(h, vertices, "interval-dp")
    return VertexSolution.from_vertices(h, range(k), "interval-dp")


class TestDkSHInterval:
    def test_k_covers_total_span(self):
        inst = IntervalInstance(8, ((0, 2), (4, 6)))
        sol = dksh_interval(inst, 8)
        assert sol.covered_count == 2

    def test_k_below_every_length(self):
        inst = IntervalInstance(9, ((0, 4), (3, 8)))
        sol = dksh_interval(inst, 3)
        assert sol.covered_count == 0
        assert len(sol.vertices) == 3

    def test_matches_brute_force(self):
        for seed in range(25):
            inst = generate_intervals(4 + seed % 9, 1 + seed % 7, seed + 500)
            h = to_hypergraph(inst)
            for k in range(1, inst.n + 1):
                sol = dksh_interval(inst, k)
                assert len(sol.vertices) == k
                assert sol.covered_count == brute_dksh(h, k).covered_count

    def test_binary_search_matches_downward_scan(self):
        cases = [
            generate_intervals(4 + seed % 30, 1 + seed % 25, seed + 900) for seed in range(60)
        ]
        cases += [generate_intervals(60, 40, seed) for seed in range(3)]
        for inst in cases:
            for k in range(1, inst.n + 1):
                got = dksh_interval(inst, k)
                want = scanned_dksh_interval(inst, k)
                assert got == want

    def test_k_out_of_range(self):
        inst = IntervalInstance(4, ((0, 1),))
        with pytest.raises(ValueError):
            dksh_interval(inst, 0)
        with pytest.raises(ValueError):
            dksh_interval(inst, 5)
