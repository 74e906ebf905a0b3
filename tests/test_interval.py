import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import hyperdense.cli
from hyperdense import (
    HypergraphFormatError,
    IntervalInstance,
    brute_dksh,
    brute_mpu,
    dksh_interval,
    mpu_interval,
    parse_intervals,
    serialize_intervals,
    to_hypergraph,
    union_of,
)
from hyperdense.interval import _union_of_shortest, fill_table
from hyperdense.oracle import generate_intervals
from builds import assert_as_validated, count_hypergraph_builds
from reference import (
    reference_bounded_fill_table,
    reference_dksh_interval,
    reference_fill_table,
    reference_mpu_interval,
    reference_to_hypergraph,
)


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


@st.composite
def repeated_interval_instances(draw, max_n=12, max_m=9):
    """Interval instances in which some intervals occur more than once."""
    base = draw(interval_instances(max_n, max_m))
    picks = draw(st.lists(st.integers(0, base.m - 1), min_size=1, max_size=4))
    intervals = list(base.intervals) + [base.intervals[q] for q in picks]
    order = draw(st.permutations(range(len(intervals))))
    return IntervalInstance(base.n, tuple(intervals[q] for q in order))


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

    def test_rejects_non_integer_ends(self):
        # int(0.5) used to round the end down to 0.
        for interval in ((0.5, 2), (0, 2.0), ("0", 2), (0, None)):
            with pytest.raises(ValueError, match="interval 1 has a non-integer end"):
                IntervalInstance(5, ((1, 1), interval))

    def test_rejects_rows_that_are_not_pairs(self):
        # An int row raised TypeError, and a triple an unpacking error with no position.
        for interval in (1, (1, 2, 3), (2,), ()):
            with pytest.raises(ValueError, match=r"^interval 1 is not an \(a, b\) pair$"):
                IntervalInstance(5, ((1, 1), interval))

    def test_integer_like_ends_become_ints(self):
        np = pytest.importorskip("numpy")
        inst = IntervalInstance(5, ((np.int64(1), np.int32(3)),))
        assert inst.intervals == ((1, 3),)
        assert all(type(v) is int for v in inst.intervals[0])

    def test_non_integer_vertex_count_rejected(self):
        # A float count used to be stored as given, and mpu_interval answered on it.
        for n in (5.0, 5.5, "5", None):
            with pytest.raises(ValueError, match="vertex count .* is not an integer"):
                IntervalInstance(n, ((0, 2),))
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            IntervalInstance(-1, ())

    def test_integer_like_vertex_count_becomes_int(self):
        np = pytest.importorskip("numpy")
        inst = IntervalInstance(np.int64(5), ((0, 2),))
        assert type(inst.n) is int
        assert inst == IntervalInstance(5, ((0, 2),))

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
        assert table.contained(1) == (1,)

    def test_all_left_disjoint(self):
        table = fill_table(IntervalInstance(6, self.IVS))
        assert table.contained(2) == (2,)

    def test_nested(self):
        table = fill_table(IntervalInstance(6, ((1, 2), (0, 5))))
        assert table.contained(1) == (0, 1)

    def test_self_always_contained(self):
        for inst in (generate_intervals(9, 6, s) for s in range(10)):
            table = fill_table(inst)
            for i in range(inst.m):
                assert i in table.contained(i)


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
            ivs = [inst.intervals[q] for q in table.order]
            for i in range(inst.m):
                assert len(table.values[i]) == i + 1
                for j in range(1, i + 2):
                    brute = min(
                        len({v for q in (*rest, i) for v in range(ivs[q][0], ivs[q][1] + 1)})
                        for rest in combinations(range(i), j - 1)
                    )
                    assert table.values[i][j - 1] == brute
                    base = j <= len(table.contained(i))
                    assert (table.pointer(i, j) is None) == base
                    if base:
                        a, b = ivs[i]
                        assert table.values[i][j - 1] == b - a + 1

    def test_reconstruction_fidelity(self):
        for seed in range(30):
            inst = generate_intervals(12, 7, seed + 100)
            table = fill_table(inst)
            h = to_hypergraph(inst)
            for i in range(inst.m):
                a, b = inst.intervals[table.order[i]]
                for j in range(1, i + 2):
                    assert table.values[i][j - 1] >= b - a + 1
                    picked = table.reconstruct(i, j)
                    assert len(picked) == j
                    assert table.order[i] in picked
                    assert len(union_of(h, picked)) == table.values[i][j - 1]


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
            assert_matches_reference(inst, (), range(1, inst.n + 1))

    def test_k_out_of_range(self):
        inst = IntervalInstance(4, ((0, 1),))
        with pytest.raises(ValueError):
            dksh_interval(inst, 0)
        with pytest.raises(ValueError):
            dksh_interval(inst, 5)


def assert_matches_reference(inst, ps, ks):
    # Solutions are dataclasses: equality compares the type and every field,
    # the algorithm tag included.
    for p in ps:
        assert mpu_interval(inst, p) == reference_mpu_interval(inst, p), p
    for k in ks:
        assert dksh_interval(inst, k) == reference_dksh_interval(inst, k), k


def seeded_instances():
    """200 small seeded instances; every third one repeats some of its intervals."""
    for seed in range(200):
        inst = generate_intervals(1 + seed % 23, 1 + seed % 17, seed + 3000)
        if seed % 3 == 0:
            inst = IntervalInstance(inst.n, inst.intervals + inst.intervals[::2])
        yield inst


class TestBoundedFill:
    """Each query fills only the columns and rows it can read; answers stay the same."""

    @given(repeated_interval_instances())
    def test_matches_reference_with_repeated_intervals(self, inst):
        assert_matches_reference(inst, range(1, inst.m + 1), range(1, inst.n + 1))

    def test_matches_reference_on_seeded_instances(self):
        for inst in seeded_instances():
            assert_matches_reference(inst, range(1, inst.m + 1), range(1, inst.n + 1))

    def test_matches_reference_at_benchmark_size(self):
        for seed in range(3):
            inst = generate_intervals(200, 100, seed)
            assert_matches_reference(inst, (1, 12, 25, 50, 100), (1, 12, 25, 50, 200))

    @given(
        repeated_interval_instances(),
        st.one_of(st.none(), st.integers(1, 13)),
        st.one_of(st.none(), st.integers(1, 14)),
    )
    def test_bounded_cells_equal_full_cells(self, inst, bound, width):
        # A cell of the bounded table equals the full table's cell, predecessor
        # and contained set included, whenever j <= width and value <= bound.
        full = reference_fill_table(inst)
        table = fill_table(inst, bound, width)
        keep = [
            q for q in full.order
            if bound is None or inst.intervals[q][1] - inst.intervals[q][0] + 1 <= bound
        ]
        assert table.order == tuple(keep)
        pos = {q: i for i, q in enumerate(full.order)}
        lift = [pos[q] for q in table.order]
        limit = width if width is not None else len(lift)
        fits = (lambda value: True) if bound is None else (lambda value: value <= bound)
        for i, row in enumerate(table.values):
            assert len(row) == min(i + 1, limit)
            assert tuple(lift[q] for q in table.contained(i)) == full.contained[lift[i]]
            for j, value in enumerate(row, start=1):
                want = full.values[lift[i]][j - 1]
                if not fits(want):
                    assert value > bound
                    continue
                assert value == want
                pointer = table.pointer(i, j)
                lifted = None if pointer is None else (lift[pointer[0]], pointer[1])
                assert lifted == full.back[lift[i]][j - 1]
        for p in range(1, min(limit, len(lift)) + 1):
            want_i, want = full.best_cell(p)
            if fits(want):
                got_i, got = table.best_cell(p)
                assert (lift[got_i], got) == (want_i, want)

    def test_no_interval_fits_k(self):
        inst = IntervalInstance(9, ((0, 4), (3, 8), (2, 6)))
        assert fill_table(inst, 3).values == ()
        sol = dksh_interval(inst, 3)
        assert sol == reference_dksh_interval(inst, 3)
        assert sol.vertices == (0, 1, 2) and sol.covered_count == 0

    def test_bound_covering_every_interval_fills_the_full_table(self):
        for inst in (generate_intervals(30, 20, seed) for seed in range(5)):
            full = reference_fill_table(inst)
            for bound in (inst.n, max(b - a + 1 for a, b in inst.intervals)):
                assert derived_fields(fill_table(inst, bound)) == stored_fields(full)

    def test_p_equals_m(self):
        for inst in (generate_intervals(40, 15, seed) for seed in range(5)):
            assert mpu_interval(inst, inst.m) == reference_mpu_interval(inst, inst.m)

    def test_mpu_bound_is_the_union_of_the_p_shortest(self):
        # Lengths 6, 1, 2, 2: the tie at length 2 goes to the lower index.
        inst = IntervalInstance(10, ((0, 5), (2, 2), (3, 4), (2, 3)))
        assert [_union_of_shortest(inst, p) for p in range(1, 5)] == [1, 3, 3, 6]


def derived_fields(table):
    """A table's order, C_i per row, values and predecessor per cell, read through its methods."""
    rows = range(len(table.values))
    return (
        table.order,
        tuple(table.contained(i) for i in rows),
        table.values,
        tuple(tuple(table.pointer(i, j) for j in range(1, len(table.values[i]) + 1)) for i in rows),
    )


def stored_fields(reference):
    return (reference.order, reference.contained, reference.values, reference.back)


def assert_fill_matches_parent(inst, widths=None):
    """Every bounded fill equals the frozen parent fill.

    The bounds are None and every distinct length; the widths are None and
    1..m unless given.  Order and values are compared on every table, and
    C_i and every cell's predecessor on the unbounded full-width one.
    """
    bounds = [None, *sorted({b - a + 1 for a, b in inst.intervals})]
    widths = [None, *range(1, inst.m + 1)] if widths is None else widths
    for bound in bounds:
        for width in widths:
            table = fill_table(inst, bound, width)
            parent = reference_bounded_fill_table(inst, bound, width)
            assert (table.order, table.values) == (parent.order, parent.values), (
                inst, bound, width
            )
            if bound is None and width is None:
                assert derived_fields(table) == stored_fields(parent), inst


def assert_reconstructions_match_parent(inst, widths):
    """On each unbounded table, the best cell of every p reconstructs as the parent's does."""
    for width in widths:
        table = fill_table(inst, None, width)
        parent = reference_bounded_fill_table(inst, None, width)
        for p in range(1, min(width or inst.m, inst.m) + 1):
            best_i, best = table.best_cell(p)
            assert (best_i, best) == parent.best_cell(p), (inst, width, p)
            assert table.reconstruct(best_i, p) == parent.reconstruct(best_i, p), (inst, width, p)


def touching_instances():
    """Seeded instances where many intervals start at another's right end or are points."""
    for seed in range(80):
        rng = random.Random(seed + 7000)
        n = 1 + seed % 9
        intervals = []
        for _ in range(1 + seed % 11):
            ends = [b for _, b in intervals]
            a = rng.choice(ends) if ends and rng.random() < 0.6 else rng.randrange(n)
            b = a if rng.random() < 0.4 else rng.randint(a, n - 1)
            intervals.append((a, b))
        yield IntervalInstance(n, tuple(intervals))


class TestPrefixMinimumFill:
    """The fill reads the disjoint predecessors off a prefix minimum and stores
    values only; tables, C_i and predecessors stay the parent's."""

    def test_matches_parent_on_seeded_instances(self):
        for inst in seeded_instances():
            assert_fill_matches_parent(inst)

    @given(repeated_interval_instances())
    def test_matches_parent_with_repeated_intervals(self, inst):
        assert_fill_matches_parent(inst)

    def test_matches_parent_with_touching_ends_and_points(self):
        for inst in touching_instances():
            assert_fill_matches_parent(inst)

    def test_touching_end_is_not_disjoint(self):
        # (0, 2) ends where (2, 4) starts, so it shares vertex 2: union 5, not 6.
        inst = IntervalInstance(5, ((0, 2), (2, 4)))
        assert fill_table(inst).values == ((3,), (3, 5))
        assert_fill_matches_parent(inst)

    def test_tie_keeps_the_earliest_disjoint_predecessor(self):
        # Both points end before (3, 4) and tie at 1, so cell (2, 2) points at position 0.
        inst = IntervalInstance(5, ((0, 0), (1, 1), (3, 4)))
        assert fill_table(inst).pointer(2, 2) == (0, 1)
        assert_fill_matches_parent(inst)

    def test_matches_parent_at_benchmark_size(self):
        # The full width grid costs about a minute here, so the widths are the
        # ones the benchmark's queries read, plus 1 and the full table.
        # Reconstructions on bounded tables are covered by the answers of
        # TestBoundedFill::test_matches_reference_at_benchmark_size.
        for seed in range(3):
            inst = generate_intervals(200, 100, seed)
            assert_fill_matches_parent(inst, (None, 1, 12, 25, 50))
            assert_reconstructions_match_parent(inst, (None, 1, 12, 25, 50))


class TestOneHypergraphBuild:
    @given(repeated_interval_instances())
    def test_parse_and_view_build_validated_values(self, inst):
        parsed = parse_intervals(serialize_intervals(inst))
        assert parsed == inst
        assert_as_validated(parsed)
        view = to_hypergraph(parsed)
        assert view == reference_to_hypergraph(inst)
        assert_as_validated(view)

    def test_solver_and_caller_share_one_build(self):
        inst = generate_intervals(20, 10, 1)
        assert to_hypergraph(inst) is to_hypergraph(inst)
        assert to_hypergraph(inst) == reference_to_hypergraph(inst)
        assert IntervalInstance(inst.n, inst.intervals) == inst

    @pytest.mark.parametrize(
        "argv",
        [["mpu", "--algo", "interval", "--p", "3"], ["dksh", "--algo", "interval", "--k", "4"]],
    )
    def test_cli_op_builds_one_hypergraph(self, tmp_path, monkeypatch, capsys, argv):
        path = tmp_path / "inst.iv"
        path.write_text(serialize_intervals(generate_intervals(20, 10, 1)))
        builds = count_hypergraph_builds(monkeypatch)
        assert hyperdense.cli.main(["solve", *argv, str(path)]) == 0
        assert len(builds) == 1
        capsys.readouterr()
