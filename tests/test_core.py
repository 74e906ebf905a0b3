import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hyperdense import (
    EdgeSolution,
    Hypergraph,
    HypergraphFormatError,
    IntervalInstance,
    VertexSolution,
    brute_dksh,
    brute_mpu,
    covered_edges,
    dksh_3uniform,
    dksh_interval,
    mpu_interval,
    mpu_sqrt_m,
    parse_hypergraph,
    parse_intervals,
    serialize_hypergraph,
    solution_json,
    union_of,
)
import hyperdense.cli
from hyperdense.mpu3 import MpU3Params
from builds import assert_as_validated
from hyperdense.core import (
    degrees,
    edge_subhypergraph,
    induced,
    top_by_degree,
)
from reference import (
    ReferenceFormatError,
    reference_covered_edges,
    reference_degrees,
    reference_parse_hypergraph,
    reference_parse_intervals,
)
from texts import instance_texts


@st.composite
def hypergraphs(draw, max_n=8, max_m=8, min_size=1, max_size=4):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    edges = []
    for _ in range(m):
        s = draw(st.integers(min_size, min(max_size, n)))
        edges.append(tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=s, max_size=s)))))
    return Hypergraph(n, tuple(edges))


class TestParse:
    def test_basic(self):
        h = parse_hypergraph("3 2\n0 1\n1 2\n")
        assert h.n == 3
        assert h.edges == ((0, 1), (1, 2))

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(HypergraphFormatError, match="repeated vertex"):
            parse_hypergraph("2 1\n0 0\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(HypergraphFormatError, match="out of range"):
            parse_hypergraph("2 1\n0 5\n")

    def test_non_integer_token(self):
        with pytest.raises(HypergraphFormatError, match="non-integer token"):
            parse_hypergraph("2 1\n0 x\n")

    def test_malformed_header(self):
        with pytest.raises(HypergraphFormatError, match="header"):
            parse_hypergraph("2\n0 1\n")

    def test_missing_edges(self):
        with pytest.raises(HypergraphFormatError, match="found only 1"):
            parse_hypergraph("3 2\n0 1\n")

    def test_comments_and_blank_lines(self):
        h = parse_hypergraph("# instance\n\n3 1\n# edge\n0 2\n\n")
        assert h.edges == ((0, 2),)

    def test_line_numbers_in_errors(self):
        with pytest.raises(HypergraphFormatError, match="line 3"):
            parse_hypergraph("3 2\n0 1\n0 9\n")

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_hypergraph, "", "line 1: missing 'n m' header"),
            (parse_hypergraph, "3\n", "line 1: header must be 'n m'"),
            (parse_hypergraph, "3 x\n", "line 1: non-integer token 'x'"),
            (parse_hypergraph, "-1 0\n", "line 1: header counts must be nonnegative"),
            (parse_hypergraph, "3 2\n0 1\n", "expected 2 edge lines, found only 1"),
            (parse_hypergraph, "3 1\n0 1\n# c\n1 2\n", "line 4: trailing content after 1 edges"),
            (parse_hypergraph, "3 1\n0 0\n1 2\n", "line 2: repeated vertex 0 within edge"),
            (parse_hypergraph, "3 1\n0 a 1 b\n", "line 2: non-integer token 'a'"),
            (parse_hypergraph, "3 1\n5 0\n1 2\n", "line 2: vertex id 5 out of range [0, 3)"),
            (parse_hypergraph, b"2 1\n0 \xff\n", "line 2: not UTF-8 text"),
            # The order of the checks: a bad row before a shortfall, a
            # non-integer token before a repeat, a repeat before the range.
            (parse_hypergraph, "3 2\n0 0\n", "line 2: repeated vertex 0 within edge"),
            (parse_hypergraph, "3 1\n5 5\n", "line 2: repeated vertex 5 within edge"),
            (parse_hypergraph, "3 1\n0 0 x\n", "line 2: non-integer token 'x'"),
            (parse_hypergraph, "5 1\n0 3 3\n", "line 2: repeated vertex 3 within edge"),
            (parse_hypergraph, "3 1\n-1 0\n", "line 2: vertex id -1 out of range [0, 3)"),
            # Only a line whose first token starts with '#' is a comment.
            (parse_hypergraph, "3 1\n0 #1\n", "line 2: non-integer token '#1'"),
            (parse_intervals, "", "line 1: missing 'n m' header"),
            (parse_intervals, "5 1 1\n", "line 1: header must be 'n m'"),
            (parse_intervals, "5 -2\n", "line 1: header counts must be nonnegative"),
            (parse_intervals, "5 2\n0 1\n", "expected 2 interval lines, found only 1"),
            (parse_intervals, "5 1\n0 1\n2 3\n", "line 3: trailing content after 1 intervals"),
            (parse_intervals, "5 1\n0 1 2\n0 1\n", "line 2: interval line must be 'a b'"),
            (parse_intervals, "5 1\n0 y\n0 1\n", "line 2: non-integer token 'y'"),
            (parse_intervals, "5 1\n3 2\n0 1\n", "line 2: interval (3, 2) out of range for n=5"),
            (parse_intervals, b"2 1\n0 \xff\n", "line 2: not UTF-8 text"),
        ],
    )
    def test_error_messages(self, parse, text, message):
        # Both formats share one skeleton; a bad row is reported before
        # trailing content.
        with pytest.raises(HypergraphFormatError) as err:
            parse(text)
        assert str(err.value) == message

    def test_bytes_accepted(self):
        assert parse_hypergraph(b"2 1\n0 1\n").edges == ((0, 1),)

    @given(hypergraphs())
    def test_roundtrip(self, h):
        parsed = parse_hypergraph(serialize_hypergraph(h))
        assert parsed == h
        assert_as_validated(parsed)


def _parsed(parse, text):
    """(n, rows) of a parse, or (error type, message) when it rejects the text."""
    try:
        inst = parse(text)
    except (HypergraphFormatError, ReferenceFormatError) as exc:
        return type(exc), str(exc)
    if isinstance(inst, tuple):  # a frozen reference's (n, rows)
        return inst[0], inst[1]
    assert_as_validated(inst)
    return inst.n, list(inst.edges if isinstance(inst, Hypergraph) else inst.intervals)


class TestParseMatchesReference:
    @settings(deadline=None, derandomize=True, max_examples=1000)
    @given(instance_texts())
    def test_same_rows_or_same_message(self, text):
        # Over valid and edited texts, str and bytes, each read in both
        # formats: the same n and rows as the generator parse, or the same
        # error message.
        for parse, reference in ((parse_hypergraph, reference_parse_hypergraph),
                                 (parse_intervals, reference_parse_intervals)):
            expected = _parsed(reference, text)
            if expected[0] is ReferenceFormatError:
                expected = (HypergraphFormatError, expected[1])
            assert _parsed(parse, text) == expected


class TestHypergraph:
    def test_duplicate_edges_preserved(self):
        h = Hypergraph(2, ((0, 1), (0, 1)))
        assert h.m == 2

    def test_unsorted_input_canonicalized(self):
        h = Hypergraph(3, ((2, 0),))
        assert h.edges == ((0, 2),)

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Hypergraph(3, ((),))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            Hypergraph(3, ((1, 1),))

    def test_non_integer_id_rejected(self):
        # A float id used to be stored as given, and later broke list indexing.
        for edge in ((0, 1, 2.0), (0, 1.5), (0, "1"), (None, 1)):
            with pytest.raises(ValueError, match="edge 1 has a non-integer vertex id"):
                Hypergraph(3, ((0, 1), edge))

    def test_integer_like_ids_become_ints(self):
        np = pytest.importorskip("numpy")
        h = Hypergraph(3, ((np.int64(2), np.int32(0), 1),))
        assert h.edges == ((0, 1, 2),)
        assert all(type(v) is int for v in h.edges[0])
        assert Hypergraph(3, (range(3),)) == Hypergraph(3, ((0, 1, 2),))

    def test_non_integer_vertex_count_rejected(self):
        # A float count used to be stored as given, and later broke the solvers.
        for n in (4.0, 4.5, "4", None):
            with pytest.raises(ValueError, match="vertex count .* is not an integer"):
                Hypergraph(n, ((0, 1, 2), (1, 2, 3)))
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            Hypergraph(-1, ())

    def test_integer_like_vertex_count_becomes_int(self):
        np = pytest.importorskip("numpy")
        h = Hypergraph(np.int64(4), ((0, 1, 2), (1, 2, 3)))
        assert type(h.n) is int
        assert h == Hypergraph(4, ((0, 1, 2), (1, 2, 3)))

    def test_is_uniform(self):
        assert Hypergraph(4, ()).is_uniform(3)
        h = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
        assert h.is_uniform(3) and h.is_uniform(3)
        assert not h.is_uniform(2)
        mixed = Hypergraph(5, ((0, 1, 2), (3, 4)))
        assert not mixed.is_uniform(3) and not mixed.is_uniform(2)


class TestInduced:
    def test_keeps_contained_edges(self):
        h = Hypergraph(3, ((0, 1), (1, 2), (0, 2)))
        sub, lift = induced(h, {0, 1})
        assert sub.edges == ((0, 1),)
        assert lift == (0, 1)

    def test_identity_on_full_vertex_set(self):
        h = Hypergraph(4, ((0, 1), (1, 2, 3), (1, 2, 3)))
        sub, lift = induced(h, range(4))
        assert sub.edges == h.edges
        assert lift == (0, 1, 2, 3)

    def test_partial_edge_dropped(self):
        h = Hypergraph(3, ((0, 1, 2),))
        sub, _ = induced(h, {0, 1})
        assert sub.edges == ()

    def test_relabelling(self):
        h = Hypergraph(5, ((2, 4),))
        sub, lift = induced(h, {2, 4})
        assert sub.edges == ((0, 1),)
        assert lift == (2, 4)

    @given(hypergraphs())
    def test_full_set_is_identity(self, h):
        sub, _ = induced(h, range(h.n))
        assert sub.edges == h.edges


class TestEdgeSubhypergraph:
    def test_all_ids_in_order_return_the_instance(self):
        h = Hypergraph(4, ((0, 1), (1, 2, 3), (1, 2, 3)))
        assert edge_subhypergraph(h, range(h.m)) is h
        assert edge_subhypergraph(h, iter([0, 1, 2])) is h
        empty = Hypergraph(3, ())
        assert edge_subhypergraph(empty, []) is empty

    def test_other_selections_copy(self):
        h = Hypergraph(4, ((0, 1), (1, 2, 3), (2, 3)))
        for ids, edges in (
            ([2, 1, 0], ((2, 3), (1, 2, 3), (0, 1))),
            ([0, 2], ((0, 1), (2, 3))),
            ([0, 1, 2, 2], ((0, 1), (1, 2, 3), (2, 3), (2, 3))),
            ([], ()),
        ):
            sub = edge_subhypergraph(h, ids)
            assert sub is not h
            assert (sub.n, sub.edges) == (4, edges)

    @given(hypergraphs(), st.data())
    def test_same_value_as_a_copy(self, h, data):
        ids = data.draw(st.lists(st.integers(0, max(h.m - 1, 0)), max_size=h.m)) if h.m else []
        sub = edge_subhypergraph(h, ids)
        assert sub == Hypergraph(h.n, tuple(h.edges[i] for i in ids))
        assert_as_validated(sub)
        assert edge_subhypergraph(h, range(h.m)) == Hypergraph(h.n, h.edges)

    def test_ids_outside_range_rejected(self):
        # A negative id used to wrap to an edge from the end, and m raised IndexError.
        h = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
        for ids in ([-1], [0, -2], [2], [1, 0, 5]):
            with pytest.raises(ValueError, match="edge index out of range"):
                edge_subhypergraph(h, ids)
        with pytest.raises(ValueError, match="edge index out of range"):
            edge_subhypergraph(Hypergraph(3, ()), [0])


class TestDegrees:
    def test_degree(self):
        h = Hypergraph(3, ((0, 1), (0, 2)))
        assert degrees(h)[0] == 2

    def test_duplicates_count(self):
        h = Hypergraph(2, ((0, 1), (0, 1)))
        assert degrees(h)[1] == 2

    def test_isolated_vertex(self):
        h = Hypergraph(3, ((0, 1),))
        assert degrees(h)[2] == 0

    @given(hypergraphs())
    def test_degrees_match_direct_scan(self, h):
        table = degrees(h)
        for v in range(h.n):
            assert table[v] == sum(1 for e in h.edges if v in e)


class TestTopByDegree:
    def test_tie_break_by_id(self):
        h = Hypergraph(4, ((0, 1, 2), (0, 1, 3)))
        assert top_by_degree(h, 1) == (0,)

    def test_t_at_least_n(self):
        h = Hypergraph(3, ((0, 1),))
        assert top_by_degree(h, 5) == (0, 1, 2)

    def test_all_tied(self):
        h = Hypergraph(5, ((2, 3, 4),))
        assert top_by_degree(h, 2) == (2, 3)

    @settings(max_examples=60, deadline=None)
    @given(h=hypergraphs(), t=st.integers(min_value=0, max_value=10))
    def test_matches_reference_ranking(self, h, t):
        # The body before the ranking moved into the shared top-t helper.
        deg = degrees(h)
        order = sorted(range(h.n), key=lambda v: (-deg[v], v))
        assert top_by_degree(h, t) == tuple(sorted(order[: min(t, h.n)]))


class TestUnionOf:
    def test_union(self):
        h = Hypergraph(3, ((0, 1), (1, 2)))
        assert union_of(h, (0, 1)) == (0, 1, 2)

    def test_empty(self):
        h = Hypergraph(3, ((0, 1),))
        assert union_of(h, ()) == ()

    def test_duplicates(self):
        h = Hypergraph(2, ((0, 1), (0, 1)))
        assert union_of(h, (0, 1)) == (0, 1)

    def test_ids_outside_range_rejected(self):
        # A negative id used to wrap to an edge from the end.
        h = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
        for ids in ([-1], [0, -2], [2], [1, 0, 5]):
            with pytest.raises(ValueError, match="edge index out of range"):
                union_of(h, ids)
        with pytest.raises(ValueError, match="edge index out of range"):
            union_of(Hypergraph(3, ()), [0])

    @given(hypergraphs(), st.data())
    def test_adding_covered_edge_keeps_union(self, h, data):
        if h.m == 0:
            return
        subset = data.draw(st.sets(st.integers(0, h.m - 1)))
        base = union_of(h, subset)
        extra = data.draw(st.integers(0, h.m - 1))
        grown = union_of(h, set(subset) | {extra})
        assert set(base) <= set(grown)
        if set(h.edges[extra]) <= set(base):
            assert grown == base


class TestSolutions:
    def test_edge_solution(self):
        h = Hypergraph(3, ((0, 1), (1, 2)))
        sol = EdgeSolution.from_indices(h, [1, 0], "x")
        assert sol.edge_indices == (0, 1)
        assert sol.union == (0, 1, 2)

    def test_edge_solution_rejects_duplicates(self):
        h = Hypergraph(3, ((0, 1),))
        with pytest.raises(ValueError):
            EdgeSolution.from_indices(h, [0, 0])

    def test_vertex_solution_covers_all(self):
        h = Hypergraph(4, ((0, 1), (0, 1), (2, 3)))
        sol = VertexSolution.from_vertices(h, [1, 0], "x")
        assert sol.covered == (0, 1)

    def test_covered_edges_scan(self):
        h = Hypergraph(4, ((0, 1, 2), (1, 2), (0, 3)))
        assert covered_edges(h, {0, 1, 2}) == (0, 1)

    def test_covered_edges_ignores_ids_beyond_n(self):
        h = Hypergraph(4, ((0, 1, 2), (1, 2), (0, 3)))
        assert covered_edges(h, {0, 1, 2, 4, 60, 1 << 40}) == (0, 1)
        assert len(covered_edges(h, {0, 1, 2, 4, 1 << 40})) == 2

    def test_covered_edges_rejects_negative_id(self):
        h = Hypergraph(4, ((0, 1, 2),))
        with pytest.raises(ValueError):
            covered_edges(h, {0, 1, 2, -1})

    def test_covered_edges_rejects_non_integer_id(self):
        h = Hypergraph(4, ((0, 1, 2),))
        with pytest.raises(TypeError):
            covered_edges(h, {0.0, 1.0, 2.0})
        with pytest.raises(TypeError):
            VertexSolution.from_vertices(h, [0.0, 1.0, 2.0])

    def test_solution_json_is_canonical(self):
        h = Hypergraph(3, ((0, 1),))
        sol = EdgeSolution.from_indices(h, [0], "sqrt-m")
        a = solution_json("mpu", 1, sol)
        b = solution_json("mpu", 1, EdgeSolution.from_indices(h, [0], "sqrt-m"))
        assert a == b
        assert '"problem":"mpu"' in a


@st.composite
def hypergraphs_with_duplicates(draw, max_size=4):
    h = draw(hypergraphs(max_m=10, max_size=max_size))
    if not h.edges:
        return h
    repeats = draw(st.lists(st.sampled_from(h.edges), max_size=4))
    return Hypergraph(h.n, tuple(draw(st.permutations(h.edges + tuple(repeats)))))


@st.composite
def vertex_queries(draw, max_size=4):
    """A hypergraph and a vertex set that may hold ids >= n; empty and full sets
    are drawn as often as random ones."""
    h = draw(hypergraphs_with_duplicates(max_size))
    kind = draw(st.sampled_from(("empty", "full", "random")))
    if kind == "empty":
        vs = set()
    elif kind == "full":
        vs = set(range(h.n))
    else:
        vs = draw(st.sets(st.integers(0, h.n - 1)))
    vs |= draw(st.sets(st.integers(h.n, h.n + 70), max_size=2))
    return h, vs


class TestCheckRange:
    def test_every_solver_words_its_range_the_same_way(self):
        h = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
        inst = IntervalInstance(4, ((0, 1), (2, 3)))
        cases = [
            (lambda: mpu_sqrt_m(h, 3), "p must be in [1, 2], got 3"),
            (lambda: dksh_3uniform(h, 2), "k must be in [3, 4], got 2"),
            (lambda: mpu_interval(inst, 0), "p must be in [1, 2], got 0"),
            (lambda: dksh_interval(inst, 5), "k must be in [1, 4], got 5"),
            (lambda: brute_mpu(h, -1), "p must be in [1, 2], got -1"),
            (lambda: brute_dksh(h, 0), "k must be in [1, 4], got 0"),
            (lambda: MpU3Params.for_guess(h, 1, 5, (2, 2, 2, 1)), "k must be in [1, 4], got 5"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


class TestCoveredEdgesIndex:
    @settings(deadline=None, derandomize=True, max_examples=250)
    @given(vertex_queries())
    def test_matches_mask_scan(self, case):
        h, vs = case
        expected = reference_covered_edges(h, vs)
        assert covered_edges(h, vs) == expected
        assert covered_edges(h, iter(sorted(vs))) == expected
        assert len(covered_edges(h, vs)) == len(expected)

    @settings(deadline=None, derandomize=True, max_examples=250)
    @given(vertex_queries(max_size=5).filter(lambda case: not case[0].is_uniform(3)))
    def test_matches_mask_scan_off_three_uniform(self, case):
        # Edges of 1 to 5 vertices: the (id, edge) index is not size-specific.
        h, vs = case
        assert covered_edges(h, vs) == reference_covered_edges(h, vs)

    @settings(deadline=None, derandomize=True)
    @given(vertex_queries(), st.integers(-5, -1))
    def test_negative_id_raises(self, case, bad):
        h, vs = case
        with pytest.raises(ValueError):
            covered_edges(h, vs | {bad})
        with pytest.raises(ValueError):
            len(covered_edges(h, vs | {bad}))

    @settings(deadline=None, derandomize=True)
    @given(hypergraphs_with_duplicates())
    def test_index_lists_each_edge_once_under_its_last_vertex(self, h):
        listed = sorted((i, v) for v, group in h.edges_by_last.items() for i, _ in group)
        assert listed == [(i, e[-1]) for i, e in enumerate(h.edges)]
        assert all(edge is h.edges[i] for group in h.edges_by_last.values() for i, edge in group)
        assert all(list(group) == sorted(group) for group in h.edges_by_last.values())

    @settings(deadline=None, derandomize=True)
    @given(hypergraphs_with_duplicates())
    def test_edges_at_matches_a_brute_force_build(self, h):
        brute = {v: tuple(i for i, e in enumerate(h.edges) if v in e) for v in range(h.n)}
        assert h.edges_at == {v: ids for v, ids in brute.items() if ids}

    @settings(deadline=None, derandomize=True)
    @given(hypergraphs_with_duplicates(), st.data())
    def test_degrees_read_it_on_residuals(self, h, data):
        # A residual is a new instance with its own cached index.
        ids = data.draw(st.lists(st.integers(0, max(h.m - 1, 0)), unique=True)) if h.m else []
        assert degrees(h) == reference_degrees(h)
        residual = edge_subhypergraph(h, ids)
        assert degrees(residual) == reference_degrees(residual)

    def test_edges_at_keys_follow_m_not_n(self):
        # Keyed by the vertices of some edge: a list per vertex would be 10**6 lists.
        h = Hypergraph(10**6, ((0, 1, 2),))
        tracemalloc.start()
        try:
            index = h.edges_at
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index == {0: (0,), 1: (0,), 2: (0,)}
        assert peak < 1 << 16

    def test_index_keys_follow_m_not_n(self):
        h = Hypergraph(10**6, ((0, 5), (3, 5), (7, 999_999)))
        assert sorted(h.edges_by_last) == [5, 999_999]
        assert covered_edges(h, {0, 3, 5}) == (0, 1)

    def test_wide_ids_allocate_little(self):
        # Containment is a set test, so memory follows the edges and the query,
        # not the largest id: a bitmask per edge would take about 5 MB here.
        rng = random.Random(7)
        h = Hypergraph(10**6, tuple(tuple(rng.sample(range(10**6), 3)) for _ in range(50)))
        vs = {v for e in h.edges[:20] for v in e} | {5, 10**6 - 1}
        tracemalloc.start()
        try:
            covered = covered_edges(h, vs)
            assert len(covered_edges(h, vs)) == len(covered) >= 20
            sol = VertexSolution(tuple(sorted(vs)), covered)
            hyperdense.cli._reverify(h, solution_json("dksh", len(vs), sol))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestTrustedBuilds:
    """Parse builds without a second validation; the result is the value the
    validating constructor gives."""

    @settings(deadline=None, derandomize=True)
    @given(hypergraphs_with_duplicates(), st.randoms(use_true_random=False))
    def test_parse_of_unsorted_rows(self, h, rng):
        rows = [rng.sample(e, len(e)) for e in h.edges]
        text = f"# shuffled\n{h.n} {h.m}\n" + "".join(
            " ".join(map(str, row)) + "\n\n" for row in rows
        )
        parsed = parse_hypergraph(text)
        assert parsed == Hypergraph(h.n, tuple(map(tuple, rows)))
        assert_as_validated(parsed)
