"""Hypergraph instances, solution containers, and the structural queries all solvers share.

Vertices are dense integer ids ``0..n-1``.  Hyperedges are stored as sorted
tuples and may repeat: multiset semantics matter because edge-selection
objectives count edges, not distinct edges.  Every type here is immutable and
every operation is a pure function, so values can be shared freely between
concurrent tasks.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence


class HypergraphFormatError(ValueError):
    """Malformed instance or solution text; instance messages carry a 1-based line number."""


@dataclass(frozen=True)
class Hypergraph:
    """A vertex count plus an ordered multiset of hyperedges.

    Each edge is normalised to a strictly increasing tuple of integer ids at
    construction time; a non-integer or negative vertex count, non-integer
    ids, repeated vertices within an edge and out-of-range ids are rejected.
    Duplicate edges are allowed.  The incidence indexes ``edges_at`` and
    ``edges_by_last`` are built on first use and cached; both grow with the
    edges, not with n.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _vertex_count(self.n))
        canon = []
        for pos, edge in enumerate(self.edges):
            try:
                vs = tuple(sorted(map(operator.index, edge)))
            except TypeError:
                raise ValueError(f"edge {pos} has a non-integer vertex id") from None
            if not vs:
                raise ValueError(f"edge {pos} is empty")
            for a, b in zip(vs, vs[1:]):
                if a == b:
                    raise ValueError(f"edge {pos} repeats vertex {a}")
            if vs[0] < 0 or vs[-1] >= self.n:
                raise ValueError(f"edge {pos} has a vertex id outside [0, {self.n})")
            canon.append(vs)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edges_at(self) -> dict[int, tuple[int, ...]]:
        """Incidence index: vertex -> ids of the edges that contain it, in edge order.

        The lists hold sum |e| ids, and only vertices of some edge are keys,
        so the index grows with the edges, not n.  ``degrees`` reads its list
        lengths; the anchored scans of ``dksh3`` read their anchors' lists.
        """
        groups: dict[int, list[int]] = {}
        for i, e in enumerate(self.edges):
            for v in e:
                groups.setdefault(v, []).append(i)
        return {v: tuple(group) for v, group in groups.items()}

    @cached_property
    def edges_by_last(self) -> dict[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """Incidence index: vertex -> (id, edge) of the edges it ends, in edge order.

        An edge is listed once, under its largest vertex, as its id and the
        tuple ``edges[id]`` itself, so a containment test reads no second index.
        Only vertices that end an edge are keys, so the index grows with m, not
        n.  The largest vertex, not the smallest, because candidate sets are
        padded with the smallest ids, and those end few edges.
        """
        groups: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for i, e in enumerate(self.edges):
            groups.setdefault(e[-1], []).append((i, e))
        return {v: tuple(group) for v, group in groups.items()}

    @cached_property
    def _edge_sizes(self) -> frozenset[int]:
        return frozenset(map(len, self.edges))

    def is_uniform(self, size: int) -> bool:
        """Every edge has ``size`` vertices; the edges are scanned once per instance."""
        return self._edge_sizes <= {size}


def _trusted(cls, **fields):
    """A ``cls`` holding ``fields`` as given, without running ``__post_init__``.

    Only for fields that are already canonical: rows the parse has checked,
    or edges taken from a built instance.  Every other caller goes through
    the public constructor and its checks.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _vertex_count(n: object) -> int:
    """``n`` as an ``int``; a non-integer or negative vertex count raises ValueError."""
    try:
        count = operator.index(n)
    except TypeError:
        raise ValueError(f"vertex count {n!r} is not an integer") from None
    if count < 0:
        raise ValueError("vertex count must be nonnegative")
    return count


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    """A ValueError naming the parameter and its range unless lo <= value <= hi."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")


def _content_lines(text: str | bytes) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of every non-blank, non-comment line, in order."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:  # numbered as splitlines numbers the text
            lineno = len((text[: exc.start].decode("utf-8") + ".").splitlines())
            raise HypergraphFormatError(f"line {lineno}: not UTF-8 text") from None
    return [
        (lineno, tokens)
        for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1)
        if tokens and tokens[0][0] != "#"
    ]


def _shown(token: str) -> str:
    """``token`` quoted for a message: past 20 characters, its first 20 and its length."""
    if len(token) <= 20:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def _int_tokens(tokens: list[str], lineno: int, too_long: str) -> list[int]:
    """The tokens as integers; the first token ``int()`` refuses is reported with its line.

    A digit string (a sign, then decimal digits with single underscores
    between them) is refused only for having more digits than
    ``sys.get_int_max_str_digits()``: it is an integer out of range, and
    ``too_long``, with ``{}`` for the token, words the message.
    """
    try:
        return list(map(int, tokens))
    except ValueError:
        for token in tokens:
            try:
                int(token)
            except ValueError:
                body = token[1:] if token[0] in "+-" else token
                if all(part.isdecimal() for part in body.split("_")):
                    message = too_long.format(_shown(token))
                else:
                    message = f"non-integer token {_shown(token)}"
                raise HypergraphFormatError(f"line {lineno}: {message}") from None
        raise


def _parse_rows(text: str | bytes, noun: str, row: Callable) -> tuple[int, list]:
    """The skeleton both instance formats share: header ``n m``, m rows, nothing after.

    ``row(n, lineno, tokens)`` checks and converts each row in line order, so a
    bad row is reported before a shortfall or trailing content.  ``noun``
    names a row.
    """
    lines = _content_lines(text)
    if not lines:
        raise HypergraphFormatError("line 1: missing 'n m' header")
    lineno, tokens = lines[0]
    if len(tokens) != 2:
        raise HypergraphFormatError(f"line {lineno}: header must be 'n m'")
    n, m = _int_tokens(tokens, lineno, "header count {} is too large")
    if n < 0 or m < 0:
        raise HypergraphFormatError(f"line {lineno}: header counts must be nonnegative")
    rows = [row(n, lineno, tokens) for lineno, tokens in lines[1 : m + 1]]
    if len(rows) < m:
        raise HypergraphFormatError(f"expected {m} {noun} lines, found only {len(rows)}")
    if len(lines) > m + 1:
        raise HypergraphFormatError(
            f"line {lines[m + 1][0]}: trailing content after {m} {noun}s"
        )
    return n, rows


def _edge_row(n: int, lineno: int, tokens: list[str]) -> tuple[int, ...]:
    try:
        vs = sorted(map(int, tokens))
    except ValueError:
        _int_tokens(tokens, lineno, f"vertex id {{}} out of range [0, {n})")  # raises
        raise
    if len(set(vs)) < len(vs):
        a = next(a for a, b in zip(vs, vs[1:]) if a == b)
        raise HypergraphFormatError(f"line {lineno}: repeated vertex {a} within edge")
    if vs[0] < 0 or vs[-1] >= n:
        bad = vs[0] if vs[0] < 0 else vs[-1]
        raise HypergraphFormatError(
            f"line {lineno}: vertex id {bad} out of range [0, {n})"
        )
    return tuple(vs)


def parse_hypergraph(text: str | bytes) -> Hypergraph:
    """Parse an instance: header ``n m`` then one edge (sorted vertex ids) per line.

    ``#`` starts a comment line, blank lines are skipped, and every error is
    reported with its line number.  Edge order and duplicate edges are
    preserved.  Each row is checked and sorted as it is read, so the instance
    is built without a second validation.
    """
    n, edges = _parse_rows(text, "edge", _edge_row)
    return _trusted(Hypergraph, n=n, edges=tuple(edges))


def serialize_hypergraph(h: Hypergraph) -> str:
    """Inverse of :func:`parse_hypergraph` on valid instances."""
    lines = [f"{h.n} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def induced(h: Hypergraph, vertices: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Subhypergraph induced by a vertex set: keeps exactly the fully contained edges.

    Vertices are relabelled ``0..len-1`` in increasing original order.  Returns
    the relabelled hypergraph together with the new-id -> original-id map.
    """
    keep = sorted(set(vertices))
    if keep and (keep[0] < 0 or keep[-1] >= h.n):
        raise ValueError("vertex set must lie inside [0, n)")
    old_to_new = {old: new for new, old in enumerate(keep)}
    keep_set = set(keep)
    edges = tuple(
        tuple(old_to_new[v] for v in e)
        for e in h.edges
        if all(v in keep_set for v in e)
    )
    return Hypergraph(len(keep), edges), tuple(keep)


def degrees(h: Hypergraph) -> tuple[int, ...]:
    """Per-vertex edge counts: the list lengths of ``h.edges_at``, 0 elsewhere.

    The first call on an instance builds its index; later calls and the
    anchored scans reuse it.
    """
    counts = [0] * h.n
    for v, ids in h.edges_at.items():
        counts[v] = len(ids)
    return tuple(counts)


def _ranked(ids: Iterable[int], score: Callable[[int], int]) -> list[int]:
    """The ids by descending score, ties to the smaller id: a stable sort of the sorted ids."""
    return sorted(sorted(ids), key=score, reverse=True)


def _top_scoring(scores: Sequence[int], t: int) -> list[int]:
    """The min(t, len(scores)) highest-scoring ids, ranked by ``_ranked``."""
    return _ranked(range(len(scores)), scores.__getitem__)[:t]


def top_by_degree(h: Hypergraph, t: int) -> tuple[int, ...]:
    """The min(t, n) largest-degree vertices, ties broken by smaller vertex id."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return tuple(sorted(_top_scoring(degrees(h), t)))


def _pad_to_k(pads: Iterable[int], base: Iterable[int], k: int) -> set[int]:
    """``base`` plus the leading ids of ``pads`` until k are chosen, unsorted."""
    chosen = set(base)
    if len(chosen) > k:
        raise ValueError("candidate exceeds the vertex budget")
    for v in pads:
        if len(chosen) == k:
            break
        chosen.add(v)
    return chosen


def _edge_ids(h: Hypergraph, edge_indices: Iterable[int]) -> list[int]:
    """The ids as a list; an id outside [0, m) raises ValueError."""
    ids = list(edge_indices)
    if ids and (min(ids) < 0 or max(ids) >= h.m):
        raise ValueError("edge index out of range")
    return ids


def union_of(h: Hypergraph, edge_indices: Iterable[int]) -> tuple[int, ...]:
    """Sorted union of the referenced edges' vertices; an id outside [0, m) raises ValueError."""
    out: set[int] = set()
    for i in _edge_ids(h, edge_indices):
        out.update(h.edges[i])
    return tuple(sorted(out))


def covered_edges(h: Hypergraph, vertices: Iterable[int]) -> tuple[int, ...]:
    """Indices of all edges fully contained in the vertex set, ascending.

    An edge lies inside the set only if its largest vertex does, so only the
    set's groups of ``h.edges_by_last`` are visited.  Ids >= n end no edge and
    are ignored; a negative id raises ValueError, a non-integer one TypeError.
    """
    vs = set(map(operator.index, vertices))
    if vs and min(vs) < 0:
        raise ValueError("vertex ids must be nonnegative")
    groups = h.edges_by_last
    return tuple(sorted([i for v in vs if v in groups for i, e in groups[v] if vs.issuperset(e)]))


def edge_subhypergraph(h: Hypergraph, edge_indices: Iterable[int]) -> Hypergraph:
    """Same vertex set, only the selected edges (in the given order).

    The ids 0..m-1 in order select all of h, so h itself is returned: it is
    immutable, so a copy would be the same value, minus h's cached indexes.
    An id outside [0, m) raises ValueError.
    """
    ids = _edge_ids(h, edge_indices)
    if ids == list(range(h.m)):
        return h
    return _trusted(Hypergraph, n=h.n, edges=tuple(h.edges[i] for i in ids))


@dataclass(frozen=True)
class EdgeSolution:
    """A chosen multiset of edge indices with the exact union of their vertices."""

    edge_indices: tuple[int, ...]
    union: tuple[int, ...]
    algorithm: str = ""

    @classmethod
    def from_indices(
        cls, h: Hypergraph, edge_indices: Iterable[int], algorithm: str = ""
    ) -> "EdgeSolution":
        idx = tuple(sorted(edge_indices))
        if len(set(idx)) != len(idx):
            raise ValueError("edge indices must be distinct")
        return cls(idx, union_of(h, idx), algorithm)

    @property
    def union_size(self) -> int:
        return len(self.union)


@dataclass(frozen=True)
class VertexSolution:
    """A chosen vertex set with every edge of the instance it covers."""

    vertices: tuple[int, ...]
    covered: tuple[int, ...]
    algorithm: str = ""

    @classmethod
    def from_vertices(
        cls, h: Hypergraph, vertices: Iterable[int], algorithm: str = ""
    ) -> "VertexSolution":
        vs = tuple(sorted(set(vertices)))
        if vs and (vs[0] < 0 or vs[-1] >= h.n):
            raise ValueError("vertex id out of range")
        return cls(vs, covered_edges(h, vs), algorithm)

    @property
    def covered_count(self) -> int:
        return len(self.covered)


def solution_json(
    problem: str, parameter: int, solution: EdgeSolution | VertexSolution
) -> str:
    """Canonical one-line JSON for a solution; byte-stable for identical inputs."""
    if problem not in ("mpu", "dksh"):
        raise ValueError("problem must be 'mpu' or 'dksh'")
    if isinstance(solution, EdgeSolution):
        vertices = solution.union
        edge_indices = solution.edge_indices
    else:
        vertices = solution.vertices
        edge_indices = solution.covered
    payload = {
        "problem": problem,
        "parameter": parameter,
        "vertices": list(vertices),
        "edge_indices": list(edge_indices),
        "union_size": len(vertices),
        "covered_count": len(edge_indices),
        "algorithm": solution.algorithm,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
