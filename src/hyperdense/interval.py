"""Exact polynomial-time minimum p-union and densest k-set on interval hypergraphs.

Intervals are sorted by (right end, left end, input index).  A table cell
(i, j) holds the minimum union size over solutions that pick j intervals
among sorted positions 0..i and force position i in.  Everything follows from
one rule: C_i, the intervals inside interval i, is the set of positions
q <= i with a_q >= a_i.  Cells with j <= |C_i| cost exactly the length of
interval i.  A larger j extends a predecessor cell at the last chosen position
istar outside C_i; then C_i minus C_istar is the slice of C_i after istar, so
the step adds |C_i| minus (the positions of C_i up to istar) intervals and
pays only for the part of interval i that istar does not reach.

The table stores values only.  The predecessors that end before interval i
starts (b_s < a_i) are a prefix 0..P-1 of the sorted order; each lies outside
C_i with no position of C_i before it and pays the whole length of interval
i, so one running per-column minimum answers them and only the predecessors
that reach into interval i are scanned.  A query reconstructs one cell, and
re-derives each step's predecessor as the first argmin of the same rule.

Every cell is feasible: with istar the last position before i outside C_i,
all positions after istar lie in C_i, so jstar = j - (i - istar) lies in
[1, istar + 1] for every j in (|C_i|, i + 1].  Each query fills only the part
of the table it can read: the minimum p-union query fills columns up to p and
drops every interval longer than a feasible p-union, and the densest k-set
query, which inverts the table (the largest p whose optimal union fits in k
vertices), drops every interval longer than k.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from hyperdense.core import (
    EdgeSolution,
    Hypergraph,
    HypergraphFormatError,
    VertexSolution,
    _check_range,
    _int_tokens,
    _pad_to_k,
    _parse_rows,
    _trusted,
    _vertex_count,
    union_of,
)


@dataclass(frozen=True)
class IntervalInstance:
    """Integer vertex count plus a multiset of integer intervals (a, b), 0 <= a <= b < n."""

    n: int
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _vertex_count(self.n))
        canon = []
        for pos, pair in enumerate(self.intervals):
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise ValueError(f"interval {pos} is not an (a, b) pair") from None
            try:
                a, b = operator.index(a), operator.index(b)
            except TypeError:
                raise ValueError(f"interval {pos} has a non-integer end") from None
            if not 0 <= a <= b < self.n:
                raise ValueError(
                    f"interval {pos} = ({a}, {b}) is not well-ordered inside [0, {self.n})"
                )
            canon.append((a, b))
        object.__setattr__(self, "intervals", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.intervals)

    @cached_property
    def _hypergraph(self) -> Hypergraph:
        # Range edges of checked intervals are sorted, distinct and in range.
        edges = tuple(tuple(range(a, b + 1)) for a, b in self.intervals)
        return _trusted(Hypergraph, n=self.n, edges=edges)


def _interval_row(n: int, lineno: int, tokens: list[str]) -> tuple[int, int]:
    if len(tokens) != 2:
        raise HypergraphFormatError(f"line {lineno}: interval line must be 'a b'")
    try:
        a, b = map(int, tokens)
    except ValueError:
        _int_tokens(tokens, lineno, f"interval end {{}} out of range for n={n}")  # raises
        raise
    if not 0 <= a <= b < n:
        raise HypergraphFormatError(
            f"line {lineno}: interval ({a}, {b}) out of range for n={n}"
        )
    return a, b


def parse_intervals(text: str | bytes) -> IntervalInstance:
    """Parse the interval format: header ``n m`` then one ``a b`` pair per line.

    Each row is checked as it is read, so the instance is built without a
    second validation.
    """
    n, pairs = _parse_rows(text, "interval", _interval_row)
    return _trusted(IntervalInstance, n=n, intervals=tuple(pairs))


def serialize_intervals(inst: IntervalInstance) -> str:
    lines = [f"{inst.n} {inst.m}"]
    lines.extend(f"{a} {b}" for a, b in inst.intervals)
    return "\n".join(lines) + "\n"


def to_hypergraph(inst: IntervalInstance) -> Hypergraph:
    """General-format view of the instance: each interval becomes a full range edge.

    Built once per instance and kept on it (both are immutable), so a solver
    and its caller share one build.
    """
    return inst._hypergraph


@dataclass(frozen=True)
class DPTable:
    """Filled table; queries and reconstruction read from it.

    values[i][j-1] is the minimum union size choosing j intervals among sorted
    positions 0..i with position i forced in.  Row i holds its first
    min(i + 1, width) cells, and no filled cell is infeasible.  Positions
    number only the intervals the fill kept: order[i] is the input index of
    position i and intervals[i] its interval.  C_i and each cell's
    predecessor are derived on demand, since a query reads a handful of them.
    """

    order: tuple[int, ...]
    intervals: tuple[tuple[int, int], ...]
    values: tuple[tuple[int, ...], ...]

    def best_cell(self, p: int) -> tuple[int, int]:
        """(sorted position, value) of the first cell minimizing the union for p."""
        column = [self.values[i][p - 1] for i in range(p - 1, len(self.values))]
        best = min(column)
        return p - 1 + column.index(best), best

    def contained(self, i: int) -> tuple[int, ...]:
        """C_i: the sorted positions q <= i with a_q >= a_i."""
        a_i = self.intervals[i][0]
        return tuple(q for q in range(i + 1) if self.intervals[q][0] >= a_i)

    def pointer(self, i: int, j: int) -> tuple[int, int] | None:
        """The cell (istar, jstar) that cell (i, j) extends; None for a base cell.

        With r = j - |C_i| - 1 and inside the positions of C_i before istar,
        the candidates are the cells (istar, inside + 1 + r) for istar outside
        C_i, each plus the part of interval i that istar leaves uncovered.  The
        cell's value is their minimum, so the first match in sorted order is
        the first argmin, the one the scan's strict < keeps.  A cell that no
        candidate realizes raises RuntimeError.
        """
        a_i, b_i = self.intervals[i]
        r = j - len(self.contained(i)) - 1
        if r < 0:
            return None
        value = self.values[i][j - 1]
        inside = 0
        for istar in range(i):
            a_s, b_s = self.intervals[istar]
            if a_s >= a_i:
                inside += 1
                continue
            prev = self.values[istar]
            jstar = inside + 1 + r
            if jstar <= len(prev) and prev[jstar - 1] + b_i - max(b_s, a_i - 1) == value:
                return istar, jstar
        raise RuntimeError(f"no predecessor realizes table cell ({i}, {j}) = {value}")

    def reconstruct(self, i: int, j: int) -> tuple[int, ...]:
        """Original indices of one optimal j-subset realizing cell (i, j)."""
        picked: list[int] = []
        while (step := self.pointer(i, j)) is not None:
            picked.extend(q for q in self.contained(i) if q > step[0])
            i, j = step
        picked.extend(self.contained(i)[: j - 1])
        picked.append(i)
        return tuple(sorted(self.order[q] for q in picked))


def fill_table(
    inst: IntervalInstance, bound: int | None = None, width: int | None = None
) -> DPTable:
    """Fill the table's values bottom-up, only as far as a query can read them.

    With neither argument every cell is filled.  Each cut is exact:

    - ``width`` W fills columns j <= W only.  Column j of a row is built only
      from predecessor columns below j, so every cell with j <= W equals the
      full table's.
    - ``bound`` U keeps only the intervals of length <= U, in the same sorted
      order.  A cell's value is at least the length of every interval it
      picks, and an interval inside a kept one is kept, so every cell whose
      full-table value is <= U keeps its value, its predecessor and its place
      in ``best_cell``'s tie-break; only the positions are renumbered.

    The predecessors with b_s < a_i are the prefix 0..P-1, with
    P = bisect_left(right ends, a_i), and C_i lies in P..i, where |C_i| is
    counted.  Each of them adds the constant tail ``length`` to column r
    (inside = 0), so the running minimum of each column, kept at every prefix
    length a later row reads, seeds the row's first min(P, room) columns and
    the scan resumes at P.  The kept states hold at most width cells per row.
    """
    kept = [
        q for q, (a, b) in enumerate(inst.intervals) if bound is None or b - a + 1 <= bound
    ]
    order = tuple(
        sorted(kept, key=lambda q: (inst.intervals[q][1], inst.intervals[q][0], q))
    )
    ivs = tuple(inst.intervals[q] for q in order)
    lefts = [a for a, _ in ivs]
    rights = [b for _, b in ivs]
    # starts[i] = P: positions 0..P-1 end before interval i starts.
    starts = [bisect_left(rights, a_i) for a_i in lefts]
    read = set(starts)

    values: list[tuple[int, ...]] = []
    # run[r] is the minimum of values[s][r] over the filled rows s >= r;
    # prefix[P] is run as it stood when rows 0..P-1 were filled.
    run: list[int] = []
    prefix: dict[int, tuple[int, ...]] = {}
    for i, (a_i, b_i) in enumerate(ivs):
        if i in read:
            prefix[i] = tuple(run)
        length = b_i - a_i + 1
        cells = i + 1 if width is None else min(i + 1, width)
        start = starts[i]
        base = min(sum(map(a_i.__le__, lefts[start : i + 1])), cells)
        room = cells - base
        # rec[r] is cell j = |C_i| + 1 + r, reached from cell (istar, inside + 1 + r)
        # of each istar outside C_i (see DPTable.pointer).  Each such istar opens
        # one new column (jstar = istar + 1) until the row holds its `cells` cells.
        rec = [v + length for v in prefix[start][: min(start, room)]]
        inside = 0
        for istar in range(start, i):
            a_s, b_s = ivs[istar]
            if a_s >= a_i:
                inside += 1
                continue
            tail = b_i - b_s
            prev = values[istar]
            for r in range(len(rec)):
                cand = prev[inside + r] + tail
                if cand < rec[r]:
                    rec[r] = cand
            if len(rec) < room:
                rec.append(prev[istar] + tail)
        row = (length,) * base + tuple(rec)
        values.append(row)
        for r in compress(range(len(run)), map(operator.lt, row, run)):
            run[r] = row[r]
        if len(row) > len(run):
            run.append(row[i])

    return DPTable(order, ivs, tuple(values))


def _union_of_shortest(inst: IntervalInstance, p: int) -> int:
    """Joint support of the p shortest intervals, a feasible p-union."""
    ivs = inst.intervals
    ranked = sorted(range(inst.m), key=lambda q: (ivs[q][1] - ivs[q][0], q))
    return len(union_of(to_hypergraph(inst), ranked[:p]))


def _realize(h: Hypergraph, table: DPTable, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices and union of the best cell for p, checked against its value."""
    best_i, best_value = table.best_cell(p)
    indices = table.reconstruct(best_i, p)
    union = union_of(h, indices)
    if len(union) != best_value:
        raise RuntimeError(
            f"table value {best_value} disagrees with recomputed union {len(union)}"
        )
    return indices, union


def mpu_interval(inst: IntervalInstance, p: int) -> EdgeSolution:
    """Exact optimum: p intervals of minimum joint support.

    The fill stops at column p and keeps only the intervals no longer than
    the union of the p shortest ones, which bounds the optimum.
    """
    _check_range("p", p, 1, inst.m)
    h = to_hypergraph(inst)
    indices, union = _realize(h, fill_table(inst, _union_of_shortest(inst, p), p), p)
    return EdgeSolution(indices, union, "interval-dp")


def dksh_interval(inst: IntervalInstance, k: int) -> VertexSolution:
    """Exact densest k-set: the largest p whose optimal union fits in k vertices.

    The fill keeps only the intervals of length <= k, since a fitting union
    picks no longer one; the realizing intervals' span is padded to exactly k
    vertices.  The largest fitting p, at most the number of kept intervals,
    is found by scanning p downward, which assumes nothing of how the optimal
    union grows with p.  When no interval fits in k, any k vertices (the
    smallest ids) are returned with zero covered intervals.
    """
    _check_range("k", k, 1, inst.n)
    h = to_hypergraph(inst)
    table = fill_table(inst, k)
    p = next((p for p in range(len(table.values), 0, -1) if table.best_cell(p)[1] <= k), 0)
    span = _realize(h, table, p)[1] if p else ()
    return VertexSolution.from_vertices(h, _pad_to_k(range(inst.n), span, k), "interval-dp")
