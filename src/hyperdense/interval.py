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

The predecessors that end before interval i starts (b_s < a_i) are a prefix
0..P-1 of the sorted order, since the order is by right end.  Each of them
lies outside C_i with no position of C_i before it, and pays the whole length
of interval i, so their part of column r is the first minimum of column r
over rows r..P-1 plus that length.  One running per-column minimum, updated
with a strict < after each row so that it keeps the earliest argmin as the
scan it replaces did, answers it; only the predecessors that reach into
interval i are scanned.

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
    a, b = _int_tokens(tokens, lineno)
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
    """Filled table with backpointers; queries and reconstruction read from it.

    values[i][j-1] is the minimum union size choosing j intervals among sorted
    positions 0..i with position i forced in.  contained[i] is C_i, the sorted
    positions q <= i with a_q >= a_i.  back[i][j-1] is None for base cells
    (j <= |C_i|, answered by C_i alone) and (istar, jstar) for cells that
    extend predecessor cell (istar, jstar) by the positions of C_i after istar.
    Row i holds its first min(i + 1, width) cells, and no filled cell is
    infeasible.  Positions number only the intervals the fill kept; order[i]
    is the input index of position i.
    """

    order: tuple[int, ...]
    contained: tuple[tuple[int, ...], ...]
    values: tuple[tuple[int, ...], ...]
    back: tuple[tuple[tuple[int, int] | None, ...], ...]

    def best_cell(self, p: int) -> tuple[int, int]:
        """(sorted position, value) of the first cell minimizing the union for p."""
        column = [self.values[i][p - 1] for i in range(p - 1, len(self.values))]
        best = min(column)
        return p - 1 + column.index(best), best

    def reconstruct(self, i: int, j: int) -> tuple[int, ...]:
        """Original indices of one optimal j-subset realizing cell (i, j)."""
        picked: list[int] = []
        while (pointer := self.back[i][j - 1]) is not None:
            istar = pointer[0]
            picked.extend(q for q in self.contained[i] if q > istar)
            i, j = pointer
        picked.extend(self.contained[i][: j - 1])
        picked.append(i)
        return tuple(sorted(self.order[q] for q in picked))


def fill_table(
    inst: IntervalInstance, bound: int | None = None, width: int | None = None
) -> DPTable:
    """Fill the table bottom-up, only as far as a query can read it.

    With neither argument every cell is filled.  Each cut is exact:

    - ``width`` W fills columns j <= W only.  Column j of a row is built only
      from predecessor columns below j, so every cell with j <= W, its
      backpointer included, equals the full table's.
    - ``bound`` U keeps only the intervals of length <= U, in the same sorted
      order.  A cell's value is at least the length of every interval it
      picks, and an interval inside a kept one is kept, so every cell whose
      full-table value is <= U keeps its value, its backpointer and its place
      in ``best_cell``'s tie-break; only the positions are renumbered.

    The predecessors with b_s < a_i are the prefix 0..P-1, with
    P = bisect_left(right ends, a_i).  Every one of them lies outside C_i,
    has no position of C_i before it (inside = 0) and adds the constant
    tail ``length``, so the scan would give column r the first minimum of
    values[s][r] over s in [r, P) plus ``length``, with backpointer
    (s, r + 1).  The running minimum holds exactly that: it takes a row only
    on a strict <, which keeps the earliest argmin, and its state is kept at
    each prefix length a later row reads.  The row is seeded with its first
    min(P, room) columns and the scan resumes at P, so the table is the one
    the full scan fills.  The kept states hold at most width cells per row,
    the table's own order of memory.
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
    contained = tuple(
        tuple(compress(range(i + 1), map(a_i.__le__, lefts))) for i, a_i in enumerate(lefts)
    )
    # starts[i] = P: positions 0..P-1 end before interval i starts.
    starts = [bisect_left(rights, a_i) for a_i in lefts]
    read = set(starts)

    values: list[tuple[int, ...]] = []
    back: list[tuple[tuple[int, int] | None, ...]] = []
    # run_v[r] is the minimum of values[s][r] over the filled rows s >= r and
    # run_b[r] = (s, r + 1) its first argmin; prefix[P] is the pair as it
    # stood when rows 0..P-1 were filled.
    run_v: list[int] = []
    run_b: list[tuple[int, int]] = []
    prefix: dict[int, tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = {}
    for i, (a_i, b_i) in enumerate(ivs):
        if i in read:
            prefix[i] = (tuple(run_v), tuple(run_b))
        length = b_i - a_i + 1
        cells = i + 1 if width is None else min(i + 1, width)
        base = min(len(contained[i]), cells)
        room = cells - base
        # rec_v[r] is cell j = |C_i| + 1 + r.  A predecessor istar outside C_i
        # adds the positions of C_i after it, so with `inside` the positions of
        # C_i before it, it reaches column r from jstar = inside + 1 + r.  Each
        # such istar opens one new column (jstar = istar + 1) until the row
        # holds its `cells` cells.  The predecessors 0..P-1 that end before
        # a_i come from the prefix minimum; the scan covers the rest.
        start = starts[i]
        snap_v, snap_b = prefix[start]
        seeded = min(start, room)
        rec_v = [v + length for v in snap_v[:seeded]]
        rec_b = list(snap_b[:seeded])
        inside = 0
        for istar in range(start, i):
            a_s, b_s = ivs[istar]
            if a_s >= a_i:
                inside += 1
                continue
            tail = b_i - b_s
            prev = values[istar]
            for r in range(len(rec_v)):
                cand = prev[inside + r] + tail
                if cand < rec_v[r]:
                    rec_v[r] = cand
                    rec_b[r] = (istar, inside + r + 1)
            if len(rec_v) < room:
                rec_v.append(prev[istar] + tail)
                rec_b.append((istar, istar + 1))
        row = (length,) * base + tuple(rec_v)
        values.append(row)
        back.append((None,) * base + tuple(rec_b))
        # Strict < keeps the earliest argmin, as the scan's strict < does.
        for r in compress(range(len(run_v)), map(operator.lt, row, run_v)):
            run_v[r] = row[r]
            run_b[r] = (i, r + 1)
        if len(row) > len(run_v):
            run_v.append(row[i])
            run_b.append((i, i + 1))

    return DPTable(order, contained, tuple(values), tuple(back))


def _union_of_shortest(inst: IntervalInstance, p: int) -> int:
    """Joint support of the p shortest intervals, a feasible p-union."""
    ivs = inst.intervals
    ranked = sorted(range(inst.m), key=lambda q: (ivs[q][1] - ivs[q][0], q))
    span: set[int] = set()
    for q in ranked[:p]:
        a, b = ivs[q]
        span.update(range(a, b + 1))
    return len(span)


def mpu_interval(inst: IntervalInstance, p: int) -> EdgeSolution:
    """Exact optimum: p intervals of minimum joint support.

    The fill stops at column p and keeps only the intervals no longer than
    the union of the p shortest ones, which bounds the optimum.
    """
    _check_range("p", p, 1, inst.m)
    table = fill_table(inst, _union_of_shortest(inst, p), p)
    best_i, best_value = table.best_cell(p)
    indices = table.reconstruct(best_i, p)
    sol = EdgeSolution.from_indices(to_hypergraph(inst), indices, "interval-dp")
    if sol.union_size != best_value:
        raise RuntimeError(
            f"table value {best_value} disagrees with recomputed union {sol.union_size}"
        )
    return sol


def dksh_interval(inst: IntervalInstance, k: int) -> VertexSolution:
    """Exact densest k-set: the largest p whose optimal union fits in k vertices.

    The fill keeps only the intervals of length <= k, since a fitting union
    picks no longer one; the realizing intervals' span is padded to exactly k
    vertices.  The optimal union does not decrease in p, so the largest
    fitting p, at most the number of kept intervals, is found by binary
    search.  When no interval fits in k, any k vertices (the smallest ids)
    are returned with zero covered intervals.
    """
    _check_range("k", k, 1, inst.n)
    h = to_hypergraph(inst)
    table = fill_table(inst, k)
    lo, hi = 0, len(table.values)  # the largest fitting p is in [lo, hi]; 0 stands for none
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if table.best_cell(mid)[1] <= k:
            lo = mid
        else:
            hi = mid - 1
    span = union_of(h, table.reconstruct(table.best_cell(lo)[0], lo)) if lo else ()
    return VertexSolution.from_vertices(h, _pad_to_k(inst.n, span, k), "interval-dp")
