"""Dinic's maximum flow on the network of a minimum-expansion threshold test.

The network has one shape: s sends at most b units to each edge node, an edge
node sends any amount to the vertex nodes of its edge, and a vertex node sends
at most a units to t.  It is stored as the bipartite graph itself, with no
general arc lists: one flow entry per incidence, and the residual capacities
``out[i]`` of the s-arcs and ``room[u]`` of the t-arcs.  An edge node has
residual arcs to all its vertices; a vertex node's residual arcs back to edges
are the incidences at it that carry flow.  Capacities are exact integers.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Sequence


class FlowGraph:
    """The network s -> edge -> vertex -> t of the threshold test at ratio a / b.

    Edge i is ``edges[i]``, and a cut is named by its s-side's edges alone:
    their vertices are the rest of that side.  Inside, the vertices of some
    edge get local ids in order of first use, ``ev[i]`` lists edge i's, and
    position p in start[i]..start[i+1]-1 joins edge ``tail[p]`` to vertex
    ``head[p]`` with flow ``flow[p]``; ``at[u]`` lists u's positions.  The
    constructor puts a first-fit flow on: each edge in turn sends what it can
    to its vertices in order.  Build one per computation.
    """

    def __init__(self, edges: Sequence[Sequence[int]], a: int, b: int) -> None:
        local = {v: u for u, v in enumerate(dict.fromkeys(chain.from_iterable(edges)))}
        self.ev = ev = [[local[v] for v in e] for e in edges]
        self.head = head = list(chain.from_iterable(ev))
        self.tail = [i for i, e in enumerate(ev) for _ in e]
        self.start = list(accumulate(map(len, ev), initial=0))
        self.at = at = [[] for _ in local]
        self.out = out = [b] * len(ev)
        self.room = room = [a] * len(local)
        self.flow = flow = [0] * len(head)
        for p, (i, u) in enumerate(zip(self.tail, head)):
            at[u].append(p)
            if out[i] and room[u]:
                flow[p] = push = out[i] if out[i] < room[u] else room[u]
                out[i] -= push
                room[u] -= push
        self.value = b * len(ev) - sum(out)

    def _levels(self) -> tuple[list[int], list[int], int] | None:
        """BFS levels from s over residual arcs, or None if t is cut off.

        Layers alternate: edge levels are odd, vertex levels even, and 0 marks
        a node not reached.  The search stops at the first vertex layer with
        sink room and returns the edge levels, the vertex levels and that
        layer's level.  A search that finds none has reached all that s
        reaches, and ``source_side`` reads its edge levels.
        """
        room, flow, tail, ev, at = self.room, self.flow, self.tail, self.ev, self.at
        elev = self.edge_level = [1 if left else 0 for left in self.out]
        vlev = [0] * len(at)
        edges = [i for i, lev in enumerate(elev) if lev]
        level = 1
        while edges:
            vertices = []
            for i in edges:
                for u in ev[i]:
                    if not vlev[u]:
                        vlev[u] = level + 1
                        vertices.append(u)
            if any(map(room.__getitem__, vertices)):
                return elev, vlev, level + 1
            level += 2
            edges = []
            for u in vertices:
                for p in at[u]:
                    if flow[p] and not elev[tail[p]]:
                        elev[tail[p]] = level
                        edges.append(tail[p])
        return None

    def max_flow(self) -> int:
        """Augment the first-fit flow to a maximum flow; return its value.

        Each phase finds a blocking flow in the level graph by an iterative
        depth-first search from each edge of level 1.  ``path`` holds the
        positions of the arcs taken, even entries arcs edge -> vertex and odd
        ones vertex -> edge against an incidence's flow.  With current-arc
        pointers and level 0 for dead ends, no arc is rescanned in a phase,
        and path length is bounded only by the node count.  An augment that
        leaves ``first`` room restarts the search at ``first``; the pointers
        make that descent retrace only the path's unsaturated prefix.
        """
        out, room, flow, head = self.out, self.room, self.flow, self.head
        tail, start, at = self.tail, self.start, self.at
        value = self.value
        while (levels := self._levels()) is not None:
            elev, vlev, last = levels
            next_pos, next_at = start[:-1], [0] * len(at)
            for first in [i for i, lev in enumerate(elev) if lev == 1]:
                path: list[int] = []
                i, u = first, -1  # at edge i while u < 0, else at vertex u
                while True:
                    if u < 0:
                        p, end, down = next_pos[i], start[i + 1], elev[i] + 1
                        while p < end and vlev[head[p]] != down:
                            p += 1
                        next_pos[i] = p
                        if p < end:
                            path.append(p)
                            u = head[p]
                        elif path:  # dead end: back to the vertex the arc into i left
                            elev[i] = 0
                            u = head[path.pop()]
                        else:
                            break
                        continue
                    lev = vlev[u]
                    if lev < last:
                        ps, k, down = at[u], next_at[u], lev + 1
                        end = len(ps)
                        while k < end:
                            p = ps[k]
                            if flow[p] and elev[tail[p]] == down:
                                break
                            k += 1
                        next_at[u] = k
                        if k < end:
                            path.append(p)
                            i, u = tail[p], -1
                            continue
                    elif room[u]:
                        push = min(out[first], room[u], *[flow[p] for p in path[1::2]])
                        out[first] -= push
                        room[u] -= push
                        value += push
                        for j, p in enumerate(path):
                            flow[p] += -push if j % 2 else push
                        if not out[first]:
                            break
                        path, i, u = [], first, -1  # descend again from first
                        continue
                    vlev[u] = 0  # dead end: back to the edge the arc into u left
                    i, u = tail[path.pop()], -1
        return value

    def source_side(self, largest: bool = False) -> list[int]:
        """The ascending edge positions of a minimum cut's s-side, after ``max_flow``.

        By default the smallest s-side: the edges the last search of
        ``max_flow`` reached from s.  With ``largest`` the largest one: the
        edges that cannot reach t in the residual network.  Neither depends on
        which maximum flow was found.
        """
        if not largest:
            return [i for i, lev in enumerate(self.edge_level) if lev]
        flow, head, tail, start, at = self.flow, self.head, self.tail, self.start, self.at
        reach = [u for u, left in enumerate(self.room) if left]  # the vertices that reach t
        vseen, eseen = [bool(left) for left in self.room], [False] * len(self.ev)
        for u in reach:
            for i in [tail[p] for p in at[u] if not eseen[tail[p]]]:
                eseen[i] = True
                for p in range(start[i], start[i + 1]):
                    if flow[p] and not vseen[head[p]]:
                        vseen[head[p]] = True
                        reach.append(head[p])
        return [i for i, seen in enumerate(eseen) if not seen]
