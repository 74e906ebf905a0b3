"""Dinic's maximum-flow algorithm with exact integer capacities and min-cut extraction."""

from __future__ import annotations


class FlowGraph:
    """Flat-array flow network.  Arcs are mutable; build one per computation.

    Arc ``a`` runs into ``head[a]`` with residual capacity ``cap[a]``; arcs are
    added in pairs, so the reverse of arc ``a`` is ``a ^ 1`` and its tail is
    ``head[a ^ 1]``.  ``arcs[u]`` lists the ids of the arcs leaving node u.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.head: list[int] = []
        self.cap: list[int] = []
        self.arcs: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: int, flow: int = 0) -> None:
        """Add an arc u -> v of capacity ``cap`` that already carries ``flow`` units."""
        if cap < 0:
            raise ValueError("capacity must be nonnegative")
        if not 0 <= flow <= cap:
            raise ValueError("flow must lie in [0, capacity]")
        a = len(self.head)
        self.head += (v, u)
        self.cap += (cap - flow, flow)
        self.arcs[u].append(a)
        self.arcs[v].append(a + 1)

    def _levels(self, s: int, t: int) -> list[int] | None:
        """BFS distances from s over arcs with residual capacity, or None if t is cut off.

        The search stops at t's distance, and every other node at that
        distance is marked unreached: no s-t path of the level graph runs
        through it.
        """
        head, cap, arcs = self.head, self.cap, self.arcs
        level = [-1] * self.num_nodes
        level[s] = 0
        queue = [s]
        for u in queue:
            if level[u] == level[t]:
                break
            down = level[u] + 1
            for a in arcs[u]:
                if cap[a] and level[head[a]] < 0:
                    level[head[a]] = down
                    queue.append(head[a])
        last = level[t]
        if last < 0:
            return None
        for v in reversed(queue):
            if level[v] != last:
                break
            level[v] = -1
        level[t] = last
        return level

    def max_flow(self, s: int, t: int) -> int:
        """Augment the current flow to a maximum s-t flow; return the value added.

        The current flow is the one ``add_edge`` put on the arcs: zero unless
        the caller gave a feasible starting flow.  The residual network stays
        in place for the cut queries.

        Each phase finds a blocking flow in the level graph with an iterative
        depth-first search: ``path`` holds the arcs from s to the current node
        and ``it[u]`` is u's current-arc pointer, so no arc is rescanned within
        a phase and path length is bounded only by the node count.
        """
        if s == t:
            raise ValueError("source and sink must differ")
        head, cap, arcs = self.head, self.cap, self.arcs
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.num_nodes
            path: list[int] = []
            u = s
            while True:
                out = arcs[u]
                i = it[u]
                end = len(out)
                down = level[u] + 1
                while i < end:
                    a = out[i]
                    if cap[a] and level[head[a]] == down:
                        break
                    i += 1
                else:
                    it[u] = end
                    if u == s:
                        break
                    # Dead end: retreat and skip the arc that led here.
                    u = head[path.pop() ^ 1]
                    it[u] += 1
                    continue
                it[u] = i
                path.append(a)
                u = head[a]
                if u != t:
                    continue
                pushed = min([cap[a] for a in path])
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                flow += pushed
                # Resume from the tail of the first saturated arc.
                for i, a in enumerate(path):
                    if not cap[a]:
                        del path[i:]
                        u = head[a ^ 1]
                        break

    def source_side(self, s: int) -> frozenset[int]:
        """Nodes reachable from s in the residual network: the s-side of a min cut.

        After a maximum flow this is the smallest source side over all minimum
        cuts, so it does not depend on which maximum flow was found.
        """
        head, cap, arcs = self.head, self.cap, self.arcs
        seen = {s}
        queue = [s]
        for u in queue:
            for a in arcs[u]:
                if cap[a] and head[a] not in seen:
                    seen.add(head[a])
                    queue.append(head[a])
        return frozenset(seen)

    def largest_source_side(self, t: int) -> frozenset[int]:
        """Nodes that cannot reach t in the residual network: the s-side of a min cut.

        After a maximum flow this is the largest source side over all minimum
        cuts, so, like ``source_side``, it does not depend on which maximum
        flow was found.
        """
        head, cap, arcs = self.head, self.cap, self.arcs
        reach = {t}
        queue = [t]
        for w in queue:
            for a in arcs[w]:
                # a runs w -> u; its reverse a ^ 1 is the residual arc u -> w.
                u = head[a]
                if cap[a ^ 1] and u not in reach:
                    reach.add(u)
                    queue.append(u)
        return frozenset(range(self.num_nodes)).difference(reach)
