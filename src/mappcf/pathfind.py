"""Deterministic single-agent path searches used by the planners.

Two searches live here. ``find_path_syn`` plans in space-time against timed
reservations of other agents (synchronous model): it returns the shortest
path, breaking ties first by how few penalized vertices it enters and then
by lexicographically smallest vertex sequence, so planning is reproducible
bit for bit. ``find_path_seq`` finds the shortest simple path avoiding a
forbidden vertex set, with the same tie-breaks, from a single BFS toward
the goal: a step stays on a shortest path exactly when it lowers the
distance to the goal by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, Path, bfs_distances


class Reservations:
    """Timed vertex occupancies of already-planned paths (synchronous model).

    A path registered with start time ``T`` occupies its k-th vertex
    (1-based) at time ``T+k-1``; its final vertex stays occupied forever
    afterwards (the owner sits there once done). Edge traversals are kept so
    a search can refuse head-on swaps.
    """

    def __init__(self):
        self._at: set[tuple[int, int]] = set()
        self._moves: set[tuple[int, int, int]] = set()
        self._forever: dict[int, int] = {}
        self._last: dict[int, int] = {}
        self.max_time = 0

    def add_path(self, path: Path, start_time: int = 1) -> None:
        if not path:
            return
        for k, v in enumerate(path):
            t = start_time + k
            self._at.add((v, t))
            if t > self._last.get(v, 0):
                self._last[v] = t
            if k + 1 < len(path) and path[k + 1] != v:
                self._moves.add((v, path[k + 1], t))
        end_t = start_time + len(path) - 1
        last_v = path[-1]
        held = self._forever.get(last_v)
        if held is None or end_t < held:
            self._forever[last_v] = end_t
        if end_t > self.max_time:
            self.max_time = end_t

    def blocked_at(self, v: int, t: int) -> bool:
        held = self._forever.get(v)
        if held is not None and t >= held:
            return True
        return (v, t) in self._at

    def swap(self, u: int, v: int, t: int) -> bool:
        """True if someone moves v->u between t and t+1 (head-on with u->v)."""
        return (v, u, t) in self._moves

    def free_forever(self, v: int, t: int) -> bool:
        """No reservation touches v at any time >= t."""
        if v in self._forever:
            return False
        return self._last.get(v, 0) < t


@dataclass(frozen=True)
class SynConstraints:
    """Search constraints for the synchronous space-time search.

    ``blocked``: vertices unusable at every time (crash sites, others'
    goals). ``reservations``: timed occupancies to stay collision-free
    against. ``penalty``: vertices whose entry is discouraged (used to steer
    initial paths apart); entering one costs a tie-break point, waiting on
    it does not cost again.
    """

    blocked: frozenset = frozenset()
    reservations: "Reservations | None" = None
    penalty: frozenset = frozenset()


def find_path_syn(
    graph: Graph,
    start: int,
    goal: int,
    constraints: "SynConstraints | None" = None,
    start_time: int = 1,
    f: int = 0,
):
    """Shortest reservation-respecting timed path from start to goal.

    The path's k-th vertex (1-based) is occupied at time ``start_time+k-1``;
    consecutive repeats are waits. The goal must be free of reservations
    forever from the arrival time on (the agent sits there once arrived).
    Ties broken by (fewest penalized entries, lexicographically smallest
    vertex sequence). Returns a tuple, or None if no path exists within the
    search horizon ``|V| + latest reservation time + f*|V|``.
    """
    cons = constraints if constraints is not None else SynConstraints()
    res = cons.reservations if cons.reservations is not None else Reservations()
    blocked = cons.blocked
    if start in blocked or res.blocked_at(start, start_time):
        return None
    horizon = graph.n + res.max_time + f * graph.n
    if start_time > horizon:
        return None

    # Phase 1: forward reachable layers until the goal is reachable at a
    # time from which it stays unreserved forever.
    layers: list[set[int]] = [{start}]
    arrival_k = None
    k = 0
    while True:
        t = start_time + k
        if goal in layers[k] and res.free_forever(goal, t) and goal not in blocked:
            arrival_k = k
            break
        if t >= horizon:
            return None
        cur = layers[k]
        nxt: set[int] = set()
        for u in cur:
            for w in (u, *graph.adj[u]):
                if w in blocked:
                    continue
                if res.blocked_at(w, t + 1):
                    continue
                if w != u and res.swap(u, w, t):
                    continue
                nxt.add(w)
        if not nxt:
            return None
        layers.append(nxt)
        k += 1

    # Phase 2: backward DP over the layers, minimizing penalized entries.
    # dp[k][v] = fewest penalized entries on a completion from (v, k).
    dp: list[dict[int, int]] = [dict() for _ in range(arrival_k + 1)]
    dp[arrival_k][goal] = 0
    for kk in range(arrival_k - 1, -1, -1):
        t = start_time + kk
        nxt_dp = dp[kk + 1]
        for u in layers[kk]:
            best = None
            for w in (u, *graph.adj[u]):
                if w not in nxt_dp:
                    continue
                if w != u and res.swap(u, w, t):
                    continue
                c = nxt_dp[w] + (1 if (w != u and w in cons.penalty) else 0)
                if best is None or c < best:
                    best = c
            if best is not None:
                dp[kk][u] = best
    if start not in dp[0]:
        return None

    # Phase 3: forward walk picking the smallest vertex that stays optimal.
    out = [start]
    v = start
    for kk in range(arrival_k):
        t = start_time + kk
        nxt_dp = dp[kk + 1]
        want = dp[kk][v]
        chosen = None
        for w in sorted((v, *graph.adj[v])):
            if w not in nxt_dp:
                continue
            if w != v and res.swap(v, w, t):
                continue
            c = nxt_dp[w] + (1 if (w != v and w in cons.penalty) else 0)
            if c == want:
                chosen = w
                break
        assert chosen is not None, "backward DP admitted a dead forward state"
        out.append(chosen)
        v = chosen
    return tuple(out)


def _reverse_adj(graph: Graph) -> tuple[tuple[int, ...], ...]:
    if not graph.directed:
        return graph.adj
    rev: list[list[int]] = [[] for _ in range(graph.n)]
    for u in range(graph.n):
        for v in graph.adj[u]:
            rev[v].append(u)
    return tuple(tuple(sorted(r)) for r in rev)


def find_path_seq(graph: Graph, start: int, goal: int, forbidden=frozenset(), penalty=frozenset()):
    """Shortest simple path avoiding ``forbidden``, lexicographically smallest.

    Among equally short paths, one entering the fewest ``penalty`` vertices
    is preferred (ties again broken lexicographically); with an empty
    penalty set this is the plain lex-first shortest path. Follows edge
    direction on directed graphs. Returns a tuple of vertices or None.
    ``start == goal`` yields the single-vertex path.

    One BFS toward the goal (on the reversed graph when directed) gives
    each vertex's distance to the goal. A step stays on a shortest path
    exactly when it lowers that distance by one, so no distances from the
    start are needed: the shortest paths are layered out from the start,
    a backward pass over the layers counts the fewest penalized entries
    still ahead, and the walk takes the smallest step that keeps it.
    """
    if start in forbidden or goal in forbidden:
        return None
    if start == goal:
        return (start,)
    toward = Graph(n=graph.n, adj=_reverse_adj(graph), directed=graph.directed)
    dist = bfs_distances(toward, goal, frozenset(forbidden))
    if dist[start] < 0:
        return None
    # vertices on some shortest path, one layer per step from the start
    adj = graph.adj
    layers = [{start}]
    for d in range(dist[start] - 1, 0, -1):
        layers.append({w for v in layers[-1] for w in adj[v] if dist[w] == d})
    # fewest penalized vertices entered from here to the goal
    pen = {goal: 0}
    for layer in reversed(layers):
        for v in layer:
            down = dist[v] - 1
            best = None
            for w in adj[v]:
                if dist[w] == down:
                    p = pen[w] + (1 if w in penalty else 0)
                    if best is None or p < best:
                        best = p
            pen[v] = best
    out = [start]
    v = start
    while v != goal:
        down = dist[v] - 1
        for w in adj[v]:
            if dist[w] == down and pen[w] + (1 if w in penalty else 0) == pen[v]:
                break
        out.append(w)
        v = w
    return tuple(out)
