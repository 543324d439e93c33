"""Deterministic single-agent path searches used by the planners.

Two searches live here. ``find_path_syn`` plans in space-time against timed
reservations of other agents (synchronous model): it returns the shortest
path, breaking ties first by how few penalized vertices it enters and then
by lexicographically smallest vertex sequence, so planning is reproducible
bit for bit. When no path exists it stops as soon as the set of reachable
vertices repeats after the last reservation: from then on every step is
the same, so the set, and the verdict, would repeat up to the horizon.
``find_path_seq`` finds the shortest simple path avoiding a forbidden
vertex set, with the same tie-breaks, from a single BFS toward the goal:
a step stays on a shortest path exactly when it lowers the distance to
the goal by one. ``find_path_seq_cuts`` returns that path together with
its cut set, the vertices every such shortest path must visit.
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

    Everything is indexed by time, so a search can apply one time step's
    constraints to a whole layer with set operations:

    * ``_occupied[t]``: the vertices some path holds at time ``t``;
    * ``_moves[t]``: the hops ``(u, v)`` that leave ``u`` at time ``t`` and
      reach ``v`` at ``t+1`` (waits are not hops);
    * ``_forever[v]``: the earliest time from which ``v`` is held for good;
    * ``_last[v]``: the latest time any path holds ``v``.

    ``max_time`` is the latest time of any path vertex. After it nothing is
    held by time, and no hop starts at or after it.
    """

    def __init__(self):
        self._occupied: dict[int, set[int]] = {}
        self._moves: dict[int, set[tuple[int, int]]] = {}
        self._forever: dict[int, int] = {}
        self._last: dict[int, int] = {}
        self.max_time = 0

    def add_path(self, path: Path, start_time: int = 1) -> None:
        if not path:
            return
        for k, v in enumerate(path):
            t = start_time + k
            self._occupied.setdefault(t, set()).add(v)
            if t > self._last.get(v, 0):
                self._last[v] = t
            if k + 1 < len(path) and path[k + 1] != v:
                self._moves.setdefault(t, set()).add((v, path[k + 1]))
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
        return v in self._occupied.get(t, ())

    def swap(self, u: int, v: int, t: int) -> bool:
        """True if someone moves v->u between t and t+1 (head-on with u->v)."""
        return (v, u) in self._moves.get(t, ())

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

    Phase 1 grows the layer of vertices reachable at each time, one set
    expression per step, until the goal is acceptable. It gives up early,
    with the same answer the horizon would give, once ``t > max_time`` and
    the next layer equals the current one. From then on the step from one
    layer to the next is the same function at every time: nothing is held
    by time after ``max_time``, no hop starts at or after it, and every
    parked vertex is parked for good. Whether the goal is acceptable no
    longer depends on the time either, since ``free_forever(goal, t)`` only
    asks whether the goal is parked once ``t`` exceeds every timed hold. So
    a layer that repeats repeats forever, and the goal is never reached.
    (Layers only grow then, as waiting keeps every vertex.) The guard on
    ``max_time`` matters: before it, a layer can stay the same for many
    rounds while another agent holds a bridge, and then grow.

    Phase 2 counts, backward over the layers, the fewest penalized entries
    on a completion from each vertex, visiting only the vertices that can
    still step into the next layer's completions. Phase 3 walks forward,
    taking the smallest vertex that keeps that count.
    """
    cons = constraints if constraints is not None else SynConstraints()
    res = cons.reservations if cons.reservations is not None else Reservations()
    blocked = cons.blocked
    if start in blocked or res.blocked_at(start, start_time):
        return None
    horizon = graph.n + res.max_time + f * graph.n
    if start_time > horizon:
        return None
    adj = graph.adj
    pred = _reverse_adj(graph)
    occupied, moves = res._occupied, res._moves
    # vertices parked for good, released into ``parked`` as time passes
    parks = sorted((t0, v) for v, t0 in res._forever.items())
    parked: set[int] = set()
    next_park = 0

    # Phase 1: forward reachable layers until the goal is reachable at a
    # time from which it stays unreserved forever.
    layers: list[set[int]] = [{start}]
    k = 0
    while True:
        t = start_time + k
        cur = layers[k]
        if goal in cur and res.free_forever(goal, t) and goal not in blocked:
            break
        if t >= horizon:
            return None
        while next_park < len(parks) and parks[next_park][0] <= t + 1:
            parked.add(parks[next_park][1])
            next_park += 1
        nxt = cur.union(*[adj[u] for u in cur])
        nxt.difference_update(blocked, parked, occupied.get(t + 1, ()))
        hops = moves.get(t, ())
        for p, q in hops:
            # someone moves p->q, so our q->p is head-on: keep p only if
            # another vertex of the layer enters it (p is held at t, so no
            # one of ours waits there)
            if q in cur and p in nxt and not any(
                u in cur and (p, u) not in hops for u in pred[p]
            ):
                nxt.discard(p)
        if not nxt or (t > res.max_time and nxt == cur):
            return None
        layers.append(nxt)
        k += 1
    arrival_k = k

    # Phase 2: backward DP over the layers, minimizing penalized entries.
    # dp[k][v] = fewest penalized entries on a completion from (v, k).
    penalty = cons.penalty
    dp: list[dict[int, int]] = [dict() for _ in range(arrival_k + 1)]
    dp[arrival_k][goal] = 0
    for kk in range(arrival_k - 1, -1, -1):
        hops = moves.get(start_time + kk, ())
        nxt_dp = dp[kk + 1]
        near = set(nxt_dp).union(*[pred[w] for w in nxt_dp])
        for u in layers[kk] & near:
            best = None
            for w in (u, *adj[u]):
                if w not in nxt_dp:
                    continue
                if w != u and (w, u) in hops:
                    continue
                c = nxt_dp[w] + (1 if (w != u and w in penalty) else 0)
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
        hops = moves.get(start_time + kk, ())
        nxt_dp = dp[kk + 1]
        want = dp[kk][v]
        chosen = None
        for w in sorted((v, *adj[v])):
            if w not in nxt_dp:
                continue
            if w != v and (w, v) in hops:
                continue
            c = nxt_dp[w] + (1 if (w != v and w in penalty) else 0)
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
    """The path of :func:`find_path_seq_cuts`, without its cut set."""
    return find_path_seq_cuts(graph, start, goal, forbidden, penalty)[0]


def find_path_seq_cuts(
    graph: Graph, start: int, goal: int, forbidden=frozenset(), penalty=frozenset()
):
    """Shortest simple path avoiding ``forbidden``, lexicographically smallest,
    and the path's cut set.

    Among equally short paths, one entering the fewest ``penalty`` vertices
    is preferred (ties again broken lexicographically); with an empty
    penalty set this is the plain lex-first shortest path. Follows edge
    direction on directed graphs. Returns ``(path, cuts)``, or
    ``(None, frozenset())`` when no path exists. ``start == goal`` yields
    the single-vertex path.

    One BFS toward the goal (on the reversed graph when directed) gives
    each vertex's distance to the goal; it stops once the start is
    labelled, as every distance read below is smaller than the start's. A
    step stays on a shortest path exactly when it lowers that distance by
    one, so no distances from the start are needed: the shortest paths are
    layered out from the start, a backward pass over the layers counts the
    fewest penalized entries still ahead, and the walk takes the smallest
    step that keeps it.

    ``cuts`` holds the vertices that are alone in their layer, the start
    and the goal included (the goal is a layer of its own). Every shortest
    path visits exactly one vertex of each layer, so these are the vertices
    that every shortest path avoiding ``forbidden`` visits: forbidding one
    of them as well makes the path longer or impossible, and forbidding any
    other vertex leaves its length unchanged.
    """
    if start in forbidden or goal in forbidden:
        return None, frozenset()
    if start == goal:
        return (start,), frozenset((start,))
    toward = Graph(n=graph.n, adj=_reverse_adj(graph), directed=graph.directed)
    dist = bfs_distances(toward, goal, frozenset(forbidden), stop=start)
    if dist[start] < 0:
        return None, frozenset()
    # vertices on some shortest path, one layer per step from the start
    adj = graph.adj
    layers = [{start}]
    for d in range(dist[start] - 1, 0, -1):
        layers.append({w for v in layers[-1] for w in adj[v] if dist[w] == d})
    cuts = frozenset([goal] + [v for layer in layers if len(layer) == 1 for v in layer])
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
    return tuple(out), cuts
