"""Deterministic single-agent path searches used by the planners.

Two searches live here. ``find_path_syn`` plans in space-time against timed
reservations of other agents (synchronous model): it returns the shortest
path, breaking ties first by how few penalized vertices it enters and then
by lexicographically smallest vertex sequence, so planning is reproducible
bit for bit. Its layers are bounded by the distance to the goal: a try
with arrival bound ``B`` keeps a vertex at time ``t`` only if the goal is
at most ``B - t`` hops away, which drops no vertex of a path arriving by
``B``, so the answer is that of the unbounded search. The bound starts at
the earliest conceivable arrival and is widened a few times; the last
try is unbounded. That try, when no path exists, stops as soon as the
set of reachable vertices repeats after the last reservation: from then
on every step is the same, so the set, and the verdict, would repeat up
to the horizon.
``find_path_seq_mask`` finds the shortest simple path avoiding a
forbidden vertex set, with the same tie-breaks, from a single BFS toward
the goal: a step stays on a shortest path exactly when it lowers the
distance to the goal by one. It returns that path together with its cut
set, the vertices every such shortest path must visit, and
``must_visit_mask`` scans a path for the vertices every route at all must
visit. Each has one implementation, which gives its vertex sets as int
bitmasks (bit v = vertex v), the form the disjoint CBS keeps them in.
``find_path_seq`` is the path-only adapter for callers that hold Python
sets.

Both shortest-path searches settle their tie-breaks in one backward pass
over their layers, which keeps each vertex's best step; the path then
follows those steps from the start.

``Reservations`` merges the :class:`Timing` of each reserved path, which
a caller that reserves one path in many searches can build once.
"""

from __future__ import annotations

from .core import Graph, Path, bfs_distances, bfs_fill, mask_vertices, vertex_mask


class Timing:
    """One path's timed occupancies from one start time, in the form
    :meth:`Reservations.add` merges them.

    The path's k-th vertex (1-based) is held at time ``start_time+k-1``.
    ``visits[v]`` lists the times at which the path holds ``v``, ascending;
    ``hops`` lists the moves ``(t, (u, v))`` that leave ``u`` at time ``t``
    and reach ``v`` at ``t+1``; ``end`` is the time of the last vertex. A
    planner that reserves the same path in many searches builds its timing
    once.
    """

    __slots__ = ("path", "visits", "hops", "end")

    def __init__(self, path: Path, start_time: int = 1):
        visits: dict[int, list[int]] = {}
        for t, v in enumerate(path, start_time):
            visits.setdefault(v, []).append(t)
        self.path = path
        self.visits = visits
        self.hops = tuple((t, (u, w)) for t, (u, w) in enumerate(zip(path, path[1:]), start_time)
                          if u != w)
        self.end = start_time + len(path) - 1


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
        if path:
            self.add(Timing(path, start_time))

    def add(self, timing: Timing) -> None:
        """Register a path given by its :class:`Timing`."""
        occupied, last = self._occupied, self._last
        for v, times in timing.visits.items():
            for t in times:
                held = occupied.get(t)
                if held is None:
                    occupied[t] = {v}
                else:
                    held.add(v)
            if times[-1] > last.get(v, 0):
                last[v] = times[-1]
        moves = self._moves
        for t, hop in timing.hops:
            out = moves.get(t)
            if out is None:
                moves[t] = {hop}
            else:
                out.add(hop)
        end_t = timing.end
        last_v = timing.path[-1]
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


# Arrival slacks, over the goal distance, of the bounded tries of
# ``find_path_syn``; one unbounded try follows them.
SLACKS = (0, 4, 16)


def goal_distances(graph: Graph, goal: int, blocked=frozenset(), stop: int = -1) -> list[int]:
    """Hop distances from every vertex to ``goal`` along edge direction,
    avoiding ``blocked``; -1 where the goal is out of reach.

    :func:`bfs_distances` on the reversed graph, with its early ``stop``.
    With nothing blocked, no timed path from ``v`` at time ``t`` reaches
    the goal before ``t + dist[v]``: the bound :func:`find_path_syn`
    prunes its layers with. That table depends on the graph and the goal
    only, so callers may keep one per goal and hand it back in as
    ``to_goal``.
    """
    return bfs_distances(graph.reverse, goal, blocked, stop)


def find_path_syn(
    graph: Graph,
    start: int,
    goal: int,
    start_time: int = 1,
    f: int = 0,
    *,
    blocked: frozenset = frozenset(),
    reservations: "Reservations | None" = None,
    penalty: frozenset = frozenset(),
    to_goal: "list[int] | None" = None,
):
    """Shortest reservation-respecting timed path from start to goal.

    The path's k-th vertex (1-based) is occupied at time ``start_time+k-1``;
    consecutive repeats are waits. The goal must be free of reservations
    forever from the arrival time on (the agent sits there once arrived).
    Ties broken by (fewest penalized entries, lexicographically smallest
    vertex sequence). Returns a tuple, or None if no path exists within the
    search horizon ``|V| + latest reservation time + f*|V|``. ``blocked``
    vertices are unusable at every time; ``reservations`` holds the timed
    paths to stay collision-free against; entering a ``penalty`` vertex
    costs a tie-break point, waiting on it does not cost again.
    ``to_goal`` is ``goal_distances(graph, goal)``, computed here when
    not given.

    Phase 1 grows the layer of vertices reachable at each time, one set
    expression per step, until the goal is acceptable. It is bounded by
    the goal distance (the true-distance heuristic of space-time
    cooperative A*): a try with bound ``B`` keeps ``v`` at time ``t`` only
    while ``t + to_goal[v] <= B``, as a path that arrives by ``B`` can
    pass nowhere else. The first try's bound is the earliest conceivable
    arrival, ``start_time + to_goal[start]``; a try that fails is redone
    with the larger slacks of ``SLACKS``. The answer is the unbounded
    one: every ``(v, k)`` on a path arriving at the true arrival ``T``
    has ``k + to_goal[v] <= T``, so once a try's bound reaches ``T`` its
    layers hold every vertex of such a path, it meets the goal at ``T``
    as the unbounded layers do and not before, and phase 2 below, which
    only visits vertices of such paths, makes the same choices. A try
    whose bound reaches the horizon is decisive.

    A goal that is blocked, parked on for good or out of reach of the
    start is refused up front. A failed bounded try only says that the
    goal is not reached by its bound, so the last try is unbounded, which
    can tell that the goal is never reached without walking to the
    horizon. It gives up, with the answer the horizon would give, once
    ``t > max_time`` and the next layer equals the current one. From then
    on the step from one layer to the next is the same function at every
    time: nothing is held by time after ``max_time``, no hop starts at or
    after it, and every parked vertex is parked for good. Whether the
    goal is acceptable no longer depends on the time either, since
    ``free_forever(goal, t)`` only asks whether the goal is parked once
    ``t`` exceeds every timed hold. So a layer that repeats repeats
    forever, and the goal is never reached. (Layers only grow then, as
    waiting keeps every vertex.) The guard on ``max_time`` matters:
    before it, a layer can stay the same for many rounds while another
    agent holds a bridge, and then grow. Bounded layers are not monotone
    after ``max_time`` (they shrink toward their bound), so the test is
    made on unbounded layers only. Before the unbounded try, one
    breadth-first search checks that the goal is reachable at all once
    ``blocked`` is taken out.

    Phase 2 counts, backward over the layers, the fewest penalized entries
    on a completion from each vertex, visiting only the vertices that can
    still step into the next layer's completions, and keeps for each the
    smallest vertex it can step to with that count. Phase 3 follows those
    steps from the start.
    """
    res = reservations if reservations is not None else Reservations()
    if start in blocked or res.blocked_at(start, start_time):
        return None
    horizon = graph.n + res.max_time + f * graph.n
    if start_time > horizon or goal in blocked or goal in res._forever:
        return None
    dist = to_goal if to_goal is not None else goal_distances(graph, goal)
    if dist[start] < 0:
        return None
    adj = graph.adj
    pred = graph.reverse.adj
    for slack in SLACKS:
        bound = start_time + dist[start] + slack
        layers = _grow(adj, pred, start, goal, start_time, res, blocked,
                       min(bound, horizon), dist)
        if layers is not None or bound >= horizon:
            break
    else:
        if goal_distances(graph, goal, blocked, stop=start)[start] >= 0:
            layers = _grow(adj, pred, start, goal, start_time, res, blocked, horizon, None)
    if layers is None:
        return None
    arrival_k = len(layers) - 1
    moves = res._moves

    # Phase 2: cost[k][v] = fewest penalized entries on a completion from
    # (v, k); step[k][v] = the smallest vertex a step keeping it goes to.
    cost: list[dict[int, int]] = [dict() for _ in range(arrival_k + 1)]
    step: list[dict[int, int]] = [dict() for _ in range(arrival_k)]
    cost[arrival_k][goal] = 0
    for kk in range(arrival_k - 1, -1, -1):
        hops = moves.get(start_time + kk, ())
        nxt_cost = cost[kk + 1]
        near = set(nxt_cost).union(*[pred[w] for w in nxt_cost])
        for u in layers[kk] & near:
            best = to = None
            for w in (u, *adj[u]):
                if w not in nxt_cost or (w != u and (w, u) in hops):
                    continue
                c = nxt_cost[w] + (1 if (w != u and w in penalty) else 0)
                if best is None or c < best or (c == best and w < to):
                    best, to = c, w
            if best is not None:
                cost[kk][u], step[kk][u] = best, to
    if start not in cost[0]:
        return None

    # Phase 3: follow the chosen steps from the start.
    out = [start]
    for kk in range(arrival_k):
        out.append(step[kk][out[-1]])
    return tuple(out)


def _grow(adj, pred, start, goal, start_time, res, blocked, bound, dist):
    """Phase 1 of :func:`find_path_syn`: the layers from ``start_time`` up
    to the goal's arrival, or None if it does not arrive by ``bound``.

    With a ``dist`` table the layers keep only the vertices ``v`` that can
    still make the bound, ``t + dist[v] <= bound``; with None they are
    complete, and a layer that repeats after ``res.max_time`` ends the
    search.
    """
    occupied, moves = res._occupied, res._moves
    # vertices parked for good, released into ``parked`` as time passes
    parks = sorted((t0, v) for v, t0 in res._forever.items())
    parked: set[int] = set()
    next_park = 0
    layers: list[set[int]] = [{start}]
    t = start_time
    while True:
        cur = layers[-1]
        if goal in cur and res.free_forever(goal, t):
            return layers
        if t >= bound:
            return None
        while next_park < len(parks) and parks[next_park][0] <= t + 1:
            parked.add(parks[next_park][1])
            next_park += 1
        if dist is None:
            nxt = cur.union(*[adj[u] for u in cur])
        else:
            slack = bound - t - 1
            nxt = {w for u in cur for w in (u, *adj[u]) if 0 <= dist[w] <= slack}
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
        if not nxt or (dist is None and t > res.max_time and nxt == cur):
            return None
        layers.append(nxt)
        t += 1


def find_path_seq(graph: Graph, start: int, goal: int, forbidden=frozenset(), penalty=frozenset()):
    """Shortest simple path avoiding the vertex set ``forbidden``,
    lexicographically smallest, or None when no path exists.

    Among equally short paths, one entering the fewest ``penalty`` vertices
    is preferred (ties again broken lexicographically); with an empty
    penalty set this is the plain lex-first shortest path. Follows edge
    direction on directed graphs. ``start == goal`` yields the
    single-vertex path. The vertex-set adapter of the kernel
    :func:`_find_path_seq`; :func:`find_path_seq_mask` is its bitmask form,
    which also gives the path's cut set.
    """
    return _find_path_seq(graph, start, goal, forbidden, vertex_mask(penalty))[0]


def find_path_seq_mask(graph: Graph, start: int, goal: int, forbidden: int = 0, penalty: int = 0):
    """The path of :func:`find_path_seq` and its cut set, over vertex
    bitmasks (bit v = vertex v, see :func:`~mappcf.core.vertex_mask`), the
    form the disjoint CBS keeps its sets in: ``(path, path_mask, cuts)``
    with the path's vertex set and its cut set as bitmasks, or
    ``(None, 0, 0)`` when no path exists. ``forbidden`` and ``penalty``
    are bitmasks too.

    ``cuts`` holds the vertices that are alone in their layer of the
    shortest-path DAG, the start and the goal included (the goal is a layer
    of its own). Every shortest path visits exactly one vertex of each
    layer, so these are the vertices that every shortest path avoiding
    ``forbidden`` visits: forbidding one of them as well makes the path
    longer or impossible, and forbidding any other vertex leaves its length
    unchanged.
    """
    path, cuts = _find_path_seq(graph, start, goal, mask_vertices(forbidden), penalty)
    return path, (0 if path is None else vertex_mask(path)), cuts


def _find_path_seq(graph: Graph, start: int, goal: int, walls, penalty: int):
    """The one search behind :func:`find_path_seq` and
    :func:`find_path_seq_mask`: ``(path, cuts)``, ``cuts`` a bitmask, or
    ``(None, 0)``.

    ``walls`` yields the forbidden vertices and ``penalty`` is a bitmask.
    The forbidden vertices are marked in the distance list before the
    search starts, so the search never tests a set and only has to
    enumerate them: a set caller hands its set over as it is, and the
    bitmask form decodes its mask, so neither converts one form into the
    other and back.

    One BFS toward the goal (on the reversed graph when directed) gives
    each vertex's distance to the goal; it stops once the start is
    labelled, as every distance read below is smaller than the start's. A
    step stays on a shortest path exactly when it lowers that distance by
    one, so no distances from the start are needed: the shortest paths are
    layered out from the start, a backward pass over the layers counts the
    fewest penalized entries still ahead and keeps the first step (in
    adjacency order, which is ascending) that attains it, and the path
    follows the kept steps.
    """
    dist = [-1] * graph.n
    for v in walls:
        dist[v] = -2
    if dist[start] == -2 or dist[goal] == -2:
        return None, 0
    if start == goal:
        return (start,), 1 << start
    bfs_fill(graph.reverse.adj, dist, goal, stop=start)
    if dist[start] < 0:
        return None, 0
    # vertices on some shortest path, one layer per step from the start
    adj = graph.adj
    layers = [{start}]
    for d in range(dist[start] - 1, 0, -1):
        layers.append({w for v in layers[-1] for w in adj[v] if dist[w] == d})
    cuts = 1 << goal
    for layer in layers:
        if len(layer) == 1:
            for v in layer:
                cuts |= 1 << v
    # fewest penalized vertices entered from here to the goal, and the
    # smallest next vertex that keeps that count
    pen = {goal: 0}
    step: dict[int, int] = {}
    for layer in reversed(layers):
        for v in layer:
            down = dist[v] - 1
            best = None
            for w in adj[v]:
                if dist[w] == down:
                    p = pen[w] + (penalty >> w & 1)
                    if best is None or p < best:
                        best, step[v] = p, w
            pen[v] = best
    out = [start]
    while out[-1] != goal:
        out.append(step[out[-1]])
    return tuple(out), cuts


def must_visit_mask(graph: Graph, path: Path, forbidden: int = 0) -> int:
    """The vertices every route from ``path[0]`` to ``path[-1]`` avoiding
    ``forbidden`` visits, the start and the goal included, as a bitmask.

    ``forbidden`` is a vertex bitmask too. ``path`` must be such a route,
    so all of these vertices lie on it (they are the goal's dominators from
    the start). They are a subset of the cut set of
    :func:`find_path_seq_mask`, which only asks about shortest routes.
    Follows edge direction on directed graphs.

    One search from the start, O(V+E): ``m`` is the furthest path index
    touched so far, and the search expands every touched vertex except
    ``path[m]``. Touching a later path vertex moves ``m`` there and releases
    the old ``path[m]`` for expansion: the new one was reached without it,
    and the rest of ``path`` leads on to the goal, so the old one is
    avoidable. When the search runs dry before the goal is touched, the
    start reaches nothing further without ``path[m]``, so ``path[m]``
    separates start and goal; the search then continues from it. Once the
    goal is touched, every earlier candidate has been released, so the scan
    stops there.

    One list ``tag`` holds both the search's marks and the path's indices:
    -2 for a vertex already touched or forbidden, a path vertex's index
    until it is touched, and -1 for every other vertex.
    """
    tag = [-1] * graph.n
    for i, v in enumerate(path):
        tag[v] = i
    for v in mask_vertices(forbidden):
        tag[v] = -2
    adj = graph.adj
    last = len(path) - 1
    out = 1 << path[0] | 1 << path[last]
    tag[path[0]] = -2
    stack = [path[0]]
    m = expanded = 0  # expanded: the last separator, already pushed
    while m != last:
        while stack:
            for w in adj[stack.pop()]:
                i = tag[w]
                if i == -2:
                    continue
                tag[w] = -2
                if i <= m:
                    stack.append(w)
                    continue
                if i == last:
                    return out
                if m != expanded:
                    stack.append(path[m])
                m = i
        if m == expanded:
            raise ValueError("no route from path[0] to path[-1] avoids forbidden")
        out |= 1 << path[m]
        stack.append(path[m])
        expanded = m
    return out
