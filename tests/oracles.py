"""Independent brute-force oracles for the test suite.

Everything here works straight off the adjacency lists with plain
recursion, on purpose: these functions double-check the package's
search code, so they must not share any of it. The reference stepping
shares only the execution module's state and collision types, and the
crash-tree search after it steps with the reference stepping alone. The
reference kernels share nothing with the package either. The
vertex-set adapters and the planner at the end are the exceptions: the
adapters call the package's bitmask kernels, for tests that state their
cases in sets, and the planner is dcrf's own with one shortcut taken out.
"""

import itertools
from collections import deque

from mappcf import pathfind
from mappcf.core import CORRECT, NFD, VACANT, crashed, mask_vertices, vertex_mask
from mappcf.dcrf import Planner
from mappcf.execution import (
    CORRECT_ST,
    CRASHED_ST,
    DONE_ST,
    AgentState,
    Collision,
)


def simple_paths(graph, s, t):
    """All simple s-t paths as tuples (exponential; small graphs only)."""
    out = []
    seen = [False] * graph.n

    def walk(prefix):
        u = prefix[-1]
        if u == t:
            out.append(tuple(prefix))
            return
        for w in graph.adj[u]:
            if not seen[w]:
                seen[w] = True
                walk(prefix + [w])
                seen[w] = False

    seen[s] = True
    walk([s])
    return out


def disjoint_exists(graph, starts, goals):
    """Is there a tuple of pairwise vertex-disjoint start-goal paths?

    Exhaustive backtracking over per-agent simple paths with a shared
    used-vertex set, so a False answer is a proof.
    """
    n = len(starts)

    def assign(a, used):
        if a == n:
            return True
        s, t = starts[a], goals[a]
        if s in used or t in used:
            return False

        def walk(u, taken):
            if u == t:
                return assign(a + 1, used | taken)
            for w in graph.adj[u]:
                if w not in used and w not in taken:
                    if walk(w, taken | {w}):
                        return True
            return False

        return walk(s, {s})

    return assign(0, frozenset())


def min_disjoint_cost(graph, starts, goals):
    """Minimum total edge count over disjoint path tuples, or None."""
    n = len(starts)
    best = [None]

    def assign(a, used, cost):
        if best[0] is not None and cost >= best[0]:
            return
        if a == n:
            best[0] = cost
            return
        s, t = starts[a], goals[a]
        if s in used or t in used:
            return
        for p in simple_paths(graph, s, t):
            pset = set(p)
            if pset & used:
                continue
            assign(a + 1, used | pset, cost + len(p) - 1)

    assign(0, set(), 0)
    return best[0]


def brute_sat(clauses):
    """Satisfiability of a CNF clause list by trying every assignment."""
    variables = sorted({abs(lit) for cl in clauses for lit in cl})
    for bits in itertools.product((False, True), repeat=len(variables)):
        value = dict(zip(variables, bits))
        if all(any(value[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def best_timed_walk(graph, start, goal, reserved=(), blocked=frozenset(),
                    penalty=frozenset(), start_time=1):
    """The timed walk ``find_path_syn`` must return, by exhaustive search.

    ``reserved`` lists ``(path, t0)`` pairs: another agent is at ``path[k]``
    at time ``t0 + k`` and stays on ``path[-1]`` for good afterwards. Our
    walk is at its k-th vertex at time ``start_time + k``; each step waits
    or follows an edge. It may never share a vertex with another agent at
    the same time, never enter a blocked vertex, and never cross another
    agent head-on along an edge. It must end on the goal at a time from
    which no other agent ever touches the goal again.

    A breadth-first search over (vertex, time) states finds the earliest
    such arrival. It stops at time ``T0 + |V|``, where ``T0`` is the later
    of the start time and the round after the last reserved time, and no
    arrival comes later. From ``T0`` on no vertex is held by time and no
    one moves, so whether a vertex is free, and whether the goal is
    settled, no longer depends on the time; a free vertex reached stays
    reached by waiting. The set of vertices reached at each time from
    ``T0`` on thus only grows, and the same set one round later means the
    same set for good. It holds one vertex at least at ``T0`` (or the
    search is over), so it grows at most ``|V| - 1`` times and is final
    by ``T0 + |V| - 1``: a goal reached at all is reached by then.

    A depth-first search then lists the walks of the earliest arrival's
    length in lexicographic order and keeps the one entering the fewest
    penalized vertices (waiting on one does not count again). It skips
    states from which the goal is out of reach by the arrival time,
    prefixes whose penalty already matches the best walk found, and states
    already walked on from after a prefix of no higher penalty, since none
    of them can yield a better walk: the last ones' completions were all
    tried, and here they come later in the order at no lower penalty.
    Returns a tuple or None.
    """
    held, parked, hops = {}, {}, set()
    last = 0
    for path, t0 in reserved:
        for k, v in enumerate(path):
            held.setdefault(t0 + k, set()).add(v)
            if k + 1 < len(path) and path[k + 1] != v:
                hops.add((path[k], path[k + 1], t0 + k))
        end = t0 + len(path) - 1
        parked[path[-1]] = min(end, parked.get(path[-1], end))
        last = max(last, end)

    def free(v, t):
        return (v not in blocked and v not in held.get(t, ())
                and not (v in parked and t >= parked[v]))

    def moves(u, t):
        return [w for w in sorted((u, *graph.adj[u]))
                if free(w, t + 1) and (w == u or (w, u, t) not in hops)]

    def settled(t):
        return (goal not in blocked and goal not in parked
                and all(goal not in vs for s, vs in held.items() if s >= t))

    stop = max(start_time, last + 1) + graph.n
    if not free(start, start_time):
        return None
    seen = {(start, start_time)}
    frontier = [(start, start_time)]
    arrival = None
    while frontier and arrival is None:
        following = []
        for v, t in frontier:
            if v == goal and settled(t):
                arrival = t
                break
            if t < stop:
                for w in moves(v, t):
                    if (w, t + 1) not in seen:
                        seen.add((w, t + 1))
                        following.append((w, t + 1))
        frontier = following
    if arrival is None:
        return None

    alive = {(goal, arrival)}
    for t in range(arrival - 1, start_time - 1, -1):
        for v in range(graph.n):
            if (v, t) in seen and any((w, t + 1) in alive for w in moves(v, t)):
                alive.add((v, t))
    best = []
    walked = {}  # (v, t) -> the least prefix penalty it was walked on from

    def extend(walk, t, cost):
        if best and cost >= best[0]:
            return
        if walked.get((walk[-1], t), cost + 1) <= cost:
            return
        walked[(walk[-1], t)] = cost
        if t == arrival:
            best[:] = [cost, tuple(walk)]
            return
        u = walk[-1]
        for w in moves(u, t):
            if (w, t + 1) in alive:
                extend(walk + [w], t + 1, cost + (1 if w != u and w in penalty else 0))

    extend([start], start_time, 0)
    return best[1]


def must_visit_vertices(graph, s, t, forbidden=frozenset()):
    """Vertices every s-t route avoiding ``forbidden`` visits, s and t included.

    Forbids each other vertex in turn and asks whether t is still reachable
    from s, by a plain depth-first search along edge direction.
    """

    def reaches(blocked):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            if u == t:
                return True
            for w in graph.adj[u]:
                if w not in seen and w not in blocked:
                    seen.add(w)
                    stack.append(w)
        return False

    return {s, t} | {v for v in range(graph.n)
                     if v not in forbidden and v not in (s, t) and not reaches(forbidden | {v})}


def necessary_condition(graph, starts, goals, f):
    """``core.check_necessary`` as (goal_condition, start_condition, holds),
    by one breadth-first search per avoided vertex set.

    Agent i's goal condition asks for a route from its start to its goal
    that avoids every other goal; its start condition asks for one such
    route per set of min(f, n - 1) other agents, avoiding their starts.
    """

    def reaches(s, t, walls):
        if s in walls or t in walls:
            return False
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                return True
            for w in graph.adj[u]:
                if w not in seen and w not in walls:
                    seen.add(w)
                    queue.append(w)
        return False

    n = len(starts)
    goal_ok, start_ok = [], []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        goal_ok.append(reaches(starts[i], goals[i], {goals[j] for j in others}))
        start_ok.append(all(reaches(starts[i], goals[i], {starts[j] for j in combo})
                            for combo in itertools.combinations(others, min(f, n - 1))))
    return tuple(goal_ok), tuple(start_ok), all(goal_ok) and all(start_ok)


def untidy(sol):
    """The tidiness faults of a solution, which ``validate_solution``
    leaves alone because the plan still executes deterministically: a
    backup path that no rule targets, and a rule that repeats an earlier
    rule's (position, watch, trigger) key, which first match never fires.
    Solver outputs have none; an empty list means tidy."""
    out = []
    for a, plan in enumerate(sol.plans):
        seen = set()
        for r in plan.rules:
            key = (r.from_path, r.at_index, r.watch, r.trigger)
            if key in seen:
                out.append(f"agent {a} rule {r.from_path}@{r.at_index}: duplicate rule key")
            seen.add(key)
        targeted = {r.to_path for r in plan.rules}
        out.extend(f"agent {a}: path {p} is not the target of any rule"
                   for p in range(1, len(plan.paths)) if p not in targeted)
    return out


# --- reference stepping ----------------------------------------------------
#
# The per-agent stepping that ``mappcf.execution`` replaced with its
# compiled step tables, kept unchanged as the reference the compiled
# stepping is compared against. It walks ``AgentState`` tuples and the
# solution's rule list directly, builds an occupancy map per step and
# compares ``Observation`` objects.


def vertex_of(sol, a, st):
    return sol.plans[a].paths[st.path][st.progress - 1]


def occupancy(sol, states):
    """Vertex -> (agent, status) of the agent standing there."""
    occ = {}
    for a, st in enumerate(states):
        occ[vertex_of(sol, a, st)] = (a, st.status)
    return occ


def init_states(inst, sol):
    out = []
    for a in inst.agents():
        st = AgentState(0, 1, CORRECT_ST)
        path = sol.plans[a].paths[0]
        if len(path) == 1 and path[0] == inst.goals[a]:
            st = st._replace(status=DONE_ST)
        out.append(st)
    return tuple(out)


def observe_vertex(occ, fd, v):
    entry = occ.get(v)
    if entry is None:
        return VACANT
    a, status = entry
    if status == CRASHED_ST:
        return crashed(a if fd == NFD else None)
    return CORRECT


def observe(inst, sol, states, agent):
    """Failure-detector view of the given agent's neighbourhood."""
    occ = occupancy(sol, states)
    return {v: observe_vertex(occ, sol.fd, v)
            for v in inst.graph.adj[vertex_of(sol, agent, states[agent])]}


def _fire_rule(sol, a, st, occ):
    """First matching transition rule wins; returns (state, fired rule or None)."""
    for r in sol.plans[a].rules:
        if r.from_path == st.path and r.at_index == st.progress:
            if observe_vertex(occ, sol.fd, r.watch) == r.trigger:
                return AgentState(r.to_path, 1, st.status), r
    return st, None


def step_syn(inst, sol, states, crash_now=frozenset(), trace=None):
    """One synchronous round; returns (new_states, collision or None)."""
    sts = list(states)
    for a in sorted(crash_now):
        if sts[a].status == CRASHED_ST:
            raise ValueError(f"agent {a} is already crashed")
        sts[a] = sts[a]._replace(status=CRASHED_ST)
        if trace is not None:
            trace.note(f"crash agent={a} at={vertex_of(sol, a, sts[a])}")

    occ = occupancy(sol, sts)
    after_rules = list(sts)
    for a, st in enumerate(sts):
        if st.status != CORRECT_ST:
            continue
        nst, rule = _fire_rule(sol, a, st, occ)
        if rule is not None:
            after_rules[a] = nst
            if trace is not None:
                trace.switch(a, rule)
    sts = after_rules

    moved = {}
    out = list(sts)
    for a, st in enumerate(sts):
        if st.status != CORRECT_ST:
            continue
        path = sol.plans[a].paths[st.path]
        if st.progress < len(path):
            u, w = path[st.progress - 1], path[st.progress]
            out[a] = st._replace(progress=st.progress + 1)
            if u != w:
                moved[a] = (u, w)
                if trace is not None:
                    trace.note(f"move agent={a} {u}->{w}")

    by_vertex = {}
    for a, st in enumerate(out):
        by_vertex.setdefault(vertex_of(sol, a, st), []).append(a)
    for v, agents in sorted(by_vertex.items()):
        if len(agents) > 1:
            return tuple(out), Collision("vertex", tuple(agents), (v,))
    for a in sorted(moved):
        ua, wa = moved[a]
        for b in sorted(moved):
            if b <= a:
                continue
            if moved[b] == (wa, ua):
                return tuple(out), Collision("swap", (a, b), (ua, wa))

    for a, st in enumerate(out):
        if st.status != CORRECT_ST:
            continue
        path = sol.plans[a].paths[st.path]
        if st.progress == len(path) and path[-1] == inst.goals[a]:
            out[a] = st._replace(status=DONE_ST)
    return tuple(out), None


def activate_seq(inst, sol, states, a, trace=None):
    """Sequential activation of one agent; returns the new configuration.

    Crashed and done agents ignore activations. A correct agent first
    evaluates its rules, then advances one step if the next vertex is free.
    """
    st = states[a]
    if st.status != CORRECT_ST:
        return states
    occ = occupancy(sol, states)
    nst, rule = _fire_rule(sol, a, st, occ)
    if rule is not None and trace is not None:
        trace.switch(a, rule)
    path = sol.plans[a].paths[nst.path]
    if nst.progress < len(path):
        w = path[nst.progress]
        here = path[nst.progress - 1]
        if w == here:
            raise ValueError("sequential paths cannot contain waits")
        occupied = {vertex_of(sol, b, s) for b, s in enumerate(states) if b != a}
        if w not in occupied:
            nst = nst._replace(progress=nst.progress + 1)
            if trace is not None:
                trace.note(f"move agent={a} {here}->{w}")
    path = sol.plans[a].paths[nst.path]
    if nst.progress == len(path) and path[-1] == inst.goals[a]:
        nst = nst._replace(status=DONE_ST)
        if trace is not None:
            trace.note(f"done agent={a}")
    out = list(states)
    out[a] = nst
    return tuple(out)


def crash_seq(inst, sol, states, a, trace=None):
    st = states[a]
    if st.status == CRASHED_ST:
        raise ValueError(f"agent {a} is already crashed")
    out = list(states)
    out[a] = st._replace(status=CRASHED_ST)
    if trace is not None:
        trace.note(f"crash agent={a} at={vertex_of(sol, a, out[a])}")
    return tuple(out)


def syn_survives(inst, sol, f):
    """Does a synchronous plan survive every crash pattern within budget ``f``?

    Searches the whole crash tree with the reference ``step_syn``: in every
    round it branches on every set of not yet crashed agents within the
    remaining budget, until the run settles (safe), collides, or repeats a
    configuration of its own branch. Crashes cannot be undone, so a repeat
    is a crash-free cycle: the adversary keeps the run on it forever and
    an agent still correct never finishes. A (configuration, budget) pair
    whose whole subtree survived is not searched again.
    """
    safe = set()

    def survives(states, budget, branch):
        if all(st.status != CORRECT_ST for st in states) or (states, budget) in safe:
            return True
        if states in branch:
            return False
        branch = branch | {states}
        alive = [a for a, st in enumerate(states) if st.status != CRASHED_ST]
        for k in range(min(budget, len(alive)) + 1):
            for crash in itertools.combinations(alive, k):
                nxt, coll = step_syn(inst, sol, states, frozenset(crash))
                if coll is not None or not survives(nxt, budget - k, branch):
                    return False
        safe.add((states, budget))
        return True

    return survives(init_states(inst, sol), f, frozenset())


def syn_fewest_collision_rounds(inst, sol, f):
    """The fewest rounds after which some crash pattern within budget ``f``
    makes a synchronous plan collide, or None if none does.

    Breadth-first over the rounds with the reference ``step_syn``: each
    level holds the (configuration, remaining budget) pairs reachable in
    that many rounds and not met before. Settled runs end.
    """
    level = {(init_states(inst, sol), f)}
    seen = set(level)
    rounds = 0
    while level:
        rounds += 1
        following = set()
        for states, budget in level:
            if all(st.status != CORRECT_ST for st in states):
                continue
            alive = [a for a, st in enumerate(states) if st.status != CRASHED_ST]
            for k in range(min(budget, len(alive)) + 1):
                for crash in itertools.combinations(alive, k):
                    nxt, coll = step_syn(inst, sol, states, frozenset(crash))
                    if coll is not None:
                        return rounds
                    if (nxt, budget - k) not in seen:
                        seen.add((nxt, budget - k))
                        following.add((nxt, budget - k))
        level = following
    return None


# --- reference kernels -----------------------------------------------------
#
# The BFS, the shortest-path search and the must-visit scan under the
# disjoint CBS as they ran before they moved to a list queue, list layers
# with n-long step tables and a byte-table mask decode, kept unchanged as
# the references the package's kernels are compared against: a deque
# queue, set layers with dict tables, and a lowest-bit-first decode.


def _decode(mask):
    """The vertices of a bitmask, ascending, lowest set bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def bfs_fill(adj, dist, source, stop=-1):
    """``core.bfs_fill`` on a deque: labels the vertices whose entry is -1."""
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] == -1:
                dist[v] = du
                if v == stop:
                    return dist
                q.append(v)
    return dist


def find_path_seq(graph, start, goal, forbidden=0, penalty=0):
    """``pathfind.find_path_seq``: (path, path mask, cut mask), or None."""
    dist = [-1] * graph.n
    for v in _decode(forbidden):
        dist[v] = -2
    if dist[start] == -2 or dist[goal] == -2:
        return None
    if start == goal:
        return (start,), 1 << start, 1 << start
    bfs_fill(graph.reverse.adj, dist, goal, stop=start)
    if dist[start] < 0:
        return None
    adj = graph.adj
    layers = [{start}]
    for d in range(dist[start] - 1, 0, -1):
        layers.append({w for v in layers[-1] for w in adj[v] if dist[w] == d})
    cuts = 1 << goal
    for layer in layers:
        if len(layer) == 1:
            for v in layer:
                cuts |= 1 << v
    pen = {goal: 0}
    step = {}
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
    mask = 0
    for v in out:
        mask |= 1 << v
    return tuple(out), mask, cuts


def must_visit_mask(graph, path, forbidden=0):
    """``pathfind.must_visit_mask``: the vertices every route from
    ``path[0]`` to ``path[-1]`` avoiding ``forbidden`` visits, as a mask."""
    tag = [-1] * graph.n
    for i, v in enumerate(path):
        tag[v] = i
    for v in _decode(forbidden):
        tag[v] = -2
    adj = graph.adj
    last = len(path) - 1
    out = 1 << path[0] | 1 << path[last]
    tag[path[0]] = -2
    stack = [path[0]]
    m = expanded = 0
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


# --- vertex-set adapters ---------------------------------------------------


def find_path_seq_cuts(graph, start, goal, forbidden=frozenset(), penalty=frozenset()):
    """``pathfind.find_path_seq`` over vertex sets: (path, cut set), or
    (None, frozenset()) when no path exists."""
    found = pathfind.find_path_seq(graph, start, goal, vertex_mask(forbidden),
                                   vertex_mask(penalty))
    if found is None:
        return None, frozenset()
    return found[0], frozenset(mask_vertices(found[2]))


def must_visit(graph, path, forbidden=frozenset()):
    """``pathfind.must_visit_mask`` over vertex sets."""
    return frozenset(mask_vertices(pathfind.must_visit_mask(graph, path, vertex_mask(forbidden))))


# --- dcrf without the doomed-event exit ------------------------------------


class EveryEventPlanner(Planner):
    """dcrf's planner that queues every event, doomed or not, so a failed
    attempt resolves events until it pops the one with no backup: the
    event stage as it ran before the doomed-event exit. Tests install it
    with ``monkeypatch.setattr(dcrf, "Planner", EveryEventPlanner)``."""

    def _doomed(self, ev):
        return False
