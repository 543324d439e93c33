"""Baseline solver: pairwise vertex-disjoint paths.

A tuple of vertex-disjoint paths is immune to crashes. No agent ever
meets another, so everyone just walks its own path; the plans carry no
transition rules and verify for any crash budget. The price is cost and
coverage: disjoint tuples are often longer than coordinated routes and
frequently do not exist at all.

The search is a small conflict-based search. The high level picks a
vertex shared by two planned paths, cardinal conflicts first, and
branches on which of the two agents must avoid it. The low level replans
that one agent with ``find_path_seq``, which returns the agent's
shortest path under its constraints together with the path's cut set:
the vertices every such shortest path visits. The cut sets classify the
conflicts, so no search beyond the replan itself is needed. Constraint
sets only grow and the vertex set is finite, so an exhausted tree is a
proof that no disjoint tuple exists.

Every node is strengthened by must-visit propagation (mutex propagation,
Zhang et al., ICAPS 2020). The vertices every route of an agent must use,
given its forbidden set (``pathfind.must_visit_mask``, one linear scan), are
forbidden to all other agents; an agent whose path enters a newly
forbidden vertex is replanned, and so on to a fixpoint. A child in which
some agent is left without a path is refuted before it is pushed. Every
disjoint tuple consistent with a node's constraints also satisfies the
strengthened ones, so the search stays complete and cost-optimal; on
infeasible instances the strengthening is what keeps the proofs short.
The propagation is lazy: an agent that was not replanned keeps its path,
which is still shortest, and its cut set, which is then a subset of the
true cut set of its strengthened constraints.

Every vertex set the search keeps is an int bitmask (bit v = vertex v):
each agent's forbidden set, path vertex set and cut set, the keys of the
closed set, and the penalty a replan builds from the other agents' paths.
The low level works on the masks directly (``find_path_seq``,
``must_visit_mask``), and conflicts are read off by mask intersection,
lowest bit first, which is the ascending vertex order of a sorted set. A
node therefore holds 3n ints and n path tuples, the tuples shared with its
parent except for the replanned agents. Measured per expanded node, with
the heap and the closed set: about 0.5 KB on an 8x8 map with two agents
and 1.9 KB on a 16x16 map with eight.
"""

from __future__ import annotations

import heapq
import itertools
import time

from .core import (
    NFD,
    SYN,
    Instance,
    Path,
    Plan,
    Solution,
    SolveResult,
    check_solver_input,
    cpu_deadline,
    shared_vertices,
    vertex_mask,
)
from .pathfind import find_path_seq, must_visit_mask


def _pick_conflict(sets, cuts):
    """Choose the conflict to branch on, cardinal first (as in ICBS).

    ``sets`` and ``cuts`` hold each agent's path vertices and cut set as
    vertex bitmasks. A conflict of agents a and b at a shared vertex v is
    cardinal for a when a cannot avoid v without a longer path (or none):
    the child that forbids v to a then costs more than its parent. That is
    exactly bit v of ``cuts[a]``. a's path is a shortest path under a's
    constraints, and every such path visits exactly one vertex of each
    layer of the shortest-path DAG (the MDD), so the paths that avoid v
    keep the length if and only if v shares its layer with another vertex.

    An agent that propagation did not replan keeps the cut set of its
    path under its earlier, smaller forbidden set. Its path is still a
    shortest one, and its true cut set can only have grown, so ``cuts[a]``
    is then a sound subset: every conflict it calls cardinal is cardinal,
    but a cardinal conflict may be taken for a non-cardinal one. That
    affects only the branching order, never the verdict or the cost.

    Prefer a conflict that is cardinal for both agents (branching there
    raises the cost bound in both children), then a semi-cardinal one
    (cardinal for one agent), then simply the first conflict. Ties resolve
    by pair index and then the lowest vertex number, so the choice is
    deterministic.
    """
    semi = None
    non = None
    for a, b in itertools.combinations(range(len(sets)), 2):
        shared = sets[a] & sets[b]
        if not shared:
            continue
        both = shared & cuts[a] & cuts[b]
        if both:
            return a, b, _lowest(both)
        if semi is None:
            either = shared & (cuts[a] | cuts[b])
            if either:
                semi = (a, b, _lowest(either))
        if non is None:
            non = (a, b, _lowest(shared))
    return semi or non


def _lowest(mask: int) -> int:
    """The smallest vertex of a nonempty vertex bitmask."""
    return (mask & -mask).bit_length() - 1


def solve_disjoint(
    inst: Instance,
    model: str = SYN,
    fd: str = NFD,
    deadline: "float | None" = 30.0,
) -> SolveResult:
    """Best-first search for a minimum-total-length disjoint path tuple.

    The root forbids each agent the other agents' starts and goals and
    plans the agents in order. A child forbids the branched vertex to one
    agent of the conflict and replans that agent. Root and children then
    pass through one routine, ``push``, which settles the node by
    must-visit propagation and queues it. Open-list order: sum of path
    lengths, then number of pairwise shared vertices, then insertion order.

    The disjoint tuples consistent with a node depend only on its
    per-agent forbidden sets, before propagation or after, so nodes are
    deduplicated by both signatures: a child is dropped when its branched
    sets, or its settled sets, were seen before. Settled sets equal to the
    child's own branched sets do not count as seen.

    Every result comes from one builder, ``result``, which wraps solved
    paths as rule-free plans. Infeasible is returned only after the whole
    tree is exhausted; Timeout when the deadline, in cpu-seconds, passes
    first (None for no limit; see :func:`~mappcf.core.cpu_deadline`, which
    rejects NaN and negative budgets).
    """
    check_solver_input(inst, model, fd)
    t0 = time.monotonic()
    deadline_at = cpu_deadline(deadline)
    n = inst.n_agents
    nodes = pruned = 0

    def result(status: str, paths: "tuple[Path, ...] | None" = None) -> SolveResult:
        sol = None
        if paths is not None:
            sol = Solution(model=model, fd=fd, plans=tuple(Plan(paths=(p,)) for p in paths))
        return SolveResult(status, sol, initial_paths=paths, nodes=nodes, pruned=pruned,
                           runtime=time.monotonic() - t0)

    def replan(a: int, forbidden: int, sets):
        # among shortest paths, steer away from the other agents' current
        # routes; the plateau of equal-cost grid paths is huge otherwise
        penalty = 0
        for c, vs in enumerate(sets):
            if c != a:
                penalty |= vs
        return find_path_seq(inst.graph, inst.starts[a], inst.goals[a], forbidden, penalty)

    def settle(forbids, paths, sets, cuts, changed) -> bool:
        """Propagate must-visit vertices to a fixpoint, in place.

        ``changed`` holds the agents whose paths were just replanned. Every
        route of such an agent visits its must-visit vertices, so they are
        forbidden to the others; an agent whose path enters a newly
        forbidden vertex is replanned and its own vertices propagate in
        turn. False when some agent is left without a path.
        """
        changed = set(changed)
        while changed:
            a = min(changed)
            changed.discard(a)
            # must-visit vertices lie in the cut set; start and goal are
            # forbidden to the others from the root on
            if cuts[a].bit_count() <= 2:
                continue
            must = must_visit_mask(inst.graph, paths[a], forbids[a])
            for b in range(n):
                if b == a or must & ~forbids[b] == 0:
                    continue
                forbids[b] |= must
                if not sets[b] & must:
                    # still a shortest path: its cuts stay a sound subset
                    continue
                found = replan(b, forbids[b], sets)
                if found is None:
                    return False
                paths[b], sets[b], cuts[b] = found
                changed.add(b)
        return True

    heap: list = []
    closed: set = set()
    seq = itertools.count()

    def push(forbids, paths, sets, cuts, changed, branched=None) -> bool:
        """Settle a node and queue it, unless a node with the same settled
        forbidden sets was queued before. False when settling refutes it.

        ``branched`` is a child's forbidden sets before settling, which the
        caller has already closed: a child that settling leaves there is
        still queued."""
        if not settle(forbids, paths, sets, cuts, changed):
            return False
        key = tuple(forbids)
        if key != branched and key in closed:
            return True
        closed.add(key)
        cost = sum(len(p) - 1 for p in paths)
        entry = (cost, shared_vertices(sets), next(seq), key, tuple(paths), tuple(sets), tuple(cuts))
        heapq.heappush(heap, entry)
        return True

    # in a disjoint tuple, every other agent's endpoints lie on that agent's
    # path, so they are off limits from the root on
    forbids = [
        vertex_mask(v for b in range(n) if b != a for v in (inst.starts[b], inst.goals[b]))
        for a in range(n)
    ]
    paths, sets, cuts = [None] * n, [0] * n, [0] * n
    for a in range(n):
        # the root plans in agent order, each agent steering away from the
        # agents planned before it
        found = replan(a, forbids[a], sets)
        if found is None:
            return result("infeasible")
        paths[a], sets[a], cuts[a] = found
    if not push(forbids, paths, sets, cuts, range(n)):
        return result("infeasible")

    while heap:
        if deadline_at is not None and time.process_time() > deadline_at:
            return result("timeout")
        _, _, _, forbids, paths, sets, cuts = heapq.heappop(heap)
        nodes += 1
        hit = _pick_conflict(sets, cuts)
        if hit is None:
            return result("solved", paths)
        a, b, v = hit
        for agent in (a, b):
            child = forbids[:agent] + (forbids[agent] | 1 << v,) + forbids[agent + 1 :]
            if child in closed:
                continue
            closed.add(child)
            found = replan(agent, child[agent], sets)
            if found is None:
                continue
            cpaths, csets, ccuts = list(paths), list(sets), list(cuts)
            cpaths[agent], csets[agent], ccuts[agent] = found
            if not push(list(child), cpaths, csets, ccuts, (agent,), child):
                pruned += 1
    return result("infeasible")
