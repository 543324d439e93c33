"""Baseline solver: pairwise vertex-disjoint paths.

A tuple of vertex-disjoint paths is immune to crashes. No agent ever
meets another, so everyone just walks its own path; the plans carry no
transition rules and verify for any crash budget. The price is cost and
coverage: disjoint tuples are often longer than coordinated routes and
frequently do not exist at all.

The search is a small conflict-based search. The high level picks a
vertex shared by two planned paths, cardinal conflicts first, and
branches on which of the two agents must avoid it. The low level replans
that one agent with ``find_path_seq_cuts``, which returns the agent's
shortest path under its constraints together with the path's cut set:
the vertices every such shortest path visits. The cut sets classify the
conflicts, so no search beyond the replan itself is needed. Constraint
sets only grow and the vertex set is finite, so an exhausted tree is a
proof that no disjoint tuple exists.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

from .core import (
    DETECTORS,
    MODELS,
    NFD,
    SYN,
    Instance,
    Path,
    Plan,
    Solution,
    reachable,
    validate_instance,
)
# find_path_seq stays bound here: perfbench/tracer.py wraps it at this name
from .pathfind import find_path_seq, find_path_seq_cuts  # noqa: F401


@dataclass(frozen=True)
class DisjointResult:
    """Outcome of the disjoint baseline.

    ``status`` is one of solved / infeasible / timeout. On success
    ``paths`` holds one simple path per agent and ``solution`` wraps them
    as rule-free plans so the verifier consumes both solvers uniformly.
    ``nodes`` counts expanded high-level nodes.
    """

    status: str
    solution: "Solution | None" = None
    paths: "tuple[Path, ...] | None" = None
    nodes: int = 0
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "solved"


def _pick_conflict(sets, cuts):
    """Choose the conflict to branch on, cardinal first (as in ICBS).

    A conflict of agents a and b at a shared vertex v is cardinal for a
    when a cannot avoid v without a longer path (or none): the child that
    forbids v to a then costs more than its parent. That is exactly
    ``v in cuts[a]``. a's path is a shortest path under a's constraints,
    and every such path visits exactly one vertex of each layer of the
    shortest-path DAG (the MDD), so the paths that avoid v keep the length
    if and only if v shares its layer with another vertex.

    Prefer a conflict that is cardinal for both agents (branching there
    raises the cost bound in both children), then a semi-cardinal one
    (cardinal for one agent), then simply the first conflict. Ties resolve
    by pair index and vertex number, so the choice is deterministic.
    """
    semi = None
    non = None
    for a, b in itertools.combinations(range(len(sets)), 2):
        shared = sorted(sets[a] & sets[b])
        for v in shared:
            worse_a, worse_b = v in cuts[a], v in cuts[b]
            if worse_a and worse_b:
                return a, b, v
            if (worse_a or worse_b) and semi is None:
                semi = (a, b, v)
            if non is None:
                non = (a, b, v)
    return semi or non


def _put(t: tuple, i: int, x) -> tuple:
    """``t`` with its i-th entry replaced by ``x``."""
    return t[:i] + (x,) + t[i + 1 :]


def _conflict_count(sets) -> int:
    total = 0
    for sa, sb in itertools.combinations(sets, 2):
        total += len(sa & sb)
    return total


def solve_disjoint(
    inst: Instance,
    model: str = SYN,
    fd: str = NFD,
    deadline: "float | None" = 30.0,
) -> DisjointResult:
    """Best-first search for a minimum-total-length disjoint path tuple.

    Open-list order: sum of path lengths, then number of pairwise shared
    vertices, then insertion order. Each agent's path depends only on its
    own forbidden set, so nodes are deduplicated by the per-agent
    constraint signature. Infeasible is returned only after the whole
    tree is exhausted; Timeout when the deadline passes first.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValueError("; ".join(problems))
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if fd not in DETECTORS:
        raise ValueError(f"unknown failure detector {fd!r}")
    t0 = time.monotonic()
    # cpu-time budget, as in solve(): steadier than wall time under load, but
    # contention still inflates cpu time, so a verdict near the budget can vary
    deadline_at = None if deadline is None else time.process_time() + deadline

    def replan(a: int, forbidden: frozenset, others):
        # among shortest paths, steer away from the other agents' current
        # routes; the plateau of equal-cost grid paths is huge otherwise
        penalty = frozenset(v for p in others for v in p)
        return find_path_seq_cuts(
            inst.graph, inst.starts[a], inst.goals[a], forbidden, penalty=penalty
        )

    n = inst.n_agents
    # quick necessary condition: in a disjoint tuple, every other agent's
    # endpoints lie on that agent's path, so they are off limits here
    for a in range(n):
        blocked = frozenset(
            v
            for b in range(n)
            if b != a
            for v in (inst.starts[b], inst.goals[b])
        )
        if not reachable(inst.graph, inst.starts[a], inst.goals[a], blocked):
            return DisjointResult("infeasible", runtime=time.monotonic() - t0)

    root_forbids = tuple(frozenset() for _ in range(n))
    root_paths, root_cuts = [], []
    for a in range(n):
        p, cut = replan(a, root_forbids[a], root_paths)
        if p is None:
            # some goal is plain unreachable; no constraint tree to search
            return DisjointResult("infeasible", runtime=time.monotonic() - t0)
        root_paths.append(p)
        root_cuts.append(cut)
    root_paths = tuple(root_paths)

    def cost(paths) -> int:
        return sum(len(p) - 1 for p in paths)

    root_sets = tuple(frozenset(p) for p in root_paths)
    seq = itertools.count()
    heap = [
        (
            cost(root_paths),
            _conflict_count(root_sets),
            next(seq),
            root_forbids,
            root_paths,
            root_sets,
            tuple(root_cuts),
        )
    ]
    closed = {root_forbids}
    nodes = 0
    while heap:
        if deadline_at is not None and time.process_time() > deadline_at:
            return DisjointResult("timeout", nodes=nodes, runtime=time.monotonic() - t0)
        _, _, _, forbids, paths, sets, cuts = heapq.heappop(heap)
        nodes += 1
        hit = _pick_conflict(sets, cuts)
        if hit is None:
            plans = tuple(Plan(paths=(p,)) for p in paths)
            sol = Solution(model=model, fd=fd, plans=plans)
            return DisjointResult(
                "solved",
                solution=sol,
                paths=paths,
                nodes=nodes,
                runtime=time.monotonic() - t0,
            )
        a, b, v = hit
        for agent in (a, b):
            child = _put(forbids, agent, forbids[agent] | {v})
            if child in closed:
                continue
            closed.add(child)
            p, cut = replan(agent, child[agent], [paths[b] for b in range(n) if b != agent])
            if p is None:
                continue
            cpaths = _put(paths, agent, p)
            csets = _put(sets, agent, frozenset(p))
            ccuts = _put(cuts, agent, cut)
            heapq.heappush(
                heap,
                (cost(cpaths), _conflict_count(csets), next(seq), child, cpaths, csets, ccuts),
            )
    return DisjointResult("infeasible", nodes=nodes, runtime=time.monotonic() - t0)
