"""Core types for offline multi-agent path planning under crash faults.

Agents move on a shared graph from start to goal vertices. Up to ``f`` of
them may crash permanently at a vertex; a crashed agent never moves again
and keeps blocking its vertex. Correct agents follow plans: an ordered list
of paths plus transition rules that switch between paths when a neighbour
vertex is observed in a given state (vacant / correct agent / crashed
agent). Two execution models are supported:

* ``syn``: fully synchronous rounds. Each step every agent may crash, then
  evaluates its rules, then all agents move simultaneously. Two agents on
  one vertex, or two agents swapping along an edge, is a collision.
* ``seq``: sequential interleaving. An unknown fair scheduler activates one
  agent at a time; an activated agent evaluates its rules and then moves
  only if the next vertex is unoccupied. Collisions cannot happen, but the
  adversary controls the interleaving.

Failure detectors: ``nfd`` observations carry the crashed agent's identity,
``afd`` observations are anonymous (crashed, but no identity).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property

Vertex = int
Path = tuple[int, ...]

SYN = "syn"
SEQ = "seq"
MODELS = (SYN, SEQ)

NFD = "nfd"
AFD = "afd"
DETECTORS = (NFD, AFD)


@dataclass(frozen=True)
class Graph:
    """Immutable graph over vertices ``0..n-1`` with sorted adjacency tuples.

    Use :meth:`build` to construct from an edge list; it validates ids,
    rejects self-loops and deduplicates edges. ``coords`` optionally maps
    vertex ids to (col, row) cells for grid maps.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    directed: bool = False
    coords: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def build(
        cls,
        n: int,
        edges: "list[tuple[int, int]] | tuple[tuple[int, int], ...]",
        directed: bool = False,
        coords: "tuple[tuple[int, int], ...] | None" = None,
    ) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        out: list[set[int]] = [set() for _ in range(n)]
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            out[u].add(v)
            if not directed:
                out[v].add(u)
        if coords is not None:
            coords = tuple((int(c), int(r)) for c, r in coords)
            if len(coords) != n:
                raise ValueError("coords length must equal vertex count")
        return cls(
            n=n,
            adj=tuple(tuple(sorted(s)) for s in out),
            directed=directed,
            coords=coords,
        )

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @property
    def reverse(self) -> "Graph":
        """The graph with every edge turned around; an undirected graph is
        its own reverse, and a directed one builds it once and keeps it."""
        return self._reverse if self.directed else self

    @cached_property
    def _reverse(self) -> "Graph":
        rev: list[list[int]] = [[] for _ in range(self.n)]
        for u in range(self.n):
            for v in self.adj[u]:
                rev[v].append(u)  # u ascends, so each list comes out sorted
        return Graph(self.n, tuple(map(tuple, rev)), directed=True, coords=self.coords)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list; for undirected graphs each edge appears once as (u<v)."""
        res = []
        for u in range(self.n):
            for v in self.adj[u]:
                if self.directed or u < v:
                    res.append((u, v))
        return res


def bfs_distances(graph: Graph, source: int, blocked=frozenset(), stop: int = -1) -> list[int]:
    """Hop distances from ``source`` (following edge direction); -1 = unreachable.

    Vertices in ``blocked`` are impassable; a blocked source reaches nothing.
    The search returns as soon as it labels a vertex ``stop`` other than the
    source. Every entry is then either -1 or its full-search value, and
    every vertex closer than ``stop`` is labelled, since BFS labels by
    nondecreasing distance.
    """
    dist = [-1] * graph.n
    if source in blocked:
        return dist
    for v in blocked:
        dist[v] = -2
    bfs_fill(graph.adj, dist, source, stop)
    for v in blocked:
        dist[v] = -1
    return dist


def bfs_fill(adj, dist: list[int], source: int, stop: int = -1) -> list[int]:
    """The search of :func:`bfs_distances`, in place on ``dist``.

    Labels with its hop distance every vertex reachable from ``source``
    through vertices whose entry is -1; any other entry is a wall, so a
    caller marks the vertices to avoid before the search. ``source`` is
    labelled 0 whatever its entry.

    The queue is a plain list that the loop appends to while iterating
    it, which is intended: a list iterator reads the length at every step,
    so it visits the appended vertices in order, first in first out, and
    no vertex is ever removed from the front.
    """
    dist[source] = 0
    q = [source]
    for u in q:
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] == -1:
                dist[v] = du
                if v == stop:
                    return dist
                q.append(v)
    return dist


def vertex_mask(vertices) -> int:
    """The vertex set as an int bitmask: bit v is set for each vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


# _BYTE_BITS[b]: the offsets of the set bits of byte b, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def mask_vertices(mask: int) -> list[int]:
    """The vertices of a :func:`vertex_mask`, ascending.

    The mask is decoded one byte at a time, lowest first, through a table
    of each byte value's bit offsets, so the work is one table lookup per
    byte and one append per vertex, whatever the vertex numbers.
    """
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                out.append(base + i)
        base += 8
    return out


def shared_vertices(masks) -> int:
    """Vertices shared between pairs of :func:`vertex_mask` sets, summed
    over every pair: a vertex in k of the sets counts k*(k-1)/2 times."""
    total = 0
    for a, b in itertools.combinations(masks, 2):
        total += (a & b).bit_count()
    return total


def reachable(graph: Graph, source: int, target: int, blocked=frozenset()) -> bool:
    return bfs_distances(graph, source, blocked, stop=target)[target] >= 0


@dataclass(frozen=True)
class Instance:
    """A planning problem: graph, start/goal per agent, crash budget ``f``."""

    graph: Graph
    starts: tuple[int, ...]
    goals: tuple[int, ...]
    f: int
    name: str = ""

    @property
    def n_agents(self) -> int:
        return len(self.starts)

    def agents(self) -> range:
        return range(len(self.starts))


def validate_instance(inst: Instance) -> list[str]:
    """Structural checks; returns a list of violations (empty = valid)."""
    out: list[str] = []
    g = inst.graph
    if len(inst.starts) != len(inst.goals):
        out.append("starts and goals differ in length")
    if len(inst.starts) == 0:
        out.append("at least one agent required")
    for label, seq in (("start", inst.starts), ("goal", inst.goals)):
        for a, v in enumerate(seq):
            if not (0 <= v < g.n):
                out.append(f"{label} of agent {a} out of range: {v}")
    if len(set(inst.starts)) != len(inst.starts):
        out.append("starts are not pairwise distinct")
    if len(set(inst.goals)) != len(inst.goals):
        out.append("goals are not pairwise distinct")
    if inst.f < 0:
        out.append(f"crash budget f must be >= 0, got {inst.f}")
    if inst.f > len(inst.starts):
        out.append(f"crash budget f={inst.f} exceeds number of agents")
    return out


def check_solver_input(inst: Instance, model: str, fd: str) -> None:
    """The entry check of both solvers: raise ValueError for an invalid
    instance, an unknown model or an unknown failure detector."""
    bad = validate_instance(inst)
    if bad:
        raise ValueError("invalid instance: " + "; ".join(bad))
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if fd not in DETECTORS:
        raise ValueError(f"unknown failure detector {fd!r}")


def cpu_deadline(deadline: "float | None") -> "float | None":
    """The ``time.process_time()`` reading at which a solve given
    ``deadline`` cpu-seconds runs out; None for no limit.

    The budget is cpu time, not wall time, so concurrent benchmark workers
    sharing cores mostly reach a serial run's verdicts; contention still
    inflates cpu time, so a solve close to the budget can differ. Raises
    ValueError unless ``deadline`` is None or a number >= 0: no clock
    reading exceeds a NaN budget, so it would never run out, and a
    negative one runs out before any work.
    """
    if deadline is None:
        return None
    if isinstance(deadline, bool) or not isinstance(deadline, (int, float)) or not deadline >= 0:
        raise ValueError(f"deadline must be None or a number >= 0, got {deadline!r}")
    return time.process_time() + deadline


@dataclass(frozen=True)
class NecessaryCheck:
    """Per-agent results of the necessary-condition test for solvability.

    ``goal_condition[i]``: agent i can reach its goal while avoiding every
    other agent's goal vertex (a crashed agent sitting on its goal forever
    must not cut i off). ``start_condition[i]``: for every choice of f other
    agents, i can reach its goal avoiding their start vertices (those agents
    may crash at their starts before moving). ``holds`` iff all flags hold.
    """

    goal_condition: tuple[bool, ...]
    start_condition: tuple[bool, ...]
    holds: bool


def check_necessary(inst: Instance) -> NecessaryCheck:
    """The necessary condition for solvability, agent by agent.

    Agent i meets the goal condition if it can reach its goal while
    avoiding every other goal, and the start condition if, for each set
    of ``k = min(f, n - 1)`` other agents, it can reach its goal while
    avoiding their starts.

    Each agent costs one search plus a cheap filter. One breadth-first
    search from the goal over the reversed graph, avoiding the other
    goals and stopped at the start, decides the goal condition. Walking
    down its distances from the start gives a shortest route. When the
    goal condition fails, the route comes from a second search that
    avoids nothing. The route then filters the crash sets of the start
    condition. A set whose starts all miss the route cannot cut i off,
    because the route is a path that avoids them and so proves
    reachability. Only the sets that meet the route run a search of
    their own. The filter therefore gives the same flags as one search
    per crash set, usually for far fewer searches.
    """
    g = inst.graph
    k = min(inst.f, inst.n_agents - 1)
    goal_flags = []
    start_flags = []
    for i in inst.agents():
        s, t = inst.starts[i], inst.goals[i]
        others = [j for j in inst.agents() if j != i]
        dist = bfs_distances(g.reverse, t, {inst.goals[j] for j in others}, stop=s)
        goal_flags.append(dist[s] >= 0)
        if dist[s] < 0:
            dist = bfs_distances(g.reverse, t, stop=s)
        route = {s}
        v = s
        while dist[v] > 0:
            v = next(w for w in g.adj[v] if dist[w] == dist[v] - 1)
            route.add(v)
        crash_sets = ({inst.starts[j] for j in c} for c in itertools.combinations(others, k))
        start_flags.append(dist[s] >= 0 and all(
            route.isdisjoint(avoid) or reachable(g, s, t, avoid) for avoid in crash_sets))
    goal_t = tuple(goal_flags)
    start_t = tuple(start_flags)
    return NecessaryCheck(goal_t, start_t, all(goal_t) and all(start_t))


# --- observations, rules, plans -------------------------------------------

_OBS_KINDS = ("vacant", "correct", "crashed")


@dataclass(frozen=True)
class Observation:
    """What a failure detector reports about one vertex.

    ``kind`` is one of vacant / correct / crashed. For crashed vertices the
    identity-revealing detector (nfd) fills ``agent``; the anonymous
    detector (afd) leaves it None. Vacant and correct never carry an id:
    identities of live agents are not observable.
    """

    kind: str
    agent: "int | None" = None

    def __post_init__(self):
        if self.kind not in _OBS_KINDS:
            raise ValueError(f"unknown observation kind {self.kind!r}")
        if self.kind != "crashed" and self.agent is not None:
            raise ValueError(f"{self.kind} observation cannot carry an agent id")

    def __str__(self) -> str:
        if self.kind == "crashed":
            return "crashed" if self.agent is None else f"crashed({self.agent})"
        return self.kind


VACANT = Observation("vacant")
CORRECT = Observation("correct")
CRASHED_ANON = Observation("crashed")


def crashed(agent: "int | None" = None) -> Observation:
    return Observation("crashed", agent)


@dataclass(frozen=True)
class TransitionRule:
    """Switch from one path to another on a local observation.

    An agent standing at 1-based position ``at_index`` of path ``from_path``
    that observes neighbour vertex ``watch`` in state ``trigger`` abandons
    its current path and continues on path ``to_path`` (whose first vertex
    is the vertex it is standing on), restarting progress from 1.
    """

    from_path: int
    at_index: int
    watch: int
    trigger: Observation
    to_path: int


@dataclass(frozen=True)
class Plan:
    """One agent's plan: paths (index 0 = primary) plus transition rules."""

    paths: tuple[Path, ...]
    rules: tuple[TransitionRule, ...] = ()

    @property
    def primary(self) -> Path:
        return self.paths[0]


@dataclass(frozen=True)
class Solution:
    model: str
    fd: str
    plans: tuple[Plan, ...]


@dataclass
class SolveResult:
    """What a solver returns, ``dcrf.solve`` and ``disjoint.solve_disjoint``
    alike.

    ``status`` is ``solved``, ``timeout`` or the solver's reason for giving
    up: dcrf's ``init_paths`` or ``no_backup``, disjoint's ``infeasible``.
    A solved result carries the plans in ``solution``; ``runtime`` is wall
    time in seconds.

    dcrf fills ``attempts`` and, from its last attempt, the primaries in
    ``initial_paths`` and the resolved events in ``events``, in order;
    after ``no_backup`` the last event is the one that found no backup
    path, and a timeout carries neither. It leaves ``nodes`` and
    ``pruned`` at 0.

    disjoint puts the path tuple it found in ``initial_paths`` and wraps
    it as rule-free plans. ``nodes`` counts expanded high-level nodes (0
    when propagation refutes the root) and ``pruned`` the children that
    must-visit propagation refuted before they were pushed (a child whose
    branched agent has no path at all is not counted). It leaves
    ``events`` empty and ``attempts`` at 0.
    """

    status: str
    solution: "Solution | None" = None
    events: tuple = ()
    initial_paths: "tuple[Path, ...] | None" = None
    attempts: int = 0
    nodes: int = 0
    pruned: int = 0
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "solved"


def _path_violations(g: Graph, model: str, a: int, p: int, path: Path) -> list[str]:
    out = []
    tag = f"agent {a} path {p}"
    if len(path) == 0:
        return [f"{tag}: empty path"]
    for v in path:
        if not (0 <= v < g.n):
            out.append(f"{tag}: vertex {v} out of range")
            return out
    for k in range(len(path) - 1):
        u, v = path[k], path[k + 1]
        if u == v:
            if model != SYN:
                out.append(f"{tag}: wait step at index {k + 1} (seq paths cannot wait)")
        elif not g.has_edge(u, v):
            out.append(f"{tag}: {u}->{v} is not an edge")
    if model == SEQ and len(set(path)) != len(path):
        out.append(f"{tag}: repeated vertex (seq paths must be simple)")
    return out


def validate_solution(inst: Instance, sol: Solution) -> list[str]:
    """Structural checks for a solution against its instance.

    Semantic guarantees (reaching goals under every crash pattern) are the
    verifier's job; this only rejects plans that are malformed on their face.
    A backup path that no rule targets, or a rule that repeats an earlier
    rule's position, watch and trigger, is untidy but not malformed: the
    plan still executes deterministically (the first matching rule fires),
    so deliberately damaged plans can be refuted rather than rejected.
    """
    out: list[str] = []
    g = inst.graph
    if sol.model not in MODELS:
        out.append(f"unknown model {sol.model!r}")
    if sol.fd not in DETECTORS:
        out.append(f"unknown failure detector {sol.fd!r}")
    if len(sol.plans) != inst.n_agents:
        out.append(f"expected {inst.n_agents} plans, got {len(sol.plans)}")
        return out
    for a, plan in enumerate(sol.plans):
        if not plan.paths:
            out.append(f"agent {a}: no paths")
            continue
        for p, path in enumerate(plan.paths):
            out.extend(_path_violations(g, sol.model, a, p, path))
        if plan.paths[0] and plan.paths[0][0] != inst.starts[a]:
            out.append(f"agent {a}: primary path does not begin at its start")
        for r in plan.rules:
            rt = f"agent {a} rule {r.from_path}@{r.at_index}"
            if not (0 <= r.from_path < len(plan.paths)):
                out.append(f"{rt}: from_path out of range")
                continue
            if not (0 <= r.to_path < len(plan.paths)):
                out.append(f"{rt}: to_path out of range")
                continue
            src = plan.paths[r.from_path]
            if not (1 <= r.at_index <= len(src)):
                out.append(f"{rt}: at_index outside path")
                continue
            here = src[r.at_index - 1]
            if not g.has_edge(here, r.watch):
                out.append(f"{rt}: watch vertex {r.watch} not adjacent to {here}")
            dst = plan.paths[r.to_path]
            if dst and dst[0] != here:
                out.append(f"{rt}: target path does not begin at the switch vertex")
            if r.trigger.kind == "crashed" and r.trigger.agent is not None:
                if not (0 <= r.trigger.agent < inst.n_agents):
                    out.append(f"{rt}: trigger names unknown agent {r.trigger.agent}")
                elif r.trigger.agent == a:
                    out.append(f"{rt}: trigger names the plan's own agent")
    return out


def solution_cost(sol: Solution) -> int:
    """Sum over agents of primary path length in edges (waits count)."""
    return sum(len(plan.primary) - 1 for plan in sol.plans)


def normalized_cost(inst: Instance, sol: Solution) -> float:
    """Primary cost divided by the sum of unconstrained shortest distances.

    >= 1.0 for any valid solution; defined as 1.0 when every agent already
    starts on its goal.
    """
    denom = 0
    for a in inst.agents():
        d = bfs_distances(inst.graph, inst.starts[a])[inst.goals[a]]
        if d < 0:
            raise ValueError(f"goal of agent {a} unreachable from its start")
        denom += d
    cost = solution_cost(sol)
    if denom == 0:
        return 1.0
    return cost / denom
