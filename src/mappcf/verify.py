"""Exhaustive adversarial verification of plans.

A solution is Verified only if no adversary within the crash budget can
break it. The synchronous verifier explores every choice of which agents
crash in which round (crashing already-arrived agents included: a crashed
body keeps blocking its vertex). The sequential verifier additionally hands
the adversary the scheduler and checks two failure modes: a reachable
configuration from which some correct agent can never finish, and a fair
livelock (a reachable crash-free cycle that activates every unfinished
correct agent yet never finishes one of them).

Both models use one explorer, ``_state_graph``. It builds, breadth-first,
the graph whose states are (configuration, remaining crash budget) pairs
and whose edges are adversary steps: a round with its crash set in the
synchronous model, one activation or one crash in the sequential model.
Each model only says which steps leave a state. A configuration is a
slice of the execution module's int configuration of the plan, compiled
once per call (``execution.Compiled``): one small int per agent of the
explored group for its path position and status, so a state is a tuple
of ints and an int. The verifier never takes one apart; it steps with
``execution.step_syn``, ``activate_seq`` and ``crash_seq`` and reads an
agent's status from the plan's ``status`` table.

* Synchronous: settled states (no correct agent left) stay out of the
  graph. A colliding step refutes the plan the moment the build meets it.
  Otherwise a cycle refutes it as stuck: crashes spend budget, so a cycle
  takes crash-free steps only, and each state has at most one of those.
* Sequential: the finished graph, settled states included, is searched
  for a configuration from which some correct agent can never finish and
  for a fair livelock.

The synchronous model also leaves out crash steps that no agent outside
the crash set can notice, a partial-order reduction (Godefroid, LNCS 1032,
1996). Let R0 be the crash-free run from a state (cfg, b). A crash set C
with |C| = b is skipped when R0 settles with no collision and no repeated
configuration, no agent outside C stands, after cfg in R0, on a vertex a
member of C holds in cfg, and no rule an agent outside C evaluates in R0
watches a vertex a member of C holds in cfg or later in R0. Crashing C
then spends the whole budget, so the run goes on crash-free. The
survivors see at every watched vertex what they see in R0, so they make
the moves of R0, and the crashed bodies stand where nobody comes: that
run is as safe as R0. A crash set that takes every correct agent is
skipped too, without a step: nobody moves, so the run settles, and
settled states stay out of the graph anyway. The crash-free step is
never skipped and stays each state's first edge.

Only safe states are left out this way: states from which no collision
and no cycle can be reached. A state that leads to a fault has only
predecessors that lead to it as well, so those states, their edges among
each other and the order in which the breadth-first build meets them are
those of the full graph. The first colliding step, the shortest walk to
it and the first cycle of crash-free steps are therefore the same:
verdicts and counterexamples equal those of the full graph.

``states_explored`` counts the states of the graphs that were built: for
the synchronous model the distinct unsettled (configuration, budget)
pairs of the reduced graph, for the sequential model every reachable
pair. On a verified plan that is the whole reachable (reduced) graph of
each explored group; on a refuted synchronous plan the build stops at
the witness, so the count covers only what was built by then. A group
decided by inspection (a lone agent, see below) builds no graph and
counts 0 states. A witness prefix is a shortest walk in its group's
graph, so a synchronous collision comes with the fewest rounds that
reach one.

Both verifiers explore each group of interacting agents on its own. Let
V(a) be the vertices on all of agent a's paths and W(a) the vertices its
rules watch. Correct, crashed and done agents all stand on a vertex of V,
and an agent is blocked, collides or switches paths only because of what
stands on V(a) or W(a). So a and b interact when V(a) meets V(b) ∪ W(b)
or V(b) meets V(a) ∪ W(a), and the groups are the connected components of
that relation. No agent ever sees or touches an agent of another group, so
a run of the whole instance is, group by group, a run of each group alone
with at most ``f`` crashes in it, and runs of separate groups combine into
a run of the whole. Exploring each group with the full budget ``f`` is
therefore sound and complete:

* Sound: a group's failure is a failure of the whole instance in which the
  other groups run crash-free. Crash patterns and sequential prefixes
  replay as they are. A livelock must also activate the other groups, or
  the schedule is not fair: each other group runs crash-free round-robin
  rounds from its start until it finishes, which goes on the prefix, or
  its configuration repeats at a round boundary, which puts the lead-in on
  the prefix and the repeating rounds on the cycle.
* Complete: a failure of the whole instance shows in the group of an agent
  it harms. A collision needs two agents on one vertex, so one group. A
  synchronous agent that never finishes does not finish in its group's
  run either. A sequential fair livelock projects onto a closed crash-free
  walk of a group that activates each of the group's unfinished agents
  and finishes nobody. Last, a sequential configuration from which agent
  x can never finish may only mean that the budget was spent in other
  groups while x needs a crash to get on. Its projection onto x's group is
  either a dead end for x there too, or one from which x cannot finish
  without crashes. In the second case, the crash-free states reachable
  from it contain a bottom component of activation steps. Every correct
  agent has an activation from every state, which stays inside, and x is
  correct and unfinished there. So that component is a fair livelock for
  the group, and the group is refuted too.

A group is explored as a slice of the whole plan's compiled tables, in
the instance's own agent numbering: its configuration holds the codes of
its agents only, in id order, and the steppers step it as they step a
whole configuration. Agent codes of different agents lie in disjoint
ranges of the tables, and a crashed agent's nfd observation code carries
its own id, so a slice steps exactly as the group would alone. A rule
whose trigger names an agent of another group stays compiled but never
fires: that agent never stands in the group's configuration, so no
vertex the rule watches ever shows its crash. The steppers index a slice
by position; the explorers map each position i back to the group's i-th
agent id, so counterexamples name the instance's agents and replay on
the whole instance. The plan is compiled at the first group that is
explored, so a plan whose groups are all decided by inspection (below)
is never compiled.

A group of one agent is decided without exploring when its primary path
ends at its goal and none of its rules has a ``vacant`` trigger. Alone,
the agent sees every vertex it watches vacant (the plan passed the
structure check, so a watched vertex is adjacent to the agent's own, and
graphs have no self-loops). So no ``correct`` or ``crashed`` trigger
fires and it walks its primary to the goal: there is nobody to collide
with, a sequential next vertex is always free, and if the agent crashes
no correct agent is left to fail. The explorer finds no fault in such a
group, so it is verified with 0 states. Every other group is explored,
including a lone agent whose primary stops short of its goal or that has
a vacant rule, so verdicts and counterexamples are those of exploring
every group.

The state cap bounds the total over the explored groups, and
``states_explored`` is that total. Refutations come with a concrete
counterexample in the instance's agent numbering that replays through
the execution module.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .core import SEQ, SYN, Instance, Solution
from .execution import (
    CORRECT_ST,
    CRASHED_ST,
    DONE_ST,
    Compiled,
    activate_seq,
    check_executable,
    crash_seq,
    step_syn,
)

DEFAULT_STATE_CAP = 10_000_000


@dataclass
class Counterexample:
    """A concrete adversary strategy that breaks the plan.

    For the synchronous model ``crash_times`` feeds straight into
    ``execution.run``: it follows a shortest walk through the state graph
    to a colliding round, or to a configuration that repeats forever once
    nobody else crashes. For the sequential model ``schedule`` is a
    shortest action prefix; for livelocks ``cycle`` is a closed action
    sequence that can be repeated forever under fair scheduling.
    """

    kind: str  # "collision" | "stuck" | "unreachable_goal" | "livelock"
    agents: tuple = ()
    crash_times: "dict[int, int] | None" = None
    schedule: "list | None" = None
    cycle: "list | None" = None
    detail: str = ""


@dataclass
class VerifyResult:
    """The verdict on a plan under crash budget ``f``.

    ``states_explored`` is the total number of states of the explored
    groups' state graphs (see the module docstring); a lone agent decided
    by inspection adds 0, so a plan of such agents alone reports 0.
    """

    status: str  # "verified" | "refuted" | "too_large"
    model: str
    f: int
    states_explored: int = 0
    counterexample: "Counterexample | None" = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "verified"


class _TooLarge(Exception):
    pass


def _crash_subsets(status, cfg, budget):
    """The sets of at most ``budget`` agents of ``cfg`` not crashed yet, as
    sorted tuples, the empty set first; ``status`` maps agent codes to
    statuses."""
    yield ()
    if not budget:
        return
    candidates = [a for a, c in enumerate(cfg) if status[c] != CRASHED_ST]
    for k in range(1, min(budget, len(candidates)) + 1):
        yield from itertools.combinations(candidates, k)


def interaction_components(sol: Solution) -> "list[tuple[int, ...]]":
    """Groups of agents that can affect each other, by smallest agent id.

    Agents a and b interact when a vertex on one's paths is on the other's
    paths or is watched by one of the other's rules. Each group is sorted.
    """
    comp = list(range(len(sol.plans)))

    def root(a: int) -> int:
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    owner: dict[int, int] = {}  # vertex -> first agent whose paths visit it
    for a, plan in enumerate(sol.plans):
        for path in plan.paths:
            for v in path:
                comp[root(a)] = root(owner.setdefault(v, a))
    for a, plan in enumerate(sol.plans):
        for r in plan.rules:
            if r.watch in owner:
                comp[root(a)] = root(owner[r.watch])
    groups: dict[int, list[int]] = {}
    for a in range(len(sol.plans)):
        groups.setdefault(root(a), []).append(a)
    return sorted(tuple(g) for g in groups.values())


def _round_robin(cp: Compiled, group) -> "tuple[list, list]":
    """Crash-free round-robin activations of ``group`` from the start.

    Returns (lead-in, repeating rounds): the whole run and no rounds when
    every agent of the group finishes, else the rounds before the first
    configuration that repeats at a round boundary, and the rounds that
    lead back to it.
    """
    rnd = [("activate", a) for a in group]
    cfg = tuple(cp.init[a] for a in group)
    seen = {cfg: 0}
    rounds = 0
    while True:
        if cp.settled(cfg):
            return rnd * rounds, []
        for i in range(len(group)):
            cfg = activate_seq(cp, cfg, i)
        rounds += 1
        if cfg in seen:
            return rnd * seen[cfg], rnd * (rounds - seen[cfg])
        seen[cfg] = rounds


def _walks_alone(inst: Instance, sol: Solution, a: int) -> bool:
    """Agent ``a``, alone in its group, arrives unless it crashes, whatever
    the adversary does: its primary ends at its goal and no rule has a
    vacant trigger, the only kind that fires for a lone agent (see the
    module docstring)."""
    plan = sol.plans[a]
    return plan.paths[0][-1] == inst.goals[a] and all(
        r.trigger.kind != "vacant" for r in plan.rules)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _verify_split(inst, sol, model, f, state_cap, explore) -> VerifyResult:
    """Run ``explore`` on each interaction group with the full budget,
    except the lone agents ``_walks_alone`` decides.

    Every group is a slice of one plan compiled for the whole instance,
    built at the first group that is explored, so a plan of decided lone
    agents is never compiled. ``explore(cp, ids, budget, cap)`` returns
    (states explored, counterexample or None), the counterexample in the
    instance's agent numbering, or raises ``_TooLarge(states explored)``.
    Raises ``ValueError`` for a solution of the other model, and unless
    ``f`` is None or an int >= 0 and ``state_cap`` is an int >= 0.
    """
    if f is not None and not _is_count(f):
        raise ValueError(f"crash budget f must be None or an int >= 0, got {f!r}")
    if not _is_count(state_cap):
        raise ValueError(f"state_cap must be an int >= 0, got {state_cap!r}")
    if sol.model != model:
        raise ValueError(f"verify_{model} checks {model} solutions, not {sol.model!r} ones")
    check_executable(inst, sol)
    budget = inst.f if f is None else f
    groups = interaction_components(sol)
    total = 0
    cp = None
    for ids in groups:
        if len(ids) == 1 and _walks_alone(inst, sol, ids[0]):
            continue
        if cp is None:
            cp = Compiled(inst, sol)
        try:
            explored, ce = explore(cp, ids, budget, state_cap - total)
        except _TooLarge as exc:
            return VerifyResult(
                "too_large",
                model,
                budget,
                states_explored=total + exc.args[0],
                reason=f"explored more than {state_cap} states",
            )
        total += explored
        if ce is None:
            continue
        if ce.kind == "livelock":
            # the other groups must move too, or the schedule is not fair
            for other in groups:
                if other != ids:
                    lead, rounds = _round_robin(cp, other)
                    ce.schedule += lead
                    ce.cycle += rounds
        return VerifyResult(
            "refuted", model, budget, states_explored=total, counterexample=ce, reason=ce.detail
        )
    return VerifyResult("verified", model, budget, states_explored=total)


def _state_graph(init, moves, state_cap: int):
    """The states reachable from ``init``, built breadth-first.

    ``moves(state)`` yields (action, next state, fault) for each step out
    of ``state``, with fault None for a harmless step. States are numbered
    in discovery order, so a lower number is never farther from ``init``,
    and ``edges[i]`` lists (dest, action) in the order ``moves`` yields
    them. Returns (states, edges, fault step): the build stops at the first
    faulty step and returns it as (source, action, fault), else None. More
    than ``state_cap`` states, ``init`` among them, raise ``_TooLarge``.
    """
    if state_cap < 1:
        raise _TooLarge(1)
    index = {init: 0}
    states = [init]
    edges: list[list] = [[]]
    # states found during the scan are appended to the list being scanned,
    # so the list is the queue
    for si, state in enumerate(states):
        out = edges[si]
        for action, nxt, fault in moves(state):
            if fault is not None:
                return states, edges, (si, action, fault)
            di = index.get(nxt)
            if di is None:
                di = index[nxt] = len(states)
                states.append(nxt)
                edges.append([])
                if len(states) > state_cap:
                    raise _TooLarge(len(states))
            out.append((di, action))
    return states, edges, None


def _walk(edges, src: int, dst: int) -> list:
    """Actions along a shortest walk from ``src`` to ``dst`` over ``edges``.

    Breadth-first with parents, in edge order: from state 0 of a
    ``_state_graph`` it retraces the steps that discovered ``dst``.
    """
    parent = {src: None}
    q = deque([src])
    while dst not in parent:
        si = q.popleft()
        for di, action in edges[si]:
            if di not in parent:
                parent[di] = (si, action)
                q.append(di)
    out = []
    while parent[dst] is not None:
        dst, action = parent[dst]
        out.append(action)
    out.reverse()
    return out


def verify_syn(
    inst: Instance, sol: Solution, f: "int | None" = None, state_cap: int = DEFAULT_STATE_CAP
) -> VerifyResult:
    """Exhaustively check a synchronous solution against every crash pattern.

    Builds each interaction group's state graph: one state per unsettled
    (configuration, remaining budget) pair, one step per round and crash
    set, leaving out the crash sets no surviving agent can notice (see the
    module docstring). A colliding step refutes the plan as soon as the
    build meets it. Otherwise the plan is stuck if the graph has a cycle:
    crashes spend budget, so a cycle takes crash-free steps only, and the
    adversary can keep the run on it forever without crashing anyone else.
    A lone agent that walks its primary to its goal is decided without a
    graph and counts 0 states.
    """
    return _verify_split(inst, sol, SYN, f, state_cap, _explore_syn)


def _explore_syn(cp: Compiled, ids, budget0: int, state_cap: int):
    """The group ``ids``' graph; configurations are its slice of ``cp``'s,
    so a configuration's index i is agent ``ids[i]``."""
    init = tuple(cp.init[a] for a in ids)
    if cp.settled(init):
        return 0, None
    status, vertex, watched = cp.status, cp.vertex, cp.watched
    nowhere = (0,) * len(init)
    runs: dict = {}  # configuration -> run_masks(configuration)

    def run_masks(cfg):
        """Each agent's (later, watched) vertex masks along the crash-free
        run from ``cfg``: the vertices it stands on after ``cfg``, and those
        its rules watch in the rounds they are evaluated. None unless the
        run settles with no collision and no repeated configuration."""
        chain = []
        on_chain = set()
        c = cfg
        while True:
            if c in runs:
                tail = runs[c]
                break
            if cp.settled(c):
                tail = nowhere, nowhere
                break
            if c in on_chain:
                tail = None
                break
            on_chain.add(c)
            chain.append(c)
            c, coll = step_syn(cp, c)
            if coll is not None:
                tail = None
                break
        for prev in reversed(chain):
            if tail is not None:
                later, watch = tail
                tail = (tuple(m | 1 << vertex[d] for m, d in zip(later, c)),
                        tuple(m | watched[d] for m, d in zip(watch, prev)))
            runs[prev] = tail
            c = prev
        return runs[cfg]

    def noticed_by(cfg):
        """For each agent b, the mask of the other agents that would notice
        b crashing now and spending the last of the budget, or None if the
        crash-free run from ``cfg`` is not safe. Agent a notices when it
        later stands on b's vertex, or a rule it evaluates watches a vertex
        b holds now or later on the crash-free run."""
        masks = run_masks(cfg)
        if masks is None:
            return None
        later, watch = masks
        here = [1 << vertex[c] for c in cfg]
        out = []
        for b, bit in enumerate(here):
            held = later[b] | bit
            out.append(sum(1 << a for a in range(len(cfg))
                           if a != b and (later[a] & bit or watch[a] & held)))
        return out

    def moves(state):
        # settled states end the run, so they stay out of the graph; the
        # crash-free step comes first, as it is the empty crash set
        cfg, budget = state
        live = budget and sum(1 << a for a, c in enumerate(cfg) if status[c] == CORRECT_ST)
        noticed = ()  # noticed_by(cfg), once a crash set needs it
        for crash_set in _crash_subsets(status, cfg, budget):
            if crash_set:
                crashing = sum(1 << a for a in crash_set)
                if crashing & live == live:
                    continue  # nobody correct is left, so the run settles
                if len(crash_set) == budget:
                    if noticed == ():
                        noticed = noticed_by(cfg)
                    if noticed is not None:
                        seen_by = 0
                        for b in crash_set:
                            seen_by |= noticed[b]
                        if not seen_by & ~crashing:
                            continue  # as safe as the crash-free run
            nxt, coll = step_syn(cp, cfg, crash_set)
            if coll is not None or not cp.settled(nxt):
                yield crash_set, (nxt, budget - len(crash_set)), coll

    states, edges, fault = _state_graph((init, budget0), moves, state_cap)
    if fault is not None:
        si, crash_set, coll = fault
        prefix = _walk(edges, 0, si) + [crash_set]
        kind, agents = "collision", tuple(ids[a] for a in coll.agents)
        detail = f"{coll.kind} collision at {coll.where} in round {len(prefix)}"
    else:
        # a cycle takes crash-free steps only, and a state's crash-free step
        # is its first edge when it is stored at all; following those steps
        # from each state in turn, each state walked once, finds any cycle
        step = [out[0][0] if out and not out[0][1] else None for out in edges]
        walk_of = [-1] * len(states)
        for s in range(len(states)):
            si = s
            while si is not None and walk_of[si] < 0:
                walk_of[si] = s
                si = step[si]
            if si is not None and walk_of[si] == s:
                break
        else:
            return len(states), None
        prefix = _walk(edges, 0, si)
        kind = "stuck"
        agents = tuple(a for a, c in zip(ids, states[si][0]) if status[c] == CORRECT_ST)
        detail = f"the configuration of round {len(prefix)} repeats forever if nobody else crashes"
    crash_times = {ids[a]: t for t, crash_set in enumerate(prefix, 1) for a in crash_set}
    return len(states), Counterexample(kind, agents=agents, crash_times=crash_times, detail=detail)


# --- sequential model ------------------------------------------------------


def verify_seq(
    inst: Instance, sol: Solution, f: "int | None" = None, state_cap: int = DEFAULT_STATE_CAP
) -> VerifyResult:
    """Exhaustively check a sequential solution against scheduler + crashes.

    Builds each interaction group's state graph: one state per reachable
    (configuration, remaining budget) pair, settled ones included, and one
    step per activation or crash. Then looks for (a) a reachable
    configuration from which some correct agent's goal states are
    unreachable, and (b) a fair livelock cycle. A lone agent that walks
    its primary to its goal is decided without a graph and counts 0
    states.
    """
    return _verify_split(inst, sol, SEQ, f, state_cap, _explore_seq)


def _explore_seq(cp: Compiled, ids, budget0: int, state_cap: int):
    """The group ``ids``' graph, on slices of ``cp``'s configurations as in
    ``_explore_syn``; actions name the agents of ``ids``."""
    activate = [("activate", a) for a in ids]
    crash = [("crash", a) for a in ids]
    status = cp.status

    def moves(state):
        cfg, budget = state
        for a, c in enumerate(cfg):
            st = status[c]
            if st == CORRECT_ST:
                yield activate[a], (activate_seq(cp, cfg, a), budget), None
            if st != CRASHED_ST and budget > 0:
                yield crash[a], (crash_seq(cp, cfg, a), budget - 1), None

    states, edges, _ = _state_graph((tuple(cp.init[a] for a in ids), budget0), moves, state_cap)
    n_states = len(states)

    # (a) an unfinished correct agent that can never finish again: can[si]
    # holds the agents done in some state reachable from state si, found by
    # one backward propagation over all agents at once
    rev: list[list[int]] = [[] for _ in range(n_states)]
    for si, outs in enumerate(edges):
        for di, _ in outs:
            rev[di].append(si)
    can = [sum(1 << x for x, c in enumerate(cfg) if status[c] == DONE_ST) for cfg, _ in states]
    stack = [si for si in range(n_states) if can[si]]
    while stack:
        si = stack.pop()
        for pi in rev[si]:
            if can[si] & ~can[pi]:
                can[pi] |= can[si]
                stack.append(pi)
    for x in range(len(ids)):
        for si, (cfg, _) in enumerate(states):
            if status[cfg[x]] == CORRECT_ST and not can[si] >> x & 1:
                return n_states, Counterexample(
                    "unreachable_goal",
                    agents=(ids[x],),
                    schedule=_walk(edges, 0, si),
                    detail="the agent can never finish after this prefix",
                )

    # (b) fair livelock: a crash-free cycle activating every unfinished
    # correct agent without finishing anyone
    return n_states, _fair_livelock(status, ids, states, edges)


def _sccs(n: int, adj: "list[list[int]]") -> list[list[int]]:
    """Strongly connected components, by Kosaraju's two passes.

    An iterative depth-first search lists the vertices in the order they
    finish; a search of the reversed graph from each vertex not yet
    placed, latest finisher first, then collects exactly its component.
    """
    seen = bytearray(n)
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = 1
                    work.append((w, iter(adj[w])))
                    break
            else:
                work.pop()
                order.append(v)
    radj: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in adj[v]:
            radj[w].append(v)
    out: list[list[int]] = []
    for root in reversed(order):
        if not seen[root]:
            continue
        seen[root] = 0  # placed
        comp = [root]
        for v in comp:
            for w in radj[v]:
                if seen[w]:
                    seen[w] = 0
                    comp.append(w)
        out.append(comp)
    return out


def _fair_livelock(status, ids, states, edges) -> "Counterexample | None":
    """``status`` maps the agent codes of ``states`` to statuses, and the
    configurations of ``states`` are slices over agents ``ids``."""
    act_adj = [[di for di, action in outs if action[0] == "activate"] for outs in edges]
    for comp in sorted(_sccs(len(states), act_adj), key=min):
        comp_set = set(comp)
        if not any(di in comp_set for si in comp for di in act_adj[si]):
            continue
        # activations never make a done agent correct again, so the
        # unfinished correct agents are the same all over the component,
        # and an activation leaves only a state that has one
        cfg, _budget = states[comp[0]]
        pending = tuple(a for a, c in zip(ids, cfg) if status[c] == CORRECT_ST)
        inner = {si: [(di, action) for di, action in edges[si]
                      if action[0] == "activate" and di in comp_set] for si in comp}
        covered = {}  # agent -> an activation of it inside the component
        for si in sorted(comp):
            for di, (_, a) in inner[si]:
                covered.setdefault(a, (si, di))
        if any(a not in covered for a in pending):
            continue
        # a closed walk from the entry through one activation of each agent
        entry = cur = min(comp)
        cycle = []
        for a in pending:
            si, di = covered[a]
            cycle += _walk(inner, cur, si) + [("activate", a)]
            cur = di
        cycle += _walk(inner, cur, entry)
        return Counterexample(
            "livelock",
            agents=pending,
            schedule=_walk(edges, 0, entry),
            cycle=cycle,
            detail=(
                "fair scheduling can repeat a crash-free cycle forever; "
                "the agents are activated but never finish"
            ),
        )
    return None


def verify(inst: Instance, sol: Solution, f: "int | None" = None, state_cap: int = DEFAULT_STATE_CAP) -> VerifyResult:
    if sol.model == SYN:
        return verify_syn(inst, sol, f=f, state_cap=state_cap)
    if sol.model == SEQ:
        return verify_seq(inst, sol, f=f, state_cap=state_cap)
    raise ValueError(f"unknown model {sol.model!r}")
