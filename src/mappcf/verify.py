"""Exhaustive adversarial verification of plans.

A solution is Verified only if no adversary within the crash budget can
break it. The synchronous verifier explores every choice of which agents
crash in which round (crashing already-arrived agents included: a crashed
body keeps blocking its vertex). The sequential verifier additionally hands
the adversary the scheduler and checks two failure modes: a reachable
configuration from which some correct agent can never finish, and a fair
livelock (a reachable crash-free cycle that activates every unfinished
correct agent yet never finishes one of them).

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

The state cap bounds the total over all groups, and ``states_explored`` is
that total. Refutations come with a concrete counterexample in the
instance's agent numbering that replays through the execution module.
"""

from __future__ import annotations

import itertools
import sys
from collections import deque
from dataclasses import dataclass, replace

from .core import SEQ, SYN, Instance, Plan, Solution, crashed, validate_solution
from .execution import (
    CORRECT_ST,
    CRASHED_ST,
    DONE_ST,
    activate_seq,
    crash_seq,
    init_states,
    step_syn,
)

DEFAULT_STATE_CAP = 10_000_000


@dataclass
class Counterexample:
    """A concrete adversary strategy that breaks the plan.

    For the synchronous model ``crash_times`` feeds straight into
    ``execution.run``. For the sequential model ``schedule`` is the action
    prefix; for livelocks ``cycle`` is a closed action sequence that can be
    repeated forever under fair scheduling.
    """

    kind: str  # "collision" | "stuck" | "unreachable_goal" | "livelock"
    agents: tuple = ()
    crash_times: "dict[int, int] | None" = None
    schedule: "list | None" = None
    cycle: "list | None" = None
    detail: str = ""


@dataclass
class VerifyResult:
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


def _check_structure(inst: Instance, sol: Solution) -> None:
    bad = validate_solution(inst, sol, strict=False)
    if bad:
        raise ValueError("solution is not executable: " + "; ".join(bad))


def _crash_subsets(states, budget):
    candidates = [a for a, st in enumerate(states) if st.status != CRASHED_ST]
    yield frozenset()
    for k in range(1, min(budget, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, k):
            yield frozenset(combo)


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


def _restrict(inst: Instance, sol: Solution, ids) -> "tuple[Instance, Solution]":
    """The instance and solution of agents ``ids`` alone, renumbered 0..k-1.

    nfd triggers are renumbered too. A rule whose trigger names an agent
    outside ``ids`` is dropped: that agent never stands on the watched
    vertex, so the rule never fires.
    """
    if len(ids) == inst.n_agents:
        return inst, sol
    local = {a: i for i, a in enumerate(ids)}
    plans = []
    for a in ids:
        rules = []
        for r in sol.plans[a].rules:
            who = r.trigger.agent
            if who is None:
                rules.append(r)
            elif who in local:
                rules.append(replace(r, trigger=crashed(local[who])))
        plans.append(Plan(sol.plans[a].paths, tuple(rules)))
    sub = Instance(
        inst.graph, tuple(inst.starts[a] for a in ids), tuple(inst.goals[a] for a in ids), inst.f
    )
    return sub, Solution(sol.model, sol.fd, tuple(plans))


def _lift(ce: Counterexample, ids) -> Counterexample:
    """``ce`` with the group's agent numbers replaced by the instance's."""

    def actions(seq):
        return None if seq is None else [(op, ids[a]) for op, a in seq]

    crash_times = ce.crash_times
    if crash_times is not None:
        crash_times = {ids[a]: t for a, t in crash_times.items()}
    return replace(
        ce,
        agents=tuple(ids[a] for a in ce.agents),
        crash_times=crash_times,
        schedule=actions(ce.schedule),
        cycle=actions(ce.cycle),
    )


def _round_robin(inst: Instance, sol: Solution, group) -> "tuple[list, list]":
    """Crash-free round-robin activations of ``group`` from the start.

    Returns (lead-in, repeating rounds): the whole run and no rounds when
    every agent of the group finishes, else the rounds before the first
    configuration that repeats at a round boundary, and the rounds that
    lead back to it.
    """
    rnd = [("activate", a) for a in group]
    cfg = init_states(inst, sol)
    seen = {cfg: 0}
    rounds = 0
    while any(cfg[a].status == CORRECT_ST for a in group):
        for a in group:
            cfg = activate_seq(inst, sol, cfg, a)
        rounds += 1
        if cfg in seen:
            return rnd * seen[cfg], rnd * (rounds - seen[cfg])
        seen[cfg] = rounds
    return rnd * rounds, []


def _verify_split(inst, sol, model, f, state_cap, explore) -> VerifyResult:
    """Run ``explore`` on each interaction group with the full budget.

    ``explore(inst, sol, budget, cap)`` returns (states explored,
    counterexample or None) or raises ``_TooLarge(states explored)``.
    """
    _check_structure(inst, sol)
    budget = inst.f if f is None else f
    groups = interaction_components(sol)
    total = 0
    for ids in groups:
        sub_inst, sub_sol = _restrict(inst, sol, ids)
        try:
            explored, ce = explore(sub_inst, sub_sol, budget, state_cap - total)
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
        ce = _lift(ce, ids)
        if ce.kind == "livelock":
            # the other groups must move too, or the schedule is not fair
            for other in groups:
                if other != ids:
                    lead, rounds = _round_robin(inst, sol, other)
                    ce.schedule += lead
                    ce.cycle += rounds
        return VerifyResult(
            "refuted", model, budget, states_explored=total, counterexample=ce, reason=ce.detail
        )
    return VerifyResult("verified", model, budget, states_explored=total)


def verify_syn(
    inst: Instance, sol: Solution, f: "int | None" = None, state_cap: int = DEFAULT_STATE_CAP
) -> VerifyResult:
    """Exhaustively check a synchronous solution against every crash pattern.

    Explores each interaction group's (configuration, remaining budget)
    pairs depth-first. A repeat of a configuration at equal budget along
    the current chain means the adversary needs no further crashes to loop
    forever: the plan is stuck.
    """
    return _verify_split(inst, sol, SYN, f, state_cap, _explore_syn)


def _explore_syn(inst: Instance, sol: Solution, budget0: int, state_cap: int):
    init = init_states(inst, sol)
    memo: set = set()
    on_stack: set = set()
    choices: list = []  # (round, crash set) along the current chain

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 200_000))

    def pattern() -> dict:
        out = {}
        for t, crash_set in choices:
            for a in crash_set:
                out[a] = t
        return out

    def search(states, budget, t) -> "Counterexample | None":
        if all(st.status != CORRECT_ST for st in states):
            return None
        key = (states, budget)
        if key in memo:
            return None
        if key in on_stack:
            stuck = tuple(a for a, st in enumerate(states) if st.status == CORRECT_ST)
            return Counterexample(
                "stuck",
                agents=stuck,
                crash_times=pattern(),
                detail=f"configuration repeats at round {t} with no crashes left to spend",
            )
        if len(memo) > state_cap:
            raise _TooLarge(len(memo))
        on_stack.add(key)
        try:
            for crash_set in _crash_subsets(states, budget):
                nxt, coll = step_syn(inst, sol, states, crash_set)
                choices.append((t, crash_set))
                try:
                    if coll is not None:
                        return Counterexample(
                            "collision",
                            agents=coll.agents,
                            crash_times=pattern(),
                            detail=f"{coll.kind} collision at {coll.where} in round {t}",
                        )
                    ce = search(nxt, budget - len(crash_set), t + 1)
                    if ce is not None:
                        return ce
                finally:
                    choices.pop()
        finally:
            on_stack.discard(key)
        memo.add(key)
        return None

    try:
        ce = search(init, budget0, 1)
    finally:
        sys.setrecursionlimit(limit)
    return len(memo), ce


# --- sequential model ------------------------------------------------------


def verify_seq(
    inst: Instance, sol: Solution, f: "int | None" = None, state_cap: int = DEFAULT_STATE_CAP
) -> VerifyResult:
    """Exhaustively check a sequential solution against scheduler + crashes.

    Builds each interaction group's reachable transition system
    (activations and crashes), then looks for (a) a reachable configuration
    from which some correct agent's goal states are unreachable, and (b) a
    fair livelock cycle.
    """
    return _verify_split(inst, sol, SEQ, f, state_cap, _explore_seq)


def _explore_seq(inst: Instance, sol: Solution, budget0: int, state_cap: int):
    init = (init_states(inst, sol), budget0)
    index = {init: 0}
    states = [init]
    edges: list[list[tuple[int, str, int]]] = [[]]  # (dest, op, agent)

    def insert(nxt) -> int:
        """Index of state ``nxt``, appended (and so queued) if new."""
        di = index.get(nxt)
        if di is None:
            di = len(states)
            index[nxt] = di
            states.append(nxt)
            edges.append([])
            if len(states) > state_cap:
                raise _TooLarge(len(states))
        return di

    # breadth-first: states are numbered in discovery order, so scanning
    # them by index is the queue
    si = 0
    while si < len(states):
        cfg, budget = states[si]
        for a, st in enumerate(cfg):
            if st.status == CORRECT_ST:
                di = insert((activate_seq(inst, sol, cfg, a), budget))
                edges[si].append((di, "activate", a))
            if st.status != CRASHED_ST and budget > 0:
                di = insert((crash_seq(inst, sol, cfg, a), budget - 1))
                edges[si].append((di, "crash", a))
        si += 1

    n_states = len(states)

    # (a) an unfinished correct agent that can never finish again
    rev: list[list[int]] = [[] for _ in range(n_states)]
    for si, outs in enumerate(edges):
        for di, _, _ in outs:
            rev[di].append(si)
    for x in inst.agents():
        good = [si for si, (cfg, _) in enumerate(states) if cfg[x].status == DONE_ST]
        can = [False] * n_states
        stack = list(good)
        for si in good:
            can[si] = True
        while stack:
            si = stack.pop()
            for pi in rev[si]:
                if not can[pi]:
                    can[pi] = True
                    stack.append(pi)
        for si in range(n_states):
            cfg, _ = states[si]
            if cfg[x].status == CORRECT_ST and not can[si]:
                return n_states, Counterexample(
                    "unreachable_goal",
                    agents=(x,),
                    schedule=_actions_to(states, edges, si),
                    detail="the agent can never finish after this prefix",
                )

    # (b) fair livelock: a crash-free cycle activating every unfinished
    # correct agent without finishing anyone
    return n_states, _fair_livelock(inst, states, edges)


def _actions_to(states, edges, target: int) -> list:
    """Shortest action prefix from the initial state to ``target`` (BFS order)."""
    parent: dict[int, tuple[int, str, int]] = {0: (-1, "", -1)}
    q = deque([0])
    while q:
        si = q.popleft()
        if si == target:
            break
        for di, op, a in edges[si]:
            if di not in parent:
                parent[di] = (si, op, a)
                q.append(di)
    out = []
    si = target
    while si != 0:
        pi, op, a = parent[si]
        out.append((op, a))
        si = pi
    out.reverse()
    return out


def _sccs(n: int, adj: "list[list[int]]") -> list[list[int]]:
    """Iterative Tarjan; returns strongly connected components."""
    idx = [0] * n
    low = [0] * n
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    comp_stack: list[int] = []
    out: list[list[int]] = []
    counter = 1
    for root in range(n):
        if state[root]:
            continue
        work = [(root, iter(adj[root]))]
        idx[root] = low[root] = counter
        counter += 1
        state[root] = 1
        comp_stack.append(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if state[w] == 0:
                    idx[w] = low[w] = counter
                    counter += 1
                    state[w] = 1
                    comp_stack.append(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                elif state[w] == 1:
                    if idx[w] < low[v]:
                        low[v] = idx[w]
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
            if low[v] == idx[v]:
                comp = []
                while True:
                    w = comp_stack.pop()
                    state[w] = 2
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def _fair_livelock(inst: Instance, states, edges) -> "Counterexample | None":
    n_states = len(states)
    act_adj: list[list[int]] = [[] for _ in range(n_states)]
    act_edges: list[list[tuple[int, int]]] = [[] for _ in range(n_states)]  # (dest, agent)
    for si, outs in enumerate(edges):
        for di, op, a in outs:
            if op == "activate":
                act_adj[si].append(di)
                act_edges[si].append((di, a))

    for comp in sorted(_sccs(n_states, act_adj), key=min):
        comp_set = set(comp)
        has_internal_edge = any(
            di in comp_set for si in comp for di, _ in act_edges[si]
        )
        if not has_internal_edge:
            continue
        cfg, _budget = states[comp[0]]
        pending = tuple(a for a, st in enumerate(cfg) if st.status == CORRECT_ST)
        if not pending:
            continue
        covered = {}
        for si in sorted(comp):
            for di, a in act_edges[si]:
                if di in comp_set and a not in covered:
                    covered[a] = (si, di, a)
        if not all(a in covered for a in pending):
            continue
        entry = min(comp)
        cycle = _cover_cycle(entry, comp_set, act_edges, [covered[a] for a in pending])
        return Counterexample(
            "livelock",
            agents=pending,
            schedule=_actions_to(states, edges, entry),
            cycle=cycle,
            detail=(
                "fair scheduling can repeat a crash-free cycle forever; "
                "the agents are activated but never finish"
            ),
        )
    return None


def _cover_cycle(entry: int, comp: set, act_edges, must_use) -> list:
    """Closed activate-only walk from ``entry`` using every edge in must_use."""
    def walk(src: int, dst: int) -> list:
        if src == dst:
            return []
        parent = {src: None}
        q = deque([src])
        while q:
            si = q.popleft()
            for di, a in act_edges[si]:
                if di in comp and di not in parent:
                    parent[di] = (si, a)
                    if di == dst:
                        q.clear()
                        break
                    q.append(di)
        out = []
        cur = dst
        while parent[cur] is not None:
            pi, a = parent[cur]
            out.append(("activate", a))
            cur = pi
        out.reverse()
        return out

    actions: list = []
    cur = entry
    for si, di, a in must_use:
        actions += walk(cur, si)
        actions.append(("activate", a))
        cur = di
    actions += walk(cur, entry)
    return actions


def verify(inst: Instance, sol: Solution, f: "int | None" = None, state_cap: int = DEFAULT_STATE_CAP) -> VerifyResult:
    if sol.model == SYN:
        return verify_syn(inst, sol, f=f, state_cap=state_cap)
    if sol.model == SEQ:
        return verify_seq(inst, sol, f=f, state_cap=state_cap)
    raise ValueError(f"unknown model {sol.model!r}")
