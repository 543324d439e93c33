"""Execution of plans under crash faults, for both timing models.

The synchronous runner advances all agents in lockstep rounds; each round
crashes are applied first, then every correct agent evaluates its
transition rules against the post-crash occupancy, then all agents move at
once. A fired rule resets the agent onto the target path and the agent
already advances along it in the same round. Two agents on one vertex, or
swapping along an edge, is a collision and ends the run.

The sequential runner consumes an explicit schedule of activations and
crashes. An activated agent evaluates its rules, then moves one step only
if the next vertex is unoccupied; otherwise it stays. Collisions cannot
occur; the failure mode is getting stuck (an agent that can never finish).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    CORRECT,
    NFD,
    SEQ,
    SYN,
    VACANT,
    Instance,
    Observation,
    Solution,
    crashed,
)

CORRECT_ST = "correct"
CRASHED_ST = "crashed"
DONE_ST = "done"


class AgentState(NamedTuple):
    path: int
    progress: int  # 1-based index into the current path
    status: str


Config = "tuple[AgentState, ...]"


def vertex_of(sol: Solution, a: int, st: AgentState) -> int:
    return sol.plans[a].paths[st.path][st.progress - 1]


def init_states(inst: Instance, sol: Solution) -> "tuple[AgentState, ...]":
    out = []
    for a in inst.agents():
        st = AgentState(0, 1, CORRECT_ST)
        path = sol.plans[a].paths[0]
        if len(path) == 1 and path[0] == inst.goals[a]:
            st = st._replace(status=DONE_ST)
        out.append(st)
    return tuple(out)


def occupancy(sol: Solution, states) -> "dict[int, tuple[int, str]]":
    occ = {}
    for a, st in enumerate(states):
        occ[vertex_of(sol, a, st)] = (a, st.status)
    return occ


def observe_vertex(occ, fd: str, v: int) -> Observation:
    entry = occ.get(v)
    if entry is None:
        return VACANT
    a, status = entry
    if status == CRASHED_ST:
        return crashed(a if fd == NFD else None)
    return CORRECT


def observe(inst: Instance, sol: Solution, states, agent: int) -> "dict[int, Observation]":
    """Failure-detector view of the given agent's neighbourhood."""
    occ = occupancy(sol, states)
    here = vertex_of(sol, agent, states[agent])
    return {v: observe_vertex(occ, sol.fd, v) for v in inst.graph.adj[here]}


def _fire_rule(sol: Solution, a: int, st: AgentState, occ) -> "tuple[AgentState, object]":
    """First matching transition rule wins; returns (state, fired rule or None)."""
    for r in sol.plans[a].rules:
        if r.from_path == st.path and r.at_index == st.progress:
            if observe_vertex(occ, sol.fd, r.watch) == r.trigger:
                return AgentState(r.to_path, 1, st.status), r
    return st, None


@dataclass(frozen=True)
class Collision:
    kind: str  # "vertex" | "swap"
    agents: tuple
    where: tuple  # (v,) or (u, v)


def step_syn(inst: Instance, sol: Solution, states, crash_now=frozenset(), trace=None):
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

    moved: dict[int, tuple[int, int]] = {}
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

    by_vertex: dict[int, list[int]] = {}
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


class Trace:
    """Line-oriented record of a run, one event per line."""

    def __init__(self):
        self.lines: list[str] = []
        self._t = 0

    def begin(self, label) -> None:
        self._t = label

    def note(self, msg: str) -> None:
        self.lines.append(f"[{self._t}] {msg}")

    def switch(self, a: int, rule) -> None:
        """Record agent ``a`` taking transition rule ``rule``."""
        self.note(
            f"switch agent={a} path={rule.from_path}@{rule.at_index}"
            f" watch={rule.watch} saw={rule.trigger} to={rule.to_path}"
        )

    def config(self, sol: Solution, states) -> None:
        parts = []
        for a, st in enumerate(states):
            parts.append(f"{a}:{vertex_of(sol, a, st)}/{st.status[0]}")
        self.lines.append(f"[{self._t}] at " + " ".join(parts))

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


@dataclass
class RunResult:
    outcome: str  # "arrived" | "collision" | "stuck"
    steps: int
    states: tuple
    trace: Trace
    collision: "Collision | None" = None
    stuck_agents: tuple = ()

    @property
    def ok(self) -> bool:
        return self.outcome == "arrived"


def settled(states) -> bool:
    """No agent is still correct: everyone is done or crashed."""
    return all(st.status != CORRECT_ST for st in states)


def run_syn(inst: Instance, sol: Solution, crash_times: "dict[int, int]") -> RunResult:
    """Run the synchronous model to completion under a fixed crash pattern.

    ``crash_times`` maps agent id to the round in which it crashes (1-based;
    the crash happens at the start of that round, before rules and moves).
    Ends when every agent is done or crashed, on a collision, or when the
    configuration stops changing / repeats with no crashes left to apply.
    Crashes beyond the instance's budget ``f`` are applied, with a warning
    in the trace. Raises ``ValueError`` for an agent that does not exist
    or a round before the first.
    """
    for a, t in crash_times.items():
        if not 0 <= a < inst.n_agents:
            raise ValueError(f"crash names agent {a}, but agents are 0..{inst.n_agents - 1}")
        if t < 1:
            raise ValueError(f"agent {a} crashes in round {t}, but rounds start at 1")
    trace = Trace()
    states = init_states(inst, sol)
    trace.begin("t=0")
    trace.config(sol, states)
    seen = {states: 0}
    t = crashes = 0
    while True:
        if settled(states):
            return RunResult("arrived", t, states, trace)
        t += 1
        trace.begin(f"t={t}")
        crash_now = frozenset(a for a, ct in crash_times.items() if ct == t)
        states, coll = step_syn(inst, sol, states, crash_now, trace)
        crashes += len(crash_now)
        if crash_now and crashes > inst.f:
            trace.note(f"warning: crash count {crashes} exceeds budget f={inst.f}")
        trace.config(sol, states)
        if coll is not None:
            trace.note(f"collision {coll.kind} agents={coll.agents} where={coll.where}")
            return RunResult("collision", t, states, trace, collision=coll)
        pending = any(ct > t for ct in crash_times.values())
        if not pending:
            if states in seen:
                stuck = tuple(a for a, st in enumerate(states) if st.status == CORRECT_ST)
                if stuck:
                    trace.note(f"no progress: configuration repeats, stuck={stuck}")
                    return RunResult("stuck", t, states, trace, stuck_agents=stuck)
                return RunResult("arrived", t, states, trace)
            seen[states] = t
        else:
            seen = {states: t}


def activate_seq(inst: Instance, sol: Solution, states, a: int, trace=None):
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


def crash_seq(inst: Instance, sol: Solution, states, a: int, trace=None):
    st = states[a]
    if st.status == CRASHED_ST:
        raise ValueError(f"agent {a} is already crashed")
    out = list(states)
    out[a] = st._replace(status=CRASHED_ST)
    if trace is not None:
        trace.note(f"crash agent={a} at={vertex_of(sol, a, out[a])}")
    return tuple(out)


def run_seq(inst: Instance, sol: Solution, schedule) -> RunResult:
    """Run the sequential model over an explicit schedule.

    ``schedule`` is a sequence of ("activate", agent) / ("crash", agent)
    actions. The outcome is "arrived" if afterwards every non-crashed agent
    is done, else "stuck" with the leftover correct agents. Raises
    ``ValueError`` for an action on an agent that does not exist.
    """
    trace = Trace()
    states = init_states(inst, sol)
    trace.begin("#0")
    trace.config(sol, states)
    crashes = 0
    for i, (op, a) in enumerate(schedule, start=1):
        trace.begin(f"#{i}")
        if not 0 <= a < inst.n_agents:
            raise ValueError(
                f"schedule action #{i} names agent {a}, but agents are 0..{inst.n_agents - 1}")
        if op == "activate":
            states = activate_seq(inst, sol, states, a, trace)
        elif op == "crash":
            states = crash_seq(inst, sol, states, a, trace)
            crashes += 1
            if crashes > inst.f:
                trace.note(f"warning: crash count {crashes} exceeds budget f={inst.f}")
        else:
            raise ValueError(f"unknown schedule action {op!r}")
        trace.config(sol, states)
    stuck = tuple(a for a, st in enumerate(states) if st.status == CORRECT_ST)
    outcome = "arrived" if not stuck else "stuck"
    return RunResult(outcome, len(schedule), states, trace, stuck_agents=stuck)


def run(inst: Instance, sol: Solution, adversary) -> RunResult:
    """Model-dispatching runner.

    For synchronous solutions ``adversary`` is a crash-time mapping; for
    sequential ones it is an action schedule.
    """
    if sol.model == SYN:
        return run_syn(inst, sol, dict(adversary))
    if sol.model == SEQ:
        return run_seq(inst, sol, list(adversary))
    raise ValueError(f"unknown model {sol.model!r}")
