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

Plans are stepped in a compiled form, :class:`Compiled`, built once per
(instance, solution) pair. It numbers and tabulates:

* Positions. Every (path, 1-based progress) pair of every agent is one
  position, numbered agent by agent, path by path.
* Agent codes. An agent's position and status make one small int,
  ``3 * position + status`` with status 0 correct, 1 crashed, 2 done.
  Flat tables indexed by code give the vertex, the code one step further
  along the path (the code itself at the path's end), the code after a
  crash, the code after arriving (done at the goal end of a path), the
  rules parked there and the bitmask of the vertices they watch.
* Observation codes. What a rule sees at its watch vertex is 0 vacant,
  1 correct (a correct or done agent stands there), 2 crashed under the
  anonymous detector, and ``3 + b`` crashed agent ``b`` under nfd. Each
  rule is stored as (watch vertex, observation code, target code, rule),
  in rule order, at the code of the position it is parked at. A trigger
  the detector never reports (a named crash under afd, an anonymous one
  under nfd) can never fire, so it gets no entry.
* Configurations. A configuration is a tuple of agent codes, one per
  agent. This module alone encodes and decodes them:
  :meth:`Compiled.decode` gives the ``AgentState`` tuple, and the
  ``Compiled.status`` table the status of one agent code.

:func:`step_syn`, :func:`activate_seq` and :func:`crash_seq` are the only
stepping code. The runners here and both verifiers call them, on plans
that passed :func:`check_executable`: the tables take every path to be
non-empty and every rule to name a path and index the plan has.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .core import NFD, SEQ, SYN, Instance, Solution, validate_solution

CORRECT_ST = "correct"
CRASHED_ST = "crashed"
DONE_ST = "done"
_STATUSES = (CORRECT_ST, CRASHED_ST, DONE_ST)  # by status number
_LETTERS = {CORRECT_ST: "c", CRASHED_ST: "x", DONE_ST: "d"}  # of Trace.config

VACANT_OBS = 0
CORRECT_OBS = 1
CRASHED_ANON_OBS = 2
CRASHED_NAMED_OBS = 3  # plus the agent id


class AgentState(NamedTuple):
    path: int
    progress: int  # 1-based index into the current path
    status: str


def _trigger_code(fd: str, trigger) -> "int | None":
    """The observation code of ``trigger``; None if ``fd`` never reports it."""
    if trigger.kind == "vacant":
        return VACANT_OBS
    if trigger.kind == "correct":
        return CORRECT_OBS
    if trigger.agent is None:
        return None if fd == NFD else CRASHED_ANON_OBS
    return CRASHED_NAMED_OBS + trigger.agent if fd == NFD else None


def check_executable(inst: Instance, sol: Solution) -> None:
    """Raise ``ValueError`` for a solution that fails
    ``validate_solution``: the check both runners and the verifier make
    before they compile a plan."""
    bad = validate_solution(inst, sol)
    if bad:
        raise ValueError("solution is not executable: " + "; ".join(bad))


class Compiled:
    """An (instance, solution) pair compiled into flat integer step tables.

    ``init`` is the initial configuration. Every table is indexed by agent
    code (see the module docstring): ``vertex``, ``status`` (the status
    string), ``seen`` (the observation code other agents get of it),
    ``step`` (the code one step further along its path, the code itself at
    the path's end, -1 unless the code is correct), ``crash`` (-1 for a
    crashed code), ``arrive`` (the done code at the goal end of a path,
    else the code itself), ``rules`` and ``watched`` (bit v set when a rule
    parked at the code watches vertex v). The solution must pass
    :func:`check_executable`.
    """

    __slots__ = ("init", "vertex", "status", "seen", "step", "crash", "arrive", "rules",
                 "watched", "_first")

    def __init__(self, inst: Instance, sol: Solution):
        # code numbers of each path's first position, agent by agent
        self._first = first = []
        n = 0
        for plan in sol.plans:
            first.append([])
            for path in plan.paths:
                first[-1].append(n)
                n += 3 * len(path)
        self.vertex = vertex = [0] * n
        self.step = step = [-1] * n
        self.crash = crash = [-1] * n
        self.arrive = arrive = list(range(n))
        self.seen = seen = [CORRECT_OBS] * n
        self.rules = rules = [()] * n
        self.watched = watched = [0] * n
        self.status = _STATUSES * (n // 3)
        for a, plan in enumerate(sol.plans):
            gone = CRASHED_NAMED_OBS + a if sol.fd == NFD else CRASHED_ANON_OBS
            for c, path in zip(first[a], plan.paths):
                end = c + 3 * len(path)  # the path's codes are c..end-1
                for s in range(3):
                    vertex[c + s:end:3] = path
                step[c:end:3] = range(c + 3, end + 3, 3)
                step[end - 3] = end - 3
                crash[c:end:3] = crash[c + 2:end:3] = range(c + 1, end, 3)
                seen[c + 1:end:3] = [gone] * len(path)
                if path[-1] == inst.goals[a]:
                    arrive[end - 3] = end - 1
            parked: dict = {}
            for r in plan.rules:
                obs = _trigger_code(sol.fd, r.trigger)
                if obs is not None:
                    c = first[a][r.from_path] + 3 * (r.at_index - 1)
                    parked.setdefault(c, []).append((r.watch, obs, first[a][r.to_path], r))
            for c, parked_here in parked.items():
                rules[c] = tuple(parked_here)
                for watch, *_ in parked_here:
                    watched[c] |= 1 << watch
        self.init = tuple(arrive[first[a][0]] for a in range(len(sol.plans)))

    def decode(self, cfg) -> "tuple[AgentState, ...]":
        out = []
        for a, c in enumerate(cfg):
            p = bisect_right(self._first[a], c) - 1
            progress = (c - self._first[a][p]) // 3 + 1
            out.append(AgentState(p, progress, self.status[c]))
        return tuple(out)

    def settled(self, cfg) -> bool:
        """No agent is still correct: everyone is done or crashed."""
        return CORRECT_ST not in map(self.status.__getitem__, cfg)

    def _occupancy(self, cfg) -> "dict[int, int]":
        """Vertex -> observation code of the agent standing there."""
        return dict(zip(map(self.vertex.__getitem__, cfg), map(self.seen.__getitem__, cfg)))


def _switch(cp: Compiled, occ, a: int, c: int, trace) -> int:
    """The code after agent ``a`` at correct code ``c`` checks its rules:
    the first rule whose watch vertex shows its trigger wins."""
    for watch, obs, target, rule in cp.rules[c]:
        if occ.get(watch, VACANT_OBS) == obs:
            if trace is not None:
                trace.switch(a, rule)
            return target
    return c


@dataclass(frozen=True)
class Collision:
    kind: str  # "vertex" | "swap"
    agents: tuple
    where: tuple  # (v,) or (u, v)


def step_syn(cp: Compiled, cfg, crash_now=(), trace=None):
    """One synchronous round from configuration ``cfg``; returns (next
    configuration, collision or None).

    The agents in ``crash_now`` crash first, through :func:`crash_seq` in
    id order (``ValueError`` for one that already has). On a collision the
    configuration is returned as the agents moved, before anyone is marked
    done.
    """
    vertex, step, rules = cp.vertex, cp.step, cp.rules
    if crash_now:
        for a in sorted(crash_now):
            cfg = crash_seq(cp, cfg, a, trace)
    out = list(cfg)
    occ = None  # rules see the configuration after the crashes
    moved = []
    for a, c in enumerate(cfg):
        d = step[c]
        if d < 0:
            continue
        if rules[c]:
            if occ is None:
                occ = cp._occupancy(cfg)
            c = _switch(cp, occ, a, c, trace)
            d = step[c]
        out[a] = d
        u = vertex[c]
        w = vertex[d]
        if u != w:
            moved.append((a, u, w))
    if trace is not None:
        for a, u, w in moved:
            trace.note(f"move agent={a} {u}->{w}")

    if len(set(map(vertex.__getitem__, out))) < len(out):
        by_vertex: dict[int, list[int]] = {}
        for a, d in enumerate(out):
            by_vertex.setdefault(vertex[d], []).append(a)
        v = min(v for v, agents in by_vertex.items() if len(agents) > 1)
        return tuple(out), Collision("vertex", tuple(by_vertex[v]), (v,))
    if len(moved) > 1:
        # with no two agents on one vertex, each hop has one agent
        hop = {(u, w): a for a, u, w in moved}
        for a, u, w in moved:
            b = hop.get((w, u), -1)
            if b > a:
                return tuple(out), Collision("swap", (a, b), (u, w))
    return tuple(map(cp.arrive.__getitem__, out)), None


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

    def config(self, cp: Compiled, cfg) -> None:
        """Record every agent as ``agent:vertex/letter``, the letter ``c``
        for correct, ``x`` for crashed and ``d`` for done."""
        parts = [f"{a}:{cp.vertex[c]}/{_LETTERS[cp.status[c]]}" for a, c in enumerate(cfg)]
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


def run_syn(inst: Instance, sol: Solution, crash_times: "dict[int, int]") -> RunResult:
    """Run the synchronous model to completion under a fixed crash pattern.

    ``crash_times`` maps agent id to the round in which it crashes (1-based;
    the crash happens at the start of that round, before rules and moves).
    Ends when every agent is done or crashed, on a collision, or when the
    configuration stops changing / repeats with no crashes left to apply.
    Crashes beyond the instance's budget ``f`` are applied, with a warning
    in the trace. Raises ``ValueError`` for a sequential solution, a
    solution :func:`check_executable` rejects, an agent that does not
    exist or a round before the first.
    """
    if sol.model != SYN:
        raise ValueError(f"run_syn runs synchronous solutions, not {sol.model!r} ones")
    check_executable(inst, sol)
    for a, t in crash_times.items():
        if not 0 <= a < inst.n_agents:
            raise ValueError(f"crash names agent {a}, but agents are 0..{inst.n_agents - 1}")
        if t < 1:
            raise ValueError(f"agent {a} crashes in round {t}, but rounds start at 1")
    trace = Trace()
    cp = Compiled(inst, sol)
    cfg = cp.init
    trace.begin("t=0")
    trace.config(cp, cfg)
    seen = {cfg: 0}
    t = crashes = 0
    while True:
        if cp.settled(cfg):
            return RunResult("arrived", t, cp.decode(cfg), trace)
        t += 1
        trace.begin(f"t={t}")
        crash_now = frozenset(a for a, ct in crash_times.items() if ct == t)
        cfg, coll = step_syn(cp, cfg, crash_now, trace)
        crashes += len(crash_now)
        if crash_now and crashes > inst.f:
            trace.note(f"warning: crash count {crashes} exceeds budget f={inst.f}")
        trace.config(cp, cfg)
        if coll is not None:
            trace.note(f"collision {coll.kind} agents={coll.agents} where={coll.where}")
            return RunResult("collision", t, cp.decode(cfg), trace, collision=coll)
        pending = any(ct > t for ct in crash_times.values())
        if not pending:
            if cfg in seen:
                # every configuration in seen failed cp.settled at the top
                # of a round, so some agent is still correct
                stuck = _correct(cp, cfg)
                trace.note(f"no progress: configuration repeats, stuck={stuck}")
                return RunResult("stuck", t, cp.decode(cfg), trace, stuck_agents=stuck)
            seen[cfg] = t
        else:
            seen = {cfg: t}


def _correct(cp: Compiled, cfg) -> "tuple[int, ...]":
    return tuple(a for a, c in enumerate(cfg) if cp.status[c] == CORRECT_ST)


def activate_seq(cp: Compiled, cfg, a: int, trace=None):
    """Sequential activation of agent ``a``; returns the new configuration.

    Crashed and done agents ignore activations. A correct agent first
    evaluates its rules, then advances one step if the next vertex is free.
    """
    c = cfg[a]
    step = cp.step
    if step[c] < 0:
        return cfg
    if cp.rules[c]:
        c = _switch(cp, cp._occupancy(cfg), a, c, trace)
    vertex = cp.vertex
    d = step[c]
    if d != c:
        w = vertex[d]
        others = list(map(vertex.__getitem__, cfg))
        del others[a]
        if w in others:
            d = c
        elif trace is not None:
            trace.note(f"move agent={a} {vertex[c]}->{w}")
    done = cp.arrive[d]
    if done != d and trace is not None:
        trace.note(f"done agent={a}")
    return cfg[:a] + (done,) + cfg[a + 1:]


def crash_seq(cp: Compiled, cfg, a: int, trace=None):
    """Agent ``a`` crashes where it stands; returns the new configuration."""
    c = cp.crash[cfg[a]]
    if c < 0:
        raise ValueError(f"agent {a} is already crashed")
    if trace is not None:
        trace.note(f"crash agent={a} at={cp.vertex[c]}")
    return cfg[:a] + (c,) + cfg[a + 1:]


def run_seq(inst: Instance, sol: Solution, schedule) -> RunResult:
    """Run the sequential model over an explicit schedule.

    ``schedule`` is a sequence of ("activate", agent) / ("crash", agent)
    actions. The outcome is "arrived" if afterwards every non-crashed agent
    is done, else "stuck" with the leftover correct agents. Raises
    ``ValueError`` for a synchronous solution, a solution
    :func:`check_executable` rejects or an action on an agent that does
    not exist.
    """
    if sol.model != SEQ:
        raise ValueError(f"run_seq runs sequential solutions, not {sol.model!r} ones")
    check_executable(inst, sol)
    trace = Trace()
    cp = Compiled(inst, sol)
    cfg = cp.init
    trace.begin("#0")
    trace.config(cp, cfg)
    crashes = 0
    for i, (op, a) in enumerate(schedule, start=1):
        trace.begin(f"#{i}")
        if not 0 <= a < inst.n_agents:
            raise ValueError(
                f"schedule action #{i} names agent {a}, but agents are 0..{inst.n_agents - 1}")
        if op == "activate":
            cfg = activate_seq(cp, cfg, a, trace)
        elif op == "crash":
            cfg = crash_seq(cp, cfg, a, trace)
            crashes += 1
            if crashes > inst.f:
                trace.note(f"warning: crash count {crashes} exceeds budget f={inst.f}")
        else:
            raise ValueError(f"unknown schedule action {op!r}")
        trace.config(cp, cfg)
    stuck = _correct(cp, cfg)
    outcome = "arrived" if not stuck else "stuck"
    return RunResult(outcome, len(schedule), cp.decode(cfg), trace, stuck_agents=stuck)


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
