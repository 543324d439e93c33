"""Planner: initial path assignment plus event-driven backup synthesis.

The solver plans one primary path per agent by priority, each avoiding
every other agent's goal; a failed attempt restarts with a seeded
reshuffle of the priority order.

Sequential model: prioritized vertex-disjoint planning with seeded
restarts. Each agent takes a simple path through vertices no earlier agent
uses, so a crashed agent never stands on another agent's path, no event
arises, and every seq plan is one rule-free path per agent.

Synchronous model: prioritized space-time planning, then the event engine;
the event queue, the backups and the transition rules below belong to this
model only. The queue holds unresolved events: a hypothetical crash of one
agent at a vertex that would block another agent's path further along.
Resolving an event plans a backup path branching one step before the
blocked vertex, avoiding every crash vertex of its crash alternatives, and
installs a transition rule that switches to the backup when the crash is
actually observed. New paths spawn new events against every other path
whose crash assumptions can coexist with theirs; resolution continues
until the queue drains. A single unresolvable event fails the whole
attempt, and a failed attempt stops at its first doomed event: one whose
branch vertex the crash vertices its backup must avoid cut off from the
goal. That is checked as the event is queued, with no space-time search,
so the attempt fails before it resolves the events queued ahead of it. A
failed solve's ``events`` end with the event that has no backup.

Paths are reserved and compared through their timing tables
(:class:`~mappcf.pathfind.Timing`), built once per path and entry time
and solve.

Every search is memoized per solve, so a restart does not rerun the
searches of earlier attempts. A synchronous search (initial plans,
refinement, backups; ``Planner._search``) depends only on its agent,
start, start time, blocked set and the *set* of timed paths it avoids
(reservations do not depend on the order or repetition of their paths),
and a sequential one (in ``Planner.get_initial_plans``) only on its agent
and forbidden vertex mask, so a hit is exact.
A restart that arrives at the primaries of an earlier failed attempt
reuses that attempt's outcome instead of running the event stage again,
as the event stage depends on the primaries alone.

Crash assumptions are tracked per path as alternatives (sets of crash
sets, ``Planner.alts``), and every question about them reads the
alternatives alone: which paths can run together, which vertices a backup
avoids, and which older rules a redirected dodge steers clear of. A
backup's alternatives are those of its slot's path, each extended by one
crash candidate of its rule that does not contradict it. Under the
identity-revealing detector each backup usually assumes exactly one crash
chain, while anonymous observations merge indistinguishable crashes (same
vertex, same position, different agents) into one backup that must be safe
under every candidate interpretation. The candidates of one rule share its
watch vertex, so the crash vertices of a path's alternatives are the watch
vertices of the rules on its parent chain (``Planner.parent`` keeps each
backup's slot). A widening (:meth:`Planner._extend_backup`) adds to a
backup's alternatives those that its new candidates give the slot path's.
"""

from __future__ import annotations

import heapq
import random
import time
from bisect import bisect_right
from dataclasses import dataclass

from .core import (
    CRASHED_ANON,
    NFD,
    SEQ,
    SYN,
    Instance,
    Path,
    Plan,
    Solution,
    SolveResult,
    TransitionRule,
    check_solver_input,
    cpu_deadline,
    crashed,
    shared_vertices,
    validate_solution,
    vertex_mask,
)
from .pathfind import Reservations, Timing, find_path_seq, find_path_syn, goal_distances


@dataclass(frozen=True, order=True)
class Crash:
    """A hypothetical crash: agent stops forever at vertex.

    ``when`` is the synchronous round in which the vertex is occupied by the
    crashed agent. Events, backups and rules belong to the synchronous
    model: seq-dcrf is prioritized vertex-disjoint planning with seeded
    restarts, so its plans are rule-free.
    """

    agent: int
    vertex: int
    when: int


@dataclass(frozen=True)
class Effect:
    """Where a crash bites: agent's path ``path`` reaches ``vertex`` at
    1-based ``at_index`` in synchronous round ``when`` (synchronous model
    only, as for :class:`Crash`)."""

    agent: int
    path: int
    vertex: int
    at_index: int
    when: int


@dataclass(frozen=True)
class Event:
    crash: Crash
    effect: Effect
    merged: "tuple[Crash, ...]" = ()  # further indistinguishable crash candidates

    def candidates(self) -> "tuple[Crash, ...]":
        return (self.crash, *self.merged)

    def describe(self) -> str:
        """One line naming the blocked step and the crash candidates
        (``crashed`` and ``round`` list them in the same order)."""
        eff, cands = self.effect, self.candidates()
        return (f"event agent={eff.agent} path={eff.path} step={eff.at_index}"
                f" crashed={','.join(str(c.agent) for c in cands)} vertex={self.crash.vertex}"
                f" round={','.join(str(c.when) for c in cands)}")


def _coexists(alt_a: frozenset, alt_b: frozenset, f: int) -> bool:
    """True if two crash-assumption sets can belong to one execution.

    They cannot when some agent is assumed crashed in two different
    places/rounds across the union, or when the union needs more than
    ``f`` crashes. Pairs of paths whose assumptions cannot coexist never
    co-execute, so no events are generated between them.
    """
    union = alt_a | alt_b
    if len(union) > f:
        return False
    by_agent: dict[int, Crash] = {}
    for c in union:
        prev = by_agent.get(c.agent)
        if prev is not None and prev != c:
            return False
        by_agent[c.agent] = c
    return True


class Timeout(Exception):
    pass


class NoBackup(Exception):
    """The attempt failed: an event has no backup (see :meth:`Planner.run_events`)."""


RESTARTS = 10  # seeded reshuffles after a failed first attempt
REFINE_PASSES = 2  # rounds of :meth:`Planner.refine_initial_paths`


@dataclass
class SolverConfig:
    model: str = SYN
    fd: str = NFD
    deadline: "float | None" = 30.0  # cpu-seconds budget for the whole solve
    seed: int = 0
    priority: "tuple[int, ...] | None" = None  # fixed order disables restarts
    initial_paths: "tuple[Path, ...] | None" = None  # forced primaries


class SearchMemo:
    """Search results of one solve, keyed by their exact input.

    In ``found``, a ``find_path_syn`` key is ``(agent, start, start time,
    blocked, penalize, timed)``. The agent fixes the goal; the graph is
    the instance's. ``timed`` is the frozenset of ``(path, entry)`` pairs
    the reservations are built from. With ``penalize`` the penalty set is
    the vertices of those paths, so it needs no place of its own in the
    key.
    A ``find_path_seq`` key is ``(agent, forbidden mask)``: the agent
    fixes the start as well, and a seq search takes no start time, blocked
    set or penalty. One solve uses one model, so the two kinds of key never
    meet. ``None`` results are kept too.

    ``to_goal`` keeps each goal's ``goal_distances`` table, the bound every
    search toward that goal prunes with, and ``cut`` the answer to each
    ``(goal, blocked, branch vertex)`` question of the doomed-event test
    (see :meth:`Planner._doomed`). ``timing`` keeps each ``(path, entry)``
    pair's :class:`~mappcf.pathfind.Timing`, which both the reservations
    and the event generation read.
    """

    def __init__(self):
        self.found: dict = {}
        self.to_goal: dict[int, list[int]] = {}
        self.cut: dict = {}
        self.timing: dict = {}


class Planner:
    """One planning attempt over a fixed priority order.

    Exposes the pipeline stages separately (initial plans, event
    generation, backup search, refinement) so each can be exercised on its
    own; :func:`solve` drives them end to end with restarts, handing every
    attempt the same ``memo`` (one instance only: the keys leave out the
    graph, the goals and ``f``).
    """

    def __init__(self, inst: Instance, config: "SolverConfig | None" = None, deadline_at=None,
                 memo: "SearchMemo | None" = None):
        self.inst = inst
        self.cfg = config if config is not None else SolverConfig()
        self.deadline_at = deadline_at
        self.memo = memo if memo is not None else SearchMemo()
        n = inst.n_agents
        self.paths: list[list[Path]] = [[] for _ in range(n)]
        self.entry: list[list[int]] = [[] for _ in range(n)]
        # per path: None for primaries, else the slot (path, index) of its rule
        self.parent: list[list] = [[] for _ in range(n)]
        # per path: its crash alternatives, the crash sets it may run under
        self.alts: list[list[tuple[frozenset, ...]]] = [[] for _ in range(n)]
        # per agent: slot (path, 1-based index) -> the rules parked there, in firing order
        self.slots: list[dict] = [{} for _ in range(n)]
        self.queue: list = []
        self.resolved: list[Event] = []
        self._seen_crashes: set = set()
        self._seq = 0

    # -- plumbing ----------------------------------------------------------

    def _tick(self):
        if self.deadline_at is not None and time.process_time() > self.deadline_at:
            raise Timeout

    def _other_goals(self, a: int) -> frozenset:
        inst = self.inst
        return frozenset(inst.goals[b] for b in inst.agents() if b != a)

    def _search(self, a: int, start: int, t0: int, blocked: frozenset, timed,
                penalize: bool = False):
        """``find_path_syn`` for agent a from ``start`` at time ``t0``,
        avoiding ``blocked`` and the ``(path, entry)`` pairs ``timed``; with
        ``penalize``, preferring to stay off the vertices of those paths.

        Looked up in ``self.memo`` first (see :class:`SearchMemo`)."""
        key = (a, start, t0, blocked, penalize, frozenset(timed))
        found = self.memo.found
        if key in found:
            return found[key]
        res = self._reserved(timed)
        penalty = frozenset(v for p, _e in timed for v in p) if penalize else frozenset()
        inst = self.inst
        goal = inst.goals[a]
        to_goal = self.memo.to_goal.get(goal)
        if to_goal is None:
            to_goal = self.memo.to_goal[goal] = goal_distances(inst.graph, goal)
        path = find_path_syn(inst.graph, start, goal, t0, blocked=blocked,
                             reservations=res, penalty=penalty, to_goal=to_goal)
        found[key] = path
        return path

    def _timing(self, path: Path, entry: int) -> Timing:
        timing = self.memo.timing.get((path, entry))
        if timing is None:
            timing = self.memo.timing[(path, entry)] = Timing(path, entry)
        return timing

    def _reserved(self, timed) -> Reservations:
        """The reservations of the ``(path, entry)`` pairs ``timed``."""
        res = Reservations()
        for p, e in timed:
            res.add(self._timing(p, e))
        return res

    def _probe_alts(self, a: int, p: int, cands) -> "tuple[frozenset, ...]":
        """Alternatives of a's path p, each extended by one crash candidate
        that does not contradict it."""
        out = set()
        for alt in self.alts[a][p]:
            for c in cands:
                if any(c2.agent == c.agent and c2 != c for c2 in alt):
                    continue
                out.add(alt | {c})
        return tuple(sorted(out, key=sorted))

    def _compatible(self, alts_a, a: int, b: int, pb: int) -> bool:
        """Can agent a, under crash alternatives ``alts_a``, and agent b's
        path pb co-execute?

        Needs one alternative on each side such that neither assumes the
        other path's owner crashed and the combined assumptions are
        consistent within the crash budget.
        """
        f = self.inst.f
        for alt_a in alts_a:
            if any(c.agent == b for c in alt_a):
                continue
            for alt_b in self.alts[b][pb]:
                if any(c.agent == a for c in alt_b):
                    continue
                if _coexists(alt_a, alt_b, f):
                    return True
        return False

    def _coexisting(self, a: int, alts) -> "list[tuple[int, int]]":
        """The ``(agent, path)`` pairs of the other agents' paths that can
        run together with agent a under crash alternatives ``alts``."""
        return [
            (b, pb)
            for b in self.inst.agents() if b != a
            for pb in range(len(self.paths[b]))
            if self._compatible(alts, a, b, pb)
        ]

    # -- stage 1: initial paths -------------------------------------------

    def set_initial_paths(self, paths) -> None:
        """Install forced primaries, one per agent. Raises ValueError unless
        each is a well-formed path of the model (as rule-free plans pass
        :func:`~mappcf.core.validate_solution`) from its agent's start to
        its goal, and, under seq, unless they are vertex-disjoint."""
        inst, cfg = self.inst, self.cfg
        if len(paths) != inst.n_agents:
            raise ValueError("one forced path per agent required")
        plans = tuple(Plan((tuple(p),)) for p in paths)
        bad = validate_solution(inst, Solution(cfg.model, cfg.fd, plans))
        if bad:
            raise ValueError("; ".join(bad))
        for a, p in enumerate(paths):
            if p[-1] != inst.goals[a]:
                raise ValueError(f"forced path of agent {a} does not end at its goal")
        if cfg.model == SEQ:
            # run_events plans no seq backups, which is sound only for
            # vertex-disjoint primaries: overlapping ones can deadlock with
            # no crash at all
            owner: dict[int, int] = {}
            for a, p in enumerate(paths):
                for v in p:
                    b = owner.setdefault(v, a)
                    if b != a:
                        raise ValueError(
                            f"forced seq paths of agents {b} and {a} share vertex {v}"
                        )
        self._install_primaries([tuple(p) for p in paths])

    def _install_primaries(self, paths) -> None:
        for a, p in enumerate(paths):
            self.paths[a] = [tuple(p)]
            self.entry[a] = [1]
            self.parent[a] = [None]
            self.alts[a] = [(frozenset(),)]
            self.slots[a] = {}

    def get_initial_plans(self, order=None) -> bool:
        """Prioritized planning of one primary path per agent.

        Synchronous: each agent plans in space-time against the reservations
        of everyone planned before it, avoiding all other goals, preferring
        paths that touch fewer vertices already in use. Sequential: simple
        paths mutually vertex-disjoint and avoiding all other goals.
        Returns False if some agent cannot be planned.
        """
        inst = self.inst
        order = list(order) if order is not None else list(inst.agents())
        got: dict[int, Path] = {}
        if self.cfg.model == SYN:
            timed: list = []
            for a in order:
                self._tick()
                p = self._search(a, inst.starts[a], 1, self._other_goals(a), timed,
                                 penalize=True)
                if p is None:
                    return False
                timed.append((p, 1))
                got[a] = p
        else:
            # memoized under (agent, forbidden mask), see SearchMemo
            goals = vertex_mask(inst.goals)
            used = 0
            found = self.memo.found
            for a in order:
                self._tick()
                key = (a, (goals & ~(1 << inst.goals[a])) | used)
                if key not in found:
                    found[key] = find_path_seq(inst.graph, inst.starts[a], inst.goals[a], key[1])
                if found[key] is None:
                    return False
                got[a], path_mask, _ = found[key]
                used |= path_mask
        self._install_primaries([got[a] for a in inst.agents()])
        return True

    def refine_initial_paths(self, order=None) -> int:
        """Round-robin replanning that only accepts strict improvements.

        A candidate replaces an agent's primary iff it is no longer and
        strictly reduces the total number of vertices shared between path
        pairs. Synchronous model only. Returns the number of adopted paths.
        """
        if self.cfg.model != SYN:
            return 0
        inst = self.inst
        order = list(order) if order is not None else list(inst.agents())
        adopted = 0
        for _ in range(REFINE_PASSES):
            changed = False
            for a in order:
                self._tick()
                cur = [self.paths[b][0] for b in inst.agents()]
                timed = [(cur[b], 1) for b in inst.agents() if b != a]
                cand = self._search(a, inst.starts[a], 1, self._other_goals(a), timed,
                                    penalize=True)
                if cand is None or len(cand) > len(cur[a]) or cand == cur[a]:
                    continue
                masks = [vertex_mask(p) for p in cur]
                before = shared_vertices(masks)
                masks[a] = vertex_mask(cand)
                if shared_vertices(masks) < before:
                    self.paths[a][0] = cand
                    adopted += 1
                    changed = True
            if not changed:
                break
        return adopted

    # -- stage 2: events ---------------------------------------------------

    def _doomed(self, ev: Event) -> bool:
        """True if the event's backup search can only fail: with the crash
        vertices of its slot path's alternatives and the event's crash
        vertex taken out of the graph, its branch vertex no longer reaches
        the goal.

        Those are the crash vertices of the alternatives the backup would
        get, so :meth:`resolve` would then end the attempt with
        ``no_backup``: no rule under the event's key exists to widen
        instead, since every backup at a slot starts at the slot's vertex,
        extends the slot path's alternatives, and avoids the key's watch
        vertex, so the search that would have made that rule faced the same
        cut. A solved attempt never queues such an event. The test is one
        breadth-first search from the goal, which stops once it reaches the
        branch vertex, per distinct question and solve (``SearchMemo.cut``).
        """
        a, p, c = ev.effect.agent, ev.effect.path, ev.effect.at_index
        _redirect, slot_path, _slot_idx = self._slot(ev)
        blocked = frozenset({cr.vertex for alt in self.alts[a][slot_path] for cr in alt}
                            | {ev.crash.vertex})
        key = (self.inst.goals[a], blocked, self.paths[a][p][c - 2])
        cut = self.memo.cut.get(key)
        if cut is None:
            goal, _blocked, branch = key
            dist = goal_distances(self.inst.graph, goal, blocked, stop=branch)
            cut = self.memo.cut[key] = dist[branch] < 0
        return cut

    def _pair_candidates(self, a: int, pa: int, b: int, pb: int):
        """Crashes of b along its path pb that block a's path pa."""
        ea = self.entry[a][pa]
        # ascending times at each vertex
        times_a = self._timing(self.paths[a][pa], ea).visits
        times_b = self._timing(self.paths[b][pb], self.entry[b][pb]).visits
        out = []
        for v in sorted(times_b.keys() & times_a.keys()):
            at = times_a[v]
            for tb in times_b[v]:
                # a is blocked at its first visit to v after time tb, unless
                # that visit is a's first vertex
                j = bisect_right(at, tb)
                if j < len(at) and at[j] > ea:
                    eff = Effect(a, pa, v, at[j] - ea + 1, at[j])
                    out.append((Crash(b, v, tb), eff))
        return out

    def _gen_events_for(self, keys) -> None:
        """Queue events between each path (a, pa) in ``keys`` and every
        compatible path (both directions), skipping crashes already seen.

        All keys share one batch, and the crashes of a batch that block the
        same step at the same vertex merge into one event: by crashed agent
        under the identity-revealing detector, across agents under the
        anonymous one. Events queue in merge-key order. A doomed one (see
        :meth:`_doomed`) is not queued but ends ``resolved`` and raises
        :class:`NoBackup`."""
        nfd = self.cfg.fd == NFD
        batch: dict = {}  # merge key -> (effect, crash candidates)
        for a, pa in keys:
            for b, pb in self._coexisting(a, self.alts[a][pa]):
                pairs = self._pair_candidates(a, pa, b, pb) + self._pair_candidates(b, pb, a, pa)
                for cr, eff in pairs:
                    exact = (eff.agent, eff.path, cr.agent, cr.vertex, cr.when)
                    if exact not in self._seen_crashes:
                        self._seen_crashes.add(exact)
                        mkey = (eff.agent, eff.path, eff.at_index, cr.agent if nfd else None,
                                cr.vertex)
                        batch.setdefault(mkey, (eff, []))[1].append(cr)
        for mkey in sorted(batch):
            eff, crashes = batch[mkey]
            crashes.sort()
            ev = Event(crashes[0], eff, tuple(crashes[1:]))
            if self._doomed(ev):
                self.resolved.append(ev)
                raise NoBackup
            heapq.heappush(self.queue, ((eff.when, eff.agent, ev.crash.agent, self._seq), ev))
            self._seq += 1

    # -- stage 3: backup search -------------------------------------------

    def _trigger_for(self, cands) -> object:
        if self.cfg.fd == NFD:
            agents = {c.agent for c in cands}
            assert len(agents) == 1, "identity-revealing events merge one agent only"
            return crashed(cands[0].agent)
        return CRASHED_ANON

    def find_backup_path(self, ev: Event, alts, extra_blocked: frozenset = frozenset()):
        """Plan the detour for one event; returns the new path or None.

        ``alts`` are the new path's crash alternatives,
        ``_probe_alts(a, slot path, candidates)`` (see :meth:`_slot`). The
        detour branches at the vertex one step before the blocked one,
        avoids every crash vertex of ``alts`` (the event's own among them)
        and ``extra_blocked``, and must be collision-free against every path
        of other agents that ``alts`` can run with.
        """
        a = ev.effect.agent
        p = ev.effect.path
        c = ev.effect.at_index
        branch_v = self.paths[a][p][c - 2]
        blocked = frozenset(cr.vertex for alt in alts for cr in alt) | extra_blocked
        t_branch = self.entry[a][p] + c - 2
        timed = [(self.paths[b][pb], self.entry[b][pb]) for b, pb in self._coexisting(a, alts)]
        return self._search(a, branch_v, t_branch, blocked, timed)

    # -- stage 4: resolution loop -----------------------------------------

    def _slot(self, ev: Event):
        """``(redirect, slot path, slot index)``: where the event's rule is
        parked, at the end of the slot's rules, or at their head when
        redirected. The slot path's alternatives, each extended by one of
        the event's candidates, are the alternatives of the rule's backup.

        In syn a switch consumes the whole round: the agent lands on the
        new path at index 1 and moves immediately, so a rule parked there
        could never fire. A crash blocking a backup's first hop is always
        observable one round earlier, at the slot whose rule created that
        backup (crashed agents stay put), so the dodge is redirected there,
        ahead of the rules it guards, as a sibling of the blocked path.
        """
        a, p, c = ev.effect.agent, ev.effect.path, ev.effect.at_index
        if c == 2 and p != 0:
            return (True, *self.parent[a][p])
        return False, p, c - 1

    def resolve(self, ev: Event) -> None:
        """Resolve one event; raises :class:`NoBackup` when it, or an event
        its backup spawns, has no backup.

        A rule at the event's slot with its watch vertex and trigger is
        widened by the event's candidates. Otherwise a new backup is planned
        under the slot path's alternatives extended by those candidates,
        and a redirected one also avoids the watch vertices of the older
        rules at its slot whose backups can run with it."""
        a = ev.effect.agent
        p = ev.effect.path
        c = ev.effect.at_index
        cands = ev.candidates()
        trigger = self._trigger_for(cands)
        watch = ev.crash.vertex
        redirect, slot_path, slot_idx = self._slot(ev)
        here = self.slots[a].setdefault((slot_path, slot_idx), [])
        self.resolved.append(ev)
        for r in here:
            if r.watch == watch and r.trigger == trigger:
                self._extend_backup(a, r.to_path, cands)
                return
        alts = self._probe_alts(a, slot_path, cands)
        # a redirected rule goes ahead of the slot's older rules, and first
        # match sends every scenario in which its crash and an older rule's
        # crash both hold through it, so its dodge steers clear of the watch
        # vertex of each older rule whose backup can run with it
        extra = frozenset(r.watch for r in here
                          if redirect and self._compatible(alts, a, a, r.to_path))
        new_path = self.find_backup_path(ev, alts, extra)
        if new_path is None:
            raise NoBackup
        np = len(self.paths[a])
        self.paths[a].append(new_path)
        self.parent[a].append((slot_path, slot_idx))
        self.alts[a].append(alts)
        self.entry[a].append(self.entry[a][p] + c - 2)
        rule = TransitionRule(slot_path, slot_idx, watch, trigger, np)
        here.insert(0 if redirect else len(here), rule)
        self._gen_events_for([(a, np)])

    def _extend_backup(self, a: int, target: int, cands) -> None:
        """A later crash candidate maps onto an existing rule: widen that
        backup's alternatives by those that ``cands`` give its slot path's,
        and make sure it stays collision-free against every path that now
        coexists with it. Candidates that add no alternative change nothing.
        The slot path has a child, this backup, so its own alternatives
        never change, and the union equals what they give all candidates.

        The backup has no children, so no other path's alternatives change:
        a rule key fixes the slot, so this event has the round of the one
        that made the backup; a child needs an event at index 3 or later of
        the backup (index-2 events make siblings), so in a later round; and
        events pop in nondecreasing round order."""
        slot_path, _idx = self.parent[a][target]
        old = self.alts[a][target]
        alts = set(old).union(self._probe_alts(a, slot_path, cands))
        if len(alts) == len(old):
            return
        alts = self.alts[a][target] = tuple(sorted(alts, key=sorted))
        res = self._reserved((self.paths[b][pb], self.entry[b][pb])
                             for b, pb in self._coexisting(a, alts))
        if not res.admits(self._timing(self.paths[a][target], self.entry[a][target])):
            raise NoBackup
        self._gen_events_for([(a, target)])

    def run_events(self) -> str:
        """The event stage: "solved", or "no_backup" once some event has no
        backup. Every site that finds such an event (a doomed event as it
        is queued, a failed backup search, a widened backup that collides)
        raises :class:`NoBackup`, which ends here."""
        if self.cfg.model == SEQ:
            return "solved"  # disjoint primaries: no crash blocks another agent
        try:
            self._gen_events_for([(a, 0) for a in self.inst.agents()])
            while self.queue:
                self._tick()
                _key, ev = heapq.heappop(self.queue)
                self.resolve(ev)
        except NoBackup:
            return "no_backup"
        return "solved"

    def build_solution(self) -> Solution:
        """Each agent's paths, and its rules slot by slot in ``(path,
        index)`` order, in firing order within a slot."""
        plans = tuple(
            Plan(tuple(self.paths[a]),
                 tuple(r for slot in sorted(self.slots[a]) for r in self.slots[a][slot]))
            for a in self.inst.agents()
        )
        return Solution(self.cfg.model, self.cfg.fd, plans)


def solve(inst: Instance, config: "SolverConfig | None" = None) -> SolveResult:
    """Plan crash-tolerant paths for every agent.

    Tries the identity priority order (or the pinned one), then up to
    ``RESTARTS`` seeded reshuffles on failure. Forced initial paths
    or a pinned priority imply a single attempt, since a retry would repeat
    it verbatim. Each attempt starts a fresh result, with ``attempts``
    counting it; the first solved attempt or a timeout ends the loop, and
    the loop's one exit stamps ``runtime``. A timeout result carries no
    primaries or events. Forced primaries that are malformed (see
    :meth:`Planner.set_initial_paths`) raise ValueError.

    The attempts share one :class:`SearchMemo`, so a search that a restart
    repeats with the same input runs once, in either model; the result is
    unchanged, as a search is a function of that input. The memo lives
    only as long as the solve: two solves share nothing.

    A restart whose refined primaries equal those of an earlier failed
    attempt skips the event stage and fails as that attempt did, with
    ``no_backup`` and its resolved events (it still counts as an attempt;
    ``run_events`` fails with ``no_backup`` only). The event
    stage is a function of the primaries alone: the planner's state after
    they are installed and refined depends on nothing else, and the memo
    returns what a fresh search would.
    """
    cfg = config if config is not None else SolverConfig()
    check_solver_input(inst, cfg.model, cfg.fd)
    t0 = time.monotonic()
    deadline_at = cpu_deadline(cfg.deadline)
    n = inst.n_agents
    if cfg.priority is not None and sorted(cfg.priority) != list(range(n)):
        raise ValueError("priority must be a permutation of the agent ids")
    rng = random.Random(cfg.seed)
    pinned = cfg.priority is not None or cfg.initial_paths is not None
    memo = SearchMemo()
    failed: dict = {}  # primaries -> resolved events of their failed event stage
    for attempt in range(1 if pinned else 1 + RESTARTS):
        order = (cfg.priority or range(n)) if attempt == 0 else rng.sample(range(n), n)
        res = SolveResult("init_paths", attempts=attempt + 1)
        planner = Planner(inst, cfg, deadline_at, memo)
        try:
            if cfg.initial_paths is not None:
                planner.set_initial_paths(cfg.initial_paths)
            elif planner.get_initial_plans(order):
                planner.refine_initial_paths(order)
            else:
                continue
            res.initial_paths = initial = tuple(planner.paths[a][0] for a in inst.agents())
            if initial not in failed and planner.run_events() == "solved":
                res.status, res.solution = "solved", planner.build_solution()
                res.events = tuple(planner.resolved)
                break
            res.status = "no_backup"
            res.events = failed.setdefault(initial, tuple(planner.resolved))
        except Timeout:
            res = SolveResult("timeout", attempts=attempt + 1)
            break
    res.runtime = time.monotonic() - t0
    return res
