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
blocked vertex, avoiding every vertex assumed crashed so far, and installs
a transition rule that switches to the backup when the crash is actually
observed. New paths spawn new events against every other path whose crash
assumptions can coexist with theirs; resolution continues until the queue
drains. A single unresolvable event fails the whole attempt, and a failed
attempt stops at its first doomed event: one whose branch vertex the
crash vertices its backup must avoid cut off from the goal. That is
checked as the event is queued, with no space-time search, so the
attempt fails before it resolves the events queued ahead of it. A failed
solve's ``events`` end with the event that has no backup.

Paths are reserved and compared through their timing tables
(:class:`~mappcf.pathfind.Timing`), built once per path and entry time
and solve.

Every synchronous search (initial plans, refinement, backups) is memoized
per solve (``Planner._search``). A restart reruns most of the previous
attempt's searches, and a search depends only on its agent, start, start
time, blocked set and the *set* of timed paths it avoids (reservations do
not depend on the order or repetition of their paths), so a hit is exact.
A restart that arrives at the primaries of an earlier failed attempt
reuses that attempt's outcome instead of running the event stage again,
as the event stage depends on the primaries alone.

Crash assumptions are tracked per path as alternatives (sets of crash
sets): under the identity-revealing detector each backup usually assumes
exactly one crash chain, while anonymous observations merge
indistinguishable crashes (same vertex, same position, different agents)
into one backup that must be safe under every candidate interpretation.
"""

from __future__ import annotations

import heapq
import random
import time
from bisect import bisect_right
from dataclasses import dataclass

from .core import (
    AFD,
    CRASHED_ANON,
    NFD,
    SEQ,
    SYN,
    Instance,
    Path,
    Plan,
    Solution,
    TransitionRule,
    cpu_deadline,
    crashed,
    validate_instance,
    _path_violations,
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


@dataclass
class SolverConfig:
    model: str = SYN
    fd: str = NFD
    restarts: int = 10
    deadline: "float | None" = 30.0  # cpu-seconds budget for the whole solve
    seed: int = 0
    refine: bool = True
    priority: "tuple[int, ...] | None" = None  # fixed order disables restarts
    initial_paths: "tuple[Path, ...] | None" = None  # forced primaries


@dataclass
class SolveResult:
    """A solve's outcome. ``events`` are the resolved events of the last
    attempt, in order; after ``no_backup`` the last of them is the event
    that found no backup path."""

    status: str  # "solved" | "init_paths" | "no_backup" | "timeout"
    solution: "Solution | None" = None
    events: "tuple[Event, ...]" = ()
    initial_paths: "tuple[Path, ...] | None" = None
    attempts: int = 0
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "solved"


class SearchMemo:
    """``find_path_syn`` results of one solve, keyed by their exact input.

    A key is ``(agent, start, start time, blocked, penalize, mask)``. The
    agent fixes the goal; the graph and ``f`` are the instance's. ``mask``
    has one bit per ``(path, entry)`` pair the reservations are built
    from, and ``bits`` numbers each distinct pair on first sight. With
    ``penalize`` the penalty set is the vertices of those paths, so it
    needs no place of its own in the key.

    ``to_goal`` keeps each goal's ``goal_distances`` table, the bound every
    search toward that goal prunes with, and ``cut`` the answer to each
    ``(goal, blocked, branch vertex)`` question of the doomed-event test
    (see :meth:`Planner._doomed`). ``timing`` keeps each ``(path, entry)``
    pair's :class:`~mappcf.pathfind.Timing`, which both the reservations
    and the event generation read.
    """

    def __init__(self):
        self.bits: dict = {}
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
        # per path: None for primaries, else (parent path, at_index, [crash candidates])
        self.parent: list[list] = [[] for _ in range(n)]
        # per path: its crash alternatives, the crash sets it may run under
        self.alts: list[list[tuple[frozenset, ...]]] = [[] for _ in range(n)]
        self.rules: list[list] = [[] for _ in range(n)]
        self.rule_target: dict = {}
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
        bits = self.memo.bits
        mask = 0
        for pe in timed:
            mask |= 1 << bits.setdefault(pe, len(bits))
        key = (a, start, t0, blocked, penalize, mask)
        found = self.memo.found
        if key in found:
            return found[key]
        res = Reservations()
        for p, e in timed:
            res.add(self._timing(p, e))
        penalty = frozenset(v for p, _e in timed for v in p) if penalize else frozenset()
        inst = self.inst
        goal = inst.goals[a]
        to_goal = self.memo.to_goal.get(goal)
        if to_goal is None:
            to_goal = self.memo.to_goal[goal] = goal_distances(inst.graph, goal)
        path = find_path_syn(inst.graph, start, goal, t0, inst.f, blocked=blocked,
                             reservations=res, penalty=penalty, to_goal=to_goal)
        found[key] = path
        return path

    def _timing(self, path: Path, entry: int) -> Timing:
        timing = self.memo.timing.get((path, entry))
        if timing is None:
            timing = self.memo.timing[(path, entry)] = Timing(path, entry)
        return timing

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

    def _chain_blocked(self, a: int, p: int) -> set:
        """Crash vertices assumed anywhere along a path's ancestor chain."""
        out: set = set()
        cur = p
        while True:
            edge = self.parent[a][cur]
            if edge is None:
                return out
            pp, _idx, cands = edge
            out.update(c.vertex for c in cands)
            cur = pp

    # -- stage 1: initial paths -------------------------------------------

    def set_initial_paths(self, paths) -> None:
        inst = self.inst
        if len(paths) != inst.n_agents:
            raise ValueError("one forced path per agent required")
        for a, p in enumerate(paths):
            if p[0] != inst.starts[a] or p[-1] != inst.goals[a]:
                raise ValueError(f"forced path of agent {a} has wrong endpoints")
            bad = _path_violations(inst.graph, self.cfg.model, a, 0, tuple(p))
            if bad:
                raise ValueError("; ".join(bad))
        if self.cfg.model == SEQ:
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
            self.rules[a] = []

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
            used: set = set()
            for a in order:
                self._tick()
                forbidden = {inst.goals[b] for b in inst.agents() if b != a} | used
                p = find_path_seq(inst.graph, inst.starts[a], inst.goals[a], frozenset(forbidden))
                if p is None:
                    return False
                used |= set(p)
                got[a] = p
        self._install_primaries([got[a] for a in inst.agents()])
        return True

    def refine_initial_paths(self, order=None, passes: int = 2) -> int:
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

        def shared_total(paths) -> int:
            total = 0
            sets = [set(p) for p in paths]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    total += len(sets[i] & sets[j])
            return total

        for _ in range(passes):
            changed = False
            for a in order:
                self._tick()
                cur = [self.paths[b][0] for b in inst.agents()]
                timed = [(cur[b], 1) for b in inst.agents() if b != a]
                cand = self._search(a, inst.starts[a], 1, self._other_goals(a), timed,
                                    penalize=True)
                if cand is None or len(cand) > len(cur[a]) or cand == cur[a]:
                    continue
                trial = list(cur)
                trial[a] = cand
                if shared_total(trial) < shared_total(cur):
                    self.paths[a][0] = cand
                    adopted += 1
                    changed = True
            if not changed:
                break
        return adopted

    # -- stage 2: events ---------------------------------------------------

    def _push_event(self, ev: Event) -> bool:
        """Queue an event; a doomed one (see :meth:`_doomed`) is not
        queued but ends ``resolved``, and False says the attempt failed."""
        if self._doomed(ev):
            self.resolved.append(ev)
            return False
        eff = ev.effect
        key = (eff.when, eff.agent, ev.crash.agent, self._seq)
        heapq.heappush(self.queue, (key, ev))
        self._seq += 1
        return True

    def _doomed(self, ev: Event) -> bool:
        """True if the event's backup search can only fail: with the crash
        vertices of its slot's chain and of its candidates taken out of the
        graph, its branch vertex no longer reaches the goal.

        :meth:`resolve` would then end the attempt with ``no_backup``: no
        rule under the event's key exists to widen instead, since every
        backup at a slot starts at the slot's vertex, inherits the slot's
        chain, and avoids the key's watch vertex, so the search that would
        have made that rule faced the same cut. A solved attempt never
        queues such an event. The test is one breadth-first search from the
        goal, which stops once it reaches the branch vertex, per distinct
        question and solve (``SearchMemo.cut``).
        """
        a, p, c = ev.effect.agent, ev.effect.path, ev.effect.at_index
        _redirect, slot_path, _slot_idx = self._slot(ev)
        blocked = frozenset(self._chain_blocked(a, slot_path)
                            | {cr.vertex for cr in ev.candidates()})
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

    def _gen_events_for(self, keys) -> bool:
        """Queue events between each path (a, pa) in ``keys`` and every
        compatible path (both directions), deduplicating crashes already
        seen and merging indistinguishable candidates into a single event.
        False if one of them is doomed (see :meth:`_push_event`).

        All keys share one batch: under the anonymous detector only crashes
        collected into the same batch merge."""
        batch: dict = {}
        for a, pa in keys:
            alts_a = self.alts[a][pa]
            for b in self.inst.agents():
                if b == a:
                    continue
                for pb in range(len(self.paths[b])):
                    if not self._compatible(alts_a, a, b, pb):
                        continue
                    for cr, eff in self._pair_candidates(a, pa, b, pb):
                        self._collect(batch, cr, eff)
                    for cr, eff in self._pair_candidates(b, pb, a, pa):
                        self._collect(batch, cr, eff)
        return self._flush(batch)

    def _collect(self, batch: dict, cr: Crash, eff: Effect) -> None:
        exact = (eff.agent, eff.path, cr.agent, cr.vertex, cr.when)
        if exact in self._seen_crashes:
            return
        self._seen_crashes.add(exact)
        if self.cfg.fd == NFD:
            mkey = (eff.agent, eff.path, eff.at_index, cr.agent, cr.vertex)
        else:
            mkey = (eff.agent, eff.path, eff.at_index, cr.vertex)
        batch.setdefault(mkey, []).append((cr, eff))

    def _flush(self, batch: dict) -> bool:
        for mkey in sorted(batch):
            entries = batch[mkey]
            entries.sort(key=lambda ce: ce[0])
            crashes = [ce[0] for ce in entries]
            if not self._push_event(Event(crashes[0], entries[0][1], tuple(crashes[1:]))):
                return False
        return True

    # -- stage 3: backup search -------------------------------------------

    def _trigger_for(self, cands) -> object:
        if self.cfg.fd == NFD:
            agents = {c.agent for c in cands}
            assert len(agents) == 1, "identity-revealing events merge one agent only"
            return crashed(cands[0].agent)
        return CRASHED_ANON

    def find_backup_path(self, ev: Event, base: int, alts,
                         extra_blocked: frozenset = frozenset()):
        """Plan the detour for one event; returns the new path or None.

        Branches at the vertex one step before the blocked one, avoids every
        crash vertex assumed along the chain (plus the event's own), and
        must be collision-free against every path of other agents whose
        assumptions can coexist with the extended chain. ``base`` is the
        path whose ancestry defines that chain: the blocked path, or its
        parent when the dodge is parked at the parent slot and becomes a
        sibling instead of a child. ``alts`` are the new path's crash
        alternatives, ``_probe_alts(a, base, cands)``.
        """
        a = ev.effect.agent
        p = ev.effect.path
        c = ev.effect.at_index
        cands = ev.candidates()
        parent_path = self.paths[a][p]
        branch_v = parent_path[c - 2]
        blocked = self._chain_blocked(a, base) | {cr.vertex for cr in cands}
        blocked |= extra_blocked
        t_branch = self.entry[a][p] + c - 2
        timed = [
            (self.paths[b][pb], self.entry[b][pb])
            for b in self.inst.agents() if b != a
            for pb in range(len(self.paths[b]))
            if self._compatible(alts, a, b, pb)
        ]
        return self._search(a, branch_v, t_branch, frozenset(blocked), timed)

    # -- stage 4: resolution loop -----------------------------------------

    def _slot_siblings(self, a: int, slot_path: int, slot_idx: int):
        """Indices (into rules[a]) of rules parked at one slot, in order."""
        return [i for i, r in enumerate(self.rules[a])
                if r.from_path == slot_path and r.at_index == slot_idx]

    def _slot_blocked(self, a: int, slot_path: int, slot_idx: int, cands) -> set:
        """Crash vertices of dodges already parked at a slot that could be
        active together with this event's crashes. First-match sends every
        joint scenario through the newest rule, so a newer dodge has to
        steer clear of the older dodges' vertices."""
        mine = frozenset(cands)
        out = set()
        for i in self._slot_siblings(a, slot_path, slot_idx):
            r = self.rules[a][i]
            theirs = frozenset(self.parent[a][r.to_path][2])
            if _coexists(mine, theirs, self.inst.f):
                out.add(r.watch)
        return out

    def _slot(self, ev: Event):
        """``(redirect, slot path, slot index)``: where the event's rule is
        parked.

        In syn a switch consumes the whole round: the agent lands on the
        new path at index 1 and moves immediately, so a rule parked there
        could never fire. A crash blocking a backup's first hop is always
        observable one round earlier, at the slot whose rule created that
        backup (crashed agents stay put), so the dodge is redirected there,
        ahead of the rules it guards, as a sibling of the blocked path.
        """
        a, p, c = ev.effect.agent, ev.effect.path, ev.effect.at_index
        if c == 2 and p != 0:
            pp, pc, _pcands = self.parent[a][p]
            return True, pp, pc - 1
        return False, p, c - 1

    def resolve(self, ev: Event) -> str:
        """Resolve one event; returns "ok" or "no_backup"."""
        a = ev.effect.agent
        p = ev.effect.path
        c = ev.effect.at_index
        cands = ev.candidates()
        trigger = self._trigger_for(cands)
        watch = ev.crash.vertex
        redirect, slot_path, slot_idx = self._slot(ev)
        rkey = (a, slot_path, slot_idx, watch, trigger)
        existing = self.rule_target.get(rkey)
        self.resolved.append(ev)
        if existing is not None:
            return self._extend_backup(a, existing, cands)
        alts = self._probe_alts(a, slot_path, cands)
        extra = frozenset()
        if redirect:
            extra = frozenset(self._slot_blocked(a, slot_path, slot_idx, cands))
        new_path = self.find_backup_path(ev, slot_path, alts, extra)
        if new_path is None:
            return "no_backup"
        np = len(self.paths[a])
        self.paths[a].append(new_path)
        self.parent[a].append((slot_path, slot_idx + 1, list(cands)))
        self.alts[a].append(alts)
        self.entry[a].append(self.entry[a][p] + c - 2)
        rule = TransitionRule(slot_path, slot_idx, watch, trigger, np)
        if redirect:
            group = self._slot_siblings(a, slot_path, slot_idx)
            self.rules[a].insert(group[0] if group else len(self.rules[a]), rule)
        else:
            self.rules[a].append(rule)
        self.rule_target[rkey] = np
        return "ok" if self._gen_events_for([(a, np)]) else "no_backup"

    def _extend_backup(self, a: int, target: int, cands) -> str:
        """A later crash candidate maps onto an existing rule: widen that
        backup's assumptions and make sure it stays collision-free against
        every path that now coexists with it.

        The backup has no children, so no other path's alternatives change:
        a rule key fixes the slot, so this event has the round of the one
        that made the backup; a child needs an event at index 3 or later of
        the backup (index-2 events make siblings), so in a later round; and
        events pop in nondecreasing round order."""
        pp, _idx, stored = self.parent[a][target]
        add = [c for c in cands if c not in stored]
        if not add:
            return "ok"
        stored.extend(add)
        alts = self.alts[a][target] = self._probe_alts(a, pp, stored)
        for b in self.inst.agents():
            if b == a:
                continue
            for pb in range(len(self.paths[b])):
                if self._compatible(alts, a, b, pb) and self._paths_conflict(a, target, b, pb):
                    return "no_backup"
        return "ok" if self._gen_events_for([(a, target)]) else "no_backup"

    def _paths_conflict(self, a: int, pa: int, b: int, pb: int) -> bool:
        path_a, path_b = self.paths[a][pa], self.paths[b][pb]
        # b holds path_b[t - tb] from time tb on, and its last vertex forever
        # after; a must not meet it, swap with it, or park where b comes later
        ta, tb = self.entry[a][pa], self.entry[b][pb]
        last_b = len(path_b) - 1
        for k, v in enumerate(path_a):
            j = ta + k - tb
            if j < 0:
                continue
            if path_b[min(j, last_b)] == v:
                return True
            # b is not on v, so a head-on swap is b stepping from a's next
            # vertex onto v
            if j < last_b and k < len(path_a) - 1:
                if path_b[j] == path_a[k + 1] and path_b[j + 1] == v:
                    return True
        goal = path_a[-1]
        return goal == path_b[-1] or goal in path_b[max(0, ta + len(path_a) - tb):]

    def run_events(self) -> str:
        if self.cfg.model == SEQ:
            return "solved"  # disjoint primaries: no crash blocks another agent
        if not self._gen_events_for([(a, 0) for a in self.inst.agents()]):
            return "no_backup"
        while self.queue:
            self._tick()
            _key, ev = heapq.heappop(self.queue)
            if self.resolve(ev) == "no_backup":
                return "no_backup"
        return "solved"

    def build_solution(self) -> Solution:
        plans = tuple(
            Plan(tuple(self.paths[a]), tuple(self.rules[a])) for a in self.inst.agents()
        )
        return Solution(self.cfg.model, self.cfg.fd, plans)


def solve(inst: Instance, config: "SolverConfig | None" = None) -> SolveResult:
    """Plan crash-tolerant paths for every agent.

    Tries the identity priority order (or the pinned one), then up to
    ``config.restarts`` seeded reshuffles on failure. Forced initial paths
    or a pinned priority imply a single attempt, since a retry would repeat
    it verbatim.

    The attempts share one :class:`SearchMemo`, so a search that a restart
    repeats with the same input runs once; the result is unchanged, as a
    search is a function of that input.

    A restart whose refined primaries equal those of an earlier failed
    attempt skips the event stage and fails as that attempt did, with its
    status and resolved events (it still counts as an attempt). The event
    stage is a function of the primaries alone: the planner's state after
    they are installed and refined depends on nothing else, and the memo
    returns what a fresh search would.
    """
    cfg = config if config is not None else SolverConfig()
    bad = validate_instance(inst)
    if bad:
        raise ValueError("invalid instance: " + "; ".join(bad))
    if cfg.model not in (SYN, SEQ):
        raise ValueError(f"unknown model {cfg.model!r}")
    if cfg.fd not in (NFD, AFD):
        raise ValueError(f"unknown failure detector {cfg.fd!r}")
    t0 = time.monotonic()
    deadline_at = cpu_deadline(cfg.deadline)
    rng = random.Random(cfg.seed)
    n = inst.n_agents
    pinned = cfg.priority is not None or cfg.initial_paths is not None
    attempts_allowed = 1 if pinned else 1 + max(0, cfg.restarts)
    base_order = tuple(cfg.priority) if cfg.priority is not None else tuple(range(n))
    if cfg.priority is not None and sorted(base_order) != list(range(n)):
        raise ValueError("priority must be a permutation of the agent ids")

    last = SolveResult(status="init_paths")
    attempts = 0
    memo = SearchMemo()
    failed: dict = {}  # primaries -> (status, resolved events) of their failed event stage
    for attempt in range(attempts_allowed):
        order = base_order if attempt == 0 else tuple(rng.sample(range(n), n))
        planner = Planner(inst, cfg, deadline_at, memo)
        attempts += 1
        try:
            if cfg.initial_paths is not None:
                planner.set_initial_paths(cfg.initial_paths)
            else:
                if not planner.get_initial_plans(order):
                    last = SolveResult(status="init_paths", attempts=attempts)
                    continue
                if cfg.refine:
                    planner.refine_initial_paths(order)
            initial = tuple(planner.paths[a][0] for a in inst.agents())
            if initial not in failed:
                status = planner.run_events()
                if status == "solved":
                    return SolveResult(
                        status="solved",
                        solution=planner.build_solution(),
                        events=tuple(planner.resolved),
                        initial_paths=initial,
                        attempts=attempts,
                        runtime=time.monotonic() - t0,
                    )
                failed[initial] = (status, tuple(planner.resolved))
        except Timeout:
            return SolveResult(
                status="timeout", attempts=attempts, runtime=time.monotonic() - t0
            )
        status, events = failed[initial]
        last = SolveResult(status=status, events=events, initial_paths=initial,
                           attempts=attempts)
    last.runtime = time.monotonic() - t0
    return last
