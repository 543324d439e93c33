"""Planner: initial path assignment plus event-driven backup synthesis.

The solver first plans one primary path per agent (prioritized space-time
planning in the synchronous model, vertex-disjoint simple paths in the
sequential model; both avoid every other agent's goal). It then maintains a
queue of unresolved events: a hypothetical crash of one agent at a vertex
that would block another agent's path further along. Resolving an event
plans a backup path branching one step before the blocked vertex, avoiding
every vertex assumed crashed so far, and installs a transition rule that
switches to the backup when the crash is actually observed. New paths
spawn new events against every other path whose crash assumptions can
coexist with theirs; resolution continues until the queue drains. A single
unresolvable event fails the whole attempt; restarts reshuffle the
priority order.

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
    crashed,
    validate_instance,
    _path_violations,
)
from .pathfind import Reservations, SynConstraints, find_path_seq, find_path_syn


@dataclass(frozen=True)
class Crash:
    """A hypothetical crash: agent stops forever at vertex.

    ``when`` is the synchronous round in which the vertex is occupied by the
    crashed agent; the sequential model has no global clock, so ``when`` is
    None and the crash is assumed possible at any point.
    """

    agent: int
    vertex: int
    when: "int | None" = None

    def sort_key(self):
        w = -1 if self.when is None else self.when
        return (self.agent, self.vertex, w)


@dataclass(frozen=True)
class Effect:
    """Where a crash bites: agent's path ``path`` reaches ``vertex`` at
    1-based ``at_index`` (in the synchronous model at round ``when``)."""

    agent: int
    path: int
    vertex: int
    at_index: int
    when: "int | None" = None


@dataclass(frozen=True)
class Event:
    crash: Crash
    effect: Effect
    merged: "tuple[Crash, ...]" = ()  # further indistinguishable crash candidates

    def candidates(self) -> "tuple[Crash, ...]":
        return (self.crash, *self.merged)


def prune_inconsistent(assumptions_a, assumptions_b, f: int) -> bool:
    """True if two crash-assumption sets cannot belong to one execution.

    Inconsistent means: some agent is assumed crashed in two different
    places/rounds across the union, or the union needs more than ``f``
    crashes. Pairs of paths whose assumptions are inconsistent never
    co-execute, so no events are generated between them.
    """
    return not _coexists(frozenset(assumptions_a), frozenset(assumptions_b), f)

def _coexists(alt_a: frozenset, alt_b: frozenset, f: int) -> bool:
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
    status: str  # "solved" | "init_paths" | "no_backup" | "timeout"
    solution: "Solution | None" = None
    events: "tuple[Event, ...]" = ()
    initial_paths: "tuple[Path, ...] | None" = None
    attempts: int = 0
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "solved"


class Planner:
    """One planning attempt over a fixed priority order.

    Exposes the pipeline stages separately (initial plans, event
    generation, backup search, refinement) so each can be exercised on its
    own; :func:`solve` drives them end to end with restarts.
    """

    def __init__(self, inst: Instance, config: "SolverConfig | None" = None, deadline_at=None):
        self.inst = inst
        self.cfg = config if config is not None else SolverConfig()
        self.deadline_at = deadline_at
        n = inst.n_agents
        self.paths: list[list[Path]] = [[] for _ in range(n)]
        self.entry: list[list[int]] = [[] for _ in range(n)]
        # per path: None for primaries, else (parent path, at_index, [crash candidates])
        self.parent: list[list] = [[] for _ in range(n)]
        self.rules: list[list] = [[] for _ in range(n)]
        self.rule_target: dict = {}
        self.queue: list = []
        self.resolved: list[Event] = []
        self._seen_crashes: set = set()
        self._seq = 0
        self._rev = 0
        self._alt_memo: dict = {}

    # -- plumbing ----------------------------------------------------------

    def _tick(self):
        if self.deadline_at is not None and time.process_time() > self.deadline_at:
            raise Timeout

    def _alts(self, a: int, p: int) -> "tuple[frozenset, ...]":
        key = (a, p, self._rev)
        hit = self._alt_memo.get(key)
        if hit is not None:
            return hit
        edge = self.parent[a][p]
        if edge is None:
            res = (frozenset(),)
        else:
            pp, _idx, cands = edge
            res = self._probe_alts(a, pp, cands)
        self._alt_memo[key] = res
        return res

    def _probe_alts(self, a: int, p: int, cands) -> "tuple[frozenset, ...]":
        """Alternatives of a's path p, each extended by one crash candidate
        that does not contradict it."""
        out = set()
        for alt in self._alts(a, p):
            for c in cands:
                if any(c2.agent == c.agent and c2 != c for c2 in alt):
                    continue
                out.add(alt | {c})
        return tuple(sorted(out, key=lambda s: sorted(c.sort_key() for c in s)))

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
            for alt_b in self._alts(b, pb):
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
        self._install_primaries([tuple(p) for p in paths])

    def _install_primaries(self, paths) -> None:
        for a, p in enumerate(paths):
            self.paths[a] = [tuple(p)]
            self.entry[a] = [1]
            self.parent[a] = [None]
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
            res = Reservations()
            for a in order:
                self._tick()
                blocked = frozenset(inst.goals[b] for b in inst.agents() if b != a)
                penalty = frozenset(v for p in got.values() for v in p)
                cons = SynConstraints(blocked=blocked, reservations=res, penalty=penalty)
                p = find_path_syn(inst.graph, inst.starts[a], inst.goals[a], cons, 1, inst.f)
                if p is None:
                    return False
                res.add_path(p, 1)
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
                res = Reservations()
                for b in inst.agents():
                    if b != a:
                        res.add_path(self.paths[b][0], 1)
                blocked = frozenset(inst.goals[b] for b in inst.agents() if b != a)
                penalty = frozenset(
                    v for b in inst.agents() if b != a for v in self.paths[b][0]
                )
                cons = SynConstraints(blocked=blocked, reservations=res, penalty=penalty)
                cand = find_path_syn(inst.graph, inst.starts[a], inst.goals[a], cons, 1, inst.f)
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

    def _push_event(self, ev: Event) -> None:
        eff = ev.effect
        if self.cfg.model == SYN:
            key = (eff.when, eff.agent, ev.crash.agent, self._seq)
        else:
            key = (eff.at_index, eff.agent, ev.crash.agent, self._seq)
        heapq.heappush(self.queue, (key, ev))
        self._seq += 1

    def _pair_candidates(self, a: int, pa: int, b: int, pb: int):
        """Crashes of b along its path pb that block a's path pa."""
        path_a = self.paths[a][pa]
        path_b = self.paths[b][pb]
        out = []
        if self.cfg.model == SYN:
            ea = self.entry[a][pa]
            eb = self.entry[b][pb]
            # ascending times of b at each vertex, 1-based positions of a
            times_b: dict[int, list[int]] = {}
            for k, v in enumerate(path_b):
                times_b.setdefault(v, []).append(eb + k)
            pos_a: dict[int, list[int]] = {}
            for i, v in enumerate(path_a, 1):
                pos_a.setdefault(v, []).append(i)
            for v in sorted(times_b.keys() & pos_a.keys()):
                at = pos_a[v]
                for tb in times_b[v]:
                    # a is blocked at its first visit to v after time tb
                    j = bisect_right(at, tb - ea + 1)
                    if j < len(at) and at[j] >= 2:
                        eff = Effect(a, pa, v, at[j], ea + at[j] - 1)
                        out.append((Crash(b, v, tb), eff))
        else:
            for v in sorted(set(path_a) & set(path_b)):
                first = path_a.index(v) + 1
                if first < 2:
                    continue
                out.append((Crash(b, v, None), Effect(a, pa, v, first, None)))
        return out

    def _gen_events_for(self, keys) -> None:
        """Queue events between each path (a, pa) in ``keys`` and every
        compatible path (both directions), deduplicating crashes already
        seen and merging indistinguishable candidates into a single event.

        All keys share one batch: under the anonymous detector only crashes
        collected into the same batch merge."""
        batch: dict = {}
        for a, pa in keys:
            alts_a = self._alts(a, pa)
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
        self._flush(batch)

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
    def _flush(self, batch: dict) -> None:
        for mkey in sorted(batch, key=lambda k: tuple(-1 if x is None else x for x in k)):
            entries = batch[mkey]
            entries.sort(key=lambda ce: ce[0].sort_key())
            crashes = [ce[0] for ce in entries]
            self._push_event(Event(crashes[0], entries[0][1], tuple(crashes[1:])))

    # -- stage 3: backup search -------------------------------------------

    def _trigger_for(self, cands) -> object:
        if self.cfg.fd == NFD:
            agents = {c.agent for c in cands}
            assert len(agents) == 1, "identity-revealing events merge one agent only"
            return crashed(cands[0].agent)
        return CRASHED_ANON

    def find_backup_path(self, ev: Event, chain_base: "int | None" = None,
                         extra_blocked: frozenset = frozenset()):
        """Plan the detour for one event; returns the new path or None.

        Branches at the vertex one step before the blocked one, avoids every
        crash vertex assumed along the chain (plus the event's own), and
        must be collision-free against every path of other agents whose
        assumptions can coexist with the extended chain. ``chain_base``
        overrides which path's ancestry defines that chain (used when the
        dodge is parked at the parent slot and becomes a sibling instead of
        a child of the blocked path).
        """
        inst = self.inst
        a = ev.effect.agent
        p = ev.effect.path
        c = ev.effect.at_index
        cands = ev.candidates()
        base = p if chain_base is None else chain_base
        parent_path = self.paths[a][p]
        branch_v = parent_path[c - 2]
        blocked = self._chain_blocked(a, base) | {cr.vertex for cr in cands}
        blocked |= extra_blocked
        probe = self._probe_alts(a, base, cands)
        if self.cfg.model == SYN:
            t_branch = self.entry[a][p] + c - 2
            res = Reservations()
            for b in inst.agents():
                if b == a:
                    continue
                for pb in range(len(self.paths[b])):
                    if self._compatible(probe, a, b, pb):
                        res.add_path(self.paths[b][pb], self.entry[b][pb])
            cons = SynConstraints(blocked=frozenset(blocked), reservations=res)
            return find_path_syn(
                inst.graph, branch_v, inst.goals[a], cons, t_branch, inst.f
            )
        forbidden = set(blocked)
        forbidden.update(inst.goals[b] for b in inst.agents() if b != a)
        for b in inst.agents():
            if b == a:
                continue
            for pb in range(len(self.paths[b])):
                if self._compatible(probe, a, b, pb):
                    forbidden.update(self.paths[b][pb])
        return find_path_seq(inst.graph, branch_v, inst.goals[a], frozenset(forbidden))

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

    def resolve(self, ev: Event) -> str:
        """Resolve one event; returns "ok" or "no_backup"."""
        a = ev.effect.agent
        p = ev.effect.path
        c = ev.effect.at_index
        cands = ev.candidates()
        trigger = self._trigger_for(cands)
        watch = ev.crash.vertex
        # In syn a switch consumes the whole round: the agent lands on the
        # new path at index 1 and moves immediately, so a rule parked there
        # could never fire. A crash blocking a backup's first hop is always
        # observable one round earlier, at the slot whose rule created that
        # backup (crashed agents stay put), so the dodge is parked there,
        # ahead of the rules it guards, as a sibling of the blocked path.
        redirect = self.cfg.model == SYN and c == 2 and p != 0
        if redirect:
            pp, pc, _pcands = self.parent[a][p]
            slot_path, slot_idx = pp, pc - 1
        else:
            slot_path, slot_idx = p, c - 1
        rkey = (a, slot_path, slot_idx, watch, trigger)
        existing = self.rule_target.get(rkey)
        self.resolved.append(ev)
        if existing is not None:
            return self._extend_backup(a, existing, cands)
        if redirect:
            extra = frozenset(self._slot_blocked(a, slot_path, slot_idx, cands))
            new_path = self.find_backup_path(ev, chain_base=slot_path,
                                             extra_blocked=extra)
        else:
            new_path = self.find_backup_path(ev)
        if new_path is None:
            return "no_backup"
        np = len(self.paths[a])
        self.paths[a].append(new_path)
        self.parent[a].append((slot_path, slot_idx + 1, list(cands)))
        if self.cfg.model == SYN:
            self.entry[a].append(self.entry[a][p] + c - 2)
        else:
            self.entry[a].append(1)
        rule = TransitionRule(slot_path, slot_idx, watch, trigger, np)
        if redirect:
            group = self._slot_siblings(a, slot_path, slot_idx)
            self.rules[a].insert(group[0] if group else len(self.rules[a]), rule)
        else:
            self.rules[a].append(rule)
        self.rule_target[rkey] = np
        self._gen_events_for([(a, np)])
        return "ok"

    def _extend_backup(self, a: int, target: int, cands) -> str:
        """A later crash candidate maps onto an existing rule: widen that
        backup's assumptions and make sure it (and its descendants) stay
        collision-free against every path that now coexists with them."""
        _pp, _idx, stored = self.parent[a][target]
        add = [c for c in cands if c not in stored]
        if not add:
            return "ok"
        stored.extend(add)
        self._rev += 1
        subtree = [target]
        i = 0
        while i < len(subtree):
            for q in range(len(self.paths[a])):
                edge = self.parent[a][q]
                if edge is not None and edge[0] == subtree[i] and q not in subtree:
                    subtree.append(q)
            i += 1
        for sigma in subtree:
            alts = self._alts(a, sigma)
            for b in self.inst.agents():
                if b == a:
                    continue
                for pb in range(len(self.paths[b])):
                    if not self._compatible(alts, a, b, pb):
                        continue
                    if self._paths_conflict(a, sigma, b, pb):
                        return "no_backup"
            self._gen_events_for([(a, sigma)])
        return "ok"

    def _paths_conflict(self, a: int, pa: int, b: int, pb: int) -> bool:
        path_a, path_b = self.paths[a][pa], self.paths[b][pb]
        if self.cfg.model == SEQ:
            return bool(set(path_a) & set(path_b))
        res = Reservations()
        res.add_path(path_b, self.entry[b][pb])
        t = self.entry[a][pa]
        for k, v in enumerate(path_a):
            if res.blocked_at(v, t + k):
                return True
            if k + 1 < len(path_a) and path_a[k + 1] != v:
                if res.swap(v, path_a[k + 1], t + k):
                    return True
        return not res.free_forever(path_a[-1], t + len(path_a))

    def run_events(self) -> str:
        self._gen_events_for([(a, 0) for a in self.inst.agents()])
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
    # the budget is cpu time, not wall time, so concurrent benchmark workers
    # sharing cores mostly reach a serial run's verdicts; contention still
    # inflates cpu time, so a solve close to the budget can differ
    deadline_at = None if cfg.deadline is None else time.process_time() + cfg.deadline
    rng = random.Random(cfg.seed)
    n = inst.n_agents
    pinned = cfg.priority is not None or cfg.initial_paths is not None
    attempts_allowed = 1 if pinned else 1 + max(0, cfg.restarts)
    base_order = tuple(cfg.priority) if cfg.priority is not None else tuple(range(n))
    if cfg.priority is not None and sorted(base_order) != list(range(n)):
        raise ValueError("priority must be a permutation of the agent ids")

    last = SolveResult(status="init_paths")
    attempts = 0
    for attempt in range(attempts_allowed):
        order = base_order if attempt == 0 else tuple(rng.sample(range(n), n))
        planner = Planner(inst, cfg, deadline_at)
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
            status = planner.run_events()
        except Timeout:
            return SolveResult(
                status="timeout", attempts=attempts, runtime=time.monotonic() - t0
            )
        if status == "solved":
            return SolveResult(
                status="solved",
                solution=planner.build_solution(),
                events=tuple(planner.resolved),
                initial_paths=initial,
                attempts=attempts,
                runtime=time.monotonic() - t0,
            )
        last = SolveResult(
            status=status,
            events=tuple(planner.resolved),
            initial_paths=initial,
            attempts=attempts,
        )
    last.runtime = time.monotonic() - t0
    return last
