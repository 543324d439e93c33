"""Exhaustive verifier: accepts the reference plans, refutes broken ones."""

import dataclasses
import importlib
import random

import pytest
from oracles import find_path_seq_cuts, syn_fewest_collision_rounds, syn_survives

from mappcf.core import (
    AFD,
    CORRECT,
    CRASHED_ANON,
    NFD,
    SEQ,
    SYN,
    VACANT,
    Graph,
    Instance,
    Plan,
    Solution,
    TransitionRule,
    crashed,
    validate_instance,
    validate_solution,
)
from mappcf.dcrf import SolverConfig, solve
from mappcf.disjoint import solve_disjoint
from mappcf.execution import CORRECT_ST, Compiled, run_seq, run_syn
from mappcf.fileio import parse_map
from mappcf.gen import GiveUp, fixture, gen_well_formed, grid_graph
from mappcf.verify import (
    DEFAULT_STATE_CAP,
    _explore_seq,
    _explore_syn,
    interaction_components,
    verify,
    verify_seq,
    verify_syn,
)

verify_module = importlib.import_module("mappcf.verify")  # ``mappcf.verify`` is the function


def strip_rules(sol, agent):
    plans = list(sol.plans)
    plans[agent] = dataclasses.replace(plans[agent], rules=())
    return dataclasses.replace(sol, plans=tuple(plans))


def side_by_side(first, second):
    """Two (instance, solution) pairs on disjoint copies of their graphs.

    The first pair's agents keep their numbers; the second's vertices and
    agents (nfd triggers included) are renumbered after them.
    """
    (i1, s1), (i2, s2) = first, second
    off, shift = i1.graph.n, i1.n_agents

    def moved_rule(r):
        who = r.trigger.agent
        trigger = r.trigger if who is None else crashed(who + shift)
        return dataclasses.replace(r, watch=r.watch + off, trigger=trigger)

    def moved(plan):
        paths = tuple(tuple(v + off for v in p) for p in plan.paths)
        return Plan(paths, tuple(moved_rule(r) for r in plan.rules))

    edges = i1.graph.edges() + [(u + off, v + off) for u, v in i2.graph.edges()]
    inst = Instance(
        graph=Graph.build(off + i2.graph.n, edges),
        starts=i1.starts + tuple(v + off for v in i2.starts),
        goals=i1.goals + tuple(v + off for v in i2.goals),
        f=max(i1.f, i2.f),
    )
    return inst, Solution(s1.model, s1.fd, s1.plans + tuple(moved(p) for p in s2.plans))


def walker(model, fd):
    """One agent walking a three-vertex line on its own."""
    inst = Instance(graph=Graph.build(3, [(0, 1), (1, 2)]), starts=(0,), goals=(2,), f=0)
    return inst, Solution(model, fd, (Plan(((0, 1, 2),)),))


def explored_per_group(explore, inst, sol, f):
    """The states ``explore`` builds over every interaction group, lone
    agents included, each group verified with budget ``f``."""
    total = 0
    for ids in interaction_components(sol):
        states, ce = explore(Compiled(inst, sol), ids, f, DEFAULT_STATE_CAP)
        assert ce is None, (ids, ce)
        total += states
    return total


class TestReferenceSolutions:
    def test_two_corridor_syn(self):
        fx = fixture("fig1")
        r = verify_syn(fx.instance, fx.solutions[0], f=1)
        assert r.ok and r.status == "verified"
        assert r.states_explored == 5

    def test_two_corridor_seq(self):
        fx = fixture("fig1")
        r = verify_seq(fx.instance, fx.solutions[1], f=1)
        assert r.ok
        assert r.states_explored == 23

    def test_wait_and_watch_syn(self):
        fx = fixture("fig3")
        r = verify_syn(fx.instance, fx.solutions[0], f=1)
        assert r.ok
        assert r.states_explored == 9

    def test_three_agent_syn(self):
        fx = fixture("fig6")
        assert verify_syn(fx.instance, fx.solutions[0], f=1).states_explored == 8
        assert verify_syn(fx.instance, fx.solutions[0], f=2).states_explored == 14

    def test_hexagon_seq(self):
        fx = fixture("seq_anonymous")
        r = verify_seq(fx.instance, fx.solutions[0], f=2)
        assert r.ok
        assert r.states_explored == 287


class TestRefutations:
    def test_syn_missing_rules_collide(self):
        fx = fixture("fig1")
        r = verify_syn(fx.instance, strip_rules(fx.solutions[0], 1), f=1)
        assert r.status == "refuted"
        ce = r.counterexample
        assert ce.kind == "collision"
        assert ce.agents == (0, 1)
        assert ce.crash_times == {0: 2}

    def test_syn_witness_replays(self):
        # the returned crash pattern must actually break the run
        fx = fixture("fig1")
        broken = strip_rules(fx.solutions[0], 1)
        ce = verify_syn(fx.instance, broken, f=1).counterexample
        rr = run_syn(fx.instance, broken, ce.crash_times)
        assert rr.outcome == "collision"

    @pytest.mark.parametrize("f", [0, 1])
    def test_syn_dead_end_is_stuck(self, f):
        # agent 1's only path ends short of its goal, so it waits from the
        # start on, crash left to spend or not; agent 0 is a group apart
        fx = fixture("fig1")
        sol = Solution(SYN, AFD, (Plan(((0, 1, 2),)), Plan(((3,),))))
        r = verify_syn(fx.instance, sol, f=f)
        assert r.status == "refuted"
        ce = r.counterexample
        assert ce.kind == "stuck" and ce.agents == (1,)
        assert ce.detail == "the configuration of round 0 repeats forever if nobody else crashes"
        rr = run_syn(fx.instance, sol, ce.crash_times)
        assert rr.outcome == "stuck" and rr.stuck_agents == (1,)

    def test_syn_stuck_witness_carries_its_crash(self):
        # agent 1 dodges onto a dead end when it sees agent 0 crashed on
        # vertex 0 in round 1, so it is stuck only after that crash
        fx = fixture("fig1")
        rule = TransitionRule(from_path=0, at_index=1, watch=0, trigger=CRASHED_ANON, to_path=1)
        sol = Solution(SYN, AFD, (Plan(((0, 1, 2),)), Plan(((3, 0, 4), (3,)), (rule,))))
        assert verify_syn(fx.instance, sol, f=0).ok
        ce = verify_syn(fx.instance, sol, f=1).counterexample
        assert ce.kind == "stuck" and ce.agents == (1,) and ce.crash_times == {0: 1}
        assert run_syn(fx.instance, sol, ce.crash_times).outcome == "stuck"

    def test_seq_missing_rules_unreachable(self):
        fx = fixture("fig1")
        r = verify_seq(fx.instance, strip_rules(fx.solutions[1], 1), f=1)
        assert r.status == "refuted"
        ce = r.counterexample
        assert ce.kind == "unreachable_goal"
        assert ce.agents == (1,)
        assert ce.schedule == []  # the initial state is already doomed

    def test_syn_witness_lifts_past_a_lower_agent(self):
        fx = fixture("fig1")
        inst, sol = side_by_side(walker(SYN, AFD), (fx.instance, strip_rules(fx.solutions[0], 1)))
        r = verify_syn(inst, sol, f=1)
        assert r.status == "refuted"
        assert r.counterexample.agents == (1, 2)
        assert r.counterexample.crash_times == {1: 2}
        assert run_syn(inst, sol, r.counterexample.crash_times).outcome == "collision"

    def test_nfd_triggers_are_renumbered_per_group(self):
        # the walker shifts the hexagon's agents to 1-3, so its nfd
        # triggers name agents 1-3, which the group's slice must keep
        fx = fixture("seq_anonymous")
        inst, sol = side_by_side(walker(SEQ, NFD), (fx.instance, fx.solutions[0]))
        assert interaction_components(sol) == [(0,), (1, 2, 3)]
        assert verify_seq(inst, sol, f=2).ok
        anon = dataclasses.replace(sol, fd=AFD, plans=tuple(
            dataclasses.replace(p, rules=tuple(
                dataclasses.replace(r, trigger=CRASHED_ANON) for r in p.rules))
            for p in sol.plans))
        r = verify_seq(inst, anon, f=2)
        assert r.status == "refuted"
        assert run_seq(inst, anon, r.counterexample.schedule
                       + (r.counterexample.cycle or []) * 3).outcome == "stuck"

    def test_watching_a_vertex_joins_groups(self):
        # agent 1 never shares a vertex with agent 0, but seeing it on 0
        # sends agent 1 onto a path that never reaches its goal
        g = Graph.build(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        inst = Instance(graph=g, starts=(0, 3), goals=(2, 4), f=0)
        rule = TransitionRule(from_path=0, at_index=1, watch=0, trigger=CORRECT, to_path=1)
        sol = Solution(SEQ, NFD, (Plan(((0, 1, 2),)), Plan(((3, 4), (3,)), (rule,))))
        assert interaction_components(sol) == [(0, 1)]
        r = verify_seq(inst, sol)
        assert r.status == "refuted" and r.counterexample.agents == (1,)

    def test_budget_zero_accepts_more(self):
        # without crashes the stripped plans are fine: nobody detours
        fx = fixture("fig1")
        assert verify_syn(fx.instance, strip_rules(fx.solutions[0], 1), f=0).ok

    def test_structurally_broken_raises(self):
        fx = fixture("fig1")
        sol = fx.solutions[0]
        plans = (sol.plans[0],)  # wrong plan count
        with pytest.raises(ValueError):
            verify_syn(fx.instance, dataclasses.replace(sol, plans=plans), f=1)


class TestFairLivelock:
    def build(self, with_shuttle):
        # A walks 0-1-2; B shuttles 1<->4 as long as it sees A on 0.
        # A scheduler that only lets A move while B parks on 1 is fair
        # but nobody ever finishes.
        g = Graph.build(6, [(0, 1), (1, 2), (0, 4), (1, 4), (4, 5), (1, 5)])
        inst = Instance(graph=g, starts=(0, 1), goals=(2, 5), f=0)
        rules = ()
        paths = ((1, 4, 5),)
        if with_shuttle:
            paths = ((1, 4, 5), (4, 1, 5))
            rules = (
                TransitionRule(from_path=0, at_index=2, watch=0, trigger=CORRECT, to_path=1),
                TransitionRule(from_path=1, at_index=2, watch=0, trigger=CORRECT, to_path=0),
            )
        sol = Solution(
            model=SEQ,
            fd=NFD,
            plans=(Plan(paths=((0, 1, 2),)), Plan(paths=paths, rules=rules)),
        )
        assert validate_instance(inst) == []
        assert validate_solution(inst, sol) == []
        return inst, sol

    def test_shuttle_livelocks(self):
        inst, sol = self.build(with_shuttle=True)
        r = verify_seq(inst, sol, f=0)
        assert r.status == "refuted"
        ce = r.counterexample
        assert ce.kind == "livelock"
        assert ce.cycle, "livelock witness must carry a cycle"
        assert {a for _, a in ce.cycle} == {0, 1}  # the cycle is fair
        assert r.states_explored == 7

    def test_without_shuttle_verifies(self):
        inst, sol = self.build(with_shuttle=False)
        assert verify_seq(inst, sol, f=0).ok

    def test_livelock_cycle_replays(self):
        inst, sol = self.build(with_shuttle=True)
        ce = verify_seq(inst, sol, f=0).counterexample
        # run prefix plus a few laps of the cycle: nobody may finish
        r = run_seq(inst, sol, list(ce.schedule) + list(ce.cycle) * 3)
        assert r.outcome == "stuck"

    def test_livelock_lifts_fairly_over_other_groups(self):
        # agent 0 walks on its own and finishes; agents 3 and 4 face each
        # other on one edge and never move. The shuttle's cycle must still
        # activate every pending agent of the whole instance.
        line = Graph.build(2, [(0, 1)])
        facing = (
            Instance(graph=line, starts=(0, 1), goals=(1, 0), f=0),
            Solution(SEQ, NFD, (Plan(((0, 1),)), Plan(((1, 0),)))),
        )
        inst, sol = side_by_side(walker(SEQ, NFD), self.build(with_shuttle=True))
        inst, sol = side_by_side((inst, sol), facing)
        assert interaction_components(sol) == [(0,), (1, 2), (3, 4)]
        r = verify_seq(inst, sol, f=0)
        assert r.status == "refuted"
        ce = r.counterexample
        assert ce.kind == "livelock" and ce.agents == (1, 2)
        assert run_seq(inst, sol, ce.schedule + ce.cycle * 3).outcome == "stuck"
        pending = {a for a, st in enumerate(run_seq(inst, sol, ce.schedule).states)
                   if st.status == CORRECT_ST}
        assert pending == {1, 2, 3, 4}
        assert {a for _, a in ce.cycle} == pending


class TestGuards:
    def test_syn_cap(self):
        fx = fixture("fig6")
        r = verify(fx.instance, fx.solutions[0], f=1, state_cap=2)
        assert r.status == "too_large"
        assert r.counterexample is None and not r.ok

    def test_seq_cap(self):
        fx = fixture("seq_anonymous")
        r = verify(fx.instance, fx.solutions[0], f=2, state_cap=2)
        assert r.status == "too_large"

    def test_seq_explores_16x16_plans(self, data_dir):
        # the product of path lengths (5.8e8) is far above the cap, but
        # the six agents are six groups of a few dozen states each
        g = parse_map((data_dir / "random-16-16-10.map").read_text())
        inst = gen_well_formed(g, 6, 2, 2)
        res = solve(inst, SolverConfig(model=SEQ, fd=NFD, seed=2))
        assert res.status == "solved"
        assert explored_per_group(_explore_seq, inst, res.solution, inst.f) == 164
        # each group is a lone agent on its primary, decided by inspection
        r = verify(inst, res.solution)
        assert r.ok and r.states_explored == 0

    def test_cap_bounds_the_total_over_groups(self):
        fx = fixture("seq_anonymous")
        inst, sol = side_by_side(walker(SEQ, NFD), (fx.instance, fx.solutions[0]))
        assert explored_per_group(_explore_seq, inst, sol, 2) > 287
        # the walker is decided by inspection, so only seq_anonymous counts
        assert verify_seq(inst, sol, f=2).states_explored == 287
        # two explored groups: seq_anonymous side by side with itself
        anon = (fx.instance, fx.solutions[0])
        inst, sol = side_by_side(anon, anon)
        assert len(interaction_components(sol)) == 2
        full = verify_seq(inst, sol, f=2)
        assert full.ok and full.states_explored > 287
        assert full.states_explored == explored_per_group(_explore_seq, inst, sol, 2) == 574
        assert verify_seq(inst, sol, f=2, state_cap=full.states_explored).ok
        r = verify_seq(inst, sol, f=2, state_cap=290)
        assert r.status == "too_large" and r.states_explored > 290

    def test_dispatcher_uses_solution_model(self):
        fx = fixture("fig1")
        assert verify(fx.instance, fx.solutions[0], f=1).ok
        assert verify(fx.instance, fx.solutions[1], f=1).ok

    def test_each_checker_refuses_the_other_model(self):
        # fig1's seq plan would pass verify_syn and its syn plan fail
        # verify_seq, each judged by the rules of the wrong model
        fx = fixture("fig1")
        syn_sol, seq_sol = fx.solutions
        assert (syn_sol.model, seq_sol.model) == (SYN, SEQ)
        with pytest.raises(ValueError, match="verify_syn checks syn solutions, not 'seq' ones"):
            verify_syn(fx.instance, seq_sol)
        with pytest.raises(ValueError, match="verify_seq checks seq solutions, not 'syn' ones"):
            verify_seq(fx.instance, syn_sol)

    def test_default_f_from_instance(self):
        fx = fixture("fig1")
        assert verify(fx.instance, fx.solutions[0]).f == 1

    @pytest.mark.parametrize("check", [verify, verify_syn, verify_seq])
    @pytest.mark.parametrize("f, state_cap, named", [
        (-1, DEFAULT_STATE_CAP, "f must be None or an int >= 0, got -1"),
        (1.0, DEFAULT_STATE_CAP, "f must be None or an int >= 0, got 1.0"),
        (True, DEFAULT_STATE_CAP, "f must be None or an int >= 0, got True"),
        (1, -4, "state_cap must be an int >= 0, got -4"),
        (None, None, "state_cap must be an int >= 0, got None"),
    ])
    def test_bad_budget_or_cap_is_an_error(self, check, f, state_cap, named):
        fx = fixture("fig1")
        with pytest.raises(ValueError, match=named):
            check(fx.instance, fx.solutions[0], f=f, state_cap=state_cap)


class TestGroupsAgreeWithWholeInstance:
    def test_split_verdicts_equal_single_group_verdicts(self):
        # every plan is checked at each f from 0 to inst.f, once split into
        # interaction groups and once with the whole instance as one group
        cells = [(c, r) for r in range(4) for c in range(4)]
        cases = refuted = split = split_refuted = 0

        def check(inst, sol):
            nonlocal cases, refuted, split, split_refuted
            whole = _explore_syn if sol.model == SYN else _explore_seq
            groups = len(interaction_components(sol))
            for f in range(inst.f + 1):
                _, ce = whole(Compiled(inst, sol), tuple(inst.agents()), f, DEFAULT_STATE_CAP)
                r = verify(inst, sol, f=f)
                assert r.status == ("verified" if ce is None else "refuted"), (inst, sol, f)
                cases += 1
                split += groups > 1
                if ce is None:
                    continue
                refuted += 1
                split_refuted += groups > 1
                w = r.counterexample
                if sol.model == SYN:
                    out = run_syn(inst, sol, w.crash_times)
                else:
                    out = run_seq(inst, sol, w.schedule + (w.cycle or []) * 3)
                assert out.outcome != "arrived", (inst, sol, f, w)

        for seed in range(250):
            rng = random.Random(seed)
            g = grid_graph(4, 4, obstacles=frozenset(rng.sample(cells, 3)))
            try:
                inst = gen_well_formed(g, rng.randint(2, 4), rng.randint(1, 2), seed,
                                       max_tries=200)
            except GiveUp:
                continue
            for model in (SYN, SEQ):
                for fd in (NFD, AFD):
                    res = solve(inst, SolverConfig(model=model, fd=fd, seed=seed, deadline=10.0))
                    if res.solution is None:
                        continue
                    check(inst, res.solution)
                    bare = dataclasses.replace(res.solution, plans=tuple(
                        Plan(p.paths[:1]) for p in res.solution.plans))
                    if bare != res.solution:
                        check(inst, bare)
            # overlapping primaries, which solve refuses under seq
            paths = [find_path_seq_cuts(g, inst.starts[a], inst.goals[a],
                                        frozenset(inst.goals) - {inst.goals[a]})[0]
                     for a in inst.agents()]
            if None not in paths:
                check(inst, Solution(SEQ, NFD, tuple(Plan((p,)) for p in paths)))
        assert cases >= 2000
        assert refuted >= 100 and split >= 200 and split_refuted >= 50


def quiet_later_watch(trigger_rules, primary):
    """Agent 0 walks 0-1-2-3; agent 1 stands on 4 after round 2 and checks
    vertex 2 in round 3, where agent 0 stands then if nobody crashes."""
    g = Graph.build(8, [(0, 1), (1, 2), (2, 3), (6, 4), (4, 2), (4, 7)])
    inst = Instance(graph=g, starts=(0, 6), goals=(3, 7), f=1)
    rules = tuple(TransitionRule(from_path=0, at_index=3, watch=2, trigger=t, to_path=p)
                  for t, p in trigger_rules)
    paths = (primary, (4,), (4, 7))
    return inst, Solution(SYN, NFD, (Plan(((0, 1, 2, 3),)), Plan(paths, rules)))


def quiet_crash_vertex():
    """Agent 1 checks vertex 1 in round 2, while agent 0 passes it, and
    dodges onto a dead end if agent 0 lies crashed there."""
    g = Graph.build(6, [(0, 1), (1, 2), (4, 3), (3, 5), (1, 3)])
    inst = Instance(graph=g, starts=(0, 4), goals=(2, 5), f=1)
    rule = TransitionRule(from_path=0, at_index=2, watch=1, trigger=crashed(0), to_path=1)
    return inst, Solution(SYN, NFD, (Plan(((0, 1, 2),)), Plan(((4, 3, 5), (3,)), (rule,))))


def quiet_late_visit():
    """Agent 1 walks through vertex 0 three rounds after agent 0 left it."""
    g = Graph.build(6, [(0, 1), (2, 3), (3, 4), (4, 0), (0, 5)])
    inst = Instance(graph=g, starts=(0, 2), goals=(1, 5), f=1)
    return inst, Solution(SYN, NFD, (Plan(((0, 1),)), Plan(((2, 3, 4, 0, 5),))))


def quiet_then_loud(f):
    """Agent 0 steps off vertex 0 in round 1 and nobody looks there again,
    unless agent 1 is seen crashed on vertex 4 in round 3: then agent 2
    dodges through vertex 0."""
    g = Graph.build(10, [(0, 1), (2, 3), (3, 4), (4, 5), (7, 8), (8, 6), (6, 9),
                         (6, 4), (6, 0), (0, 9)])
    inst = Instance(graph=g, starts=(0, 2, 7), goals=(1, 5, 9), f=f)
    rule = TransitionRule(from_path=0, at_index=3, watch=4, trigger=crashed(1), to_path=1)
    return inst, Solution(SYN, NFD, (
        Plan(((0, 1),)),
        Plan(((2, 3, 4, 5),)),
        Plan(((7, 8, 6, 9), (6, 0, 9)), (rule,)),
    ))


class TestSkippedCrashesAgainstCrashTree:
    """The synchronous explorer skips crash steps nobody can notice; the
    crash-tree oracle branches on every crash set and skips nothing."""

    def check(self, inst, sol, f):
        """``verify_syn`` agrees with the oracles: the verdict, and a
        collision whenever one can happen, in the fewest rounds."""
        r = verify_syn(inst, sol, f=f)
        assert r.ok == syn_survives(inst, sol, f), (inst, sol, f)
        if not r.ok:
            ce = r.counterexample
            out = run_syn(inst, sol, ce.crash_times)
            assert out.outcome == ce.kind, (inst, sol, f, ce)
            rounds = syn_fewest_collision_rounds(inst, sol, f)
            assert (ce.kind == "collision") == (rounds is not None), (inst, sol, f, ce)
            assert rounds is None or out.steps == rounds, (inst, sol, f, ce)
        return r

    @pytest.mark.parametrize("trigger_rules, primary", [
        (((VACANT, 1),), (6, 6, 4, 7)),  # vacant: a dead end
        (((CORRECT, 2), (crashed(0), 2)), (6, 6, 4)),  # anything but vacant: the goal
    ])
    def test_rule_watching_where_the_crashed_agent_would_pass(self, trigger_rules, primary):
        # agent 0 crashing in round 1 or 2 leaves vertex 2 vacant when
        # agent 1 looks; crashing in round 3 on vertex 2 is harmless
        inst, sol = quiet_later_watch(trigger_rules, primary)
        assert verify_syn(inst, sol, f=0).ok
        ce = self.check(inst, sol, 1).counterexample
        assert ce.kind == "stuck" and ce.agents == (1,) and ce.crash_times == {0: 1}

    def test_rule_watching_the_crash_vertex(self):
        inst, sol = quiet_crash_vertex()
        ce = self.check(inst, sol, 1).counterexample
        assert ce.kind == "stuck" and ce.crash_times == {0: 2}

    def test_survivor_walks_onto_the_crash_vertex_later(self):
        inst, sol = quiet_late_visit()
        ce = self.check(inst, sol, 1).counterexample
        assert ce.kind == "collision" and ce.agents == (0, 1) and ce.crash_times == {0: 1}

    def test_crashes_explored_where_the_crash_free_run_is_stuck(self):
        # agent 0 stops short of its goal, so the crash-free run is stuck;
        # crashing agent 0 in round 1 still ends in the sooner collision
        inst, sol = quiet_late_visit()
        g = Graph.build(7, inst.graph.edges() + [(1, 6)])
        inst = dataclasses.replace(inst, graph=g, goals=(6, 5))
        assert verify_syn(inst, sol, f=0).counterexample.kind == "stuck"
        ce = self.check(inst, sol, 1).counterexample
        assert ce.kind == "collision" and ce.crash_times == {0: 1}

    def test_crash_set_below_the_budget(self):
        # the round-1 crash of agent 0 alone changes nothing, but it must
        # still be explored while a second crash is left
        assert self.check(*quiet_then_loud(1), 1).ok
        ce = self.check(*quiet_then_loud(2), 2).counterexample
        assert ce.kind == "collision" and ce.crash_times == {0: 1, 1: 3}

    def test_lone_agent_steps_once_per_state(self, monkeypatch):
        # crashing a group's last correct agent settles it, so that step is
        # never taken, and a one-agent group never runs its crash-free run
        # ahead: each state takes only its crash-free step
        calls = []
        step_syn = verify_module.step_syn

        def counting(*args):
            calls.append(args)
            return step_syn(*args)

        monkeypatch.setattr(verify_module, "step_syn", counting)
        inst, sol = walker(SYN, NFD)
        inst = dataclasses.replace(inst, f=1)
        assert _explore_syn(Compiled(inst, sol), (0,), 1, DEFAULT_STATE_CAP) == (2, None)
        assert len(calls) == 2
        # verify decides the lone walker by inspection, without a step
        calls.clear()
        r = verify_syn(inst, sol)
        assert r.ok and r.states_explored == 0 and not calls

    def test_verdicts_equal_the_crash_tree(self):
        # dcrf plans, the same plans with one rule dropped, and the bare
        # primaries, at f from 0 to 2 under both detectors
        cases = refuted = mutants = 0
        for inst, s, mutant in crash_tree_plans():
            mutants += mutant
            for f in range(3):
                cases += 1
                refuted += not self.check(inst, s, f).ok
        assert cases >= 1000 and refuted >= 250 and mutants >= 80


def crash_tree_instances():
    """(seed, instance) on seeded 4x4 grids with 3-5 agents and f 1-2."""
    cells = [(c, r) for r in range(4) for c in range(4)]
    for seed in range(300):
        rng = random.Random(seed)
        g = grid_graph(4, 4, obstacles=frozenset(rng.sample(cells, 3)))
        try:
            inst = gen_well_formed(g, rng.randint(3, 5), rng.randint(1, 2), seed, max_tries=200)
        except GiveUp:
            continue
        yield seed, inst


def crash_tree_plans():
    """(instance, syn solution, whether it is a mutant) of the crash-tree
    sweep: dcrf plans under both detectors, then their bare primaries,
    then each plan with one rule dropped (the mutants)."""
    for seed, inst in crash_tree_instances():
        for fd in (NFD, AFD):
            res = solve(inst, SolverConfig(model=SYN, fd=fd, seed=seed, deadline=10.0))
            if res.solution is None:
                continue
            sol = res.solution
            yield inst, sol, False
            bare = dataclasses.replace(sol, plans=tuple(Plan(p.paths[:1]) for p in sol.plans))
            if bare != sol:
                yield inst, bare, False
            for a, plan in enumerate(sol.plans):
                for i in range(len(plan.rules)):
                    plans = list(sol.plans)
                    plans[a] = dataclasses.replace(plan, rules=plan.rules[:i] + plan.rules[i + 1:])
                    yield inst, dataclasses.replace(sol, plans=tuple(plans)), True


def verify_exploring_all(monkeypatch, inst, sol, f):
    """``verify`` with every group explored, lone agents included."""
    with monkeypatch.context() as m:
        m.setattr(verify_module, "_walks_alone", lambda *args: False)
        return verify(inst, sol, f=f)


def lone_plan(model, fd, primary, rule=None):
    """A walker (agent 0) on the line 5-6-7, and agent 1 on the line
    0-1-2-3 with goal 3 and a dead end 1-4. ``rule`` is parked at vertex 1
    of agent 1's primary, watches vertex 2 and switches to path 1, which
    ends at the goal when the primary does not and at the dead end when
    it does. The two agents are two groups."""
    g = Graph.build(8, [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6), (6, 7)])
    inst = Instance(graph=g, starts=(5, 0), goals=(7, 3), f=1)
    rules = paths = ()
    if rule is not None:
        paths = ((1, 4),) if primary[-1] == 3 else ((1, 2, 3),)
        rules = (TransitionRule(from_path=0, at_index=2, watch=2, trigger=rule, to_path=1),)
    return inst, Solution(model, fd, (Plan(((5, 6, 7),)), Plan((primary,) + paths, rules)))


class TestLoneAgentsDecidedByInspection:
    """``verify`` decides a lone agent that walks its primary to its goal
    with no vacant rule without exploring; exploring must agree."""

    def test_decided_groups_verify_when_explored(self, monkeypatch):
        # the crash-tree sweep's syn plans, and dcrf seq and disjoint plans
        # of both models on the same instances, at f from 0 to 2
        def plans():
            for inst, sol, _ in crash_tree_plans():
                yield inst, sol
            for seed, inst in crash_tree_instances():
                for fd in (NFD, AFD):
                    res = solve(inst, SolverConfig(model=SEQ, fd=fd, seed=seed, deadline=10.0))
                    if res.solution is not None:
                        yield inst, res.solution
                for model in (SYN, SEQ):
                    res = solve_disjoint(inst, model, NFD, deadline=10.0)
                    if res.solution is not None:
                        yield inst, res.solution

        cases = decided = refuted = 0
        for inst, sol in plans():
            explore = _explore_syn if sol.model == SYN else _explore_seq
            lone = [ids for ids in interaction_components(sol) if len(ids) == 1]
            for f in range(3):
                r = verify(inst, sol, f=f)
                whole = verify_exploring_all(monkeypatch, inst, sol, f)
                assert (r.status, r.counterexample) == (whole.status, whole.counterexample)
                cases += 1
                refuted += not r.ok
                for ids in lone:
                    if verify_module._walks_alone(inst, sol, ids[0]):
                        decided += 1
                        _, ce = explore(Compiled(inst, sol), ids, f, DEFAULT_STATE_CAP)
                        assert ce is None, (inst, sol, ids, f)
        assert cases >= 2000 and refuted >= 250 and decided >= 5000

    def test_plans_of_lone_walkers_are_never_compiled(self, monkeypatch):
        # disjoint plans and seq dcrf plans are lone agents on their
        # primaries, so verify decides them without compiling the plan
        def no_compile(*args):
            raise AssertionError("compiled a plan of lone walkers")

        monkeypatch.setattr(verify_module, "Compiled", no_compile)
        for seed, inst in crash_tree_instances():
            plans = [solve_disjoint(inst, model, NFD, deadline=10.0).solution
                     for model in (SYN, SEQ)]
            plans.append(solve(inst, SolverConfig(model=SEQ, fd=NFD, seed=seed)).solution)
            if None not in plans:
                break
        for sol in plans:
            assert len(interaction_components(sol)) == inst.n_agents
            r = verify(inst, sol)
            assert r.ok and r.states_explored == 0

    @pytest.mark.parametrize("model", [SYN, SEQ])
    @pytest.mark.parametrize("fd, rule", [(AFD, CRASHED_ANON), (NFD, crashed(0))])
    def test_rules_that_never_fire_alone_are_decided(self, monkeypatch, model, fd, rule):
        # an anonymous crash, or a named crash of an agent in another
        # group, never shows at a lone agent's watched vertex
        inst, sol = lone_plan(model, fd, (0, 1, 2, 3), rule)
        r = verify(inst, sol, f=1)
        assert r.ok and r.states_explored == 0
        assert verify_exploring_all(monkeypatch, inst, sol, 1).ok

    @pytest.mark.parametrize("model, kind, replay", [
        (SYN, "stuck", {}),
        (SEQ, "unreachable_goal", []),
    ])
    @pytest.mark.parametrize("fd, primary, rule", [
        (NFD, (0, 1, 2), None),  # the primary stops short of its goal
        (NFD, (0, 1, 2, 3), VACANT),  # a vacant rule turns into the dead end
        (AFD, (0, 1, 2), CRASHED_ANON),  # the rule to the goal never fires
        (NFD, (0, 1, 2), crashed(0)),  # it names the walker, in another group
    ])
    def test_damaged_lone_plans_are_explored_and_refuted(
            self, monkeypatch, model, kind, replay, fd, primary, rule):
        inst, sol = lone_plan(model, fd, primary, rule)
        r = verify(inst, sol, f=1)
        whole = verify_exploring_all(monkeypatch, inst, sol, 1)
        assert r.status == whole.status == "refuted"
        assert r.counterexample == whole.counterexample and r.reason == whole.reason
        ce = r.counterexample
        assert ce.kind == kind and ce.agents == (1,)
        assert (ce.crash_times if model == SYN else ce.schedule) == replay
        # only the walker's states are gone from the count
        assert 0 < r.states_explored < whole.states_explored
        out = run_syn(inst, sol, ce.crash_times) if model == SYN else run_seq(inst, sol, ce.schedule)
        assert out.outcome != "arrived"
