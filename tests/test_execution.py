"""Runtime semantics: stepping, observations, crashes, full runs."""

import dataclasses

import pytest
from oracles import init_states, observe, occupancy, vertex_of

from mappcf.core import AFD, NFD, SEQ, SYN, Plan, Solution, crashed
from mappcf.execution import Compiled, run, run_seq, run_syn
from mappcf.gen import fixture


@pytest.fixture()
def fig1():
    fx = fixture("fig1")
    return fx.instance, fx.solutions[0], fx.solutions[1]


class TestInitAndObserve:
    def test_initial_states(self, fig1):
        inst, syn, _ = fig1
        cp = Compiled(inst, syn)
        sts = cp.decode(cp.init)
        assert [vertex_of(syn, a, st) for a, st in enumerate(sts)] == [0, 3]
        assert all(st.progress == 1 and st.status == "correct" for st in sts)

    def test_occupancy(self, fig1):
        inst, syn, _ = fig1
        occ = occupancy(syn, init_states(inst, syn))
        assert occ == {0: (0, "correct"), 3: (1, "correct")}

    def test_observe_neighbors_only(self, fig1):
        inst, syn, _ = fig1
        sts = init_states(inst, syn)
        obs = observe(inst, syn, sts, 1)
        assert sorted(obs) == [0, 1]  # start 3 is adjacent to 0 and 1
        assert obs[0].kind == "correct"
        assert obs[1].kind == "vacant"

    def test_nfd_names_the_crashed(self, fig1):
        inst, syn, _ = fig1
        sts = list(init_states(inst, syn))
        sts[0] = sts[0]._replace(status="crashed")
        nfd_sol = dataclasses.replace(syn, fd=NFD)
        assert observe(inst, nfd_sol, tuple(sts), 1)[0] == crashed(0)
        assert observe(inst, syn, tuple(sts), 1)[0] == crashed()  # afd stays anonymous


class TestRunSyn:
    def test_no_crash(self, fig1):
        inst, syn, _ = fig1
        r = run_syn(inst, syn, {})
        assert r.ok and r.outcome == "arrived"
        assert r.steps == 3
        assert [vertex_of(syn, a, st) for a, st in enumerate(r.states)] == [2, 4]
        assert all(st.status == "done" for st in r.states)

    def test_crash_at_start_takes_first_detour(self, fig1):
        inst, syn, _ = fig1
        r = run_syn(inst, syn, {0: 1})
        assert r.outcome == "arrived" and r.steps == 2
        assert [st.path for st in r.states] == [0, 1]
        assert vertex_of(syn, 1, r.states[1]) == 4

    def test_crash_midway_takes_second_detour(self, fig1):
        inst, syn, _ = fig1
        r = run_syn(inst, syn, {0: 2})
        assert r.outcome == "arrived" and r.steps == 3
        assert [st.path for st in r.states] == [0, 2]
        assert vertex_of(syn, 0, r.states[0]) == 1  # wreck stays where it fell

    def test_rules_removed_means_collision(self, fig1):
        inst, syn, _ = fig1
        plans = list(syn.plans)
        plans[1] = dataclasses.replace(plans[1], rules=())
        bare = dataclasses.replace(syn, plans=tuple(plans))
        r = run_syn(inst, bare, {0: 2})
        assert r.outcome == "collision" and r.steps == 2
        assert r.collision.kind == "vertex"
        assert r.collision.agents == (0, 1) and r.collision.where == (1,)

    def test_missing_late_rule_still_collides(self, fig1):
        inst, syn, _ = fig1
        plans = list(syn.plans)
        plans[1] = dataclasses.replace(plans[1], rules=plans[1].rules[:1])
        r = run_syn(inst, dataclasses.replace(syn, plans=tuple(plans)), {0: 2})
        assert r.outcome == "collision"

    def test_dead_end_primary_is_stuck(self, fig1):
        inst, _, _ = fig1
        sol = Solution(
            model=SYN,
            fd=AFD,
            plans=(Plan(paths=((0, 1, 2),)), Plan(paths=((3,),))),
        )
        r = run_syn(inst, sol, {})
        assert r.outcome == "stuck" and r.steps == 3
        assert r.stuck_agents == (1,)
        assert not r.ok

    def test_trace_is_recorded(self, fig1):
        inst, syn, _ = fig1
        r = run_syn(inst, syn, {0: 2})
        text = r.trace.text()
        assert "crash" in text

    def test_trace_names_the_fired_rule(self, fig1):
        inst, syn, _ = fig1
        r = run_syn(inst, syn, {0: 2})
        switches = [ln for ln in r.trace.lines if " switch " in ln]
        assert switches == ["[t=2] switch agent=1 path=0@2 watch=1 saw=crashed to=2"]

    def test_trace_configs_tell_crashed_from_correct(self, fig1):
        inst, syn, _ = fig1
        r = run_syn(inst, syn, {0: 2})
        configs = [ln for ln in r.trace.lines if "] at " in ln]
        assert configs == ["[t=0] at 0:0/c 1:3/c", "[t=1] at 0:1/c 1:3/c",
                           "[t=2] at 0:1/x 1:0/c", "[t=3] at 0:1/x 1:4/d"]


class TestRunSeq:
    def test_vacant_branch(self, fig1):
        inst, _, seq = fig1
        sched = [("activate", 0)] * 3 + [("activate", 1)] * 3
        r = run_seq(inst, seq, sched)
        assert r.outcome == "arrived" and r.steps == 6
        assert [st.path for st in r.states] == [0, 2]

    def test_crash_branch(self, fig1):
        inst, _, seq = fig1
        r = run_seq(inst, seq, [("crash", 0)] + [("activate", 1)] * 3)
        assert r.outcome == "arrived" and r.steps == 4
        assert [st.path for st in r.states] == [0, 1]

    def test_trace_names_the_fired_rule(self, fig1):
        inst, _, seq = fig1
        r = run_seq(inst, seq, [("crash", 0)] + [("activate", 1)] * 3)
        switches = [ln for ln in r.trace.lines if " switch " in ln]
        assert switches == ["[#2] switch agent=1 path=0@1 watch=0 saw=crashed to=1"]

    def test_crash_beyond_the_budget_is_noted(self, fig1):
        # fig1 has f=1; the run goes on past the budget and notes the excess
        inst, _, seq = fig1
        r = run_seq(inst, seq, [("activate", 1), ("crash", 0), ("crash", 1)])
        assert r.outcome == "arrived" and r.stuck_agents == ()
        assert [st.status for st in r.states] == ["crashed", "crashed"]
        warnings = [ln for ln in r.trace.lines if "warning" in ln]
        assert warnings == ["[#3] warning: crash count 2 exceeds budget f=1"]

    def test_early_activation_fires_nothing(self, fig1):
        # j looks while i still sits on 0: neither rule matches, j stays
        inst, _, seq = fig1
        sched = [("activate", 1), ("activate", 0), ("activate", 1)]
        sched += [("activate", 0)] * 2 + [("activate", 1)] * 3
        r = run_seq(inst, seq, sched)
        assert r.outcome == "arrived" and r.steps == 8
        assert [st.path for st in r.states] == [0, 2]

    def test_blocked_move_is_noop(self, fig1):
        inst, _, _ = fig1
        sol = Solution(
            model=SEQ,
            fd=AFD,
            plans=(Plan(paths=((0, 1, 2),)), Plan(paths=((3, 1, 4),))),
        )
        r = run_seq(inst, sol, [("activate", 0), ("crash", 0), ("activate", 1), ("activate", 1)])
        assert r.outcome == "stuck"
        assert [st.progress for st in r.states] == [2, 1]
        assert r.stuck_agents == (1,)

    def test_crashed_blocker_gone_is_arrival(self, fig1):
        # i crashes on its own start; j detours around it
        inst, _, _ = fig1
        sol = Solution(
            model=SEQ,
            fd=AFD,
            plans=(Plan(paths=((0, 1, 2),)), Plan(paths=((3, 1, 4),))),
        )
        r = run_seq(inst, sol, [("crash", 0), ("activate", 1), ("activate", 1)])
        assert r.outcome == "arrived"
        assert [st.progress for st in r.states] == [1, 3]

    def test_wait_step_rejected(self, fig1):
        inst, _, _ = fig1
        sol = Solution(
            model=SEQ,
            fd=AFD,
            plans=(Plan(paths=((0, 1, 2),)), Plan(paths=((3, 3, 1, 4),))),
        )
        with pytest.raises(ValueError):
            run_seq(inst, sol, [("activate", 1)])


class TestDispatcher:
    def test_run_routes_by_model(self, fig1):
        inst, syn, seq = fig1
        r = run(inst, syn, {0: 1})
        assert r.outcome == "arrived"
        r = run(inst, seq, [("crash", 0)] + [("activate", 1)] * 3)
        assert r.outcome == "arrived"

    def test_each_runner_refuses_the_other_model(self, fig1):
        # a syn plan stepped under seq rules would take a wait for a move
        # in place; each runner checks the model before it compiles
        inst, syn, seq = fig1
        with pytest.raises(ValueError, match="run_seq runs sequential"):
            run_seq(inst, syn, [("activate", 1)] * 4)
        with pytest.raises(ValueError, match="run_syn runs synchronous"):
            run_syn(inst, seq, {})
