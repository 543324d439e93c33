"""Core data model: graphs, instances, observations, plan validation."""

import dataclasses
import random

import pytest

from mappcf import core
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
    Observation,
    Plan,
    Solution,
    bfs_distances,
    check_necessary,
    crashed,
    mask_vertices,
    normalized_cost,
    reachable,
    solution_cost,
    validate_instance,
    validate_solution,
    vertex_mask,
)
from mappcf.fileio import parse_map
from mappcf.gen import fixture, gen_well_formed, random_grid_map
from mappcf.verify import verify
from oracles import necessary_condition, untidy


def path_graph(k):
    return Graph.build(k, [(i, i + 1) for i in range(k - 1)])


def with_plan(sol, a, plan):
    """``sol`` with agent a's plan replaced by ``plan``."""
    plans = list(sol.plans)
    plans[a] = plan
    return dataclasses.replace(sol, plans=tuple(plans))


def with_rule(sol, **change):
    """``sol`` with agent 1's first rule changed."""
    plan = sol.plans[1]
    rules = (dataclasses.replace(plan.rules[0], **change),) + plan.rules[1:]
    return with_plan(sol, 1, dataclasses.replace(plan, rules=rules))


class TestGraph:
    def test_build_dedupes_and_sorts(self):
        g = Graph.build(4, [(1, 0), (0, 1), (2, 1), (2, 3)])
        assert g.adj[0] == (1,)
        assert g.adj[1] == (0, 2)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_build_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(1, 1)])

    def test_build_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(0, 3)])

    @pytest.mark.parametrize("n, edges, coords, message", [
        (-1, [], None, "vertex count must be non-negative"),
        (3, [(0, 1, 2)], None, r"edge \(0, 1, 2\) is not a pair"),
        (3, [(0, 1)], ((0, 0), (1, 0)), "coords length must equal vertex count"),
    ], ids=["negative-n", "edge-not-a-pair", "coords-length"])
    def test_build_refusals(self, n, edges, coords, message):
        with pytest.raises(ValueError, match=message):
            Graph.build(n, edges, coords=coords)

    def test_undirected_symmetry(self):
        g = Graph.build(3, [(0, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_directed_one_way(self):
        g = Graph.build(3, [(0, 1), (1, 2)], directed=True)
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)
        assert g.adj[2] == ()

    def test_edges_listed_once(self):
        g = Graph.build(3, [(2, 0), (0, 1)])
        assert g.edges() == [(0, 1), (0, 2)]

    def test_reverse_turns_every_edge_around(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 12)
            edges = {(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.3}
            g = Graph.build(n, sorted(edges), directed=True)
            rev = g.reverse
            assert rev.directed and rev.n == n
            assert rev.adj == tuple(tuple(sorted(u for u, v in edges if v == w))
                                    for w in range(n))
            assert g.reverse is rev  # built once per graph
            assert rev.reverse == g
            und = Graph.build(n, sorted(edges))
            assert und.reverse is und


class TestVertexMask:
    def test_round_trip_is_ascending(self):
        rng = random.Random(3)
        for _ in range(200):
            vs = rng.sample(range(300), rng.randrange(20))
            mask = vertex_mask(vs)
            assert mask.bit_count() == len(vs)
            assert mask_vertices(mask) == sorted(vs)
        assert vertex_mask(()) == 0 and mask_vertices(0) == []


class TestBfs:
    def test_line_distances(self):
        g = path_graph(5)
        assert bfs_distances(g, 0) == [0, 1, 2, 3, 4]

    def test_blocked_vertex_cuts(self):
        g = path_graph(5)
        assert bfs_distances(g, 0, blocked=frozenset({2})) == [0, 1, -1, -1, -1]

    def test_blocked_source_reaches_nothing(self):
        g = path_graph(3)
        assert bfs_distances(g, 0, blocked=frozenset({0})) == [-1, -1, -1]

    def test_reachable(self):
        g = path_graph(4)
        assert reachable(g, 0, 3)
        assert not reachable(g, 0, 3, blocked=frozenset({1}))

    def test_stop_returns_a_prefix_of_the_full_search(self):
        # an early stop leaves every entry at -1 or its full value, and
        # labels every vertex closer than the stop vertex
        rng = random.Random(7)
        stopped_early = 0
        for case in range(300):
            n = rng.randrange(2, 12)
            edges = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3 * n))}
            g = Graph.build(n, sorted(edges), directed=case % 2 == 1)
            src, stop = rng.randrange(n), rng.randrange(n)
            blocked = frozenset(rng.sample(range(n), rng.randrange(n // 2)))
            full = bfs_distances(g, src, blocked)
            part = bfs_distances(g, src, blocked, stop=stop)
            assert part[stop] == full[stop], case
            for v in range(n):
                assert part[v] in (-1, full[v]), (case, v)
                if full[v] >= 0 and (full[stop] < 0 or full[v] < full[stop]):
                    assert part[v] == full[v], (case, v)
            stopped_early += part != full
        assert stopped_early > 50


class TestInstanceValidation:
    def test_clean_instance(self):
        g = path_graph(4)
        inst = Instance(graph=g, starts=(0, 3), goals=(3, 0), f=1)
        assert validate_instance(inst) == []

    def test_duplicate_starts(self):
        g = path_graph(4)
        inst = Instance(graph=g, starts=(0, 0), goals=(3, 2), f=1)
        assert any("start" in p for p in validate_instance(inst))

    def test_f_out_of_range(self):
        g = path_graph(4)
        inst = Instance(graph=g, starts=(0, 3), goals=(3, 0), f=3)
        assert validate_instance(inst)

    def test_length_mismatch(self):
        g = path_graph(4)
        inst = Instance(graph=g, starts=(0, 1), goals=(3,), f=0)
        assert validate_instance(inst)

    def test_vertex_out_of_range(self):
        g = path_graph(4)
        inst = Instance(graph=g, starts=(0, 9), goals=(3, 2), f=0)
        assert validate_instance(inst)

    def test_no_agents(self):
        inst = Instance(graph=path_graph(4), starts=(), goals=(), f=0)
        assert validate_instance(inst) == ["at least one agent required"]

    def test_duplicate_goals(self):
        inst = Instance(graph=path_graph(4), starts=(0, 1), goals=(3, 3), f=1)
        assert validate_instance(inst) == ["goals are not pairwise distinct"]

    @pytest.mark.parametrize("f, problems", [
        (-1, ["crash budget f must be >= 0, got -1"]),
        (3, ["crash budget f=3 exceeds number of agents"]),
    ], ids=["negative", "above-agents"])
    def test_crash_budget_range(self, f, problems):
        inst = Instance(graph=path_graph(4), starts=(0, 3), goals=(3, 0), f=f)
        assert validate_instance(inst) == problems


class TestNecessaryCondition:
    def test_two_corridor_instance_passes(self):
        fx = fixture("fig1")
        chk = check_necessary(fx.instance)
        assert chk.holds
        assert chk.goal_condition == (True, True)
        assert chk.start_condition == (True, True)

    def test_cut_vertex_start_fails(self):
        # agent 0 must cross vertex 2, which is agent 1's start
        g = path_graph(5)
        inst = Instance(graph=g, starts=(0, 2), goals=(4, 3), f=1)
        chk = check_necessary(inst)
        assert chk.start_condition == (False, True)
        assert not chk.holds

    def test_goal_blocking(self):
        # agent 0's only route to 4 runs through agent 1's goal
        g = path_graph(5)
        inst = Instance(graph=g, starts=(0, 1), goals=(4, 2), f=1)
        chk = check_necessary(inst)
        assert chk.goal_condition == (False, True)

    def test_f_zero_start_condition_trivial(self):
        g = path_graph(5)
        inst = Instance(graph=g, starts=(0, 2), goals=(4, 3), f=0)
        # with no crashes possible the start condition has no subsets to dodge
        assert check_necessary(inst).start_condition == (True, True)

    @pytest.fixture(scope="class")
    def graphs(self, data_dir):
        rng = random.Random(3)
        ring = [(v, (v + 1) % 20) for v in range(20)]
        chords = [tuple(rng.sample(range(20), 2)) for _ in range(12)]
        return (
            parse_map(random_grid_map(8, 8, seed=0)),
            parse_map((data_dir / "random-16-16-10.map").read_text()),
            Graph.build(20, ring + chords, directed=True),
        )

    def test_matches_one_search_per_crash_set(self, graphs, monkeypatch):
        # check_necessary searches only the crash sets that meet its route;
        # the comparison tests that filter only if such sets both cut the
        # agent off and leave it a detour, many times each
        met = []
        real = core.reachable

        def spy(*args):
            met.append(real(*args))
            return met[-1]

        monkeypatch.setattr(core, "reachable", spy)
        rng = random.Random(26)
        goal_fails = start_fails = held = 0
        for case in range(2400):
            g = graphs[case % 3]
            n, f = rng.randint(1, 8), rng.randint(0, 3)
            # drawn apart, so a goal may be another agent's start or its own
            starts = tuple(rng.sample(range(g.n), n))
            goals = tuple(rng.sample(range(g.n), n))
            chk = check_necessary(Instance(g, starts, goals, f))
            goal_ok, start_ok, holds = necessary_condition(g, starts, goals, f)
            assert chk.goal_condition == goal_ok, case
            assert chk.start_condition == start_ok, case
            assert chk.holds == holds, case
            goal_fails += not all(goal_ok)
            start_fails += not all(start_ok)
            held += holds
        assert met.count(True) > 1000 and met.count(False) > 500
        assert goal_fails > 200 and start_fails > 200 and held > 1000

    def test_one_search_per_agent_on_the_syn_deck(self, data_dir, monkeypatch):
        # the 56 agents of the perfbench syn-dcrf-16 deck: one search each,
        # plus one per crash set that meets the agent's route (a search per
        # crash set made 400)
        searches = 0
        real = core.bfs_fill

        def counted(*args):
            nonlocal searches
            searches += 1
            return real(*args)

        monkeypatch.setattr(core, "bfs_fill", counted)
        g = parse_map((data_dir / "random-16-16-10.map").read_text())
        for n in (6, 8):
            for seed in range(4):
                gen_well_formed(g, n, 1, seed)
        assert searches <= 80


class TestObservation:
    def test_singletons(self):
        assert VACANT.kind == "vacant"
        assert CORRECT.kind == "correct"
        assert CRASHED_ANON.kind == "crashed" and CRASHED_ANON.agent is None

    def test_named_crash(self):
        obs = crashed(3)
        assert obs.kind == "crashed" and obs.agent == 3
        assert str(obs) == "crashed(3)"

    def test_agent_only_on_crashed(self):
        with pytest.raises(ValueError):
            Observation(kind="vacant", agent=1)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Observation(kind="sleeping")


class TestSolutionValidation:
    def test_reference_plans_validate(self):
        for name in ("fig1", "fig3", "fig6", "seq_anonymous"):
            fx = fixture(name)
            for sol in fx.solutions:
                assert validate_solution(fx.instance, sol) == [], name
                assert untidy(sol) == [], name

    def test_backup_must_start_at_switch_vertex(self):
        fx = fixture("fig1")
        sol = fx.solutions[0]
        plans = list(sol.plans)
        bad_paths = plans[1].paths[:1] + ((0, 4),) + plans[1].paths[2:]
        plans[1] = dataclasses.replace(plans[1], paths=bad_paths)
        bad = dataclasses.replace(sol, plans=tuple(plans))
        assert any("switch" in p or "start" in p for p in validate_solution(fx.instance, bad))

    def test_primary_must_start_at_start(self):
        fx = fixture("fig1")
        sol = fx.solutions[0]
        plans = list(sol.plans)
        plans[0] = Plan(paths=((1, 2),))
        bad = dataclasses.replace(sol, plans=tuple(plans))
        assert validate_solution(fx.instance, bad)

    def test_watch_must_be_adjacent(self):
        fx = fixture("fig1")
        sol = fx.solutions[0]
        plans = list(sol.plans)
        rules = list(plans[1].rules)
        rules[0] = dataclasses.replace(rules[0], watch=2)  # 2 not adjacent to 3
        plans[1] = dataclasses.replace(plans[1], rules=tuple(rules))
        bad = dataclasses.replace(sol, plans=tuple(plans))
        assert validate_solution(fx.instance, bad)

    def test_duplicate_rule_keys_are_untidy_not_malformed(self):
        fx = fixture("fig1")
        sol = fx.solutions[0]
        plans = list(sol.plans)
        rules = plans[1].rules
        plans[1] = dataclasses.replace(plans[1], rules=rules + (rules[0],))
        bad = dataclasses.replace(sol, plans=tuple(plans))
        assert any("duplicate rule key" in p for p in untidy(bad))
        assert validate_solution(fx.instance, bad) == []

    def test_untargeted_backup_is_untidy_not_malformed(self):
        # an extra path that no rule switches to is never entered, so the
        # plan still runs and verifies as before
        fx = fixture("fig1")
        sol = fx.solutions[0]
        plans = list(sol.plans)
        plans[1] = dataclasses.replace(plans[1], paths=plans[1].paths + (plans[1].primary,))
        bad = dataclasses.replace(sol, plans=tuple(plans))
        assert untidy(sol) == []
        extra = len(plans[1].paths) - 1
        assert untidy(bad) == [f"agent 1: path {extra} is not the target of any rule"]
        assert validate_solution(fx.instance, bad) == []
        assert verify(fx.instance, bad).status == verify(fx.instance, sol).status == "verified"

    def test_seq_paths_reject_waits(self):
        fx = fixture("fig1")
        g = fx.instance.graph
        plan_i = Plan(paths=((0, 0, 1, 2),))
        plan_j = Plan(paths=((3, 1, 4),))
        sol = Solution(model=SEQ, fd=AFD, plans=(plan_i, plan_j))
        assert any("wait" in p for p in validate_solution(fx.instance, sol))
        assert g.has_edge(0, 1)  # the path itself is otherwise fine

    @pytest.mark.parametrize("edit, message", [
        (lambda sol: dataclasses.replace(sol, model="async"), "unknown model 'async'"),
        (lambda sol: dataclasses.replace(sol, fd="xfd"), "unknown failure detector 'xfd'"),
        (lambda sol: with_plan(sol, 0, Plan(paths=())), "agent 0: no paths"),
        (lambda sol: with_plan(sol, 0, Plan(paths=((0, 2),))),
         "agent 0 path 0: 0->2 is not an edge"),
        (lambda sol: with_rule(sol, to_path=5), "agent 1 rule 0@1: to_path out of range"),
        (lambda sol: with_rule(sol, at_index=9), "agent 1 rule 0@9: at_index outside path"),
        (lambda sol: with_rule(sol, trigger=crashed(7)),
         "agent 1 rule 0@1: trigger names unknown agent 7"),
    ], ids=["model", "detector", "no-paths", "not-an-edge", "to-path", "at-index",
            "unknown-agent"])
    def test_refusals(self, edit, message):
        fx = fixture("fig1")
        assert message in validate_solution(fx.instance, edit(fx.solutions[0]))

    def test_trigger_cannot_name_owner(self):
        fx = fixture("fig1")
        sol = fx.solutions[0]
        plans = list(sol.plans)
        rules = list(plans[1].rules)
        rules[0] = dataclasses.replace(rules[0], trigger=crashed(1))
        plans[1] = dataclasses.replace(plans[1], rules=tuple(rules))
        bad = dataclasses.replace(sol, plans=tuple(plans))
        assert any("own" in p or "itself" in p for p in validate_solution(fx.instance, bad))


class TestCosts:
    def test_solution_cost_counts_primaries(self):
        fx = fixture("fig1")
        assert solution_cost(fx.solutions[0]) == 5  # 2 moves + 3 incl. waits

    def test_normalized_cost(self):
        fx = fixture("fig1")
        assert normalized_cost(fx.instance, fx.solutions[0]) == pytest.approx(5 / 4)

    def test_normalized_cost_trivial_instance(self):
        g = path_graph(2)
        inst = Instance(graph=g, starts=(0,), goals=(0,), f=0)
        sol = Solution(model=SYN, fd=NFD, plans=(Plan(paths=((0,),)),))
        assert normalized_cost(inst, sol) == 1.0
