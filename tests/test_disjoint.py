"""Disjoint-paths baseline: pins, optimality, and proof-grade verdicts."""

import random

import pytest

from mappcf.core import (
    Graph,
    Instance,
    SEQ,
    normalized_cost,
    validate_instance,
    validate_solution,
)
from mappcf.disjoint import solve_disjoint
from mappcf.gen import fixture, sat_to_mappcf
from mappcf.verify import verify_syn
from oracles import disjoint_exists, min_disjoint_cost


def rand_inst(seed):
    rng = random.Random(seed)
    n = rng.randrange(6, 11)
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    for _ in range(rng.randrange(1, 4)):
        u, v = rng.sample(range(n), 2)
        edges.add(tuple(sorted((u, v))))
    g = Graph.build(n, sorted(edges))
    k = rng.choice((2, 2, 3))
    picks = rng.sample(range(n), 2 * k)
    return Instance(graph=g, starts=tuple(picks[:k]), goals=tuple(picks[k:]), f=1)


class TestFixturePins:
    def test_corridor_detour_instance(self):
        fx = fixture("fig8")
        res = solve_disjoint(fx.instance)
        assert res.ok and res.status == "solved"
        assert res.paths == fx.disjoint_paths
        assert res.nodes == 3
        assert normalized_cost(fx.instance, res.solution) == pytest.approx(10 / 9)
        for f in (0, 1, 2):
            assert verify_syn(fx.instance, res.solution, f=f).ok

    def test_plans_carry_no_rules(self):
        fx = fixture("fig8")
        res = solve_disjoint(fx.instance)
        assert all(p.rules == () and len(p.paths) == 1 for p in res.solution.plans)
        assert validate_solution(fx.instance, res.solution, strict=True) == []

    def test_two_corridor_is_infeasible(self):
        fx = fixture("fig1")
        res = solve_disjoint(fx.instance)
        assert res.status == "infeasible"
        assert res.solution is None and res.paths is None

    def test_three_agent_example_is_infeasible(self):
        fx = fixture("fig6")
        assert solve_disjoint(fx.instance).status == "infeasible"

    def test_model_and_fd_are_passed_through(self):
        fx = fixture("fig8")
        res = solve_disjoint(fx.instance, model=SEQ, fd="afd")
        assert res.solution.model == SEQ and res.solution.fd == "afd"


class TestSatInstances:
    def test_satisfiable_formula_solves(self):
        inst = sat_to_mappcf([(1, 2, -3), (-1, 2, 3)])
        assert solve_disjoint(inst).ok

    def test_contradiction_is_infeasible(self):
        inst = sat_to_mappcf([(1,), (-1,)])
        assert solve_disjoint(inst).status == "infeasible"

    def test_unit_clause_solves(self):
        inst = sat_to_mappcf([(1,)])
        assert solve_disjoint(inst).ok


class TestAgainstOracle:
    def test_cost_optimal_on_random_graphs(self):
        # the open list orders by total length, so a solved verdict must
        # match the brute-force minimum exactly
        checked = feasible = 0
        for seed in range(60):
            inst = rand_inst(seed)
            if validate_instance(inst):
                continue
            want = min_disjoint_cost(inst.graph, inst.starts, inst.goals)
            res = solve_disjoint(inst, deadline=10.0)
            got = None if not res.ok else sum(len(p) - 1 for p in res.paths)
            assert got == want, (seed, got, want)
            checked += 1
            feasible += want is not None
        assert checked == 60 and feasible == 17

    def test_infeasible_verdicts_are_proofs(self):
        for seed in range(60):
            inst = rand_inst(seed + 1000)
            if validate_instance(inst):
                continue
            res = solve_disjoint(inst, deadline=10.0)
            assert res.status in ("solved", "infeasible")
            assert res.ok == disjoint_exists(inst.graph, inst.starts, inst.goals)


class TestMechanics:
    def test_deterministic(self):
        fx = fixture("fig8")
        assert solve_disjoint(fx.instance).paths == solve_disjoint(fx.instance).paths

    def test_zero_deadline_times_out(self):
        fx = fixture("fig8")
        res = solve_disjoint(fx.instance, deadline=0.0)
        assert res.status == "timeout"
        assert res.solution is None

    def test_invalid_instance_raises(self):
        g = Graph.build(3, [(0, 1), (1, 2)])
        inst = Instance(graph=g, starts=(0, 0), goals=(1, 2), f=1)
        with pytest.raises(ValueError):
            solve_disjoint(inst)

    def test_unknown_model_or_fd_raises(self):
        # a solved verdict would carry a Solution that validate_solution rejects
        fx = fixture("fig8")
        with pytest.raises(ValueError, match="unknown model"):
            solve_disjoint(fx.instance, model="sync")
        with pytest.raises(ValueError, match="unknown failure detector"):
            solve_disjoint(fx.instance, fd="pfd")

    def test_runtime_reported(self):
        fx = fixture("fig8")
        res = solve_disjoint(fx.instance)
        assert res.runtime >= 0.0
