"""Disjoint-paths baseline: pins, optimality, and proof-grade verdicts."""

import hashlib
import random
import tracemalloc

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
from mappcf.fileio import parse_map
from mappcf.gen import fixture, gen_well_formed, grid_graph, random_grid_map, sat_to_mappcf
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


def grid_inst(seed):
    rng = random.Random(seed)
    cells = [(c, r) for r in range(5) for c in range(5)]
    g = grid_graph(5, 5, obstacles=frozenset(rng.sample(cells, rng.randrange(3, 7))))
    k = rng.choice((2, 3))
    picks = rng.sample(range(g.n), 2 * k)
    return Instance(graph=g, starts=tuple(picks[:k]), goals=tuple(picks[k:]), f=1)


class TestFixturePins:
    def test_corridor_detour_instance(self):
        fx = fixture("fig8")
        res = solve_disjoint(fx.instance)
        assert res.ok and res.status == "solved"
        assert res.paths == fx.disjoint_paths
        assert (res.nodes, res.pruned) == (1, 0)
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
    # sparse random graphs and 5x5 grids with walls; the grids are where
    # the search branches and propagation refutes children
    def cases(self, offset):
        for seed in range(offset, offset + 400):
            for inst in (rand_inst(seed), grid_inst(seed)):
                if not validate_instance(inst):
                    yield seed, inst

    def test_cost_optimal_on_random_graphs(self):
        # the open list orders by total length, so a solved verdict must
        # match the brute-force minimum exactly
        checked = feasible = branched = pruned = 0
        for seed, inst in self.cases(0):
            want = min_disjoint_cost(inst.graph, inst.starts, inst.goals)
            res = solve_disjoint(inst, deadline=10.0)
            got = None if not res.ok else sum(len(p) - 1 for p in res.paths)
            assert got == want, (seed, got, want)
            checked += 1
            feasible += want is not None
            branched += res.nodes > 1
            pruned += res.pruned > 0
        assert (checked, feasible) == (800, 313)
        assert branched >= 5 and pruned >= 5

    def test_infeasible_verdicts_are_proofs(self):
        checked = feasible = branched = pruned = 0
        for seed, inst in self.cases(1000):
            res = solve_disjoint(inst, deadline=10.0)
            assert res.status in ("solved", "infeasible")
            want = disjoint_exists(inst.graph, inst.starts, inst.goals)
            assert res.ok == want, seed
            checked += 1
            feasible += want
            branched += res.nodes > 1
            pruned += res.pruned > 0
        assert (checked, feasible) == (800, 307)
        assert branched >= 5 and pruned >= 5


class TestGridPins:
    def test_branching_order_on_grid_instances(self):
        # node counts follow the conflict choice, the open-list order and
        # the propagation, so any change to these shows here;
        # (agents, seed, status, nodes, pruned children)
        graph = parse_map(random_grid_map(8, 8, seed=0))
        pins = [
            (3, 9, "infeasible", 0, 0),
            (4, 8, "infeasible", 1, 2),
            (3, 6, "solved", 60, 6),
            (4, 0, "solved", 14, 1),
            (2, 3, "solved", 13, 1),
        ]
        for n, seed, status, nodes, pruned in pins:
            res = solve_disjoint(gen_well_formed(graph, n, 1, seed), deadline=None)
            assert (res.status, res.nodes, res.pruned) == (status, nodes, pruned), (n, seed)

    def test_infeasibility_proofs_on_the_benchmark_deck(self):
        # the deck's largest proofs, searched to the end: any change to the
        # conflict choice, the open-list order or the propagation shows here;
        # (agents, seed, status, nodes, pruned children)
        graph = parse_map(random_grid_map(8, 8, seed=0))
        pins = [
            (2, 1, "infeasible", 4385, 3881),
            (2, 2, "infeasible", 2400, 1585),
            (3, 10, "infeasible", 1687, 1497),
            (3, 2, "infeasible", 148, 92),
        ]
        for n, seed, status, nodes, pruned in pins:
            res = solve_disjoint(gen_well_formed(graph, n, 1, seed), deadline=None)
            assert (res.status, res.nodes, res.pruned) == (status, nodes, pruned), (n, seed)

    def test_search_memory_stays_small(self):
        # every vertex set a node keeps is an int bitmask: this 148-node
        # proof peaks near 0.06 MiB, against about 0.45 MiB with frozensets
        inst = gen_well_formed(parse_map(random_grid_map(8, 8, seed=0)), 3, 1, 2)
        solve_disjoint(inst, deadline=None)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            res = solve_disjoint(inst, deadline=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.status, res.nodes, res.pruned) == ("infeasible", 148, 92)
        assert peak < 0.25 * 2**20, peak

    def test_benchmark_deck_verdicts_costs_and_paths(self):
        # every instance of the 8x8 deck the CBS is benchmarked on, run to
        # a verdict: (agents, seed) -> total length, None when infeasible;
        # the three largest infeasibility proofs are n2-s1, n2-s2 and n3-s10.
        # The paths themselves are pinned by a hash, since a tie-break that
        # slips among equally long tuples keeps every verdict and cost.
        graph = parse_map(random_grid_map(8, 8, seed=0))
        costs = {
            2: (9, None, None, 21, 14, 6, 11, 9, 8, 6, 8, 3),
            3: (19, 20, None, 9, 20, 19, 26, 12, 18, None, None, 15),
            4: (28, 19, 18, 16, None, None, 23, None, None, 21, 11, 26),
        }
        solved = []
        for n, row in costs.items():
            for seed, want in enumerate(row):
                res = solve_disjoint(gen_well_formed(graph, n, 1, seed), deadline=None)
                assert res.status == ("infeasible" if want is None else "solved"), (n, seed)
                got = None if not res.ok else sum(len(p) - 1 for p in res.paths)
                assert got == want, (n, seed)
                if res.ok:
                    solved.append((n, seed, res.paths))
        digest = hashlib.sha256(repr(solved).encode()).hexdigest()[:16]
        assert (len(solved), digest) == (27, "714bfe0c745c0854")


class TestMechanics:
    def test_deterministic(self):
        fx = fixture("fig8")
        assert solve_disjoint(fx.instance).paths == solve_disjoint(fx.instance).paths

    def test_zero_deadline_times_out(self):
        fx = fixture("fig8")
        res = solve_disjoint(fx.instance, deadline=0.0)
        assert res.status == "timeout"
        assert res.solution is None

    @pytest.mark.parametrize("deadline", [float("nan"), -5.0, True, "10"])
    def test_deadline_must_be_a_number_at_least_zero(self, deadline):
        # no clock reading exceeds NaN, so a NaN budget would never run out
        fx = fixture("fig8")
        with pytest.raises(ValueError, match="deadline must be None or a number >= 0"):
            solve_disjoint(fx.instance, deadline=deadline)

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
