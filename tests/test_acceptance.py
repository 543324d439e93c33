"""Top-level acceptance gate, one test per shipped guarantee.

Each test prints its verdict through conftest's reporting hook. The suite
leans on the independent brute-force helpers in oracles.py wherever a
solver claim needs outside confirmation.
"""

import dataclasses
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from mappcf.core import (
    AFD,
    CORRECT,
    CRASHED_ANON,
    Graph,
    Instance,
    NFD,
    Plan,
    SEQ,
    SYN,
    Solution,
    TransitionRule,
    VACANT,
    check_necessary,
    crashed,
)
from mappcf.dcrf import SolverConfig, solve
from mappcf.disjoint import solve_disjoint
from mappcf.gen import GiveUp, fixture, gen_well_formed, grid_graph, sat_to_mappcf
from mappcf.verify import verify_seq, verify_syn
from mappcf import cli

from oracles import disjoint_exists


def _strip_rules(sol):
    return dataclasses.replace(
        sol, plans=tuple(Plan(paths=p.paths, rules=()) for p in sol.plans)
    )


class TestCriteria:
    def test_criterion_01_reference_plans_verify_and_stripping_refutes(self):
        t0 = time.process_time()
        fx = fixture("fig1")
        syn_sol, seq_sol = fx.solutions
        assert fx.instance.f == 1
        assert verify_syn(fx.instance, syn_sol).status == "verified"
        assert verify_seq(fx.instance, seq_sol).status == "verified"

        r = verify_syn(fx.instance, _strip_rules(syn_sol))
        assert r.status == "refuted"
        assert r.counterexample.kind == "collision"
        assert r.counterexample.agents == (0, 1)
        assert r.counterexample.crash_times == {0: 2}

        r = verify_seq(fx.instance, _strip_rules(seq_sol))
        assert r.status == "refuted"
        assert r.counterexample.kind == "unreachable_goal"
        assert r.counterexample.agents == (1,)
        assert time.process_time() - t0 < 1.0

    def test_criterion_02_running_example_event_log_and_backups(self):
        t0 = time.process_time()
        fx = fixture("fig6")
        res = solve(fx.instance, SolverConfig(model=SYN, fd=NFD))
        assert res.status == "solved"
        log = [
            (
                e.crash.agent, e.crash.vertex, e.crash.when,
                e.effect.agent, e.effect.path, e.effect.vertex,
                e.effect.at_index, e.effect.when,
            )
            for e in res.events
        ]
        assert log == [
            (1, 1, 1, 0, 0, 1, 2, 2),
            (2, 2, 2, 0, 0, 2, 3, 3),
            (2, 2, 2, 0, 1, 2, 3, 3),
        ]
        # the crossing agent gains exactly three backup paths
        assert res.solution.plans[0].paths == (
            (0, 1, 2, 3),
            (0, 4, 2, 3),
            (1, 6, 3),
            (4, 5, 3),
        )
        assert res.solution == fx.solutions[0]
        assert verify_syn(fx.instance, res.solution).status == "verified"
        inst2 = dataclasses.replace(fx.instance, f=2)
        assert verify_syn(inst2, res.solution).status == "verified"
        assert time.process_time() - t0 < 1.0

    def test_criterion_03_priority_incompleteness_and_disjoint_fallback(self):
        t0 = time.process_time()
        fx = fixture("fig8")
        res = solve(fx.instance, SolverConfig(model=SYN, fd=NFD, priority=fx.priority))
        assert res.status == "no_backup"
        assert res.attempts == 1

        d = solve_disjoint(fx.instance)
        assert d.status == "solved"
        assert d.initial_paths == fx.disjoint_paths
        for f in (0, 1, 2):
            inst_f = dataclasses.replace(fx.instance, f=f)
            assert verify_syn(inst_f, d.solution).status == "verified"
        assert time.process_time() - t0 < 1.0

    def test_criterion_04_rejected_instances_never_verify(self):
        cells = [(c, r) for r in range(5) for c in range(5)]
        rejected = 0
        for seed in range(200):
            rng = random.Random(seed)
            walls = frozenset(rng.sample(cells, 6))
            g = grid_graph(5, 5, obstacles=walls)
            picks = rng.sample(range(g.n), 6)
            inst = Instance(
                graph=g, starts=tuple(picks[:3]), goals=tuple(picks[3:]),
                f=1 + seed % 2,
            )
            if check_necessary(inst).holds:
                continue
            rejected += 1
            res = solve(inst, SolverConfig(model=SYN, fd=NFD, deadline=5.0))
            if res.status == "solved":
                assert verify_syn(inst, res.solution).status == "refuted"
            d = solve_disjoint(inst, deadline=5.0)
            if d.status == "solved":
                assert verify_syn(inst, d.solution).status == "refuted"
        assert rejected == 138

    def test_criterion_05_every_success_passes_exhaustive_verification(self):
        def rand_inst(rng):
            n = rng.randint(8, 14)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            for _ in range(rng.randint(2, n)):
                a, b = rng.sample(range(n), 2)
                edges.append((a, b))
            g = Graph.build(n, edges)
            k = rng.randint(2, 4)
            picks = rng.sample(range(n), 2 * k)
            return Instance(
                graph=g, starts=tuple(picks[:k]), goals=tuple(picks[k:]),
                f=rng.randint(0, 2),
            )

        cells = [(c, r) for r in range(4) for c in range(4)]

        def grid_inst(rng, seed):
            walls = frozenset(rng.sample(cells, 3))
            g = grid_graph(4, 4, obstacles=walls)
            try:
                return gen_well_formed(g, rng.randint(2, 4), rng.randint(1, 2),
                                       seed, max_tries=200)
            except GiveUp:
                return None

        t0 = time.monotonic()
        runs = solved = verified = 0
        for seed in range(250):
            rng = random.Random(seed)
            inst = grid_inst(rng, seed) if seed % 2 else rand_inst(rng)
            if inst is None:
                inst = rand_inst(rng)
            fd = NFD if seed % 4 < 2 else AFD
            for model in (SYN, SEQ):
                runs += 1
                res = solve(inst, SolverConfig(model=model, fd=fd,
                                               deadline=10.0, seed=seed))
                if res.status != "solved":
                    continue
                solved += 1
                check = verify_syn if model == SYN else verify_seq
                if check(inst, res.solution).status == "verified":
                    verified += 1
        assert runs == 500
        assert solved >= 150  # guards against the check going vacuous
        assert verified == solved
        assert time.monotonic() - t0 < 600.0

    def test_criterion_06_reduction_agrees_with_brute_force_sat(self):
        variables = (1, 2, 3, 4)
        clauses = []
        for width in (1, 2, 3):
            for combo in itertools.combinations(variables, width):
                for signs in itertools.product((1, -1), repeat=width):
                    clauses.append(tuple(v * s for v, s in zip(combo, signs)))
        assert len(clauses) == 64

        def brute_sat(formula):
            vs = sorted({abs(l) for cl in formula for l in cl})
            for bits in itertools.product((False, True), repeat=len(vs)):
                asn = dict(zip(vs, bits))
                if all(any(asn[abs(l)] == (l > 0) for l in cl) for cl in formula):
                    return True
            return False

        total = unsat = 0
        for k in (1, 2, 3):
            for formula in itertools.combinations(clauses, k):
                inst = sat_to_mappcf(list(formula))
                res = solve_disjoint(inst, deadline=None)
                assert res.status in ("solved", "infeasible")
                want = brute_sat(formula)
                unsat += not want
                assert (res.status == "solved") == want, formula
                total += 1
        assert total == 43744
        assert unsat == 300  # both directions of the iff get real cases

    def test_criterion_07_model_power_witnesses(self):
        # (a) the timing fixture: waits make it solvable in lockstep, and the
        # whole natural family of sequential plans is refuted
        fx = fixture("fig3")
        inst = fx.instance
        assert verify_syn(inst, fx.solutions[0]).status == "verified"

        adj = inst.graph.adj

        def simple_paths(s, g, avoid, max_len=6):
            out, stack = [], [(s, (s,))]
            while stack:
                v, p = stack.pop()
                if v == g:
                    out.append(p)
                    continue
                if len(p) >= max_len:
                    continue
                for w in adj[v]:
                    if w not in p and w not in avoid:
                        stack.append((w, p + (w,)))
            return sorted(out)

        walker = Plan(paths=((0, 1, 2, 3),), rules=())
        primaries = simple_paths(4, 5, {0, 3})
        assert len(primaries) == 4
        total = 0
        for prim in primaries:
            options = []
            for k in range(1, len(prim)):
                v = prim[k - 1]
                targets = simple_paths(v, 5, {0, 3})
                for w in adj[v]:
                    for trig in (crashed(0), VACANT, CORRECT):
                        for q in targets:
                            options.append((k, w, trig, q))
            rule_sets = (
                [()]
                + [(o,) for o in options]
                + list(itertools.combinations(options, 2))
            )
            for rs in rule_sets:
                paths = [prim]
                rules = []
                for (k, w, trig, q) in rs:
                    if q in paths:
                        ti = paths.index(q)
                    else:
                        paths.append(q)
                        ti = len(paths) - 1
                    rules.append(TransitionRule(0, k, w, trig, ti))
                sol = Solution(model=SEQ, fd=NFD,
                               plans=(walker, Plan(tuple(paths), tuple(rules))))
                assert verify_seq(inst, sol).status == "refuted"
                total += 1
        assert total == 12976

        # (b) identity matters: the named-detector plan survives two crashes,
        # its anonymised copy does not
        fx = fixture("seq_anonymous")
        assert fx.instance.f == 2
        named = fx.solutions[0]
        assert named.fd == NFD
        assert verify_seq(fx.instance, named).status == "verified"
        anon = dataclasses.replace(
            named,
            fd=AFD,
            plans=tuple(
                Plan(
                    paths=p.paths,
                    rules=tuple(
                        dataclasses.replace(r, trigger=CRASHED_ANON)
                        if r.trigger.kind == "crashed" else r
                        for r in p.rules
                    ),
                )
                for p in named.plans
            ),
        )
        assert verify_seq(fx.instance, anon).status == "refuted"

    @pytest.mark.slow
    def test_criterion_08_success_trend_on_random_grid(self, data_dir, tmp_path):
        config = json.loads((data_dir / "bench-trend.json").read_text())
        agent_counts = config["n"]
        seeds = config["seeds"]
        t0 = time.monotonic()
        rows = cli.run_bench(config, jobs=1,
                             out_path=tmp_path / "trend.csv", base_dir=data_dir)
        elapsed = time.monotonic() - t0
        assert elapsed < 900.0
        assert len(rows) == len(agent_counts) * len(seeds) * 2

        def rate(algo, n):
            hits = [r for r in rows if r["algo"] == algo and r["n_agents"] == n]
            return sum(r["outcome"] == "solved" for r in hits) / len(hits)

        dcrf_rates = [rate("dcrf", n) for n in agent_counts]
        disj_rates = [rate("disjoint", n) for n in agent_counts]

        # harder with more agents, up to one sampling blip of at most 0.08
        rises = [b - a for a, b in zip(dcrf_rates, dcrf_rates[1:]) if b > a]
        assert len(rises) <= 1
        assert all(r <= 0.08 for r in rises)

        # switching beats full disjointness at every size
        for d, j in zip(dcrf_rates, disj_rates):
            assert d >= j

        # and is never paying more, on the instances both managed to solve
        solved_ids = {}
        for r in rows:
            if r["outcome"] == "solved":
                solved_ids.setdefault(r["algo"], set()).add(r["instance_id"])
        joint = solved_ids.get("dcrf", set()) & solved_ids.get("disjoint", set())
        assert joint  # the comparison must not be vacuous
        costs = {"dcrf": [], "disjoint": []}
        for r in rows:
            if r["instance_id"] in joint and r["outcome"] == "solved":
                costs[r["algo"]].append(r["cost_normalized"])
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(costs["dcrf"]) <= mean(costs["disjoint"])

    def test_criterion_09_infeasible_verdicts_are_exhaustively_confirmed(self):
        def rand_inst(rng):
            n = rng.randint(6, 12)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            for _ in range(rng.randint(0, n // 2)):
                a, b = rng.sample(range(n), 2)
                edges.append((a, b))
            g = Graph.build(n, edges)
            k = rng.randint(2, 3)
            picks = rng.sample(range(n), 2 * k)
            return Instance(
                graph=g, starts=tuple(picks[:k]), goals=tuple(picks[k:]),
                f=rng.randint(1, 2),
            )

        pool = [fixture("fig1").instance, sat_to_mappcf([(1,), (-1,)])]
        assert pool[1].graph.n == 12
        for seed in range(200):
            pool.append(rand_inst(random.Random(seed)))

        infeasible = 0
        for inst in pool:
            res = solve_disjoint(inst, deadline=None)
            assert res.status in ("solved", "infeasible")
            want = disjoint_exists(inst.graph, inst.starts, inst.goals)
            assert (res.status == "solved") == want
            infeasible += res.status == "infeasible"
        assert len(pool) == 202
        assert infeasible == 156  # the negative side carries real weight

    def test_criterion_10_large_grid_scope_is_documented(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text()
        assert "out of scope" in text
        assert "trend suite substitutes" in text
