"""Compiled stepping against the reference stepping in ``oracles``.

From every reachable configuration of a plan, every crash set (syn) or
every action (seq) is stepped twice: by ``execution`` on the compiled int
configuration and by the reference on its decoded ``AgentState`` tuple.
The decoded next configuration, the collision (kind, agents, where) and
the trace lines must be equal. Configurations are explored with the
instance's whole budget, so they include those of every smaller ``f``.
"""

import dataclasses
import itertools
import random
from collections import Counter

import oracles
from mappcf.core import AFD, NFD, SEQ, SYN, Plan, Solution
from mappcf.dcrf import SolverConfig, solve
from mappcf.execution import (
    CORRECT_ST,
    CRASHED_ST,
    Compiled,
    Trace,
    activate_seq,
    crash_seq,
    step_syn,
)
from mappcf.gen import FIXTURE_NAMES, GiveUp, fixture, gen_well_formed, grid_graph


def traced(step, *args):
    trace = Trace()
    trace.begin("#")
    return step(*args, trace), trace.lines


def compare_steps(inst, sol, seen: Counter) -> None:
    """Step every reachable (configuration, crash set or action) both ways."""
    cp = Compiled(inst, sol)
    assert cp.decode(cp.init) == oracles.init_states(inst, sol)
    start = (cp.init, inst.f)
    reached = {start}
    todo = [start]
    while todo:
        cfg, budget = todo.pop()
        states = cp.decode(cfg)
        status = tuple(cp.status[c] for c in cfg)
        assert status == tuple(st.status for st in states)
        alive = [a for a, st in enumerate(status) if st != CRASHED_ST]
        nexts = []
        if sol.model == SYN:
            for k in range(min(budget, len(alive)) + 1):
                for crash_set in itertools.combinations(alive, k):
                    (got, coll), lines = traced(step_syn, cp, cfg, crash_set)
                    (want, want_coll), want_lines = traced(
                        oracles.step_syn, inst, sol, states, frozenset(crash_set))
                    assert (cp.decode(got), coll, lines) == (want, want_coll, want_lines), \
                        (inst, sol, states, crash_set)
                    seen[coll.kind if coll else "round"] += 1
                    seen["switch"] += sum(" switch " in ln for ln in lines)
                    if coll is None:
                        nexts.append((got, budget - k))
        else:
            for a, st in enumerate(status):
                got, lines = traced(activate_seq, cp, cfg, a)
                want, want_lines = traced(oracles.activate_seq, inst, sol, states, a)
                assert (cp.decode(got), lines) == (want, want_lines), (inst, sol, states, a)
                seen["blocked" if st == CORRECT_ST and not lines else "activate"] += 1
                seen["switch"] += sum(" switch " in ln for ln in lines)
                nexts.append((got, budget))
                if st != CRASHED_ST and budget > 0:
                    got, lines = traced(crash_seq, cp, cfg, a)
                    want, want_lines = traced(oracles.crash_seq, inst, sol, states, a)
                    assert (cp.decode(got), lines) == (want, want_lines), (inst, sol, states, a)
                    seen["crash"] += 1
                    nexts.append((got, budget - 1))
        for state in nexts:
            if state not in reached:
                reached.add(state)
                todo.append(state)
    # one code per (path, progress, status): decoding never merges two
    configs = {cfg for cfg, _ in reached}
    assert len({cp.decode(cfg) for cfg in configs}) == len(configs)
    seen["configs"] += len(configs)


def variants(sol):
    """The plan under both detectors, with and without its rules."""
    for fd in (NFD, AFD):
        flipped = dataclasses.replace(sol, fd=fd)
        yield flipped
        bare = dataclasses.replace(flipped, plans=tuple(Plan(p.paths) for p in sol.plans))
        if bare != flipped:
            yield bare


def test_fixture_plans_step_like_the_reference():
    seen = Counter()
    for name in FIXTURE_NAMES:
        fx = fixture(name)
        for sol in fx.solutions:
            for variant in variants(sol):
                compare_steps(fx.instance, variant, seen)
    assert seen["switch"] >= 50 and seen["vertex"] >= 10 and seen["blocked"] >= 100, seen


def test_random_plans_step_like_the_reference():
    # criterion-05-style 4x4 grids with three walls; solved plans of both
    # models and detectors, their rule-stripped copies, and plans whose
    # primaries overlap, which solve never returns
    cells = [(c, r) for r in range(4) for c in range(4)]
    seen = Counter()
    for seed in range(120):
        rng = random.Random(seed)
        g = grid_graph(4, 4, obstacles=frozenset(rng.sample(cells, 3)))
        try:
            inst = gen_well_formed(g, rng.randint(2, 4), rng.randint(1, 2), seed, max_tries=200)
        except GiveUp:
            continue
        for model in (SYN, SEQ):
            for fd in (NFD, AFD):
                res = solve(inst, SolverConfig(model=model, fd=fd, seed=seed, deadline=10.0))
                if res.solution is not None:
                    for variant in variants(res.solution):
                        compare_steps(inst, variant, seen)
        paths = [oracles.find_path_seq_cuts(g, inst.starts[a], inst.goals[a],
                                            frozenset(inst.goals) - {inst.goals[a]})[0]
                 for a in inst.agents()]
        if None not in paths:
            for model in (SYN, SEQ):
                compare_steps(inst, Solution(model, NFD, tuple(Plan((p,)) for p in paths)), seen)
    assert seen["switch"] >= 40 and seen["vertex"] >= 300 and seen["swap"] >= 40, seen
    assert seen["blocked"] >= 5000, seen
