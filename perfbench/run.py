#!/usr/bin/env python3
"""Benchmark of the mappcf solvers and verifier.

    python3 perfbench/run.py --workload syn-dcrf-16 --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process, one caller, one call at a time (a closed loop with a
single client). After a timed set-up (map parsing and instance generation,
repeated, median reported) the run takes whole passes over the workload's
instance deck until the next pass would end after ``--seconds``. Each
instance is solved with ``dcrf.solve`` or ``disjoint.solve_disjoint`` and
every solved plan is checked by the exhaustive verifier. A call that takes
less than REPEAT_BUDGET_S is repeated back to back (up to REPEATS times)
and its median counts. Times are reference CPU seconds (see probe.py). A
few instances are then re-run through ``cli.bench_worker`` to show that
the benchmark times the same program as ``mappcf bench``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced pass, then traced passes, and prints the per-layer metrics (per
pass over the deck) and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the digest of the outputs. The exit code is 0 only when every solved
plan verified, no solver raised, every pass gave the same outputs and the
cross-check agreed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from probe import SpeedProbe
from tracer import Tracer, install
from workloads import GENERATED_MAPS, SOLVE_BUDGET_S, WORKLOADS, map_text, set_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15
REPEATS = 15  # most runs of one solve or verify call within a pass,
REPEAT_BUDGET_S = 0.25  # stopping once they add up to this many seconds
CROSS_CHECK_SOLVED = 2
CROSS_CHECK_UNSOLVED = 1


def load_package() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "mappcf" / "__init__.py").is_file():
        raise SystemExit(f"error: no mappcf sources under {src}")
    sys.path.insert(0, str(src))
    mods = SimpleNamespace(
        **{name: importlib.import_module(f"mappcf.{name}")
           for name in ("cli", "core", "dcrf", "disjoint", "execution", "fileio", "gen", "pathfind")}
    )
    # `import mappcf.verify` would give the function that shadows the module
    mods.verify = importlib.import_module("mappcf.verify")
    if not Path(mods.core.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: mappcf was imported from {mods.core.__file__}, not {src}")
    return mods


@dataclass
class Outcome:
    iid: str
    status: str  # solver status, or "error:<exception>"
    cost: "float | None"  # normalized cost of a solved plan
    events: int
    attempts: int
    nodes: int
    verdict: str  # verifier status; "-" when nothing was solved
    states: int
    solve_s: float
    verify_s: float
    ops: int  # solve and verify calls made
    failed: int  # of those, the ones that failed

    def digest_fields(self, algo: str) -> list:
        return [self.iid, algo, self.status, repr(self.cost), self.events,
                self.nodes, self.verdict, self.states]


@dataclass
class Pass:
    outcomes: "list[Outcome]"
    wall_s: float
    cpu_s: float  # reference CPU seconds (see probe.py)
    raw_cpu_s: float


def replay(m, inst, sol, ce) -> str:
    """Run a refuting adversary through the simulator; returns its outcome."""
    if sol.model == "syn":
        return m.execution.run_syn(inst, sol, ce.crash_times or {}).outcome
    return m.execution.run_seq(inst, sol, list(ce.schedule or []) + list(ce.cycle or [])).outcome


def timed(probe, call, repeats: int):
    """Run ``call`` up to ``repeats`` times, stopping early once the runs add up
    to REPEAT_BUDGET_S; return the first result and the median time. Short
    calls are thus measured several times, long ones once."""
    times = []
    gc.collect()  # so collector timing does not depend on what ran before
    while len(times) < repeats and sum(times) < REPEAT_BUDGET_S:
        with probe.measure() as clock:
            result = call()
        times.append(clock.seconds)
        if len(times) == 1:
            first = result
    return first, statistics.median(times)


def guarded(fn, *args, **kwargs):
    """Call ``fn``; an exception is printed and returned, not raised, so one
    failing instance does not end the run."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        traceback.print_exc()
        return exc


def run_instance(m, wl, entry, probe, repeats: int) -> Outcome:
    inst = entry.inst
    if wl.algo == "dcrf":
        cfg = m.dcrf.SolverConfig(model=wl.model, fd=wl.fd, deadline=SOLVE_BUDGET_S, seed=entry.seed)
        res, solve_s = timed(probe, lambda: guarded(m.dcrf.solve, inst, cfg), repeats)
    else:
        res, solve_s = timed(probe, lambda: guarded(
            m.disjoint.solve_disjoint, inst, model=wl.model, fd=wl.fd, deadline=SOLVE_BUDGET_S), repeats)
    if isinstance(res, Exception):
        return Outcome(entry.iid, f"error:{type(res).__name__}", None, 0, 0, 0, "-", 0,
                       solve_s, 0.0, 1, 1)
    events = len(res.events) if wl.algo == "dcrf" else 0
    attempts = res.attempts if wl.algo == "dcrf" else 0
    nodes = res.nodes if wl.algo == "disjoint" else 0
    failed = int(res.status == "timeout")
    if res.solution is None:
        return Outcome(entry.iid, res.status, None, events, attempts, nodes, "-", 0,
                       solve_s, 0.0, 1, failed)

    sol = res.solution
    vr, verify_s = timed(probe, lambda: guarded(m.verify.verify, inst, sol), repeats)
    if isinstance(vr, Exception):
        verdict, states = f"error:{type(vr).__name__}", 0
    else:
        verdict, states = vr.status, vr.states_explored
    if verdict != "verified":
        failed += 1
        detail = getattr(vr, "reason", "")
        if verdict == "refuted":
            detail += f"; replay={replay(m, inst, sol, vr.counterexample)}"
        print(f"not verified: {entry.iid} {verdict} {detail}", file=sys.stderr)
    return Outcome(entry.iid, res.status, m.core.normalized_cost(inst, sol), events, attempts,
                   nodes, verdict, states, solve_s, verify_s, 2, failed)


def run_pass(m, wl, deck, order, probe, repeats: int, tracer=None) -> Pass:
    wall0 = time.perf_counter()
    outcomes = []
    with probe.measure() as clock:
        for i in order:
            if tracer is not None:
                tracer.instance = deck[i].iid
            outcomes.append(run_instance(m, wl, deck[i], probe, repeats))
    return Pass(outcomes, time.perf_counter() - wall0, clock.seconds, clock.cpu_s)


def run_passes(m, wl, deck, order, end_at, probe, repeats: int, tracer=None) -> "list[Pass]":
    """Whole passes until the next one would end after ``end_at`` (a
    ``perf_counter`` reading); at least one."""
    passes = []
    while True:
        passes.append(run_pass(m, wl, deck, order, probe, repeats, tracer))
        if time.perf_counter() + max(p.wall_s for p in passes) > end_at:
            return passes


def visit_order(wl, deck, seed: int) -> "list[int]":
    order = list(range(len(deck)))
    random.Random(f"{wl.name}:{seed}").shuffle(order)
    return order


def digest(wl, outcomes) -> str:
    rows = sorted(o.digest_fields(wl.algo) for o in outcomes)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def cross_check(m, wl, deck, outcomes) -> "list[str]":
    """Re-run the cheapest solved and unsolved instances through `mappcf bench`'s
    worker and return every disagreement with this benchmark's own outcome."""
    if wl.map_stem in GENERATED_MAPS:
        OUT.mkdir(exist_ok=True)
        map_file = OUT / f"{wl.map_stem}.map"
        map_file.write_text(map_text(wl, ROOT, m.gen))
    else:
        map_file = ROOT / "data" / f"{wl.map_stem}.map"
    by_time = sorted(outcomes, key=lambda o: (o.solve_s, o.iid))
    picks = ([o for o in by_time if o.cost is not None][:CROSS_CHECK_SOLVED]
             + [o for o in by_time if o.cost is None][:CROSS_CHECK_UNSOLVED])
    entries = {e.iid: e for e in deck}
    problems = []
    for o in picks:
        e = entries[o.iid]
        row = m.cli.bench_worker({
            "map": str(map_file), "map_name": map_file.name, "scen": None,
            "n": e.n, "f": wl.f, "model": wl.model, "fd": wl.fd, "algo": wl.algo,
            "seed": e.seed, "timeout": SOLVE_BUDGET_S,
        })
        mine = (o.iid, "solved" if o.cost is not None else "failure",
                "" if o.cost is not None else o.status, o.cost)
        theirs = (row["instance_id"], row["outcome"], row["failure_reason"], row["cost_normalized"])
        if mine != theirs:
            problems.append(f"cross-check {o.iid}: benchmark {mine} vs bench_worker {theirs}")
    return problems


def pct(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end(setup_times, passes) -> dict:
    """Per-instance latencies are medians over the passes; percentiles are
    then taken over the deck, so each instance counts once."""
    per_instance: dict = {}
    for p in passes:
        for o in p.outcomes:
            per_instance.setdefault(o.iid, []).append(o)
    solve_ms = [1000 * statistics.median(o.solve_s for o in runs) for runs in per_instance.values()]
    verify_ms = [1000 * statistics.median(o.verify_s for o in runs)
                 for runs in per_instance.values() if runs[0].cost is not None]
    # one pass of single calls; with one caller and no I/O, throughput is its reciprocal
    cpu_s = (sum(solve_ms) + sum(verify_ms)) / 1000
    first = passes[0].outcomes
    solved = [o for o in first if o.cost is not None]
    verified = [o for o in solved if o.verdict == "verified"]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "instances_per_s": (len(per_instance) / cpu_s, "1/s"),
        "cpu_s": (cpu_s, "s"),
        "solve_ms_p50": (pct(solve_ms, 50), "ms"),
        "solve_ms_p90": (pct(solve_ms, 90), "ms"),
        "verify_ms_p50": (pct(verify_ms, 50) if verify_ms else 0.0, "ms"),
        "verify_ms_p90": (pct(verify_ms, 90) if verify_ms else 0.0, "ms"),
        "solved_frac": (len(solved) / len(first), "frac"),
        "verified_frac": (ratio(len(verified), len(solved)), "frac"),
        "cost_norm_mean": (statistics.fmean(o.cost for o in solved) if solved else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, setup_stats, stats, traced, untraced) -> dict:
    """Layer numbers per traced pass over the deck (set-up layers: per set-up)."""
    k = len(traced)
    outcomes = [o for p in traced for o in p.outcomes]
    dcrf_runs = outcomes if wl.algo == "dcrf" else []
    out = {}

    def layer(name, *fields, source=stats, per=k):
        st = source[name]
        values = {
            "calls": (st.calls / per, "count"),
            "s": (st.total_s / per, "s"),
            "self_s": (st.self_s / per, "s"),
            "none_frac": (ratio(st.none, st.calls), "frac"),
        }
        for field in fields:
            out[f"{name}.{field}"] = values[field]

    layer("pathfind.find_path_syn", "calls", "s", "none_frac")
    layer("pathfind.find_path_seq", "calls", "s", "none_frac")
    layer("core.bfs_distances", "calls", "s")
    layer("dcrf.solve", "calls", "s", "self_s")
    attempts = sum(o.attempts for o in dcrf_runs)
    out["dcrf.attempts"] = (attempts / k, "count")
    out["dcrf.events"] = (sum(o.events for o in dcrf_runs) / k, "count")
    out["dcrf.solved_per_attempt"] = (ratio(sum(o.cost is not None for o in dcrf_runs), attempts), "frac")
    for stage in ("get_initial_plans", "refine_initial_paths", "run_events"):
        layer(f"dcrf.Planner.{stage}", "s")
    layer("dcrf.Planner.find_backup_path", "calls", "s", "none_frac")
    layer("disjoint.solve_disjoint", "calls", "s", "self_s")
    nodes = sum(o.nodes for o in outcomes)
    out["disjoint.nodes"] = (nodes / k, "count")
    out["disjoint.nodes_per_s"] = (ratio(nodes, stats["disjoint.solve_disjoint"].total_s), "1/s")
    for model, fields in (("syn", ("calls", "s")), ("seq", ("calls", "s", "self_s"))):
        name = f"verify.verify_{model}"
        layer(name, *fields)
        states = sum(o.states for o in outcomes) if wl.model == model else 0
        out[f"{name}.states"] = (states / k, "count")
        out[f"{name}.states_per_s"] = (ratio(states, stats[name].total_s), "1/s")
    for step in ("activate_seq", "crash_seq", "step_syn"):
        layer(f"execution.{step}", "calls", "s")
    layer("gen.gen_well_formed", "calls", "s", source=setup_stats, per=1)
    out["gen.gen_well_formed.giveups"] = (setup_stats["gen.gen_well_formed"].raised, "count")
    layer("fileio.parse_map", "s", source=setup_stats, per=1)
    # thread CPU time, which leaves out time the host took the CPU away
    traced_cpu = statistics.median(p.raw_cpu_s for p in traced)
    out["trace.overhead_s"] = (traced_cpu - untraced.raw_cpu_s, "s")
    target_s = sum(stats[name].total_s for name in wl.target)
    out["trace.target_share"] = (target_s / sum(p.wall_s for p in traced), "frac")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    end_at = time.perf_counter() + args.seconds
    m = load_package()
    wl = WORKLOADS[args.workload]

    probe = SpeedProbe()
    if args.trace:
        # the probe stays off: its interrupts would land inside traced spans
        deck = set_up(wl, ROOT, m.fileio, m.gen)
        order = visit_order(wl, deck, args.seed)
        # one call per operation, so layer counts are per instance
        untraced = run_pass(m, wl, deck, order, probe, 1)
        tracer = Tracer()
        install(tracer, m)
        try:
            tracer.instance = "set-up"
            set_up(wl, ROOT, m.fileio, m.gen)
            setup_stats = tracer.take_stats()
            passes = run_passes(m, wl, deck, order, end_at, probe, 1, tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        metrics = per_layer(wl, setup_stats, tracer.stats, passes, untraced)
        passes = [untraced] + passes
    else:
        with probe:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                with probe.measure() as clock:
                    deck = set_up(wl, ROOT, m.fileio, m.gen)
                setup_times.append(clock.seconds)
            passes = run_passes(m, wl, deck, visit_order(wl, deck, args.seed), end_at, probe,
                                REPEATS)
        metrics = end_to_end(setup_times, passes)

    problems = cross_check(m, wl, deck, passes[0].outcomes)
    digests = {digest(wl, p.outcomes) for p in passes}
    if len(digests) > 1:
        problems.append(f"passes gave different outputs: digests {sorted(digests)}")
    solved = [o for o in passes[0].outcomes if o.cost is not None]
    if any(o.verdict != "verified" for o in solved):
        problems.append("some solved plans did not verify")
    if any(o.status.startswith("error:") for p in passes for o in p.outcomes):
        problems.append("the solver raised")
    for line in problems:
        print(line, file=sys.stderr)

    outcomes = [o for p in passes for o in p.outcomes]
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(deck)} instances,"
          f" {len(passes)} passes, {len(solved)} solved; per pass: wall"
          f" {statistics.median(p.wall_s for p in passes):.2f} s, CPU"
          f" {statistics.median(p.raw_cpu_s for p in passes):.2f} s, reference CPU"
          f" {statistics.median(p.cpu_s for p in passes):.2f} s")
    print(f"digest {wl.name} {sorted(digests)[0]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.ops for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
