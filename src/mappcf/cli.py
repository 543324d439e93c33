"""Command line front end: solve, verify, simulate, gen, bench.

Exit codes are stable: 0 on success (solution found / verified /
artifacts written), 2 when a solver reports failure, 3 when the verifier
or simulator produces a counterexample, and 1 for data errors
(missing or malformed files, unknown fixture names, a verifier
state-space overflow). Flag misuse is left to argparse and exits with
its usual usage error. Identical invocations with identical seeds
produce identical artifacts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import dcrf, fileio, gen
from .core import (
    DETECTORS,
    MODELS,
    NFD,
    SEQ,
    SYN,
    Instance,
    cpu_deadline,
    normalized_cost,
    solution_cost,
    validate_instance,
)
from .dcrf import SolverConfig
from .disjoint import solve_disjoint
from .execution import run_seq, run_syn
from .verify import DEFAULT_STATE_CAP, verify

ALGOS = ("dcrf", "disjoint")


def _read_priority(path) -> tuple:
    toks = Path(path).read_text().replace(",", " ").split()
    ids = []
    for t in toks:
        try:
            ids.append(int(t))
        except ValueError:
            raise ValueError(f"--priority {path}: agent ids must be integers, got {t!r}") from None
    return tuple(ids)


def _run_algo(inst: Instance, algo: str, cfg: SolverConfig):
    """Run one solver; returns its result, which has the ``solution`` (or
    None), ``status`` and ``runtime`` (in s) of both solvers.

    ``disjoint`` reads only the model, detector and deadline of ``cfg``.
    """
    if algo == "dcrf":
        return dcrf.solve(inst, cfg)
    return solve_disjoint(inst, model=cfg.model, fd=cfg.fd, deadline=cfg.deadline)


def _scen_instance(graph, scen_path, n: int, f: int, name: str) -> Instance:
    """Instance from the first ``n`` rows of a scenario file; raises
    ValueError if it is malformed (e.g. two agents share a start)."""
    starts, goals = fileio.parse_scen(Path(scen_path).read_text(), n, graph)
    inst = Instance(graph=graph, starts=starts, goals=goals, f=f, name=name)
    problems = validate_instance(inst)
    if problems:
        raise ValueError("; ".join(problems))
    return inst


def _cmd_solve(args) -> int:
    inst = fileio.read_instance(args.instance)
    if args.f is not None:
        inst = replace(inst, f=args.f)
    if args.algo != "dcrf":
        for flag in ("priority", "seed"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies to dcrf only, not to --algo {args.algo}")
    priority = _read_priority(args.priority) if args.priority else None
    cfg = SolverConfig(
        model=args.model,
        fd=args.fd,
        deadline=args.timeout,
        seed=args.seed or 0,
        priority=priority,
    )
    res = _run_algo(inst, args.algo, cfg)
    sol, runtime = res.solution, res.runtime
    if sol is None:
        print(f"failure reason={res.status} runtime_ms={int(runtime * 1000)}")
        if res.status == "no_backup":
            print(res.events[-1].describe())
        return 2
    out = Path(args.out) if args.out else Path(args.instance).with_name(
        Path(args.instance).stem + f".{args.algo}-{args.model}.solution.json"
    )
    fileio.write_solution(out, sol)
    print(
        f"solved reason=- runtime_ms={int(runtime * 1000)}"
        f" cost={solution_cost(sol)} out={out}"
    )
    return 0


def _cmd_verify(args) -> int:
    inst = fileio.read_instance(args.instance)
    sol = fileio.read_solution(args.solution)
    res = verify(inst, sol, f=args.f, state_cap=args.state_cap)
    if res.status == "verified":
        print(f"verified model={res.model} f={res.f} states={res.states_explored}")
        return 0
    if res.status == "refuted":
        spath = Path(args.solution)
        wpath = spath.with_name(spath.stem + ".witness.json")
        fileio.write_doc(wpath, fileio.counterexample_to_doc(res.counterexample))
        print(f"refuted kind={res.counterexample.kind} witness={wpath}")
        return 3
    print(f"too_large reason={res.reason}")
    return 1


def _parse_crash_args(specs) -> dict:
    crash_times = {}
    for item in specs:
        agent, sep, when = item.partition("@")
        if not sep or not agent.strip().isdecimal() or not when.strip().isdecimal():
            raise ValueError(f"--crash wants 'agent@round', got {item!r}")
        a = int(agent)
        if a in crash_times:
            raise ValueError(f"--crash names agent {a} twice; an agent crashes once")
        crash_times[a] = int(when)
    return crash_times


def _parse_schedule(path) -> list:
    sched = []
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2 or parts[0] not in ("activate", "crash"):
            raise ValueError(f"--schedule {path}: line must be 'activate A' or 'crash A': {ln!r}")
        try:
            agent = int(parts[1])
        except ValueError:
            raise ValueError(
                f"--schedule {path}: agent ids must be integers, got {parts[1]!r}") from None
        sched.append((parts[0], agent))
    return sched


def _cmd_simulate(args) -> int:
    inst = fileio.read_instance(args.instance)
    sol = fileio.read_solution(args.solution)
    if sol.model == SEQ:
        if args.crash:
            raise ValueError("sequential solutions take --schedule, not --crash")
        if not args.schedule:
            raise ValueError("sequential solutions need --schedule FILE")
        res = run_seq(inst, sol, _parse_schedule(args.schedule))
    else:
        if args.schedule:
            raise ValueError("synchronous solutions take --crash, not --schedule")
        res = run_syn(inst, sol, _parse_crash_args(args.crash or []))
    sys.stdout.write(res.trace.text())
    extra = f" stuck={list(res.stuck_agents)}" if res.outcome == "stuck" else ""
    print(f"outcome={res.outcome} steps={res.steps}{extra}")
    return 0 if res.ok else 3


def _cmd_gen(args) -> int:
    written = []
    if args.source == "fixture":
        fx = gen.fixture(args.name)
        out = Path(args.out) if args.out else Path(f"{args.name}.instance.json")
        fileio.write_instance(out, fx.instance)
        written.append(out)
        for sol in fx.solutions:
            ref = out.with_name(out.stem + f".ref-{sol.model}-{sol.fd}.json")
            fileio.write_solution(ref, sol)
            written.append(ref)
        if fx.priority is not None:
            pri = out.with_name(out.stem + ".priority.txt")
            pri.write_text(" ".join(str(a) for a in fx.priority) + "\n")
            written.append(pri)
    elif args.source == "random":
        if args.scen and args.seed is not None:
            raise ValueError("--seed applies to sampled instances only, not to --scen")
        graph = fileio.parse_map(Path(args.map).read_text())
        stem = Path(args.map).stem
        if args.scen:
            inst = _scen_instance(graph, args.scen, args.n, args.f, f"{stem}-n{args.n}-f{args.f}")
        else:
            seed = args.seed or 0
            inst = gen.gen_well_formed(graph, args.n, args.f, seed)
            inst = replace(inst, name=f"{stem}-n{args.n}-f{args.f}-s{seed}")
        out = Path(args.out) if args.out else Path(f"{inst.name}.instance.json")
        fileio.write_instance(out, inst)
        written.append(out)
    else:
        try:
            clauses = gen.parse_dimacs(Path(args.dimacs).read_text())
        except ValueError as exc:
            raise ValueError(f"--dimacs {args.dimacs}: {exc}") from None
        inst = gen.sat_to_mappcf(clauses)
        inst = replace(inst, name=f"sat-{Path(args.dimacs).stem}")
        out = Path(args.out) if args.out else Path(f"{inst.name}.instance.json")
        fileio.write_instance(out, inst)
        written.append(out)
    print("wrote " + " ".join(str(p) for p in written))
    return 0


# --- bench -----------------------------------------------------------------


_BENCH_KEYS = ("map", "scen", "n", "f", "models", "fds", "algos", "seeds", "timeout")
_BENCH_DEFAULTS = {"models": [SYN], "fds": [NFD], "algos": ["dcrf"]}


def _bench_tasks(config: dict, base: Path) -> list[dict]:
    unknown = sorted(set(config) - set(_BENCH_KEYS))
    if unknown:
        raise ValueError(f"bench config: unknown keys {unknown}")
    for key in ("map", "n", "f", "seeds"):
        if key not in config:
            raise ValueError(f"bench config: missing key {key!r}")
    timeout = config.get("timeout", 30)
    try:
        cpu_deadline(timeout)
    except ValueError:
        raise ValueError(
            f"bench config: timeout must be null or a number >= 0, got {timeout!r}"
        ) from None
    # the grid's axes, in task order; None marks a list of ints
    axes = {}
    for key, allowed in (("n", None), ("f", None), ("models", MODELS), ("fds", DETECTORS),
                         ("algos", ALGOS), ("seeds", None)):
        vals = config.get(key, _BENCH_DEFAULTS.get(key))
        if not isinstance(vals, list) or not all(
                type(v) is int if allowed is None else v in allowed for v in vals):
            want = "a list of ints" if allowed is None else f"a list drawn from {list(allowed)}"
            raise ValueError(f"bench config: {key} must be {want}, got {vals!r}")
        axes[key] = vals
    for key, low in (("n", 1), ("f", 0)):
        if any(v < low for v in axes[key]):
            raise ValueError(f"bench config: {key} values must be >= {low}, got {axes[key]!r}")
    map_rel = config["map"]
    scen = config.get("scen")
    if not isinstance(map_rel, str) or not isinstance(scen, (str, type(None))):
        raise ValueError(f"bench config: map and scen must be paths, got {map_rel!r}, {scen!r}")
    return [
        {
            "map": str(base / map_rel),
            "map_name": Path(map_rel).name,
            "scen": str(base / scen) if scen else None,
            "n": n,
            "f": f,
            "model": model,
            "fd": fd,
            "algo": algo,
            "seed": seed,
            "timeout": timeout,
        }
        for n, f, model, fd, algo, seed in itertools.product(*axes.values())
    ]


def bench_worker(task: dict) -> dict:
    """One fully independent benchmark run; returns a result row."""
    row = {
        "instance_id": (
            f"{Path(task['map_name']).stem}-n{task['n']}"
            f"-f{task['f']}-s{task['seed']}"
        ),
        "map": task["map_name"],
        "model": task["model"],
        "fd": task["fd"],
        "algo": task["algo"],
        "n_agents": task["n"],
        "f": task["f"],
    }
    graph = fileio.parse_map(Path(task["map"]).read_text())
    try:
        if task["scen"]:
            inst = _scen_instance(graph, task["scen"], task["n"], task["f"], "")
        else:
            inst = gen.gen_well_formed(graph, task["n"], task["f"], task["seed"])
    except gen.GiveUp:
        row.update(
            outcome="failure",
            failure_reason="giveup",
            runtime_ms=0,
            cost_normalized=None,
        )
        return row
    inst = replace(inst, name=row["instance_id"])
    cfg = SolverConfig(
        model=task["model"], fd=task["fd"], deadline=task["timeout"], seed=task["seed"]
    )
    res = _run_algo(inst, task["algo"], cfg)
    sol, status = res.solution, res.status
    row["runtime_ms"] = int(res.runtime * 1000)
    if sol is not None:
        row["outcome"] = "solved"
        row["failure_reason"] = ""
        row["cost_normalized"] = normalized_cost(inst, sol)
    else:
        row["outcome"] = "failure"
        row["failure_reason"] = status
        row["cost_normalized"] = None
    return row


def run_bench(config: dict, jobs: int, out_path, base_dir=".") -> list[dict]:
    """Run the whole benchmark grid; rows are sorted, so the job count
    only affects wall time, never the output."""
    tasks = _bench_tasks(config, Path(base_dir))
    if jobs <= 1:
        rows = [bench_worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(bench_worker, tasks, chunksize=1))
    rows.sort(key=lambda r: (r["instance_id"], r["model"], r["fd"], r["algo"]))
    fileio.write_results(rows, out_path)
    return rows


def _cmd_bench(args) -> int:
    cfg_path = Path(args.config)
    config = json.loads(cfg_path.read_text())
    t0 = time.monotonic()
    rows = run_bench(config, args.jobs, args.out, base_dir=cfg_path.parent)
    solved = sum(1 for r in rows if r["outcome"] == "solved")
    print(
        f"bench rows={len(rows)} solved={solved}"
        f" runtime_s={time.monotonic() - t0:.1f} out={args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mappcf",
        description="plan, verify and benchmark crash-tolerant multi-agent paths",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("solve", help="run a solver on an instance document")
    ps.add_argument("--instance", required=True)
    ps.add_argument("--model", choices=MODELS, default=SYN)
    ps.add_argument("--fd", choices=DETECTORS, default=NFD)
    ps.add_argument("--algo", choices=ALGOS, default="dcrf")
    ps.add_argument("--f", type=int, default=None, help="override the document's f")
    ps.add_argument("--seed", type=int, help="dcrf's restart seed (default 0)")
    ps.add_argument("--timeout", type=float, default=30.0)
    ps.add_argument("--priority", help="file pinning the planning order")
    ps.add_argument("--out", help="solution document path")
    ps.set_defaults(func=_cmd_solve)

    pv = sub.add_parser("verify", help="exhaustively check a solution")
    pv.add_argument("--instance", required=True)
    pv.add_argument("--solution", required=True)
    pv.add_argument("--f", type=int, default=None)
    pv.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    pv.set_defaults(func=_cmd_verify)

    pm = sub.add_parser("simulate", help="replay one adversary choice with a trace")
    pm.add_argument("--instance", required=True)
    pm.add_argument("--solution", required=True)
    pm.add_argument(
        "--crash",
        action="append",
        metavar="AGENT@ROUND",
        help="synchronous crash; repeatable",
    )
    pm.add_argument("--schedule", help="sequential action file: 'activate A'/'crash A'")
    pm.set_defaults(func=_cmd_simulate)

    pg = sub.add_parser("gen", help="write instance documents")
    gsub = pg.add_subparsers(dest="source", required=True)
    pgf = gsub.add_parser("fixture", help="named instance with reference material")
    pgf.add_argument("name", help="one of: " + ", ".join(gen.FIXTURE_NAMES))
    pgf.add_argument("--out")
    pgf.set_defaults(func=_cmd_gen)
    pgr = gsub.add_parser("random", help="seeded well-formed instance on a map")
    pgr.add_argument("--map", required=True)
    pgr.add_argument("--scen", help="take starts/goals from a scenario file")
    pgr.add_argument("--n", type=int, required=True)
    pgr.add_argument("--f", type=int, default=1)
    pgr.add_argument("--seed", type=int, help="sampling seed (default 0); not with --scen")
    pgr.add_argument("--out")
    pgr.set_defaults(func=_cmd_gen)
    pgs = gsub.add_parser("sat", help="reduce a DIMACS CNF formula")
    pgs.add_argument("--dimacs", required=True)
    pgs.add_argument("--out")
    pgs.set_defaults(func=_cmd_gen)

    pb = sub.add_parser("bench", help="run a benchmark grid to CSV")
    pb.add_argument("--config", required=True)
    pb.add_argument("--jobs", type=int, default=1)
    pb.add_argument("--out", default="results.csv")
    pb.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, gen.GiveUp) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
