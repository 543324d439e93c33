"""The benchmark's workloads and the set-up that builds their instances.

Each workload is a fixed deck of instances: one map, one (model, detector,
algorithm) and every combination of its agent counts and instance seeds.
The deck is the same for every workload seed, so the deterministic
metrics (solved_frac, verified_frac, cost_norm_mean) and the output digest
do not depend on the seed; the workload seed only sets the order in which
a pass visits the deck. The decks were sized so one pass takes a few
seconds to about ten seconds on one core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

# CPU seconds each solve may spend. The slowest call in any deck needs about
# 4 s, so a timeout never decides a verdict; one that happens still counts
# as a failed operation.
SOLVE_BUDGET_S = 60.0

# Maps produced by gen.random_grid_map instead of read from data/:
# stem -> (width, height, seed).
GENERATED_MAPS = {"grid-8-8-s0": (8, 8, 0)}


@dataclass(frozen=True)
class Workload:
    name: str
    map_stem: str
    agents: tuple  # agent counts n
    f: int
    model: str
    algo: str  # "dcrf" | "disjoint"
    seeds: range  # instance seeds, crossed with ``agents``
    target: tuple  # traced layers the workload is meant to load
    fd: str = "nfd"


WORKLOADS = {
    w.name: w
    for w in (
        # Failing solves walk the whole space-time horizon in find_path_syn.
        Workload("syn-dcrf-16", "random-16-16-10", (6, 8), 1, "syn", "dcrf",
                 range(4), ("pathfind.find_path_syn",)),
        # CBS runs until it decides, including 26k-node infeasibility proofs.
        Workload("cbs-disjoint-8", "grid-8-8-s0", (2, 3, 4), 1, "syn", "disjoint",
                 range(12), ("disjoint.solve_disjoint",)),
        # Cheap greedy solves; the sequential verifier explores 2k-24k states.
        Workload("seq-verify-8", "grid-8-8-s0", (3, 4), 2, "seq", "dcrf",
                 range(16), ("verify.verify_seq",)),
    )
}


@dataclass(frozen=True)
class Entry:
    iid: str  # same format as the instance_id of `mappcf bench`
    n: int
    seed: int
    inst: object


def map_text(wl: Workload, root: Path, gen) -> str:
    if wl.map_stem in GENERATED_MAPS:
        width, height, seed = GENERATED_MAPS[wl.map_stem]
        return gen.random_grid_map(width, height, seed=seed)
    return (root / "data" / f"{wl.map_stem}.map").read_text()


def set_up(wl: Workload, root: Path, fileio, gen) -> "list[Entry]":
    """Map parsing plus instance generation: the work `setup_s` times."""
    graph = fileio.parse_map(map_text(wl, root, gen))
    deck = []
    for n in wl.agents:
        for seed in wl.seeds:
            iid = f"{wl.map_stem}-n{n}-f{wl.f}-s{seed}"
            inst = gen.gen_well_formed(graph, n, wl.f, seed)
            deck.append(Entry(iid, n, seed, replace(inst, name=iid)))
    return deck
