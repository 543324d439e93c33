"""Event-driven planning can paint itself into a corner.

On this map the stored priority order plans agent 0 straight down the
short corridor.  Later events then demand a detour that no longer
exists, because lower-priority agents were routed through every escape
vertex.  Random restarts shuffle the order but every order fails the
same way.  Planning all agents at once (vertex-disjoint paths) finds
the long way around and is immune to crashes by construction.
"""

import dataclasses

from mappcf import NFD, SYN, fixture, solve, solve_disjoint
from mappcf.dcrf import SolverConfig
from mappcf.verify import verify_syn


def main():
    fx = fixture("fig8")
    inst = fx.instance
    print(f"instance: {inst.graph.n} vertices, starts {inst.starts}, "
          f"goals {inst.goals}, up to {inst.f} crashes")
    print(f"stored priority: {fx.priority}")
    print(f"stored primaries: {fx.initial_paths}")

    pinned = solve(inst, SolverConfig(
        model=SYN, fd=NFD,
        priority=fx.priority, initial_paths=fx.initial_paths,
    ))
    print(f"\npinned order: {pinned.status} after {pinned.attempts} attempt")
    print(f"    no backup for {pinned.events[-1].describe()}")

    free = solve(inst, SolverConfig(model=SYN, fd=NFD, seed=0))
    print(f"free order:   {free.status} after {free.attempts} attempts "
          "(identity order plus restarts, every one dead-ends)")

    d = solve_disjoint(inst)
    print(f"\ndisjoint planner: {d.status}")
    for a, path in enumerate(d.initial_paths):
        print(f"    agent {a}: {path}")

    # Disjoint paths never interact, so the same plan holds for any f.
    for f in (0, 1, 2):
        chk = verify_syn(dataclasses.replace(inst, f=f), d.solution)
        print(f"verify at f={f}: {chk.status}")


if __name__ == "__main__":
    main()
