"""Instance generation.

Three sources of problems: seeded random well-formed instances on a given
graph, the five named fixture instances used throughout the test suite,
and a reduction from 3-CNF satisfiability that produces directed
instances whose disjoint-path tuples correspond to satisfying
assignments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    AFD,
    CRASHED_ANON,
    NFD,
    SEQ,
    SYN,
    VACANT,
    Graph,
    Instance,
    Path,
    Plan,
    Solution,
    TransitionRule,
    bfs_distances,
    check_necessary,
    crashed,
)


class GiveUp(Exception):
    """Rejection sampling ran out of tries."""


def grid_graph(width: int, height: int, obstacles=frozenset()) -> Graph:
    """4-connected grid over passable cells; ids row-major, coords (col, row)."""
    ids: dict[tuple[int, int], int] = {}
    coords: list[tuple[int, int]] = []
    for r in range(height):
        for c in range(width):
            if (c, r) in obstacles:
                continue
            ids[(c, r)] = len(coords)
            coords.append((c, r))
    edges = []
    for (c, r), u in ids.items():
        for dc, dr in ((1, 0), (0, 1)):
            w = ids.get((c + dc, r + dr))
            if w is not None:
                edges.append((u, w))
    return Graph.build(len(coords), edges, coords=tuple(coords))


def random_grid_map(width: int, height: int, ratio: float = 0.1, seed: int = 0) -> str:
    """Seeded random obstacle map in the common grid map text format.

    Places round(ratio * cells) obstacles and resamples until the passable
    region is connected, so every generated map is usable as-is.
    """
    count = round(ratio * width * height)
    rng = random.Random(seed)
    cells = [(c, r) for r in range(height) for c in range(width)]
    for _ in range(1000):
        obs = set(rng.sample(cells, count))
        g = grid_graph(width, height, obs)
        if g.n == 0:
            continue
        if all(d >= 0 for d in bfs_distances(g, 0)):
            rows = []
            for r in range(height):
                rows.append(
                    "".join("@" if (c, r) in obs else "." for c in range(width))
                )
            header = f"type octile\nheight {height}\nwidth {width}\nmap\n"
            return header + "\n".join(rows) + "\n"
    raise GiveUp(f"no connected {width}x{height} map at ratio {ratio}")


def gen_well_formed(
    graph: Graph, n_agents: int, f: int, seed: int, max_tries: int = 10_000
) -> Instance:
    """Sample distinct starts/goals until the necessary condition holds.

    Each sample costs :func:`check_necessary` one search per agent, plus
    one per crash set that meets the agent's route. Deterministic for a
    fixed seed. Raises ValueError for fewer than one agent or a negative
    crash budget, and GiveUp when max_tries samples all fail, including
    the degenerate cases where no sample can be valid: f above n_agents,
    or a graph with fewer than 2 * n_agents vertices.
    """
    if n_agents < 1 or f < 0:
        raise ValueError(f"need at least 1 agent and f >= 0, got n={n_agents}, f={f}")
    if f > n_agents:
        raise GiveUp(f"crash budget f={f} exceeds the {n_agents} agents")
    if 2 * n_agents > graph.n:
        raise GiveUp(
            f"{n_agents} agents need {2 * n_agents} distinct vertices, "
            f"graph has {graph.n}"
        )
    rng = random.Random(seed)
    verts = list(range(graph.n))
    for _ in range(max_tries):
        picks = rng.sample(verts, 2 * n_agents)
        inst = Instance(
            graph=graph,
            starts=tuple(picks[:n_agents]),
            goals=tuple(picks[n_agents:]),
            f=f,
            name=f"random-n{n_agents}-f{f}-s{seed}",
        )
        if check_necessary(inst).holds:
            return inst
    raise GiveUp(f"no well-formed instance after {max_tries} tries")


# --- SAT reduction ---------------------------------------------------------


def parse_dimacs(text: str) -> list[tuple[int, ...]]:
    """Clauses from DIMACS CNF text; comment and problem lines are skipped.

    Raises ValueError naming the first token that is not an integer."""
    clauses: list[tuple[int, ...]] = []
    cur: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("p"):
            continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError(f"literals must be integers, got {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(cur))
                cur = []
            else:
                cur.append(lit)
    if cur:
        clauses.append(tuple(cur))
    return clauses


def sat_to_mappcf(clauses) -> Instance:
    """Reduce a 3-CNF formula to a directed instance with f=1.

    Literals are DIMACS-style signed integers. Each variable becomes an
    agent with exactly two routes: an upper chain through one vertex per
    negative occurrence and a lower chain through one vertex per positive
    occurrence (setting the variable true means taking the upper chain,
    leaving the positive occurrence vertices free). Each clause becomes
    an agent with one route per literal: start, a vertex unique to the
    literal, the literal's occurrence vertex on the matching variable
    chain, goal. Vertex-disjoint routes for everyone exist exactly when
    the formula is satisfiable.
    """
    clauses = [tuple(int(lit) for lit in c) for c in clauses]
    if not clauses:
        raise ValueError("formula has no clauses")
    for c in clauses:
        if not (1 <= len(c) <= 3):
            raise ValueError(f"clause {c!r} must have 1 to 3 literals")
        if any(lit == 0 for lit in c):
            raise ValueError("literal 0 is not allowed")
    variables = sorted({abs(lit) for c in clauses for lit in c})

    counter = 0

    def new_vertex() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    edges: list[tuple[int, int]] = []
    var_start: dict[int, int] = {}
    var_goal: dict[int, int] = {}
    occ_vertex: dict[tuple[int, int], int] = {}
    for v in variables:
        s = new_vertex()
        g = new_vertex()
        upper = new_vertex()
        lower = new_vertex()
        var_start[v] = s
        var_goal[v] = g
        edges.append((s, upper))
        edges.append((s, lower))
        up_prev, low_prev = upper, lower
        for ci, c in enumerate(clauses):
            for li, lit in enumerate(c):
                if abs(lit) != v:
                    continue
                w = new_vertex()
                occ_vertex[(ci, li)] = w
                if lit < 0:
                    edges.append((up_prev, w))
                    up_prev = w
                else:
                    edges.append((low_prev, w))
                    low_prev = w
        edges.append((up_prev, g))
        edges.append((low_prev, g))

    clause_start: list[int] = []
    clause_goal: list[int] = []
    for ci, c in enumerate(clauses):
        s = new_vertex()
        g = new_vertex()
        clause_start.append(s)
        clause_goal.append(g)
        for li in range(len(c)):
            unique = new_vertex()
            edges.append((s, unique))
            edges.append((unique, occ_vertex[(ci, li)]))
            edges.append((occ_vertex[(ci, li)], g))

    graph = Graph.build(counter, edges, directed=True)
    starts = tuple(var_start[v] for v in variables) + tuple(clause_start)
    goals = tuple(var_goal[v] for v in variables) + tuple(clause_goal)
    return Instance(graph=graph, starts=starts, goals=goals, f=1, name="sat")


# --- fixtures --------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """A named instance with whatever reference material exists for it."""

    name: str
    instance: Instance
    solutions: tuple[Solution, ...] = ()
    initial_paths: "tuple[Path, ...] | None" = None
    disjoint_paths: "tuple[Path, ...] | None" = None
    priority: "tuple[int, ...] | None" = None
    notes: str = ""


FIXTURE_NAMES = ("fig1", "fig3", "fig6", "fig8", "seq_anonymous")


def _fixture_fig1() -> Fixture:
    g = Graph.build(5, [(0, 1), (1, 2), (1, 3), (1, 4), (0, 3), (0, 4)])
    inst = Instance(graph=g, starts=(0, 3), goals=(2, 4), f=1, name="fig1")
    syn = Solution(
        model=SYN,
        fd=AFD,
        plans=(
            Plan(paths=((0, 1, 2),)),
            Plan(
                paths=((3, 3, 1, 4), (3, 1, 4), (3, 0, 4)),
                rules=(
                    TransitionRule(0, 1, 0, CRASHED_ANON, 1),
                    TransitionRule(0, 2, 1, CRASHED_ANON, 2),
                ),
            ),
        ),
    )
    seq = Solution(
        model=SEQ,
        fd=AFD,
        plans=(
            Plan(paths=((0, 1, 2),)),
            Plan(
                paths=((3,), (3, 1, 4), (3, 0, 4)),
                rules=(
                    TransitionRule(0, 1, 0, CRASHED_ANON, 1),
                    TransitionRule(0, 1, 0, VACANT, 2),
                ),
            ),
        ),
    )
    return Fixture(
        name="fig1",
        instance=inst,
        solutions=(syn, seq),
        notes="two agents sharing a hub; anonymous detector suffices",
    )


def _fixture_fig3() -> Fixture:
    g = Graph.build(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)])
    inst = Instance(graph=g, starts=(0, 4), goals=(3, 5), f=1, name="fig3")
    syn = Solution(
        model=SYN,
        fd=NFD,
        plans=(
            Plan(paths=((0, 1, 2, 3),)),
            Plan(
                paths=((4, 4, 4, 1, 5), (4, 2, 5), (4, 1, 5)),
                rules=(
                    TransitionRule(0, 2, 1, crashed(0), 1),
                    TransitionRule(0, 3, 2, crashed(0), 2),
                ),
            ),
        ),
    )
    return Fixture(
        name="fig3",
        instance=inst,
        solutions=(syn,),
        notes="solvable with waits and timing in syn; unsolvable in seq",
    )


def _fixture_fig6() -> Fixture:
    g = Graph.build(
        7,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (1, 4),
            (2, 5),
            (4, 5),
            (0, 4),
            (5, 3),
            (6, 2),
            (6, 3),
            (1, 6),
            (4, 2),
        ],
    )
    inst = Instance(graph=g, starts=(0, 1, 6), goals=(3, 4, 5), f=1, name="fig6")
    syn = Solution(
        model=SYN,
        fd=NFD,
        plans=(
            Plan(
                paths=((0, 1, 2, 3), (0, 4, 2, 3), (1, 6, 3), (4, 5, 3)),
                rules=(
                    TransitionRule(0, 1, 1, crashed(1), 1),
                    TransitionRule(0, 2, 2, crashed(2), 2),
                    TransitionRule(1, 2, 2, crashed(2), 3),
                ),
            ),
            Plan(paths=((1, 4),)),
            Plan(paths=((6, 2, 5),)),
        ),
    )
    return Fixture(
        name="fig6",
        instance=inst,
        solutions=(syn,),
        notes="three agents, one crash; solver walkthrough instance",
    )


def _fixture_fig8() -> Fixture:
    g = Graph.build(
        14,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (5, 6),
            (6, 1),
            (1, 7),
            (8, 3),
            (3, 9),
            (0, 6),
            (0, 7),
            (0, 10),
            (10, 11),
            (11, 12),
            (12, 13),
            (13, 4),
        ],
    )
    inst = Instance(graph=g, starts=(0, 5, 8), goals=(4, 7, 9), f=2, name="fig8")
    return Fixture(
        name="fig8",
        instance=inst,
        initial_paths=((0, 1, 2, 3, 4), (5, 6, 1, 7), (8, 3, 9)),
        disjoint_paths=((0, 10, 11, 12, 13, 4), (5, 6, 1, 7), (8, 3, 9)),
        priority=(0, 1, 2),
        notes=(
            "event-driven planning dead-ends under the stored priority "
            "although the detour corridor admits a disjoint tuple"
        ),
    )


def _fixture_seq_anonymous() -> Fixture:
    g = Graph.build(
        7,
        [
            (0, 1),
            (0, 2),
            (0, 6),
            (1, 2),
            (1, 3),
            (1, 5),
            (1, 6),
            (2, 4),
            (2, 5),
            (2, 6),
            (3, 5),
            (3, 6),
            (4, 5),
            (4, 6),
            (5, 6),
        ],
    )
    inst = Instance(
        graph=g, starts=(0, 4, 3), goals=(5, 1, 2), f=2, name="seq_anonymous"
    )
    seq = Solution(
        model=SEQ,
        fd=NFD,
        plans=(
            Plan(
                paths=((0, 6, 5), (0, 1, 5), (0, 2, 5)),
                rules=(
                    TransitionRule(0, 1, 6, crashed(1), 1),
                    TransitionRule(0, 1, 6, crashed(2), 2),
                    TransitionRule(1, 1, 1, crashed(2), 2),
                    TransitionRule(2, 1, 2, crashed(1), 1),
                ),
            ),
            Plan(
                paths=((4, 6, 1), (4, 5, 1), (4, 2, 1)),
                rules=(
                    TransitionRule(0, 1, 6, crashed(0), 1),
                    TransitionRule(0, 1, 6, crashed(2), 2),
                    TransitionRule(1, 1, 5, crashed(2), 2),
                    TransitionRule(2, 1, 2, crashed(0), 1),
                ),
            ),
            Plan(
                paths=((3, 6, 2), (3, 5, 2), (3, 1, 2)),
                rules=(
                    TransitionRule(0, 1, 6, crashed(0), 1),
                    TransitionRule(0, 1, 6, crashed(1), 2),
                    TransitionRule(1, 1, 5, crashed(1), 2),
                    TransitionRule(2, 1, 1, crashed(0), 1),
                ),
            ),
        ),
    )
    return Fixture(
        name="seq_anonymous",
        instance=inst,
        solutions=(seq,),
        notes="needs crash identities: anonymized copies of these plans fail",
    )


_FIXTURES = {
    "fig1": _fixture_fig1,
    "fig3": _fixture_fig3,
    "fig6": _fixture_fig6,
    "fig8": _fixture_fig8,
    "seq_anonymous": _fixture_seq_anonymous,
}


def fixture(name: str) -> Fixture:
    try:
        build = _FIXTURES[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}"
        ) from None
    return build()
