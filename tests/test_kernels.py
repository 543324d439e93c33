"""The disjoint CBS's kernels against their references in ``oracles``.

``core.bfs_fill``, ``pathfind.find_path_seq`` and
``pathfind.must_visit_mask`` run on benchmark-scale maps, a 16x16 and an
8x8 grid map and a directed graph, with random forbidden and penalty
masks. Each must give exactly what its reference gives: the same labels,
with and without an early stop, the same path, path mask and cut mask,
with None exactly where the reference finds no path, and the same
must-visit mask. The brute-force tests in ``test_pathfind``
and ``test_core`` pin the kernels' meaning on small graphs; these pin
their outputs at the scale the solvers run them.
"""

import random
from pathlib import Path

import pytest

import oracles
from mappcf import core, pathfind
from mappcf.core import Graph
from mappcf.fileio import parse_map
from mappcf.gen import grid_graph, random_grid_map

DATA = Path(__file__).resolve().parent.parent / "data"
CASES = 800  # per map and kernel


def one_way_grid(seed):
    """A 10x10 grid whose edges run one way or both, at random."""
    rng = random.Random(seed)
    edges = []
    for u, v in grid_graph(10, 10).edges():
        kind = rng.randrange(3)
        if kind != 1:
            edges.append((u, v))
        if kind != 0:
            edges.append((v, u))
    return Graph.build(100, edges, directed=True)


MAPS = {
    "random-16-16-10": lambda: parse_map((DATA / "random-16-16-10.map").read_text()),
    "grid-8-8-s0": lambda: parse_map(random_grid_map(8, 8, seed=0)),
    "one-way-10-10": lambda: one_way_grid(0),
}


def random_mask(rng, n, density):
    mask = 0
    for v in range(n):
        if rng.random() < density:
            mask |= 1 << v
    return mask


def random_route(rng, graph, start, goal, forbidden):
    """A simple start-goal path avoiding ``forbidden``, by a depth-first
    search that tries the neighbours in random order, or None."""
    parent = {start: None}
    stack = [start]
    while stack:
        u = stack.pop()
        if u == goal:
            path = [u]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        nbrs = [w for w in graph.adj[u] if w not in parent and not forbidden >> w & 1]
        rng.shuffle(nbrs)
        for w in nbrs:
            parent[w] = u
            stack.append(w)
    return None


@pytest.mark.parametrize("name", sorted(MAPS))
def test_kernels_match_their_references(name):
    graph = MAPS[name]()
    rng = random.Random(name)
    n = graph.n
    found = ties = inner = stopped = 0
    for case in range(CASES):
        start, goal = rng.randrange(n), rng.randrange(n)
        forbidden = random_mask(rng, n, rng.choice((0.0, 0.05, 0.15, 0.3)))
        if rng.random() < 0.8:
            forbidden &= ~(1 << start | 1 << goal)
        penalty = random_mask(rng, n, rng.choice((0.0, 0.1, 0.3, 0.6)))

        got = pathfind.find_path_seq(graph, start, goal, forbidden, penalty)
        want = oracles.find_path_seq(graph, start, goal, forbidden, penalty)
        assert got == want, (name, case)
        if got is not None:
            path = got[0]
            found += 1
            ties += path != pathfind.find_path_seq(graph, start, goal, forbidden)[0]
            for route in (path, random_route(rng, graph, start, goal, forbidden)):
                got_mv = pathfind.must_visit_mask(graph, route, forbidden)
                assert got_mv == oracles.must_visit_mask(graph, route, forbidden), (name, case)
                inner += got_mv.bit_count() > 2

        walls = core.mask_vertices(forbidden)
        for adj in (graph.adj, graph.reverse.adj) if graph.directed else (graph.adj,):
            for stop in (-1, rng.randrange(n)):
                got_d, want_d = [-1] * n, [-1] * n
                for v in walls:
                    got_d[v] = want_d[v] = -2
                core.bfs_fill(adj, got_d, start, stop)
                oracles.bfs_fill(adj, want_d, start, stop)
                assert got_d == want_d, (name, case, stop)
                stopped += stop >= 0 and got_d[stop] > 0
    # paths found and not, penalties that changed the path, separators
    # inside routes and early stops all occur
    assert CASES // 3 < found < CASES
    assert ties > CASES // 20 and inner > CASES // 20 and stopped > CASES // 20
