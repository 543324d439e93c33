"""Path searches against brute-force oracles and pinned scenarios."""

import random

import pytest

from mappcf import pathfind
from mappcf.core import Graph, bfs_distances, vertex_mask
from mappcf.gen import grid_graph
from mappcf.pathfind import (
    Reservations,
    find_path_seq,
    find_path_seq_cuts,
    find_path_seq_mask,
    find_path_syn,
    goal_distances,
    must_visit,
    must_visit_mask,
)
from oracles import best_timed_walk, must_visit_vertices, simple_paths


def random_connected_graph(rng, n):
    """Random tree plus a few chords; plain lists, no package helpers."""
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    for _ in range(rng.randrange(n)):
        u, v = rng.sample(range(n), 2)
        edges.add(tuple(sorted((u, v))))
    return Graph.build(n, sorted(edges))


def random_timed_walk(rng, g, length):
    """A walk along g's edges that waits now and then."""
    v = rng.randrange(g.n)
    out = [v]
    for _ in range(length - 1):
        if g.adj[v] and rng.random() < 0.7:
            v = rng.choice(g.adj[v])
        out.append(v)
    return tuple(out)


def oracle_shortest_paths(g, s, t):
    """All shortest s-t paths by breadth-first layers and recursion."""
    from collections import deque

    dist = {s: 0}
    q = deque([s])
    while q:
        u = q.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    if t not in dist:
        return []
    out = []

    def grow(prefix):
        u = prefix[-1]
        if u == t:
            out.append(tuple(prefix))
            return
        for w in g.adj[u]:
            if dist.get(w) == dist[u] + 1:
                grow(prefix + [w])

    grow([s])
    return out


@pytest.fixture
def tries(monkeypatch):
    """The phase-1 tries of each ``find_path_syn`` call, as
    ``(bound, bounded, found)``; the test clears the list between calls."""
    log = []
    grow = pathfind._grow

    def recording(adj, pred, start, goal, start_time, res, blocked, bound, dist):
        layers = grow(adj, pred, start, goal, start_time, res, blocked, bound, dist)
        log.append((bound, dist is not None, layers is not None))
        return layers

    monkeypatch.setattr(pathfind, "_grow", recording)
    return log


def route(log, horizon):
    """How a ``find_path_syn`` call decided, from its tries."""
    if not log:
        return "refused"  # before any layer: start, goal or distance rule it out
    bound, bounded, found = log[-1]
    if not bounded:
        return "unbounded"
    if found:
        return "first try" if len(log) == 1 else "retried"
    return "horizon" if bound >= horizon else "cut off"


def timed_case(g, s, t, reserved, blocked=frozenset(), penalty=frozenset(), start_time=1, f=0):
    """``find_path_syn`` and the oracle on one case, plus its horizon."""
    res = Reservations()
    for path, t0 in reserved:
        res.add_path(path, t0)
    got = find_path_syn(g, s, t, start_time, f, blocked=blocked, reservations=res,
                        penalty=penalty)
    want = best_timed_walk(g, s, t, reserved, blocked, penalty, start_time, f)
    return got, want, g.n + res.max_time + f * g.n


class TestFindPathSeq:
    def test_trivial_cases(self):
        g = grid_graph(3, 3)
        assert find_path_seq(g, 4, 4) == (4,)
        assert find_path_seq(g, 0, 0, forbidden=frozenset({0})) is None
        assert find_path_seq(g, 0, 8, forbidden=frozenset({8})) is None

    def test_disconnection_returns_none(self):
        g = Graph.build(4, [(0, 1), (2, 3)])
        assert find_path_seq(g, 0, 3) is None

    def test_matches_lexicographic_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randrange(4, 10))
            s, t = rng.sample(range(g.n), 2)
            want = min(oracle_shortest_paths(g, s, t))
            assert find_path_seq(g, s, t) == want

    def test_penalty_breaks_ties_only(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randrange(4, 10))
            s, t = rng.sample(range(g.n), 2)
            pen = frozenset(rng.sample(range(g.n), rng.randrange(g.n)))
            cands = oracle_shortest_paths(g, s, t)
            want = min(cands, key=lambda p: (sum(1 for v in p if v in pen), p))
            got = find_path_seq(g, s, t, penalty=pen)
            assert got == want
            assert len(got) == len(cands[0])  # length never sacrificed

    def test_penalty_pins_on_grid(self):
        g = grid_graph(3, 3)
        assert find_path_seq(g, 0, 8) == (0, 1, 2, 5, 8)
        assert find_path_seq(g, 0, 8, penalty=frozenset({1, 2})) == (0, 3, 4, 5, 8)
        assert find_path_seq(g, 0, 8, penalty=frozenset({3, 6})) == (0, 1, 2, 5, 8)

    def test_forbidden_reroutes(self):
        g = grid_graph(3, 3)
        p = find_path_seq(g, 0, 8, forbidden=frozenset({1, 5}))
        assert p == (0, 3, 4, 7, 8)

    def test_directed_graph(self):
        g = Graph.build(3, [(0, 1), (1, 2)], directed=True)
        assert find_path_seq(g, 0, 2) == (0, 1, 2)
        assert find_path_seq(g, 2, 0) is None

    def test_matches_simple_path_oracle(self):
        # shortest, then fewest penalized entries after the start, then
        # lexicographically smallest; directed and undirected, with
        # forbidden vertices (start and goal included now and then)
        rng = random.Random(2024)
        found = 0
        for case in range(400):
            n = rng.randrange(4, 10)
            directed = case % 2 == 1
            edges = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n, 3 * n))}
            g = Graph.build(n, sorted(edges), directed=directed)
            s, t = rng.randrange(n), rng.randrange(n)
            forbidden = frozenset(rng.sample(range(n), rng.randrange(3)))
            penalty = frozenset(rng.sample(range(n), rng.randrange(n)))
            paths = [p for p in simple_paths(g, s, t) if not forbidden & set(p)]
            want = min(
                paths,
                key=lambda p: (len(p), sum(1 for v in p[1:] if v in penalty), p),
                default=None,
            )
            assert find_path_seq(g, s, t, forbidden, penalty) == want, case
            found += want is not None
        assert 100 < found < 400  # both verdicts well represented

    def test_cuts_are_the_vertices_no_shortest_path_avoids(self):
        # a path vertex is a cut exactly when forbidding it as well makes
        # the shortest path longer or impossible; start and goal included
        rng = random.Random(5)
        found = partial = 0
        for case in range(400):
            n = rng.randrange(3, 10)
            edges = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n, 3 * n))}
            g = Graph.build(n, sorted(edges), directed=case % 2 == 1)
            s, t = rng.randrange(n), rng.randrange(n)
            forbidden = frozenset(rng.sample(range(n), rng.randrange(3)))
            penalty = frozenset(rng.sample(range(n), rng.randrange(n)))
            path, cuts = find_path_seq_cuts(g, s, t, forbidden, penalty)
            assert path == find_path_seq(g, s, t, forbidden, penalty), case
            # the kernel under the set adapters: every set as a bitmask
            got = find_path_seq_mask(g, s, t, vertex_mask(forbidden), vertex_mask(penalty))
            assert got == (path, vertex_mask(path or ()), vertex_mask(cuts)), case
            if path is None:
                assert cuts == frozenset(), case
                continue
            want = set()
            for v in path:
                q = find_path_seq(g, s, t, forbidden | {v}, penalty)
                if q is None or len(q) > len(path):
                    want.add(v)
            assert cuts == want, case
            found += 1
            partial += cuts != set(path)
        assert found > 150 and partial > 20  # cut sets both full and partial


class TestMustVisit:
    def test_pins(self):
        # two corridors rejoin at 4, so only 2 and 4 are unavoidable inside
        g = Graph.build(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 4), (4, 6)])
        assert must_visit(g, (0, 1, 2, 3, 4, 6)) == {0, 1, 2, 4, 6}
        assert must_visit(g, (0, 1, 2, 5, 4, 6), frozenset({3})) == {0, 1, 2, 5, 4, 6}
        assert must_visit(g, (3,)) == {3}
        d = Graph.build(4, [(0, 1), (1, 3), (0, 2), (2, 1)], directed=True)
        assert must_visit(d, (0, 2, 1, 3)) == {0, 1, 3}

    def test_raises_when_forbidden_cuts_the_goal_off(self):
        g = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            must_visit(g, (0, 1, 2, 3), frozenset({2}))

    def test_matches_vertex_deletion_oracle(self):
        # shortest and random simple routes, directed and undirected, with
        # random forbidden sets; the answer must not depend on the route
        rng = random.Random(77)
        checked = inner = 0
        for case in range(3000):
            n = rng.randrange(3, 10)
            edges = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n, 3 * n))}
            g = Graph.build(n, sorted(edges), directed=case % 2 == 1)
            s, t = rng.sample(range(n), 2)
            forbidden = frozenset(rng.sample([v for v in range(n) if v not in (s, t)],
                                             rng.randrange(n // 3 + 1)))
            shortest = find_path_seq(g, s, t, forbidden)
            if shortest is None:
                continue
            want = must_visit_vertices(g, s, t, forbidden)
            routes = [p for p in simple_paths(g, s, t) if not forbidden & set(p)]
            for path in (shortest, rng.choice(routes)):
                assert must_visit(g, path, forbidden) == want, case
                assert must_visit_mask(g, path, vertex_mask(forbidden)) == vertex_mask(want)
            checked += 1
            inner += len(want) > 2
        assert checked > 2000 and inner > 500  # separators inside the route occur


class TestReservations:
    def test_timed_occupancy(self):
        res = Reservations()
        res.add_path((0, 1, 2), start_time=1)
        assert res.blocked_at(1, 2)
        assert not res.blocked_at(1, 1)
        assert res.blocked_at(2, 3) and res.blocked_at(2, 99)  # parked forever

    def test_swap_detection(self):
        res = Reservations()
        res.add_path((0, 1), start_time=1)
        # the 0->1 hop departs at time 1, so the head-on probe is keyed there
        assert res.swap(1, 0, 1)
        assert not res.swap(0, 1, 1)
        assert not res.swap(1, 0, 2)

    def test_free_forever(self):
        res = Reservations()
        res.add_path((0, 1, 2), start_time=1)
        assert not res.free_forever(2, 5)
        assert res.free_forever(1, 3)
        assert not res.free_forever(1, 2)

    def test_max_time(self):
        res = Reservations()
        assert res.max_time == 0
        res.add_path((0, 1, 2), start_time=4)
        assert res.max_time == 6

    def test_content_ignores_order_and_repeats(self):
        # dcrf memoizes searches on the *set* of timed paths behind the
        # reservations, which is exact only if this holds
        def content(pairs):
            res = Reservations()
            for path, start in pairs:
                res.add_path(path, start)
            return res._occupied, res._moves, res._forever, res._last, res.max_time

        rng = random.Random(5)
        for _ in range(300):
            pairs = []
            for _ in range(rng.randint(1, 6)):
                path = [rng.randrange(6)]
                for _ in range(rng.randrange(8)):
                    # few vertices, so waits, revisits and shared ends occur
                    path.append(path[-1] if rng.random() < 0.3 else rng.randrange(6))
                pairs.append((tuple(path), rng.randint(1, 6)))
            want = content(pairs)
            for _ in range(4):
                shuffled = pairs + rng.choices(pairs, k=rng.randint(0, 3))
                rng.shuffle(shuffled)
                assert content(shuffled) == want


class TestFindPathSyn:
    def test_unconstrained_matches_seq(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randrange(4, 9))
            s, t = rng.sample(range(g.n), 2)
            assert find_path_syn(g, s, t) == find_path_seq(g, s, t)

    def test_waits_behind_lingerer(self):
        # 0-1-2 chain plus a side perch 3-1; the other agent sits on 1
        # for three rounds, ours has to idle at the start
        g = Graph.build(4, [(0, 1), (1, 2), (1, 3)])
        res = Reservations()
        res.add_path((3, 1, 1, 1, 3), start_time=1)
        p = find_path_syn(g, 0, 2, reservations=res)
        assert p == (0, 0, 0, 0, 1, 2)

    def test_swap_is_fatal_not_crossable(self):
        g = Graph.build(2, [(0, 1)])
        res = Reservations()
        res.add_path((1, 0), start_time=1)
        assert find_path_syn(g, 0, 1, reservations=res) is None

    def test_goal_must_be_free_forever(self):
        g = Graph.build(3, [(0, 1), (1, 2)])
        res = Reservations()
        res.add_path((2,), start_time=1)  # someone parked on our goal
        assert find_path_syn(g, 0, 2, reservations=res) is None

    def test_blocked_vertices(self):
        g = grid_graph(3, 3)
        p = find_path_syn(g, 0, 8, blocked=frozenset({1, 5}))
        assert p == (0, 3, 4, 7, 8)
        assert find_path_syn(g, 0, 8, blocked=frozenset({0})) is None

    def test_penalty_tiebreak(self):
        g = grid_graph(3, 3)
        p = find_path_syn(g, 0, 8, penalty=frozenset({1, 2}))
        assert p == (0, 3, 4, 5, 8)

    def test_start_beyond_horizon(self):
        g = Graph.build(3, [(0, 1), (1, 2)])
        assert find_path_syn(g, 0, 2, start_time=99) is None

    def test_start_time_shift(self):
        # entering late shifts the timeline; the reserved cell is clear by then
        g = Graph.build(4, [(0, 1), (1, 2), (1, 3)])
        res = Reservations()
        res.add_path((3, 1, 3), start_time=1)
        late = find_path_syn(g, 0, 2, reservations=res, start_time=3)
        assert late == (0, 1, 2)
        early = find_path_syn(g, 0, 2, reservations=res, start_time=1)
        assert early == (0, 0, 1, 2)

    def test_matches_space_time_oracle(self, tries):
        # directed and undirected graphs; other agents that wait, swap and
        # park; blocked vertices, penalty sets, start times 1-3 and f 0-1
        rng = random.Random(4)
        found = 0
        routes = dict.fromkeys(("refused", "first try", "retried", "horizon", "cut off",
                                "unbounded"), 0)
        for case in range(1200):
            n = rng.randrange(3, 8)
            edges = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n, 3 * n))}
            g = Graph.build(n, sorted(edges), directed=case % 2 == 1)
            reserved = [
                (random_timed_walk(rng, g, rng.randrange(1, 2 * n)), rng.randrange(1, 4))
                for _ in range(rng.randrange(4))
            ]
            blocked = frozenset(rng.sample(range(n), rng.randrange(3)))
            penalty = frozenset(rng.sample(range(n), rng.randrange(n)))
            s, t = rng.randrange(n), rng.randrange(n)
            start_time, f = rng.randrange(1, 4), rng.randrange(2)
            tries.clear()
            got, want, horizon = timed_case(g, s, t, reserved, blocked, penalty, start_time, f)
            assert got == want, case
            found += want is not None
            routes[route(tries, horizon)] += 1
        assert 250 < found < 950  # both verdicts well represented
        # every way to an answer is taken (770, 282, 73, 62, 4 and 9 times
        # with the slacks of this writing)
        assert min(routes.values()) >= 4, routes

    @pytest.mark.parametrize("hold, way", [(10, "retried"), (25, "unbounded")])
    def test_arrival_slack_beyond_the_first_tries(self, tries, hold, way):
        # the bridge 2 of the corridor 0-1-2-3-4 is held for ``hold``
        # rounds, so the arrival comes ``hold`` rounds after the goal
        # distance allows: past the first two slacks, and past all of them
        g = Graph.build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
        got, want, horizon = timed_case(g, 0, 4, [((5,) + (2,) * hold + (5,), 1)])
        assert got == want == (0,) * hold + (1, 2, 3, 4)
        assert route(tries, horizon) == way

    def test_directed_distances_run_against_the_edges(self, tries):
        # directed ring 0->1->...->5->0 plus 6->4; the goal 1 is five hops
        # ahead of 2 but one hop behind it, and 4 is held for 22 rounds
        g = Graph.build(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 4)],
                        directed=True)
        assert goal_distances(g, 1) == [bfs_distances(g, v)[1] for v in range(7)]
        assert goal_distances(g, 1) == [1, 0, 5, 4, 3, 2, 4]
        for hold, way in ((8, "retried"), (22, "unbounded")):
            tries.clear()
            got, want, horizon = timed_case(g, 2, 1, [((6,) + (4,) * hold + (6,), 1)])
            assert got == want == (2,) * hold + (3, 4, 5, 0, 1)
            assert route(tries, horizon) == way

    @pytest.mark.parametrize("other, f", [
        ((5, 2), 100),  # parks on the bridge at once, for good
        ((5,) + (2,) * 20 + (3,), 0),  # holds the bridge, then parks past it
    ], ids=["parked-on-bridge", "held-then-sealed"])
    def test_sealed_goal_ends_at_the_fixpoint(self, tries, other, f):
        # the goal is neither blocked nor parked on and the graph minus the
        # blocked set connects it, so only the unbounded try can refuse it:
        # it stops once the layer repeats after the last reservation, long
        # before the horizon
        g = Graph.build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
        got, want, horizon = timed_case(g, 0, 4, [(other, 1)], f=f)
        assert got is want is None
        assert route(tries, horizon) == "unbounded"

    def test_waits_out_a_long_hold_on_the_bridge(self):
        # corridor 0-1-2-3-4 with a perch 5 on the bridge 2; the other agent
        # holds 2 from round 2 to 13, so our layer stays {0, 1} for twelve
        # rounds before the last reservation, and only then grows
        g = Graph.build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
        res = Reservations()
        res.add_path((5,) + (2,) * 12 + (5,), start_time=1)
        p = find_path_syn(g, 0, 4, reservations=res)
        assert p == (0,) * 12 + (1, 2, 3, 4)

    def test_walled_off_goal_with_late_reservations(self, tries):
        # the blocked 4 cuts the goal off; the bounded tries end short of
        # the horizon, and a search of the graph minus 4 refuses it
        g = Graph.build(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        res = Reservations()
        res.add_path((0,) + (1,) * 29 + (2,), start_time=5)
        assert res.max_time == 35
        cons = dict(blocked=frozenset({4}), reservations=res)
        assert find_path_syn(g, 6, 3, **cons) is None
        assert route(tries, 7 + 35) == "cut off"
        tries.clear()
        assert find_path_syn(g, 6, 3, start_time=2, f=1, **cons) is None
        assert route(tries, 7 + 35 + 7) == "cut off"
