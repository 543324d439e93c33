"""Generators: grids, random maps, well-formed sampling, CNF reduction."""

import pytest

from mappcf.core import check_necessary, validate_instance, validate_solution
from mappcf.fileio import parse_map
from mappcf.gen import (
    FIXTURE_NAMES,
    GiveUp,
    fixture,
    gen_well_formed,
    grid_graph,
    parse_dimacs,
    random_grid_map,
    sat_to_mappcf,
)


class TestGridGraph:
    def test_open_3x3(self):
        g = grid_graph(3, 3)
        assert g.n == 9
        assert len(g.edges()) == 12
        assert g.coords[5] == (2, 1)
        assert g.adj[4] == (1, 3, 5, 7)  # center touches all four sides

    def test_obstacle_removes_cell(self):
        g = grid_graph(3, 3, obstacles=frozenset({(1, 1)}))
        assert g.n == 8
        assert (1, 1) not in g.coords
        # the middle column is cut; top middle now connects sideways only
        top_mid = g.coords.index((1, 0))
        assert all(g.coords[w][1] == 0 for w in g.adj[top_mid])

    def test_single_row(self):
        g = grid_graph(4, 1)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]


class TestRandomMap:
    def test_small_bench_map(self):
        text = random_grid_map(16, 16, ratio=0.1, seed=0)
        assert text.count("@") == 26
        g = parse_map(text)
        assert g.n == 230

    def test_large_bench_map(self):
        text = random_grid_map(32, 32, ratio=0.1, seed=0)
        assert text.count("@") == 102
        assert parse_map(text).n == 922

    def test_deterministic(self):
        assert random_grid_map(8, 8, seed=5) == random_grid_map(8, 8, seed=5)
        assert random_grid_map(8, 8, seed=5) != random_grid_map(8, 8, seed=6)

    def test_header_format(self):
        text = random_grid_map(4, 6, seed=1)
        lines = text.splitlines()
        assert lines[0] == "type octile"
        assert lines[1] == "height 6"
        assert lines[2] == "width 4"
        assert lines[3] == "map"
        assert len(lines) == 10 and all(len(row) == 4 for row in lines[4:])


class TestWellFormed:
    def test_sampled_instance_is_well_formed(self):
        g = parse_map(random_grid_map(16, 16, seed=0))
        inst = gen_well_formed(g, 3, 1, seed=0)
        assert validate_instance(inst) == []
        assert check_necessary(inst).holds
        assert inst.name == "random-n3-f1-s0"

    def test_deterministic_per_seed(self):
        g = grid_graph(5, 5)
        a = gen_well_formed(g, 3, 1, seed=7)
        b = gen_well_formed(g, 3, 1, seed=7)
        assert (a.starts, a.goals) == (b.starts, b.goals)

    @pytest.mark.parametrize("n, f", [(0, 1), (-1, 1), (2, -1)])
    def test_out_of_range_n_or_f_is_refused(self, n, f):
        # max_tries=0 gives up before the first draw: the check comes first
        g = grid_graph(5, 5)
        with pytest.raises(ValueError, match="need at least 1 agent and f >= 0"):
            gen_well_formed(g, n, f, seed=0, max_tries=0)

    def test_too_many_agents_gives_up(self):
        g = grid_graph(2, 2)
        with pytest.raises(GiveUp):
            gen_well_formed(g, 3, 1, seed=0)

    def test_budget_above_agent_count_gives_up_at_once(self):
        # max_tries=0 would give up with the generic message
        with pytest.raises(GiveUp, match="crash budget f=3 exceeds the 2 agents"):
            gen_well_formed(grid_graph(5, 5), 2, 3, seed=0, max_tries=0)


class TestDimacs:
    def test_parse_basic(self):
        text = "c a comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n"
        assert parse_dimacs(text) == [(1, -2, 3), (-1, 2)]

    def test_blank_lines_and_trailing_clause(self):
        text = "\n1 2 0\n\n-3"
        assert parse_dimacs(text) == [(1, 2), (-3,)]

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_dimacs("1 two 0\n")


class TestSatReduction:
    def test_pinned_size(self):
        inst = sat_to_mappcf([(1, 2, -3), (-1, 2, 3)])
        assert inst.graph.n == 28
        assert len(inst.graph.edges()) == 36
        assert inst.n_agents == 5
        assert inst.f == 1
        assert inst.graph.directed
        assert validate_instance(inst) == []

    def test_variables_then_clauses(self):
        # 3 variable agents first, then 2 clause agents
        inst = sat_to_mappcf([(1, 2, -3), (-1, 2, 3)])
        assert inst.name == "sat"

    def test_rejects_empty_formula(self):
        with pytest.raises(ValueError):
            sat_to_mappcf([])

    def test_rejects_wide_clause(self):
        with pytest.raises(ValueError):
            sat_to_mappcf([(1, 2, 3, 4)])

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            sat_to_mappcf([(0, 1)])

    def test_single_variable_formulas(self):
        assert validate_instance(sat_to_mappcf([(1,)])) == []
        assert validate_instance(sat_to_mappcf([(-1,)])) == []


class TestFixtures:
    def test_known_names(self):
        assert FIXTURE_NAMES == ("fig1", "fig3", "fig6", "fig8", "seq_anonymous")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("nope")

    def test_all_fixtures_validate(self):
        for name in FIXTURE_NAMES:
            fx = fixture(name)
            assert validate_instance(fx.instance) == [], name
            for sol in fx.solutions:
                assert validate_solution(fx.instance, sol) == [], name

    def test_incompleteness_fixture_extras(self):
        fx = fixture("fig8")
        assert fx.priority == (0, 1, 2)
        assert fx.initial_paths == ((0, 1, 2, 3, 4), (5, 6, 1, 7), (8, 3, 9))
        assert fx.disjoint_paths == (
            (0, 10, 11, 12, 13, 4),
            (5, 6, 1, 7),
            (8, 3, 9),
        )
