"""Documents and text formats: maps, scen files, JSON docs, result CSV."""

import dataclasses

import pytest
import test_verify

from mappcf.core import CORRECT, CRASHED_ANON, VACANT, crashed
from mappcf import fileio
from mappcf.execution import run_seq
from mappcf.gen import fixture, grid_graph, random_grid_map
from mappcf.verify import verify_seq, verify_syn


class TestParseMap:
    def test_shipped_bench_map(self, data_dir):
        g = fileio.parse_map((data_dir / "random-16-16-10.map").read_text())
        assert g.n == 230
        assert g.coords is not None

    def test_round_trip_through_text(self):
        text = random_grid_map(8, 8, seed=3)
        g = fileio.parse_map(text)
        assert g.n == 64 - text.count("@")

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            fileio.parse_map("type foo\nheight 1\nwidth 1\nmap\n.\n")

    def test_rejects_missing_dimension(self):
        with pytest.raises(ValueError):
            fileio.parse_map("type octile\nheight x\nwidth 1\nmap\n.\n")

    def test_rejects_non_decimal_dimension(self):
        # "\u00b2" (superscript two) passes str.isdigit but not int()
        with pytest.raises(ValueError, match="map header line 2: expected 'height <count>'"):
            fileio.parse_map("type octile\nheight \u00b2\nwidth 1\nmap\n.\n")

    def test_rejects_short_row(self):
        with pytest.raises(ValueError):
            fileio.parse_map("type octile\nheight 1\nwidth 3\nmap\n..\n")

    def test_rejects_unknown_glyph(self):
        with pytest.raises(ValueError):
            fileio.parse_map("type octile\nheight 1\nwidth 2\nmap\n.z\n")

    def test_terrain_glyphs(self):
        g = fileio.parse_map("type octile\nheight 1\nwidth 4\nmap\n.G@T\n")
        assert g.n == 2  # G walkable, @ and T blocked


class TestScen:
    def test_round_trip(self):
        g = grid_graph(4, 4)
        pairs = [(0, 15), (3, 12)]
        text = fileio.scen_text(g, pairs, "mini.map", 4, 4)
        starts, goals = fileio.parse_scen(text, 2, g)
        assert starts == (0, 3) and goals == (15, 12)

    def test_shipped_scen(self, data_dir):
        g = fileio.parse_map((data_dir / "random-16-16-10.map").read_text())
        starts, goals = fileio.parse_scen((data_dir / "sample.scen").read_text(), 10, g)
        assert len(starts) == 10 and len(set(starts)) == 10

    def test_too_few_rows(self):
        g = grid_graph(4, 4)
        text = fileio.scen_text(g, [(0, 15)], "mini.map", 4, 4)
        with pytest.raises(ValueError):
            fileio.parse_scen(text, 2, g)

    def test_needs_coordinates(self):
        from mappcf.core import Graph

        g = Graph.build(2, [(0, 1)])
        with pytest.raises(ValueError):
            fileio.parse_scen("version 1\n", 1, g)


class TestDocs:
    def test_canonical_bytes(self):
        import json

        fx = fixture("fig1")
        doc = fileio.instance_to_doc(fx.instance)
        s = fileio.dumps_doc(doc)
        assert s.endswith("\n")
        assert ": " not in s and ", " not in s  # compact separators
        assert fileio.dumps_doc(json.loads(s)) == s  # stable under reload

    def test_instance_round_trip(self, tmp_path):
        fx = fixture("fig6")
        p = tmp_path / "inst.json"
        fileio.write_instance(p, fx.instance)
        back = fileio.read_instance(p)
        assert back == fx.instance
        # a second dump is byte-identical
        fileio.write_instance(tmp_path / "again.json", back)
        assert (tmp_path / "again.json").read_bytes() == p.read_bytes()

    def test_instance_with_map_ref(self, tmp_path):
        (tmp_path / "tiny.map").write_text(random_grid_map(4, 4, seed=2))
        g = fileio.parse_map((tmp_path / "tiny.map").read_text())
        from mappcf.core import Instance

        inst = Instance(graph=g, starts=(0, 1), goals=(g.n - 1, g.n - 2), f=1, name="t")
        p = tmp_path / "inst.json"
        fileio.write_instance(p, inst, map_ref="tiny.map")
        doc = fileio.read_doc(p)
        assert doc["graph"] == {"map": "tiny.map"}
        assert fileio.read_instance(p) == inst

    def test_solution_round_trip(self, tmp_path):
        for name in ("fig1", "seq_anonymous"):
            fx = fixture(name)
            for i, sol in enumerate(fx.solutions):
                p = tmp_path / f"{name}-{i}.json"
                fileio.write_solution(p, sol)
                assert fileio.read_solution(p) == sol

    def test_trigger_encodings(self):
        assert fileio._obs_to_json(VACANT) == ["vacant"]
        assert fileio._obs_to_json(CORRECT) == ["correct"]
        assert fileio._obs_to_json(CRASHED_ANON) == ["crashed"]
        assert fileio._obs_to_json(crashed(2)) == ["crashed", 2]
        for obs in (VACANT, CORRECT, CRASHED_ANON, crashed(2)):
            assert fileio._obs_from_json(fileio._obs_to_json(obs), "t") == obs

    def test_bool_trigger_agent_is_refused(self, tmp_path):
        # JSON true is a Python int; read as an agent id it would be agent 1
        doc = fileio.solution_to_doc(fixture("fig1").solutions[0])
        doc["plans"][1]["rules"][0]["trigger"] = ["crashed", True]
        p = tmp_path / "s.json"
        fileio.write_doc(p, doc)
        with pytest.raises(ValueError, match=r"plan 1, rule 0: bad trigger.*no bools"):
            fileio.read_solution(p)

    def test_bad_doc_kind(self, tmp_path):
        p = tmp_path / "x.json"
        fileio.write_doc(p, {"kind": "mystery"})
        with pytest.raises(ValueError):
            fileio.read_instance(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{nope")
        with pytest.raises(ValueError):
            fileio.read_doc(p)


class TestWitnessDocs:
    def test_syn_witness_shape(self):
        fx = fixture("fig1")
        sol = fx.solutions[0]
        plans = (sol.plans[0], dataclasses.replace(sol.plans[1], rules=()))
        ce = verify_syn(fx.instance, dataclasses.replace(sol, plans=plans), f=1).counterexample
        doc = fileio.counterexample_to_doc(ce)
        assert doc["kind"] == "witness"
        assert doc["failure"] == "collision"
        assert doc["agents"] == [0, 1]
        assert doc["crash_times"] == {"0": 2}  # json keys are strings

    def test_seq_witness_shape(self):
        fx = fixture("fig1")
        sol = fx.solutions[1]
        plans = (sol.plans[0], dataclasses.replace(sol.plans[1], rules=()))
        ce = verify_seq(fx.instance, dataclasses.replace(sol, plans=plans), f=1).counterexample
        doc = fileio.counterexample_to_doc(ce)
        assert doc["failure"] == "unreachable_goal"
        assert doc["schedule"] == []

    def test_livelock_witness_shape(self):
        inst, sol = test_verify.TestFairLivelock().build(with_shuttle=True)
        ce = verify_seq(inst, sol, f=0).counterexample
        doc = fileio.counterexample_to_doc(ce)
        assert doc["failure"] == "livelock" and doc["cycle"]
        assert doc["schedule"] == [[op, a] for op, a in ce.schedule]
        assert doc["cycle"] == [[op, a] for op, a in ce.cycle]
        # the document's prefix and a few laps of its cycle finish no one
        r = run_seq(inst, sol, doc["schedule"] + doc["cycle"] * 3)
        assert r.outcome == "stuck"


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            {
                "instance_id": "a",
                "map": "m.map",
                "model": "syn",
                "fd": "nfd",
                "algo": "dcrf",
                "n_agents": 2,
                "f": 1,
                "outcome": "solved",
                "failure_reason": "",
                "runtime_ms": 12,
                "cost_normalized": 1.25,
            },
            {
                "instance_id": "b",
                "map": "m.map",
                "model": "syn",
                "fd": "nfd",
                "algo": "disjoint",
                "n_agents": 2,
                "f": 1,
                "outcome": "failure",
                "failure_reason": "timeout",
                "runtime_ms": 30000,
                "cost_normalized": None,
            },
        ]
        dest = tmp_path / "r.csv"
        fileio.write_results(rows, dest)
        text = dest.read_text()
        assert text.splitlines()[0] == ",".join(fileio.RESULT_COLUMNS)
        assert "1.2500" in text
        back = fileio.read_results(dest)
        assert back[0]["cost_normalized"] == "1.2500"
        assert back[1]["cost_normalized"] == ""
        assert len(back) == 2
