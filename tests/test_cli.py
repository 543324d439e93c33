"""Command-line surface: exit codes, artifacts, printed summaries."""

import json
import re

import pytest

from mappcf import cli, dcrf, fileio
from mappcf.core import normalized_cost
from mappcf.gen import random_grid_map
from mappcf.fileio import scen_text


def run_cli(*argv):
    return cli.main(list(argv))


def gen_fixture(tmp_path, name):
    out = tmp_path / f"{name}.instance.json"
    assert run_cli("gen", "fixture", name, "--out", str(out)) == 0
    return out


class TestGenFixture:
    def test_writes_instance_and_refs(self, tmp_path, capsys):
        out = gen_fixture(tmp_path, "fig1")
        assert out.exists()
        assert (tmp_path / "fig1.instance.ref-syn-afd.json").exists()
        assert (tmp_path / "fig1.instance.ref-seq-afd.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_priority_sidecar(self, tmp_path):
        gen_fixture(tmp_path, "fig8")
        prio = tmp_path / "fig8.instance.priority.txt"
        assert prio.exists()
        assert cli._read_priority(prio) == (0, 1, 2)

    def test_unknown_fixture_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run_cli("gen", "fixture", "nope", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSolveVerifyFlow:
    def test_three_agent_example_end_to_end(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig6")
        assert (
            run_cli(
                "solve", "--instance", str(inst), "--model", "syn", "--fd", "nfd",
                "--algo", "dcrf", "--f", "1",
            )
            == 0
        )
        out_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert out_line.startswith("solved reason=-")
        sol_path = re.search(r"out=(\S+)", out_line).group(1)
        assert (
            run_cli("verify", "--instance", str(inst), "--solution", sol_path, "--f", "1")
            == 0
        )
        assert capsys.readouterr().out.startswith("verified")

    def test_pinned_priority_reports_failure(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig8")
        prio = tmp_path / "fig8.instance.priority.txt"
        code = run_cli(
            "solve", "--instance", str(inst), "--model", "syn",
            "--priority", str(prio),
        )
        assert code == 2
        assert "reason=no_backup" in capsys.readouterr().out

    def test_no_backup_names_the_event(self, tmp_path, capsys):
        # the second line is the event whose backup search failed: agent
        # 0's path 1 is blocked at its step 3 once agent 1 crashes on
        # vertex 0 in round 3
        inst = gen_fixture(tmp_path, "fig8")
        prio = tmp_path / "fig8.instance.priority.txt"
        capsys.readouterr()
        code = run_cli(
            "solve", "--instance", str(inst), "--model", "syn", "--algo", "dcrf",
            "--priority", str(prio),
        )
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("failure reason=no_backup ")
        assert lines[1] == "event agent=0 path=1 step=3 crashed=1 vertex=0 round=3"

    @pytest.mark.parametrize("algo", ["dcrf", "disjoint"])
    @pytest.mark.parametrize("timeout", ["nan", "-5"])
    def test_bad_timeout_is_an_error(self, tmp_path, capsys, algo, timeout):
        # a NaN budget never runs out and a negative one runs out at once
        inst = gen_fixture(tmp_path, "fig8")
        capsys.readouterr()
        code = run_cli("solve", "--instance", str(inst), "--algo", algo, "--timeout", timeout)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: deadline must be None or a number >= 0")

    @pytest.mark.parametrize(
        "argv", [("solve",), ("solve", "--instance", "x.json", "--timeout", "abc")])
    def test_flag_misuse_is_a_usage_error(self, capsys, argv):
        # argparse exits 2 with its usage line before any subcommand runs
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: mappcf solve")

    def test_non_integer_priority_names_file_and_flag(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig8")
        prio = tmp_path / "bad.priority.txt"
        prio.write_text("0 x\n")
        capsys.readouterr()
        code = run_cli("solve", "--instance", str(inst), "--priority", str(prio))
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --priority {prio}: agent ids must be integers, got 'x'\n"

    def test_priority_with_disjoint_is_an_error(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig8")
        prio = tmp_path / "fig8.instance.priority.txt"
        capsys.readouterr()
        code = run_cli(
            "solve", "--instance", str(inst), "--algo", "disjoint",
            "--priority", str(prio),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "--priority" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value", [("--seed", "0"), ("--seed", "7")])
    def test_dcrf_flag_with_disjoint_is_an_error(self, tmp_path, capsys, flag, value):
        inst = gen_fixture(tmp_path, "fig8")
        capsys.readouterr()
        code = run_cli("solve", "--instance", str(inst), "--algo", "disjoint", flag, value)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} ")
        assert captured.out == ""
        assert not list(tmp_path.glob("*.solution.json"))

    def test_dcrf_seed_defaults_to_0(self, tmp_path, monkeypatch):
        inst = gen_fixture(tmp_path, "fig6")
        seen = []
        real = dcrf.solve

        def spy(inst, cfg):
            seen.append(cfg.seed)
            return real(inst, cfg)

        monkeypatch.setattr(dcrf, "solve", spy)
        assert run_cli("solve", "--instance", str(inst)) == 0
        assert run_cli("solve", "--instance", str(inst), "--seed", "5") == 0
        assert run_cli("solve", "--instance", str(inst), "--algo", "disjoint") == 2  # infeasible
        assert seen == [0, 5]

    def test_verify_reference_seq_solution(self, tmp_path):
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-seq-afd.json"
        assert run_cli("verify", "--instance", str(inst), "--solution", str(ref), "--f", "1") == 0

    def test_refuted_solution_writes_witness(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-syn-afd.json"
        doc = fileio.read_doc(ref)
        doc["plans"][1]["rules"] = []
        broken = tmp_path / "broken.json"
        fileio.write_doc(broken, doc)
        assert run_cli("verify", "--instance", str(inst), "--solution", str(broken)) == 3
        assert "refuted kind=collision" in capsys.readouterr().out
        witness = fileio.read_doc(tmp_path / "broken.witness.json")
        assert witness["kind"] == "witness"
        assert witness["crash_times"] == {"0": 2}

    def test_state_cap_overflow_is_exit_1(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig6")
        ref = tmp_path / "fig6.instance.ref-syn-nfd.json"
        code = run_cli(
            "verify", "--instance", str(inst), "--solution", str(ref),
            "--state-cap", "2",
        )
        assert code == 1
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("too_large")

    @pytest.mark.parametrize("flag, value, named", [
        ("--f", "-1", "crash budget f must be None or an int >= 0, got -1"),
        ("--state-cap", "-4", "state_cap must be an int >= 0, got -4"),
    ])
    def test_negative_budget_or_cap_is_an_error(self, tmp_path, capsys, flag, value, named):
        inst = gen_fixture(tmp_path, "fig6")
        ref = tmp_path / "fig6.instance.ref-syn-nfd.json"
        capsys.readouterr()
        code = run_cli("verify", "--instance", str(inst), "--solution", str(ref), flag, value)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {named}\n"
        assert captured.out == ""

    def test_identical_invocations_identical_artifacts(self, tmp_path):
        inst = gen_fixture(tmp_path, "fig6")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(
                "solve", "--instance", str(inst), "--seed", "5", "--out", str(out)
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("doc, damage, named", [
        ("instance", lambda d: d.update(starts=["x", 3]), "field 'starts'"),
        ("instance", lambda d: d.update(goals=[True, 4]), "field 'goals'"),
        ("instance", lambda d: d["graph"]["edges"].__setitem__(0, [0, "1"]), "field 'edges'"),
        ("instance", lambda d: d["graph"]["edges"].__setitem__(0, [0, 1, 2]), "field 'edges'"),
        ("instance", lambda d: d["graph"].update(coords=[[0, 0.5]] * 5), "field 'coords'"),
        ("instance", lambda d: d["graph"].update(directed="no"), "field 'directed'"),
        ("instance", lambda d: d.update(graph={"map": 5}), "field 'map'"),
        ("solution", lambda d: d["plans"][1]["paths"].__setitem__(0, [0, "1", 2]),
         "plan 1: field 'paths'"),
        ("solution", lambda d: d["plans"][1].update(rules=5), "plan 1: field 'rules'"),
        ("solution", lambda d: d["plans"][1]["rules"].__setitem__(0, 5), "rule 0: not an object"),
        ("solution", lambda d: d["plans"][1]["rules"][0].update(watch=True),
         "rule 0: field 'watch' has wrong type"),
    ], ids=["start-str", "goal-bool", "edge-str", "edge-triple", "coord-float", "directed-str",
            "map-int", "path-str", "rules-int", "rule-int", "watch-bool"])
    def test_malformed_document_is_an_error(self, tmp_path, capsys, doc, damage, named):
        # a wrongly typed vertex id or entry is a data error (exit 1), not a traceback
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-syn-afd.json"
        bad = tmp_path / "bad.json"
        content = fileio.read_doc(inst if doc == "instance" else ref)
        damage(content)
        fileio.write_doc(bad, content)
        runs = [("verify", "--instance", str(inst), "--solution", str(bad))]
        if doc == "instance":
            runs = [("solve", "--instance", str(bad)),
                    ("verify", "--instance", str(bad), "--solution", str(ref))]
        capsys.readouterr()
        for argv in runs:
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {doc} document") and named in err, err


class TestSimulate:
    def test_syn_crash_replay(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-syn-afd.json"
        code = run_cli(
            "simulate", "--instance", str(inst), "--solution", str(ref),
            "--crash", "0@2",
        )
        assert code == 0
        assert "outcome=arrived" in capsys.readouterr().out

    def test_syn_crashes_over_budget_are_noted(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig1")  # f = 1
        ref = tmp_path / "fig1.instance.ref-syn-afd.json"
        code = run_cli(
            "simulate", "--instance", str(inst), "--solution", str(ref),
            "--crash", "0@1", "--crash", "1@1",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warning: crash count 2 exceeds budget f=1" in out
        assert "outcome=arrived" in out

    def test_seq_schedule_replay(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-seq-afd.json"
        sched = tmp_path / "sched.txt"
        sched.write_text("# crash the leader first\ncrash 0\nactivate 1\nactivate 1\nactivate 1\n")
        code = run_cli(
            "simulate", "--instance", str(inst), "--solution", str(ref),
            "--schedule", str(sched),
        )
        assert code == 0
        assert "outcome=arrived" in capsys.readouterr().out

    def test_failing_replay_is_exit_3(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-syn-afd.json"
        doc = fileio.read_doc(ref)
        doc["plans"][1]["rules"] = []
        bare = tmp_path / "bare.json"
        fileio.write_doc(bare, doc)
        code = run_cli(
            "simulate", "--instance", str(inst), "--solution", str(bare),
            "--crash", "0@2",
        )
        assert code == 3
        assert "outcome=collision" in capsys.readouterr().out

    @pytest.mark.parametrize("crashes, message", [
        (["0@0"], "rounds start at 1"),
        (["0@2", "0@1"], "agent 0 twice"),
        (["5@1"], "names agent 5"),
        # str.isdigit accepts a superscript two, which int() refuses
        (["1@\u00b2"], "--crash wants 'agent@round'"),
    ], ids=["round-0", "agent-twice", "no-agent-5", "superscript-round"])
    def test_bad_crash_is_an_error(self, tmp_path, capsys, crashes, message):
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-syn-afd.json"
        flags = [arg for c in crashes for arg in ("--crash", c)]
        code = run_cli("simulate", "--instance", str(inst), "--solution", str(ref), *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("agent", ["9", "-1"])
    def test_schedule_agent_out_of_range_is_an_error(self, tmp_path, capsys, agent):
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-seq-afd.json"
        sched = tmp_path / "sched.txt"
        sched.write_text(f"activate 0\nactivate {agent}\n")
        code = run_cli(
            "simulate", "--instance", str(inst), "--solution", str(ref),
            "--schedule", str(sched),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"#2 names agent {agent}" in err

    def test_non_integer_schedule_agent_names_file_and_flag(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-seq-afd.json"
        sched = tmp_path / "sched.txt"
        sched.write_text("activate 0\nactivate x\n")
        capsys.readouterr()
        code = run_cli(
            "simulate", "--instance", str(inst), "--solution", str(ref),
            "--schedule", str(sched),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --schedule {sched}: agent ids must be integers, got 'x'\n"

    def test_seq_crash_flag_is_an_error(self, tmp_path, capsys):
        # a seq run crashes agents by schedule lines only
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-seq-afd.json"
        sched = tmp_path / "sched.txt"
        sched.write_text("activate 1\n")
        code = run_cli(
            "simulate", "--instance", str(inst), "--solution", str(ref),
            "--schedule", str(sched), "--crash", "1@1",
        )
        assert code == 1
        assert "sequential solutions take --schedule, not --crash" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda plan: plan["rules"][0].update(from_path=7), "from_path out of range"),
        (lambda plan: plan["paths"][0].__setitem__(2, 99), "vertex 99 out of range"),
    ], ids=["rule-from-path-7", "vertex-99"])
    def test_unexecutable_solution_is_an_error(self, tmp_path, capsys, damage, message):
        # simulate refuses what verify refuses, with the same message
        inst = gen_fixture(tmp_path, "fig1")
        doc = fileio.read_doc(tmp_path / "fig1.instance.ref-syn-afd.json")
        damage(doc["plans"][1])
        bad = tmp_path / "bad.json"
        fileio.write_doc(bad, doc)
        for command in (["verify"], ["simulate", "--crash", "0@2"]):
            code = run_cli(command[0], "--instance", str(inst), "--solution", str(bad),
                           *command[1:])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: solution is not executable:") and message in err

    def test_crash_spec_syntax_error(self, tmp_path, capsys):
        inst = gen_fixture(tmp_path, "fig1")
        ref = tmp_path / "fig1.instance.ref-syn-afd.json"
        code = run_cli(
            "simulate", "--instance", str(inst), "--solution", str(ref),
            "--crash", "0at2",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestGenRandomAndSat:
    def test_random_instance_from_map(self, tmp_path):
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        out = tmp_path / "inst.json"
        code = run_cli(
            "gen", "random", "--map", str(tmp_path / "m8.map"),
            "--n", "3", "--f", "1", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        inst = fileio.read_instance(out)
        assert inst.n_agents == 3 and inst.f == 1
        assert inst.name == "m8-n3-f1-s0"

    def test_random_instance_from_scen(self, tmp_path):
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        g = fileio.parse_map((tmp_path / "m8.map").read_text())
        pairs = [(0, g.n - 1), (1, g.n - 2), (2, g.n - 3)]
        (tmp_path / "m8.scen").write_text(scen_text(g, pairs, "m8.map", 8, 8))
        out = tmp_path / "inst.json"
        code = run_cli(
            "gen", "random", "--map", str(tmp_path / "m8.map"),
            "--scen", str(tmp_path / "m8.scen"),
            "--n", "2", "--f", "1", "--out", str(out),
        )
        assert code == 0
        inst = fileio.read_instance(out)
        assert inst.starts == (0, 1) and inst.goals == (g.n - 1, g.n - 2)
        assert inst.name == "m8-n2-f1"

    def test_seed_without_scen_defaults_to_zero(self, tmp_path):
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        insts = []
        for seed in ((), ("--seed", "0")):
            out = tmp_path / f"inst{len(insts)}.json"
            code = run_cli("gen", "random", "--map", str(tmp_path / "m8.map"),
                           "--n", "3", *seed, "--out", str(out))
            assert code == 0
            insts.append(fileio.read_instance(out))
        assert insts[0] == insts[1] and insts[0].name == "m8-n3-f1-s0"

    def test_seed_with_scen_is_an_error(self, tmp_path, capsys):
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        g = fileio.parse_map((tmp_path / "m8.map").read_text())
        (tmp_path / "m8.scen").write_text(scen_text(g, [(0, g.n - 1)], "m8.map", 8, 8))
        out = tmp_path / "inst.json"
        code = run_cli(
            "gen", "random", "--map", str(tmp_path / "m8.map"),
            "--scen", str(tmp_path / "m8.scen"),
            "--n", "1", "--seed", "5", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --seed applies to sampled instances only, not to --scen\n")
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_scen_with_n_below_1_is_an_error(self, tmp_path, capsys, n):
        # with a negative n, the first n rows would be all but the last -n
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        g = fileio.parse_map((tmp_path / "m8.map").read_text())
        pairs = [(0, g.n - 1), (1, g.n - 2), (2, g.n - 3)]
        (tmp_path / "m8.scen").write_text(scen_text(g, pairs, "m8.map", 8, 8))
        out = tmp_path / "inst.json"
        code = run_cli(
            "gen", "random", "--map", str(tmp_path / "m8.map"),
            "--scen", str(tmp_path / "m8.scen"), "--n", n, "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: scenario needs at least 1 agent, got n={n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, f", [("0", "1"), ("-1", "1"), ("2", "-1")])
    def test_out_of_range_n_or_f_is_an_error(self, tmp_path, capsys, n, f):
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        out = tmp_path / "inst.json"
        code = run_cli(
            "gen", "random", "--map", str(tmp_path / "m8.map"),
            "--n", n, "--f", f, "--seed", "0", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: need at least 1 agent and f >= 0, got n={n}, f={f}\n")
        assert not out.exists()

    def test_sat_from_dimacs(self, tmp_path):
        (tmp_path / "phi.cnf").write_text("c demo\np cnf 3 2\n1 2 -3 0\n-1 2 3 0\n")
        out = tmp_path / "sat.json"
        assert run_cli("gen", "sat", "--dimacs", str(tmp_path / "phi.cnf"), "--out", str(out)) == 0
        inst = fileio.read_instance(out)
        assert inst.graph.n == 28 and inst.n_agents == 5
        assert inst.name == "sat-phi"

    def test_non_integer_dimacs_literal_names_file_and_flag(self, tmp_path, capsys):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 2 1\n1 x 0\n")
        out = tmp_path / "sat.json"
        code = run_cli("gen", "sat", "--dimacs", str(cnf), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --dimacs {cnf}: literals must be integers, got 'x'\n"
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli("solve", "--instance", str(tmp_path / "gone.json"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestBench:
    CONFIG = {
        "map": "m8.map",
        "n": [2],
        "f": [1],
        "models": ["syn"],
        "algos": ["dcrf", "disjoint"],
        "seeds": [0, 1, 2],
        "timeout": 5,
    }

    def test_smoke_run(self, tmp_path, capsys):
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "results.csv"
        assert run_cli("bench", "--config", str(cfg), "--jobs", "1", "--out", str(out)) == 0
        assert "bench rows=6" in capsys.readouterr().out
        rows = fileio.read_results(out)
        assert len(rows) == 6
        assert [r["algo"] for r in rows[:2]] == ["dcrf", "disjoint"]  # sorted rows

    def test_jobs_do_not_change_results(self, tmp_path):
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        one = cli.run_bench(dict(self.CONFIG), 1, tmp_path / "one.csv", base_dir=tmp_path)
        two = cli.run_bench(dict(self.CONFIG), 2, tmp_path / "two.csv", base_dir=tmp_path)

        def scrub(rows):
            # wall clock is the one legitimately nondeterministic column
            return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]

        assert scrub(one) == scrub(two)

    @pytest.mark.parametrize("timeout", [float("nan"), -5, "10"])
    def test_bad_timeout_is_an_error(self, tmp_path, capsys, timeout):
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, timeout=timeout)))
        out = tmp_path / "results.csv"
        assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: bench config: timeout must be")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, named", [
        ("algos", ["bogus"], "algos must be a list drawn from ['dcrf', 'disjoint']"),
        ("models", ["syn", "async"], "models must be a list drawn from"),
        ("fds", "nfd", "fds must be a list drawn from"),
        ("n", 2, "n must be a list of ints, got 2"),
        ("f", [1.0], "f must be a list of ints"),
        ("seeds", [0, True], "seeds must be a list of ints"),
        ("n", [2, 0], "n values must be >= 1, got [2, 0]"),
        ("f", [-1], "f values must be >= 0, got [-1]"),
        ("map", 5, "map and scen must be paths"),
        ("scen", ["a.scen"], "map and scen must be paths"),
    ])
    def test_bad_grid_axis_is_an_error(self, tmp_path, capsys, key, value, named):
        # checked before any row runs: _run_algo sends every algo but dcrf to disjoint
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, **{key: value})))
        out = tmp_path / "results.csv"
        assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: bench config: {named}")
        assert not out.exists()

    def test_undrawable_instance_is_a_giveup_row(self, tmp_path):
        # a crash budget above the agent count draws no instance
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, n=[1], f=[2], algos=["dcrf"], seeds=[0])))
        out = tmp_path / "results.csv"
        assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 0
        [row] = fileio.read_results(out)
        assert (row["instance_id"], row["outcome"], row["failure_reason"]) == (
            "m8-n1-f2-s0", "failure", "giveup")
        assert (row["runtime_ms"], row["cost_normalized"]) == ("0", "")

    def test_unknown_config_key_is_an_error(self, tmp_path):
        (tmp_path / "m8.map").write_text(random_grid_map(8, 8, seed=0))
        config = dict(self.CONFIG, model=["seq"])  # typo for "models"
        with pytest.raises(ValueError, match="unknown keys"):
            cli.run_bench(config, 1, tmp_path / "out.csv", base_dir=tmp_path)


class TestBenchScen:
    def task(self, data_dir, scen, algo="dcrf"):
        return {
            "map": str(data_dir / "random-16-16-10.map"),
            "map_name": "random-16-16-10.map",
            "scen": str(scen),
            "n": 2,
            "f": 1,
            "model": "syn",
            "fd": "nfd",
            "algo": algo,
            "seed": 0,
            "timeout": 10,
        }

    def test_row_matches_gen_scen_instance(self, data_dir, tmp_path):
        row = cli.bench_worker(self.task(data_dir, data_dir / "sample.scen"))
        out = tmp_path / "inst.json"
        code = run_cli(
            "gen", "random", "--map", str(data_dir / "random-16-16-10.map"),
            "--scen", str(data_dir / "sample.scen"),
            "--n", "2", "--f", "1", "--out", str(out),
        )
        assert code == 0
        inst = fileio.read_instance(out)
        res = dcrf.solve(inst, dcrf.SolverConfig(model="syn", fd="nfd", deadline=10, seed=0))
        assert res.ok
        assert (row["instance_id"], row["outcome"], row["cost_normalized"]) == (
            "random-16-16-10-n2-f1-s0", "solved", normalized_cost(inst, res.solution)
        )

    def test_duplicate_starts_are_rejected(self, data_dir, tmp_path):
        rows = (data_dir / "sample.scen").read_text().splitlines()
        dup = rows[1].split("\t")
        dup[6:8] = rows[2].split("\t")[6:8]  # same start cell, other goal
        scen = tmp_path / "dup.scen"
        scen.write_text("\n".join([rows[0], rows[1], "\t".join(dup)]) + "\n")
        for algo in ("dcrf", "disjoint"):
            with pytest.raises(ValueError, match="starts are not pairwise distinct"):
                cli.bench_worker(self.task(data_dir, scen, algo))
