"""The benchmark's layer tracer still finds every binding it wraps.

``perfbench/tracer.py`` wraps package functions at the names their callers
look them up through. A refactor that drops or renames one of those names
breaks ``perfbench/run.py --trace 1``; this test fails on it first.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from mappcf import core, dcrf, disjoint, fileio, gen, pathfind
from mappcf.core import NFD, SYN
from mappcf.gen import fixture

verify = importlib.import_module("mappcf.verify")  # the package's ``verify`` is a function
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores(monkeypatch):
    tracer_mod = load_tracer(monkeypatch)
    tracer = tracer_mod.Tracer()
    modules = SimpleNamespace(core=core, pathfind=pathfind, dcrf=dcrf, disjoint=disjoint,
                              verify=verify, gen=gen, fileio=fileio)
    tracer_mod.install(tracer, modules)
    originals = list(tracer._originals)
    try:
        for owner, attr, fn in originals:
            assert getattr(owner, attr) is not fn, attr
        res = dcrf.solve(fixture("fig6").instance, dcrf.SolverConfig(model=SYN, fd=NFD))
        assert res.ok
        # the disjoint CBS replans through the search the tracer wraps
        assert disjoint.solve_disjoint(fixture("fig8").instance).ok
        # the verifiers step through the names the tracer wraps
        for name in ("fig1", "seq_anonymous"):
            fx = fixture(name)
            for sol in fx.solutions:
                assert verify.verify(fx.instance, sol).ok
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, attr
    stats = tracer.stats
    for name in ("dcrf.solve", "dcrf.Planner.get_initial_plans", "dcrf.Planner.run_events",
                 "dcrf.Planner.find_backup_path", "pathfind.find_path_syn",
                 "disjoint.solve_disjoint", "pathfind.find_path_seq",
                 "verify.verify_syn", "verify.verify_seq", "execution.step_syn",
                 "execution.activate_seq", "execution.crash_seq"):
        assert stats[name].calls > 0, name
