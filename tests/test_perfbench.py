"""The benchmark's workloads still give the outputs its digests pin.

``perfbench/run.py`` prints a digest of every instance's outputs (status,
normalized cost, event count, CBS nodes, verdict, verifier states). A
speed-up must leave them unchanged; this test takes one pass over each
workload's deck, one call per operation with the speed probe unarmed, as
the traced mode's untraced pass does, and checks the digest.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py`` as a module; it imports its siblings by name."""
    siblings = [name for name in ("probe", "tracer", "workloads") if name not in sys.modules]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    yield module
    for name in siblings:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload, expected", [
    ("syn-dcrf-16", "717968d9afc1bf37"),
    ("cbs-disjoint-8", "64d1d799a3ae47fa"),
    ("seq-verify-8", "d84ae22bbc44ba2d"),
])
def test_digest_is_pinned(bench, workload, expected):
    m = bench.load_package()
    wl = bench.WORKLOADS[workload]
    deck = bench.set_up(wl, bench.ROOT, m.fileio, m.gen)
    order = bench.visit_order(wl, deck, 0)
    one_pass = bench.run_pass(m, wl, deck, order, bench.SpeedProbe(), 1)
    assert bench.digest(wl, one_pass.outcomes) == expected
