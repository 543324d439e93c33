"""Layer tracing from outside the package.

`Tracer.wrap` replaces a function at the binding its callers look it up
through (a module global such as ``mappcf.dcrf.find_path_syn``, or a class
attribute such as ``mappcf.dcrf.Planner.run_events``) with a timing
wrapper, and `Tracer.uninstall` puts every original back. Nothing inside
the package is edited.

Each wrapped call adds to its layer's call count, total time, self time
(total minus the time of traced calls nested directly inside it), the
number of calls that returned None and the number that raised. Calls of
coarse layers are also kept as spans (id, parent span id, name, start,
end, instance id) and written out when the run ends. Per-state and
per-search-node functions (the verifier's step functions and the BFS) are
counted but not kept as spans: a single plan makes hundreds of thousands
of those calls.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, replace


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    none: int = 0
    raised: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.spans: list = []
        self.instance = None  # id stamped on spans opened from now on
        self._stack: list = []  # per active call: [nearest span id, nested traced time]
        self._ids = itertools.count(1)
        self._originals: list = []

    def wrap(self, owner, attr: str, name: str, spans: bool = True) -> None:
        fn = getattr(owner, attr)
        st = self.stats.setdefault(name, LayerStats())
        stack, ids, out = self._stack, self._ids, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            sid = next(ids) if spans else None
            frame = [sid if spans else parent, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            else:
                if result is None:
                    st.none += 1
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if spans:
                    out.append((sid, parent, name, t0, t1, self.instance))

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def take_stats(self) -> "dict[str, LayerStats]":
        """Return the counters gathered so far and start new ones."""
        taken = {name: replace(st) for name, st in self.stats.items()}
        # the wrappers hold on to their LayerStats objects, so reset in place
        for st in self.stats.values():
            vars(st).update(vars(LayerStats()))
        return taken

    def write_spans(self, path) -> None:
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "name", "start_s", "end_s", "instance"]}) + "\n")
            for sid, parent, name, t0, t1, inst in self.spans:
                fh.write(json.dumps([sid, parent, name, round(t0 - origin, 7),
                                     round(t1 - origin, 7), inst]) + "\n")


def install(tracer: Tracer, m) -> None:
    """Wrap the public functions of every measured layer at their call sites.

    ``m`` carries the imported package modules (core, pathfind, dcrf,
    disjoint, verify, gen, fileio).
    """
    tracer.wrap(m.fileio, "parse_map", "fileio.parse_map")
    tracer.wrap(m.gen, "gen_well_formed", "gen.gen_well_formed")
    tracer.wrap(m.dcrf, "solve", "dcrf.solve")
    for stage in ("get_initial_plans", "refine_initial_paths", "run_events", "find_backup_path"):
        tracer.wrap(m.dcrf.Planner, stage, f"dcrf.Planner.{stage}")
    tracer.wrap(m.dcrf, "find_path_syn", "pathfind.find_path_syn")
    tracer.wrap(m.dcrf, "find_path_seq", "pathfind.find_path_seq")
    tracer.wrap(m.disjoint, "solve_disjoint", "disjoint.solve_disjoint")
    tracer.wrap(m.disjoint, "find_path_seq", "pathfind.find_path_seq")
    tracer.wrap(m.verify, "verify_syn", "verify.verify_syn")
    tracer.wrap(m.verify, "verify_seq", "verify.verify_seq")
    for step in ("step_syn", "activate_seq", "crash_seq"):
        tracer.wrap(m.verify, step, f"execution.{step}", spans=False)
    for owner in (m.core, m.gen, m.pathfind):
        tracer.wrap(owner, "bfs_distances", "core.bfs_distances", spans=False)
