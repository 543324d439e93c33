"""File formats: grid maps, scenario lists, JSON documents, result tables.

Maps and scenarios follow the common text conventions of the grid
pathfinding benchmark suites (``type octile`` header, ``.``/``G``
passable, ``@``/``T``/``O`` blocked, tab-separated scenario rows).
Instances, solutions and verifier witnesses are stored as canonical
JSON: sorted keys, no whitespace, one trailing newline, so identical
objects always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .core import (
    Graph,
    Instance,
    Observation,
    Plan,
    Solution,
    TransitionRule,
    crashed,
    validate_instance,
)
from .gen import grid_graph

_PASSABLE = ".G"
_BLOCKED = "@TO"


def parse_map(text: str) -> Graph:
    """Grid map text to a 4-connected graph with (col, row) coordinates."""
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("map header truncated: need 4 header lines")
    if lines[0].split() != ["type", "octile"]:
        raise ValueError("map header line 1: expected 'type octile'")

    def dimension(idx: int, label: str) -> int:
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != label or not parts[1].isdecimal():
            raise ValueError(f"map header line {idx + 1}: expected '{label} <count>'")
        return int(parts[1])

    height = dimension(1, "height")
    width = dimension(2, "width")
    if lines[3].strip() != "map":
        raise ValueError("map header line 4: expected 'map'")
    rows = lines[4 : 4 + height]
    if len(rows) < height:
        raise ValueError(f"map body: expected {height} rows, found {len(rows)}")
    obstacles = set()
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"map row {r + 1}: {len(row)} cells, expected {width}")
        for c, ch in enumerate(row):
            if ch in _BLOCKED:
                obstacles.add((c, r))
            elif ch not in _PASSABLE:
                raise ValueError(f"map row {r + 1}: unknown glyph {ch!r}")
    return grid_graph(width, height, obstacles)


def parse_scen(text: str, n: int, graph: Graph):
    """First ``n`` scenario rows as (starts, goals) vertex tuples; ``n``
    must be at least 1."""
    if n < 1:
        raise ValueError(f"scenario needs at least 1 agent, got n={n}")
    if graph.coords is None:
        raise ValueError("scenario requires a graph with cell coordinates")
    index = {cell: i for i, cell in enumerate(graph.coords)}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].lower().startswith("version"):
        lines = lines[1:]
    if len(lines) < n:
        raise ValueError(f"scenario has {len(lines)} rows, need {n}")
    starts = []
    goals = []
    for ln in lines[:n]:
        parts = ln.split("\t")
        if len(parts) < 8:
            raise ValueError(f"scenario row needs 8+ tab-separated fields: {ln!r}")
        try:
            sx, sy, gx, gy = (int(p) for p in parts[4:8])
        except ValueError:
            raise ValueError(f"scenario row has non-integer coordinates: {ln!r}") from None
        for x, y in ((sx, sy), (gx, gy)):
            if (x, y) not in index:
                raise ValueError(f"scenario cell ({x}, {y}) is blocked or off-map")
        starts.append(index[(sx, sy)])
        goals.append(index[(gx, gy)])
    return tuple(starts), tuple(goals)


def scen_text(graph: Graph, pairs, map_name: str, width: int, height: int) -> str:
    """Scenario text for (start_vertex, goal_vertex) pairs on a grid graph."""
    if graph.coords is None:
        raise ValueError("scenario requires a graph with cell coordinates")
    out = ["version 1"]
    for s, g in pairs:
        sx, sy = graph.coords[s]
        gx, gy = graph.coords[g]
        out.append(f"0\t{map_name}\t{width}\t{height}\t{sx}\t{sy}\t{gx}\t{gy}\t0")
    return "\n".join(out) + "\n"


# --- JSON documents --------------------------------------------------------


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_doc(path, doc: dict) -> None:
    Path(path).write_text(dumps_doc(doc))


def read_doc(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _field(doc: dict, name: str, kinds, where: str):
    if name not in doc:
        raise ValueError(f"{where}: missing field {name!r}")
    val = doc[name]
    if not isinstance(val, kinds) or (kinds is int and isinstance(val, bool)):
        raise ValueError(f"{where}: field {name!r} has wrong type")
    return val


def _ints(val, name: str, where: str, size: "int | None" = None) -> tuple:
    """``val`` as a tuple of ints (no bools), of length ``size`` if given."""
    if (not isinstance(val, list) or not all(type(v) is int for v in val)
            or size not in (None, len(val))):
        want = "a list of ints" if size is None else f"a list of {size} ints"
        raise ValueError(f"{where}: field {name!r} wants {want}, got {val!r}")
    return tuple(val)


def instance_to_doc(inst: Instance, map_ref: "str | None" = None) -> dict:
    if map_ref is not None:
        gdoc: dict = {"map": str(map_ref)}
    else:
        g = inst.graph
        gdoc = {
            "n": g.n,
            "directed": g.directed,
            "edges": [list(e) for e in g.edges()],
        }
        if g.coords is not None:
            gdoc["coords"] = [list(c) for c in g.coords]
    return {
        "kind": "instance",
        "name": inst.name,
        "f": inst.f,
        "starts": list(inst.starts),
        "goals": list(inst.goals),
        "graph": gdoc,
    }


def doc_to_instance(doc: dict, base_dir=".") -> Instance:
    where = "instance document"
    if not isinstance(doc, dict) or doc.get("kind") != "instance":
        raise ValueError(f"{where}: missing kind='instance'")
    gdoc = _field(doc, "graph", dict, where)
    if "map" in gdoc:
        map_path = Path(base_dir) / _field(gdoc, "map", str, where)
        if not map_path.exists():
            raise ValueError(f"{where}: referenced map {map_path} not found")
        graph = parse_map(map_path.read_text())
    else:
        n = _field(gdoc, "n", int, where)
        edges = [_ints(e, "edges", where, 2) for e in _field(gdoc, "edges", list, where)]
        coords = None
        if gdoc.get("coords"):
            coords = tuple(_ints(c, "coords", where, 2)
                           for c in _field(gdoc, "coords", list, where))
        directed = _field(gdoc, "directed", bool, where) if "directed" in gdoc else False
        graph = Graph.build(n, edges, directed=directed, coords=coords)
    inst = Instance(
        graph=graph,
        starts=_ints(_field(doc, "starts", list, where), "starts", where),
        goals=_ints(_field(doc, "goals", list, where), "goals", where),
        f=_field(doc, "f", int, where),
        name=str(doc.get("name", "")),
    )
    problems = validate_instance(inst)
    if problems:
        raise ValueError(f"{where}: " + "; ".join(problems))
    return inst


def _obs_to_json(obs: Observation) -> list:
    if obs.kind == "crashed" and obs.agent is not None:
        return ["crashed", obs.agent]
    return [obs.kind]


def _obs_from_json(item, where: str) -> Observation:
    if not isinstance(item, list) or not 1 <= len(item) <= 2:
        raise ValueError(f"{where}: trigger must be a 1- or 2-element list")
    if len(item) == 2:
        if item[0] != "crashed" or type(item[1]) is not int:
            raise ValueError(f"{where}: bad trigger {item!r}, want [\"crashed\", <agent id>]"
                             " with an int agent id (no bools)")
        return crashed(item[1])
    try:
        return Observation(str(item[0]))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def solution_to_doc(sol: Solution) -> dict:
    plans = []
    for plan in sol.plans:
        plans.append(
            {
                "paths": [list(p) for p in plan.paths],
                "rules": [
                    {
                        "from_path": r.from_path,
                        "at_index": r.at_index,
                        "watch": r.watch,
                        "trigger": _obs_to_json(r.trigger),
                        "to_path": r.to_path,
                    }
                    for r in plan.rules
                ],
            }
        )
    return {"kind": "solution", "model": sol.model, "fd": sol.fd, "plans": plans}


def doc_to_solution(doc: dict) -> Solution:
    where = "solution document"
    if not isinstance(doc, dict) or doc.get("kind") != "solution":
        raise ValueError(f"{where}: missing kind='solution'")
    plans = []
    for i, pdoc in enumerate(_field(doc, "plans", list, where)):
        pwhere = f"{where}, plan {i}"
        if not isinstance(pdoc, dict):
            raise ValueError(f"{pwhere}: not an object")
        paths = tuple(_ints(p, "paths", pwhere) for p in _field(pdoc, "paths", list, pwhere))
        rules = []
        rdocs = _field(pdoc, "rules", list, pwhere) if "rules" in pdoc else []
        for j, rdoc in enumerate(rdocs):
            rwhere = f"{pwhere}, rule {j}"
            if not isinstance(rdoc, dict):
                raise ValueError(f"{rwhere}: not an object")
            rules.append(
                TransitionRule(
                    from_path=_field(rdoc, "from_path", int, rwhere),
                    at_index=_field(rdoc, "at_index", int, rwhere),
                    watch=_field(rdoc, "watch", int, rwhere),
                    trigger=_obs_from_json(_field(rdoc, "trigger", list, rwhere), rwhere),
                    to_path=_field(rdoc, "to_path", int, rwhere),
                )
            )
        plans.append(Plan(paths=paths, rules=tuple(rules)))
    return Solution(
        model=str(_field(doc, "model", str, where)),
        fd=str(_field(doc, "fd", str, where)),
        plans=tuple(plans),
    )


def counterexample_to_doc(ce) -> dict:
    doc: dict = {"kind": "witness", "failure": ce.kind, "agents": list(ce.agents)}
    if ce.detail:
        doc["detail"] = ce.detail
    if ce.crash_times is not None:
        doc["crash_times"] = {str(a): t for a, t in sorted(ce.crash_times.items())}
    if ce.schedule is not None:
        doc["schedule"] = [[op, a] for op, a in ce.schedule]
    if ce.cycle:
        doc["cycle"] = [[op, a] for op, a in ce.cycle]
    return doc


def read_instance(path) -> Instance:
    return doc_to_instance(read_doc(path), base_dir=Path(path).parent)


def write_instance(path, inst: Instance, map_ref: "str | None" = None) -> None:
    write_doc(path, instance_to_doc(inst, map_ref=map_ref))


def read_solution(path) -> Solution:
    return doc_to_solution(read_doc(path))


def write_solution(path, sol: Solution) -> None:
    write_doc(path, solution_to_doc(sol))


# --- result tables ---------------------------------------------------------

RESULT_COLUMNS = (
    "instance_id",
    "map",
    "model",
    "fd",
    "algo",
    "n_agents",
    "f",
    "outcome",
    "failure_reason",
    "runtime_ms",
    "cost_normalized",
)


def write_results(rows, dest) -> None:
    """Rows (dicts keyed by RESULT_COLUMNS) to CSV; None cells become empty."""
    with open(dest, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = {}
            for col in RESULT_COLUMNS:
                val = row.get(col)
                if val is None:
                    val = ""
                elif col == "cost_normalized" and isinstance(val, float):
                    val = f"{val:.4f}"
                out[col] = val
            writer.writerow(out)


def read_results(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
