"""Offline multi-agent path planning under crash faults.

Plan paths for agents on a graph when up to ``f`` of them may crash and
permanently block a vertex. Solutions are per-agent path collections
with local observation-triggered switching rules; an exhaustive verifier
checks them against every crash pattern the execution model allows.
"""

from .core import (
    AFD,
    CORRECT,
    CRASHED_ANON,
    NFD,
    SEQ,
    SYN,
    VACANT,
    Graph,
    Instance,
    NecessaryCheck,
    Observation,
    Plan,
    Solution,
    SolveResult,
    TransitionRule,
    bfs_distances,
    check_necessary,
    crashed,
    normalized_cost,
    solution_cost,
    validate_instance,
    validate_solution,
)
from .dcrf import Crash, Effect, Event, SolverConfig, solve
from .disjoint import solve_disjoint
from .execution import RunResult, run, run_seq, run_syn
from .gen import Fixture, GiveUp, fixture, gen_well_formed, sat_to_mappcf
from .pathfind import find_path_seq, find_path_syn
from .verify import Counterexample, VerifyResult, verify, verify_seq, verify_syn

__version__ = "0.1.0"

__all__ = [
    "AFD",
    "CORRECT",
    "CRASHED_ANON",
    "NFD",
    "SEQ",
    "SYN",
    "VACANT",
    "Counterexample",
    "Crash",
    "Effect",
    "Event",
    "Fixture",
    "GiveUp",
    "Graph",
    "Instance",
    "NecessaryCheck",
    "Observation",
    "Plan",
    "RunResult",
    "SolveResult",
    "SolverConfig",
    "Solution",
    "TransitionRule",
    "VerifyResult",
    "bfs_distances",
    "check_necessary",
    "crashed",
    "find_path_seq",
    "find_path_syn",
    "fixture",
    "gen_well_formed",
    "normalized_cost",
    "run",
    "run_seq",
    "run_syn",
    "sat_to_mappcf",
    "solution_cost",
    "solve",
    "solve_disjoint",
    "validate_instance",
    "validate_solution",
    "verify",
    "verify_seq",
    "verify_syn",
]
