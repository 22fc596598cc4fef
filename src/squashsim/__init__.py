"""Out-of-order speculation simulator with a delay-on-squash replay defense.

The package models a simplified out-of-order engine (dispatch, issue,
execute, squash, in-order commit), tracks potential replay handles in a
FIFO queue of speculative shadows, and blocks replayed issue of previously
squashed program counters with a rolling pair of Bloom filters.  Attack
scenario builders reproduce single, serial, and nested replay-handle
patterns against the four issue policies (baseline, delay-all, and the
perfect/Bloom variants of the defense).
"""

from .config import MachineConfig, PolicyKind
from .trace import Instruction, InstructionKind, Trace, gen_loop_trace, parse_trace, serialize_trace
from .shadows import HandleQueue, ShadowKind
from .filters import PerfectFilter, RollingFilters, compute_hashes
from .metrics import Metrics, fp_rate, perf_proxy
from .pipeline import LivelockError, Pipeline, SquashRecord, run
from .policy import PolicyState, restore_context, save_context
from .attacks import (
    AttackReport,
    Scenario,
    ScenarioPattern,
    build_nested,
    build_serial,
    build_single,
    run_scenario,
)

__all__ = [
    "AttackReport",
    "HandleQueue",
    "Instruction",
    "InstructionKind",
    "LivelockError",
    "MachineConfig",
    "Metrics",
    "PerfectFilter",
    "Pipeline",
    "PolicyKind",
    "PolicyState",
    "RollingFilters",
    "Scenario",
    "ScenarioPattern",
    "ShadowKind",
    "SquashRecord",
    "Trace",
    "build_nested",
    "build_serial",
    "build_single",
    "compute_hashes",
    "fp_rate",
    "gen_loop_trace",
    "parse_trace",
    "perf_proxy",
    "restore_context",
    "run",
    "run_scenario",
    "save_context",
    "serialize_trace",
]
