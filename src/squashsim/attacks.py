"""Replay-attack scenario builders and the attacker-driven scenario runner.

Three patterns are modeled:

* ``single``: one exception-class handle forced to misspeculate r times
  with a side-channel transmit instruction in the same window.
* ``serial``: h independent acquire/use/release episodes, one handle
  each, separated by at least a reorder-buffer window so no squash
  reaches a neighbouring episode.  Each episode amplifies its own
  transmit instruction, so the attack totals add up across handles.
* ``nested``: h control-flow handles in one window with strictly
  decreasing resolve latencies inward.  Every re-dispatch of an inner
  handle is re-acquired and misspeculates r more times, so attack totals
  multiply across handles.

The attacker controls resolution outcomes through a budget per handle
slot, ``Scenario.force``, keyed by the slot's trace position: acquiring a
handle is ``ForceMisspeculate(None)``, which misspeculates on every
resolution, and acquiring it and releasing it after r replays is
``ForceMisspeculate(r)``, whose armed instances misspeculate on their
first r resolutions and then resolve correctly.  A release cascades
inward: once a handle's outer neighbour has finished for good, the
handle itself stops misspeculating, ending the attack after a single
unsafe epoch.  ``Scenario.switches`` lists the trace positions at which
the context is switched out and back.

The pipeline counts the transmit instructions' issues per PC; the
``AttackObserver`` only checks the security bound, and an ``AttackReport``
reads the rest from the scenario and the run's metrics.

Every instruction the builders place comes from ``trace.instruction``,
the intern table ``gen_loop_trace`` uses too.  Padding PCs depend on the
position alone, so the criterion-2 grid's 12,024 positions hold 453
objects, one per distinct value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .config import MAX_BUDGET, ConfigError, MachineConfig
from .experiment import run_segmented
from .metrics import Metrics
from .pipeline import LivelockError, RobEntry, SquashRecord
from .shadows import ShadowKind
from .trace import Instruction, InstructionKind, Trace, instruction


class ScenarioPattern(str, Enum):
    SINGLE = "single"
    SERIAL = "serial"
    NESTED = "nested"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ForceMisspeculate:
    """A slot misspeculates on the first `times` resolutions of each dynamic
    instance (None = unbounded); `outer_slot` is the enclosing handle for
    nested patterns."""

    times: int | None
    outer_slot: int | None = None


@dataclass
class Scenario:
    """A trace plus the attacker's control over it: a misspeculation budget
    per handle slot and the trace positions of its context switches."""

    name: str
    pattern: ScenarioPattern
    trace: Trace
    force: dict[int, ForceMisspeculate]  # slot (trace position) -> its budget
    transmit_pcs: tuple[int, ...]
    switches: list[int] = field(default_factory=list)
    params: dict = field(default_factory=dict)


@dataclass
class AttackReport:
    """One scenario run; every figure but these four fields is a view over them."""

    scenario: Scenario
    livelock: bool
    hot_spec_issues: int  # speculative S issues while a squash-time handle was still unsafe
    metrics: Metrics

    pattern = property(lambda self: self.scenario.pattern)
    params = property(lambda self: self.scenario.params)
    policy = property(lambda self: self.metrics.policy)
    cycles = property(lambda self: self.metrics.cycles)
    squashes = property(lambda self: self.metrics.squashes)
    # issues per transmit PC: the speculative ones, and all of them
    spec_executions_of_s = property(lambda self: self._of_s(self.metrics.per_pc_spec_issues))
    total_issues_of_s = property(lambda self: self._of_s(self.metrics.per_pc_issues))
    attack_region_executions = property(lambda self: sum(self.total_issues_of_s.values()))

    def _of_s(self, per_pc: dict[int, int]) -> dict[int, int]:
        return {pc: per_pc.get(pc, 0) for pc in self.scenario.transmit_pcs}

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "pattern": str(self.pattern),
            "policy": self.policy,
            **{k: v for k, v in sorted(self.params.items())},
            "cycles": self.cycles,
            "squashes": self.squashes,
            "livelock": self.livelock,
            "attack_region_executions": self.attack_region_executions,
            "spec_executions_of_s": sum(self.spec_executions_of_s.values()),
            "total_issues_of_s": sum(self.total_issues_of_s.values()),
            "hot_spec_issues": self.hot_spec_issues,
        }


# -- scenario builders ----------------------------------------------------------

_HANDLE_PC_BASE = 0x4000
_TRANSMIT_PC_BASE = 0x5000
_PAD_PC_BASE = 0x70000

_SINGLE_RESOLVE = 6
_SINGLE_PAD = 8  # plain instructions after the single pattern's transmit instruction
_NESTED_INNERMOST = 3  # the innermost nested handle's resolve latency
_NESTED_SLACK = 8  # cycles an outer latency adds over its inner subtree's replays
_NESTED_PAD = 4  # plain instructions after the nested transmit instruction


def _pad(instructions: list[Instruction], n: int) -> None:
    start = _PAD_PC_BASE + 4 * len(instructions)
    instructions.extend(instruction(pc, InstructionKind.PLAIN, None, 1, 1, False)
                        for pc in range(start, start + 4 * n, 4))


def _episodes(name: str, pattern: ScenarioPattern, handles: int, replays: int,
              gap: int, pad: int) -> Scenario:
    """`handles` episodes in sequence: a page-faulting handle that
    misspeculates `replays` times, `gap` plain instructions, a transmit
    instruction of its own and `pad` plain instructions."""
    if gap < 0:
        raise ConfigError(f"gap must be >= 0, got {gap}")
    ins: list[Instruction] = []
    force: dict[int, ForceMisspeculate] = {}
    transmit_pcs = []
    for i in range(handles):
        slot = len(ins)
        force[slot] = ForceMisspeculate(replays)
        ins.append(instruction(_HANDLE_PC_BASE + 0x100 * i, InstructionKind.LOAD,
                               ShadowKind.E, 1, _SINGLE_RESOLVE, False))
        _pad(ins, gap)
        transmit_pcs.append(_TRANSMIT_PC_BASE + 0x100 * i)
        ins.append(instruction(transmit_pcs[-1], InstructionKind.TRANSMIT, None, 1, 1, False))
        _pad(ins, pad)
    return Scenario(
        name=name,
        pattern=pattern,
        trace=Trace(name=name, seed=0, instructions=ins),
        force=force,
        transmit_pcs=tuple(transmit_pcs),
        params={"handles": handles, "replays": replays, "gap": gap},
    )


def build_single(replays: int, gap: int = 2) -> Scenario:
    """One page-faulting handle replayed `replays` times before release."""
    if replays < 0:
        raise ConfigError(f"replays must be >= 0, got {replays}")
    return _episodes(f"single-r{replays}", ScenarioPattern.SINGLE, 1, replays, gap, _SINGLE_PAD)


def build_serial(handles: int, replays: int, gap: int = 2, window_pad: int = 64) -> Scenario:
    """h acquire/use/release episodes in sequence, one handle each.

    Episodes are separated by `window_pad` plain instructions so that one
    episode's squashes never reach the next; keep `window_pad` at least as
    large as the reorder buffer.  With one handle the scenario reduces to
    the single pattern.
    """
    if handles < 1:
        raise ConfigError(f"handles must be >= 1, got {handles}")
    if replays < 1:
        raise ConfigError(f"replays must be >= 1, got {replays}")
    return _episodes(f"serial-h{handles}-r{replays}", ScenarioPattern.SERIAL,
                     handles, replays, gap, window_pad)


def nested_latencies(handles: int, replays: int) -> list[int]:
    """Resolve latencies (outermost first) wide enough for the full replay
    tree: each handle's next resolution lands after the complete inner
    subtree, so attack totals multiply exactly.

    The budget assumes the machine re-fills the window within a few
    cycles of a squash (the default width and a reorder buffer that fits
    all handles plus the transmit instruction).  On narrower machines the
    outer handles interrupt the inner sessions early and the attacker
    simply achieves fewer replays."""
    lats = [_NESTED_INNERMOST]
    for _ in range(handles - 1):
        lats.append((replays + 1) * lats[-1] + _NESTED_SLACK)
    return list(reversed(lats))


def build_nested(handles: int, replays: int, gap: int = 2,
                 resolve_latencies: list[int] | None = None) -> Scenario:
    """h nested control-flow handles; outer handles resolve slower than
    inner ones so each outer squash re-arms the whole inner subtree."""
    if handles < 1:
        raise ConfigError(f"handles must be >= 1, got {handles}")
    if replays < 1:
        raise ConfigError(f"replays must be >= 1, got {replays}")
    if gap < 0:
        raise ConfigError(f"gap must be >= 0, got {gap}")
    if resolve_latencies is None:
        resolve_latencies = nested_latencies(handles, replays)
    if len(resolve_latencies) != handles:
        raise ConfigError(
            f"expected {handles} resolve latencies, got {len(resolve_latencies)}"
        )
    if any(a <= b for a, b in zip(resolve_latencies, resolve_latencies[1:])):
        raise ConfigError(
            "outer handles must resolve slower than inner ones: "
            f"latencies {resolve_latencies} are not strictly decreasing"
        )
    if resolve_latencies[-1] < 1 or resolve_latencies[0] > MAX_BUDGET:
        # strictly decreasing, so the ends bound every handle's Instruction
        raise ConfigError(f"resolve_latency must be in [1, 2**20], got latencies from "
                          f"{resolve_latencies[0]} down to {resolve_latencies[-1]}")

    ins: list[Instruction] = []
    force: dict[int, ForceMisspeculate] = {}
    for i in range(handles):
        slot = len(ins)
        ins.append(instruction(_HANDLE_PC_BASE + 0x100 * i, InstructionKind.BRANCH,
                               ShadowKind.C, 1, resolve_latencies[i], False))
        force[slot] = ForceMisspeculate(replays, outer_slot=slot - 1 if i else None)
    _pad(ins, gap)
    s_pc = _TRANSMIT_PC_BASE
    ins.append(instruction(s_pc, InstructionKind.TRANSMIT, None, 1, 1, False))
    _pad(ins, _NESTED_PAD)
    trace = Trace(name=f"nested-h{handles}-r{replays}", seed=0, instructions=ins)
    return Scenario(
        name=trace.name,
        pattern=ScenarioPattern.NESTED,
        trace=trace,
        force=force,
        transmit_pcs=(s_pc,),
        params={"handles": handles, "replays": replays, "gap": gap,
                "latencies": ",".join(map(str, resolve_latencies))},
    )


def build_unbounded() -> Scenario:
    """A handle that never resolves correctly: sustained replay (livelock)."""
    single = build_single(0)
    return replace(single, name="unbounded-replay", force={0: ForceMisspeculate(None)},
                   params={**single.params, "replays": None})


# -- attacker-driven resolution --------------------------------------------------


class ScenarioResolver:
    """Resolution outcomes under attacker control.  A finished slot
    resolves correctly; any other slot misspeculates on the first `times`
    resolutions of each instance and then resolves correctly, and an
    outermost slot finishes there.  Finishing cascades inward, since a
    squash by an outer handle would re-arm the slots nested inside it:
    once the outermost handle of a chain is released, in-flight inner
    instances stop misspeculating instead of opening a fresh round.
    """

    def __init__(self, force: dict[int, ForceMisspeculate]) -> None:
        self.force = force
        self.finished: set[int] = set()
        # seq -> resolutions: an instance re-executes under its seq after its
        # own squash and is re-dispatched under a new one after an older squash
        self._resolutions: dict[int, int] = {}
        self._inner: dict[int, list[int]] = {}
        for slot, fm in force.items():
            if fm.outer_slot is not None:
                self._inner.setdefault(fm.outer_slot, []).append(slot)

    def __call__(self, entry: RobEntry) -> bool:
        pos = entry.pos
        fm = self.force.get(pos)
        if fm is None or pos in self.finished:
            return False  # victims and released slots resolve correctly
        n = self._resolutions[entry.seq] = self._resolutions.get(entry.seq, 0) + 1
        if fm.times is None or n <= fm.times:
            return True
        if fm.outer_slot is None:
            self._finish(pos)  # released for good
        return False

    def _finish(self, pos: int) -> None:
        stack = [pos]
        while stack:
            p = stack.pop()
            self.finished.add(p)
            stack.extend(self._inner.get(p, ()))


class AttackObserver:
    """Checks the security bound on the transmit PCs.

    After a squash discards an issued transmit instruction, its PC is
    "hot" until every handle that was queued at that squash has become
    safe; a speculative issue of a hot PC is a bound violation.  Handles
    become safe in seq order, so the last of them to do so is the youngest,
    ``SquashRecord.youngest_handle`` (the squash's cause is itself queued).
    The queue's youngest handle never gets older, so a PC's last squash
    bounds it alone.
    """

    def __init__(self, transmit_pcs: tuple[int, ...]) -> None:
        self.transmit_pcs = frozenset(transmit_pcs)
        self.hot_spec_issues = 0
        self._hot_until: dict[int, int] = {}  # PC -> youngest handle at its last squash
        self._last_safe = -1

    def on_issue(self, entry: RobEntry, speculative: bool, cycle: int) -> None:
        if speculative and self._hot_until.get(entry.instr.pc, -1) > self._last_safe:
            self.hot_spec_issues += 1

    def on_squash(self, record: SquashRecord) -> None:
        for pc in record.squashed_issued_pcs & self.transmit_pcs:
            self._hot_until[pc] = record.youngest_handle

    def on_handle_safe(self, seq: int) -> None:
        self._last_safe = seq


def run_scenario(scenario: Scenario, config: MachineConfig) -> AttackReport:
    """Drive the pipeline under the attacker's control, as context 0; exact
    counts, deterministic."""
    observer = AttackObserver(scenario.transmit_pcs)
    livelock = False
    try:
        metrics = run_segmented(scenario.trace, config, scenario.switches,
                                resolver=ScenarioResolver(scenario.force), observer=observer)
    except LivelockError as err:
        metrics = err.metrics
        livelock = True
    return AttackReport(scenario, livelock, observer.hot_spec_issues, metrics)
