"""Simplified out-of-order engine with squash/replay semantics.

Per-cycle phase order: execution completions, scheduled resolutions
(which may squash), in-order commit (exception-class handles resolve only
once they reach the reorder-buffer head), handle-queue pops, issue under
the active policy, then dispatch.  The instruction at the head of the
reorder buffer is never delayed, which guarantees forward progress under
every policy.

On a squash, every younger entry is drained, the PCs of the ones that had
actually issued are recorded with the policy, and the front end restarts
right after the misspeculating instruction, which itself stays put and
re-executes.

Dispatch does only the work some policy reads.  A PC's Bloom filter bit
mask is computed only when the policy holds Bloom filters (dos-bloom),
once per run and PC, and kept in the entry; under every other policy the
mask is 0, since only the rolling filters read it.  The policy's dispatch
hook runs once per cycle with the number dispatched rather than once per
instruction.  That is exact: every dispatch of a cycle happens in the last
phase, and nothing in it reads the dynamic-instruction count, the filters
or the exact records (the resolve, commit, pop and issue phases do), so a
deferred clear or an exact-record expiry lands in the same cycle either way.

A delayed entry is asked about again every cycle, but the answer can only
change when the policy state it reads does.  ``PolicyState.version`` goes
up on every squash record, on a pop of the oldest queued handle under
delay-all, on a Bloom filter bulk clear and when the exact filter drops a
record (by handle or by deadline).  Each entry keeps the version of its
last delay and the ``fp_count`` increment that decision made; while the
version holds, the entry counts as delayed without a new decision and
adds what a new decision would have.  That is one ``delayed_issues`` and,
under ``fp_counting="evaluation"``, the cached false positive; under
``"entry"`` the episode's one false positive is already counted.  A delay
never adds to ``perfect_only_count``, so there is nothing to repeat there.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

from .config import MachineConfig
from .filters import compute_hashes, indices_to_mask
from .metrics import Metrics
from .policy import PolicyState
from .shadows import ShadowKind
from .trace import Instruction, Trace

DISPATCHED = 0
ISSUED = 1
EXECUTED = 2

_STATE_NAMES = {DISPATCHED: "Dispatched", ISSUED: "Issued", EXECUTED: "Executed"}


class LivelockError(RuntimeError):
    """No commit within the configured cycle budget (sustained replay)."""

    def __init__(self, message: str, metrics: Metrics) -> None:
        super().__init__(message)
        self.metrics = metrics


@dataclass(frozen=True)
class SquashRecord:
    """What one squash event discarded."""

    cause_seq: int
    squashed_issued_pcs: frozenset[int]
    youngest_handle: int | None


class RobEntry:
    __slots__ = (
        "seq", "instr", "state", "resolved", "resolve_ready", "res_count", "gen",
        "mask", "fp_counted", "delay_version", "delay_fp",
    )

    def __init__(self, seq: int, instr: Instruction, mask: int) -> None:
        self.seq = seq
        self.instr = instr
        self.state = DISPATCHED
        self.resolved = False
        self.resolve_ready: int | None = None
        self.res_count = 0
        self.gen = 0
        self.mask = mask
        self.fp_counted = False  # one FP per delay episode in "entry" counting
        self.delay_version = -1  # PolicyState.version at the last delay decision
        self.delay_fp = 0        # what a repeat of that decision adds to fp_count

    def __repr__(self) -> str:  # diagnostics only
        return (
            f"RobEntry(seq={self.seq}, pc=0x{self.instr.pc:x}, "
            f"state={_STATE_NAMES[self.state]}, resolved={self.resolved})"
        )


class TraceResolver:
    """Default speculation outcomes: a pre-marked instruction misspeculates
    once at its trace position; re-dispatched instances resolve correctly."""

    def __init__(self) -> None:
        self._consumed: set[int] = set()

    def __call__(self, entry: RobEntry) -> bool:
        pos = entry.instr.seq
        if entry.instr.misspeculate and pos not in self._consumed:
            self._consumed.add(pos)
            return True
        return False


class Pipeline:
    """One execution context of the machine."""

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        policy: PolicyState | None = None,
        resolver=None,
        observer=None,
    ) -> None:
        config.validate()
        self.config = config
        self.records = trace.instructions
        self.policy = policy if policy is not None else PolicyState(config)
        self.hq = self.policy.handle_queue
        self.resolver = resolver if resolver is not None else TraceResolver()
        self.observer = observer

        self.metrics = Metrics(trace_id=trace.trace_id, policy=str(config.policy))
        self.cycle = 0
        self.cursor = 0
        self.next_seq = self.policy.next_seq
        self.rob: list[RobEntry] = []
        self.alive: dict[int, RobEntry] = {}
        self.pending: list[int] = []  # dispatched, not yet issued; sorted by seq
        self._exec_events: list[tuple[int, int, int]] = []     # (cycle, seq, gen)
        self._resolve_events: list[tuple[int, int, int]] = []  # (cycle, seq, gen)
        # Bloom filter bit mask per PC, for the one policy that reads masks
        self._pc_masks: dict[int, int] | None = {} if self.policy.filters is not None else None
        self._fp_entry_mode = config.fp_counting == "entry"
        self._last_commit_cycle = 0
        self._dispatch_resume = 0
        # policy counters are cumulative across context segments
        self._fp_base = self.policy.fp_count
        self._po_base = self.policy.perfect_only_count
        self._rot_base = self.policy.rotations
        self._clr_base = self.policy.filter_clears

    # -- lifecycle ------------------------------------------------------------

    def run(self) -> Metrics:
        budget = self.config.effective_budget
        while self.cursor < len(self.records) or self.rob:
            self.cycle += 1
            self.tick()
            if self.cycle - self._last_commit_cycle > budget:
                self._finalize()
                head = f" (head={self.rob[0]!r})" if self.rob else ""
                raise LivelockError(
                    f"no commit for {budget} cycles at cycle {self.cycle}{head}",
                    self.metrics,
                )
        self._finalize()
        self.policy.next_seq = self.next_seq
        return self.metrics

    def _finalize(self) -> None:
        self.metrics.cycles = self.cycle
        self.metrics.fp_count = self.policy.fp_count - self._fp_base
        self.metrics.perfect_only_count = self.policy.perfect_only_count - self._po_base
        self.metrics.rotations = self.policy.rotations - self._rot_base
        self.metrics.filter_clears = self.policy.filter_clears - self._clr_base

    def tick(self) -> None:
        self._complete_executions()
        self._fire_resolutions()
        self.commit()
        self._pop_safe_handles()
        self.try_issue()
        self.dispatch()

    # -- phases ----------------------------------------------------------------

    def _complete_executions(self) -> None:
        events = self._exec_events
        while events and events[0][0] <= self.cycle:
            _, seq, gen = heapq.heappop(events)
            e = self.alive.get(seq)
            if e is not None and e.gen == gen and e.state == ISSUED:
                e.state = EXECUTED

    def _fire_resolutions(self) -> None:
        events = self._resolve_events
        while events and events[0][0] <= self.cycle:
            _, seq, gen = heapq.heappop(events)
            e = self.alive.get(seq)
            if e is None or e.gen != gen or e.resolved or e.state == DISPATCHED:
                continue
            self._resolve(e)

    def _resolve(self, e: RobEntry) -> None:
        e.res_count += 1
        if self.resolver(e):
            self.metrics.squashes += 1
            self.squash_from(e.seq)
        else:
            e.resolved = True
            self.hq.mark_resolved(e.seq)

    def commit(self) -> int:
        """Retire up to `width` executed entries from the head, in order."""
        retired = 0
        while self.rob and retired < self.config.width:
            head = self.rob[0]
            if head.state != EXECUTED:
                break
            shadow = head.instr.shadow_class
            if shadow is None or head.resolved:
                self.rob.pop(0)
                del self.alive[head.seq]
                self.metrics.committed += 1
                self._last_commit_cycle = self.cycle
                retired += 1
                continue
            if shadow is ShadowKind.E:
                # fault handling happens only at the head of the ROB
                if self.cycle >= head.resolve_ready:
                    self._resolve(head)
                    if not head.resolved:
                        break  # squashed and re-executing
                    continue
            break
        return retired

    def _pop_safe_handles(self) -> None:
        popped = self.hq.pop_safe()
        if not popped:
            return
        # both filters expire everything up to the given seq, and dyn_count
        # is fixed within a cycle, so one call for the youngest pop is exact
        self.policy.on_handle_safe(popped[-1])
        if self.observer is not None:
            for seq in popped:
                self.observer.on_handle_safe(seq)

    def try_issue(self) -> None:
        """Consult up to `width` of the oldest dispatched entries against the
        policy and issue the ones it allows."""
        if not self.pending:
            return
        policy = self.policy
        version = policy.version
        head_seq = self.rob[0].seq if self.rob else None
        fp_entry_mode = self._fp_entry_mode
        m = self.metrics
        removed: list[int] = []
        for i, seq in enumerate(self.pending[:self.config.width]):
            e = self.alive[seq]
            if seq != head_seq:  # the ROB head is never delayed
                if e.delay_version == version:
                    # nothing the last decision read has changed: same delay
                    m.delayed_issues += 1
                    policy.fp_count += e.delay_fp
                    continue
                before = policy.fp_count
                reason = policy.issue_decision(seq, e.instr.pc, e.mask, not e.fp_counted)
                if reason is not None:
                    m.delayed_issues += 1
                    fp = policy.fp_count - before
                    e.delay_version = version
                    if fp_entry_mode:
                        e.delay_fp = 0  # the episode's one false positive is counted once
                        if fp:
                            e.fp_counted = True
                    else:
                        e.delay_fp = fp
                    continue
            self._issue(e)
            removed.append(i)
        for i in reversed(removed):
            del self.pending[i]

    def _issue(self, e: RobEntry) -> None:
        e.state = ISSUED
        heapq.heappush(self._exec_events, (self.cycle + e.instr.exec_latency, e.seq, e.gen))
        shadow = e.instr.shadow_class
        if shadow is not None:
            if shadow is ShadowKind.E:
                e.resolve_ready = self.cycle + e.instr.resolve_latency
            else:
                heapq.heappush(
                    self._resolve_events,
                    (self.cycle + e.instr.resolve_latency, e.seq, e.gen),
                )
        m = self.metrics
        m.dynamic_executed += 1
        pc = e.instr.pc
        m.per_pc_issues[pc] = m.per_pc_issues.get(pc, 0) + 1
        speculative = self.hq.shadows(e.seq)
        if speculative:
            m.per_pc_spec_issues[pc] = m.per_pc_spec_issues.get(pc, 0) + 1
        if self.observer is not None:
            self.observer.on_issue(e, speculative, self.cycle)

    def dispatch(self) -> int:
        """Bring in up to `width` instructions; stalls when the ROB or the
        handle queue is full.  Returns the count dispatched."""
        if self.cycle < self._dispatch_resume:
            return 0
        n = 0
        width = self.config.width
        rob_size = self.config.rob_size
        while self.cursor < len(self.records) and n < width and len(self.rob) < rob_size:
            rec = self.records[self.cursor]
            if rec.shadow_class is not None and len(self.hq) >= rob_size:
                break  # handle queue full; stall until zombies drain
            seq = self.next_seq
            self.next_seq += 1
            e = RobEntry(seq, rec, self._pc_mask(rec.pc))
            self.rob.append(e)
            self.alive[seq] = e
            self.pending.append(seq)  # seq is monotonic, list stays sorted
            if rec.shadow_class is not None:
                self.hq.push_handle(seq, rec.shadow_class)
            self.cursor += 1
            n += 1
        if n:  # an empty cycle sweeps nothing, so clears land on the same cycles
            self.policy.on_dispatch(n)
        return n

    # -- squash ----------------------------------------------------------------

    def squash_from(self, cause_seq: int) -> SquashRecord:
        """Drain everything younger than cause_seq; the cause re-executes."""
        cause = self.alive.get(cause_seq)
        if cause is None:
            raise KeyError(f"squash_from: seq {cause_seq} not in the ROB")

        victims: list[RobEntry] = []
        while self.rob and self.rob[-1].seq > cause_seq:
            victims.append(self.rob.pop())
        issued = [v for v in victims if v.state != DISPATCHED]
        for v in victims:
            del self.alive[v.seq]
        cut = bisect.bisect_right(self.pending, cause_seq)
        del self.pending[cut:]

        self.hq.mark_squashed_after(cause_seq)
        youngest = self.hq.youngest_handle()
        pcs = frozenset(v.instr.pc for v in issued)
        masks = [v.mask for v in issued]
        record = SquashRecord(cause_seq, pcs, youngest)
        self.policy.on_squash(pcs, masks, youngest)

        self.metrics.squashed_executions += len(issued)
        if cause.state != DISPATCHED:
            # the misspeculated execution of the cause itself is discarded
            self.metrics.squashed_executions += 1
        cause.state = DISPATCHED
        cause.gen += 1
        cause.resolve_ready = None
        cause.fp_counted = False
        bisect.insort(self.pending, cause_seq)

        # records may be a slice of a longer trace that keeps its seqs
        self.cursor = cause.instr.seq - self.records[0].seq + 1
        self._dispatch_resume = self.cycle + self.config.squash_recovery
        if self.observer is not None:
            self.observer.on_squash(record, [h.seq for h in self.hq.entries()])
        return record

    # -- helpers ----------------------------------------------------------------

    def _pc_mask(self, pc: int) -> int:
        masks = self._pc_masks
        if masks is None:
            return 0
        mask = masks.get(pc)
        if mask is None:
            hashes = compute_hashes(pc, self.policy.hash_seeds, self.config.bits)
            mask = masks[pc] = indices_to_mask(hashes)
        return mask


def run(trace: Trace, config: MachineConfig, policy: PolicyState | None = None,
        resolver=None, observer=None) -> Metrics:
    """Simulate a trace to completion and return its metrics."""
    return Pipeline(trace, config, policy=policy, resolver=resolver, observer=observer).run()
