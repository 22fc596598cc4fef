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

The ``RobEntry`` is the one handle on an in-flight instruction: the
reorder buffer, the not-yet-issued list, the event buckets and the handle
queue all hold entries.  A shadow-casting entry is its own handle-queue
entry: dispatch pushes it, and its ``kind``, ``resolved`` and ``squashed``
are what the queue reads.  After a squash the victims' entries stay queued
as placeholders until they reach the queue head.

Events wait in per-cycle buckets, one dict for completions ``(entry, gen)``
and one for resolutions ``(seq, gen, entry)``.  A tick fires its cycle's
completions first, then its resolutions in seq order: an older resolution
may squash a younger one due in the same cycle, which must then not fire.
A squash bumps ``gen`` on the cause and on every victim, so an event is
stale exactly when ``entry.gen != gen``.  Latencies are at least 1, so
every event lands in a bucket the run has not reached yet.

Dispatch does only the work some policy reads.  A PC's Bloom filter bit
mask is computed only when the policy holds Bloom filters (dos-bloom),
once per run and PC, and kept in the entry; under every other policy the
mask is 0, since only the rolling filters read it.  The policy's dispatch
hook runs once per cycle with the number dispatched rather than once per
instruction.  That is exact: every dispatch of a cycle happens in the last
phase, and nothing in it reads the dynamic-instruction count, the filters
or the exact records (the resolve, commit, pop and issue phases do), so a
deferred clear or an exact-record expiry lands in the same cycle either way.

The issue phase asks the policy only what its rule can answer.  Under
baseline (``PolicyState.never_delays``) the window issues without a
decision.  Under delay-all (``PolicyState.delay_covers_younger``) the
first delayed non-head entry of the window, fresh or cached, ends the
walk and adds one ``delayed_issues`` for itself and one for each younger
window entry:
``pending`` is in seq order and the ROB head, when pending, is
``pending[0]``, so every entry after it is a non-head entry that the seq
bound delays too.  Under the two filter policies every non-head window
entry is decided, each delay adding one.  The entries the walk lets
through then issue in seq order.  An issue is speculative when a live
handle older than it is queued (``HandleQueue.shadows``).  ``pop_safe``
has just left a live head or an empty queue, and nothing changes the queue
before the issues, so the issue phase reads ``oldest_seq()`` once and
compares each seq with it.

A delayed entry is asked about again every cycle, but the answer can only
change when the policy state it reads does.  ``PolicyState.version`` goes
up on every squash record, on a pop of the oldest queued handle under
delay-all, on a Bloom filter bulk clear and when the exact filter drops a
record (by handle or by deadline).  Each entry caches the version and the
reason of its last decision; while the version holds, the cached reason
stands in for a new decision.  The pipeline alone counts false positives: a
``bloom-false-positive`` delay adds one to ``fp_count`` unless the entry's
``fp_counted`` is set, and sets it under ``fp_counting="entry"``, so that
mode counts one per delay episode and ``"evaluation"`` one per cycle.  A
delay never adds to ``perfect_only_count``, so there is nothing to repeat
there.

Each phase is one method with its hot attributes bound to locals once per
call: ``tick`` fires the due events and pops the safe handles itself, and
calls ``commit``, ``try_issue`` (which also issues) and ``dispatch``
(which also computes the Bloom masks).  The benchmark's tracer
(``perfbench/tracing.py``) wraps these methods, ``squash_from``, the
``HandleQueue`` and ``PolicyState`` methods and this module's
``compute_hashes`` by name, so each is looked up when it is called, not
bound at import.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .config import MachineConfig
from .filters import compute_hashes, indices_to_mask
from .metrics import Metrics
from .policy import DELAY_BLOOM_FP, PolicyState
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
        "seq", "instr", "state", "kind", "resolved", "squashed", "resolve_ready", "res_count",
        "gen", "mask", "fp_counted", "delay_version", "delay_reason",
    )

    def __init__(self, seq: int, instr: Instruction, mask: int) -> None:
        self.seq = seq
        self.instr = instr
        self.state = DISPATCHED
        # the handle-queue fields, for a shadow-casting instruction
        self.kind: ShadowKind | None = instr.shadow_class
        self.resolved = False
        self.squashed = False
        self.resolve_ready: int | None = None
        self.res_count = 0
        self.gen = 0
        self.mask = mask
        self.fp_counted = False  # one FP per delay episode in "entry" counting
        self.delay_version = -1  # PolicyState.version at the last decision
        self.delay_reason: str | None = None  # what that decision returned

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
        self.pending: list[RobEntry] = []  # dispatched, not yet issued; in seq order
        # cycle -> the (entry, gen) completions and (seq, gen, entry) resolutions due then
        self._completions: defaultdict[int, list[tuple[RobEntry, int]]] = defaultdict(list)
        self._resolutions: defaultdict[int, list[tuple[int, int, RobEntry]]] = defaultdict(list)
        # Bloom filter bit mask per PC, for the one policy that reads masks
        self._pc_masks: dict[int, int] | None = {} if self.policy.filters is not None else None
        self._fp_entry_mode = config.fp_counting == "entry"
        self._never_delays = self.policy.never_delays
        self._delay_covers_younger = self.policy.delay_covers_younger
        self._last_commit_cycle = 0
        self._dispatch_resume = 0

    # -- lifecycle ------------------------------------------------------------

    def run(self) -> Metrics:
        budget = self.config.effective_budget
        n_records = len(self.records)
        tick = self.tick
        while self.cursor < n_records or self.rob:
            self.cycle += 1
            tick()
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
        self.metrics.perfect_only_count = self.policy.perfect_only_count
        self.metrics.rotations = self.policy.rotations
        self.metrics.filter_clears = self.policy.filter_clears

    def tick(self) -> None:
        """One cycle: complete the executions, then fire the resolutions,
        due now; commit; pop the safe handles; issue; dispatch."""
        cycle = self.cycle
        due = self._completions.pop(cycle, None)
        if due is not None:
            for e, gen in due:
                if e.gen == gen:  # else squashed since the event was scheduled
                    e.state = EXECUTED
        due = self._resolutions.pop(cycle, None)
        if due is not None:
            if len(due) > 1:
                due.sort()  # oldest first: an older squash makes the younger ones stale
            for _, gen, e in due:
                if e.gen == gen:
                    self._resolve(e)
        self.commit()
        popped = self.hq.pop_safe()
        if popped:
            # both filters expire everything up to the given seq, and dyn_count
            # is fixed within a cycle, so one call for the youngest pop is exact
            self.policy.on_handle_safe(popped[-1])
            observer = self.observer
            if observer is not None:
                for seq in popped:
                    observer.on_handle_safe(seq)
        self.try_issue()
        self.dispatch()

    # -- phases ----------------------------------------------------------------

    def _resolve(self, e: RobEntry) -> None:
        e.res_count += 1
        if self.resolver(e):
            self.metrics.squashes += 1
            self.squash_from(e)
        else:
            self.hq.mark_resolved(e)

    def commit(self) -> int:
        """Retire up to `width` executed entries from the head, in order."""
        rob = self.rob
        width = self.config.width
        retired = 0
        while rob and retired < width:
            head = rob[0]
            if head.state != EXECUTED:
                break
            kind = head.kind
            if kind is None or head.resolved:
                del rob[0]
                retired += 1
                continue
            if kind is ShadowKind.E:
                # fault handling happens only at the head of the ROB
                if self.cycle >= head.resolve_ready:
                    self._resolve(head)
                    if not head.resolved:
                        break  # squashed and re-executing
                    continue
            break
        if retired:
            self.metrics.committed += retired
            self._last_commit_cycle = self.cycle
        return retired

    def try_issue(self) -> None:
        """Consult up to `width` of the oldest dispatched entries against the
        policy and issue the ones it allows."""
        pending = self.pending
        if not pending:
            return
        window = pending[:self.config.width]
        m = self.metrics
        if self._never_delays:
            del pending[:len(window)]
            ready = window
        else:
            policy = self.policy
            decide = policy.issue_decision
            version = policy.version
            head = self.rob[0]
            ready = []
            if self._delay_covers_younger:
                # the first delay holds every younger window entry too
                for e in window:
                    if e is not head:  # the ROB head is never delayed
                        if e.delay_version != version:  # else nothing it read has changed
                            e.delay_reason = decide(e.seq, e.instr.pc, e.mask)
                            e.delay_version = version
                        if e.delay_reason is not None:
                            break
                    ready.append(e)
                held = window[len(ready):]
            else:
                held = []
                for e in window:
                    if e is not head:
                        if e.delay_version != version:
                            e.delay_reason = decide(e.seq, e.instr.pc, e.mask)
                            e.delay_version = version
                        reason = e.delay_reason
                        if reason is not None:
                            if reason == DELAY_BLOOM_FP and not e.fp_counted:
                                m.fp_count += 1
                                e.fp_counted = self._fp_entry_mode
                            held.append(e)
                            continue
                    ready.append(e)
            m.delayed_issues += len(held)
            if not ready:
                return
            pending[:len(window)] = held
        cycle = self.cycle
        completions = self._completions
        resolutions = self._resolutions
        issues = m.per_pc_issues
        spec_issues = m.per_pc_spec_issues
        # pop_safe has just left a live head, so hq.shadows(seq) is oldest < seq
        oldest = self.hq.oldest_seq()
        if oldest is None:
            oldest = self.next_seq  # no queued handle: nothing issuing is younger
        observer = self.observer
        for e in ready:
            e.state = ISSUED
            instr = e.instr
            seq = e.seq
            completions[cycle + instr.exec_latency].append((e, e.gen))
            shadow = e.kind
            if shadow is not None:
                if shadow is ShadowKind.E:
                    e.resolve_ready = cycle + instr.resolve_latency
                else:
                    resolutions[cycle + instr.resolve_latency].append((seq, e.gen, e))
            pc = instr.pc
            issues[pc] = issues.get(pc, 0) + 1
            speculative = oldest < seq
            if speculative:
                spec_issues[pc] = spec_issues.get(pc, 0) + 1
            if observer is not None:
                observer.on_issue(e, speculative, cycle)
        m.dynamic_executed += len(ready)

    def dispatch(self) -> int:
        """Bring in up to `width` instructions; stalls when the ROB or the
        handle queue is full.  Returns the count dispatched."""
        if self.cycle < self._dispatch_resume:
            return 0
        rob = self.rob
        rob_size = self.config.rob_size
        cursor = self.cursor
        records = self.records
        room = min(self.config.width, rob_size - len(rob), len(records) - cursor)
        if room <= 0:
            return 0
        pending = self.pending
        hq = self.hq
        masks = self._pc_masks
        seq = self.next_seq
        for rec in records[cursor:cursor + room]:
            shadow = rec.shadow_class
            if shadow is not None and len(hq) >= rob_size:
                break  # handle queue full; stall until zombies drain
            if masks is None:
                mask = 0
            else:
                mask = masks.get(rec.pc)
                if mask is None:
                    mask = masks[rec.pc] = indices_to_mask(
                        compute_hashes(rec.pc, self.policy.hash_seeds, self.config.bits))
            e = RobEntry(seq, rec, mask)
            rob.append(e)
            pending.append(e)  # seq is monotonic, the list stays in order
            if shadow is not None:
                hq.push_handle(e)
            seq += 1
        n = seq - self.next_seq
        if n:  # an empty cycle sweeps nothing, so clears land on the same cycles
            self.next_seq = seq
            self.cursor = cursor + n
            self.policy.on_dispatch(n)
        return n

    # -- squash ----------------------------------------------------------------

    def squash_from(self, cause: RobEntry) -> None:
        """Drain every entry younger than the issued ``cause``, which
        re-executes."""
        victims: list[RobEntry] = []
        while self.rob and self.rob[-1].seq > cause.seq:
            victims.append(self.rob.pop())
        issued = [v for v in victims if v.state != DISPATCHED]
        for v in victims:
            v.gen += 1  # their queued events are stale now
        pending = self.pending
        while pending and pending[-1].seq > cause.seq:
            pending.pop()

        self.hq.mark_squashed_after(cause.seq)
        youngest = self.hq.youngest_handle()
        # the policy reads the PCs (exact records) and the masks (Bloom filters)
        pcs = frozenset(v.instr.pc for v in issued)
        self.policy.on_squash(pcs, [v.mask for v in issued], youngest)

        # the misspeculated execution of the cause itself is discarded too
        self.metrics.squashed_executions += len(issued) + 1
        cause.state = DISPATCHED
        cause.gen += 1
        cause.resolve_ready = None
        cause.fp_counted = False
        pending.append(cause)  # every entry still pending is older

        # records may be a slice of a longer trace that keeps its seqs
        self.cursor = cause.instr.seq - self.records[0].seq + 1
        self._dispatch_resume = self.cycle + self.config.squash_recovery
        if self.observer is not None:
            self.observer.on_squash(SquashRecord(cause.seq, pcs, youngest))


def run(trace: Trace, config: MachineConfig, resolver=None, observer=None) -> Metrics:
    """Simulate a trace to completion and return its metrics."""
    return Pipeline(trace, config, resolver=resolver, observer=observer).run()
