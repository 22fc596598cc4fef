"""Simplified out-of-order engine with squash/replay semantics.

Per-cycle phase order: scheduled resolutions (which may squash), in-order
commit (exception-class handles resolve only once they reach the
reorder-buffer head), handle-queue pops, issue under the active policy,
then dispatch.  The instruction at the head of the reorder buffer is
never delayed, which guarantees forward progress under every policy.

A ``Pipeline`` is one context over its whole trace: ``run(stop)`` pauses it
drained, and ``switch_context`` keeps only what the context blob holds of
the policy state, while the metrics and the cycle count go on.

On a squash, every younger entry is drained, the PCs of the ones that had
actually issued are recorded with the policy, and the front end restarts
right after the misspeculating instruction, which itself stays put and
re-executes.  The cause is a queued handle, neither resolved nor squashed
yet, so the queue is never empty at a squash and the record always has a
youngest handle.  A squash builds only what some reader takes: the PC set
when the policy holds an exact filter (``PolicyState.reads_squash_pcs``)
or an observer is attached, the mask list when it holds Bloom filters
(``reads_squash_masks``); ``on_squash`` is called either way, with an
empty value for what the policy does not read.

The ``RobEntry`` is the one handle on an in-flight instruction: the
reorder buffer, the not-yet-issued list, the resolution buckets and the
handle queue all hold entries.  The queue is the policy's: each phase
reads ``policy.handle_queue``, which a context switch replaces along with
the policy, and the pipeline keeps no copy of it.  A shadow-casting entry
is its own handle-queue entry: dispatch pushes it, and its ``seq``,
``resolved`` and ``squashed`` are what the queue reads.  After a squash
the victims' entries stay queued as placeholders until they reach the
queue head.  A fact of the instruction, such as its shadow kind or a
latency, is read from ``instr``.

An entry's ``seq`` is new on every dispatch; its ``pos`` is the trace
position of its instruction, the record index, and stays the same for
every re-dispatched instance.  An ``Instruction`` holds no position (a
loop trace holds one object per body slot), so the resolvers key on
``pos``, and a squash restarts the front end at the record after
``cause.pos``.

An entry's execution completes at a cycle stamp, ``done_at``: the issue
cycle plus the execution latency once it issues, ``NEVER`` while it waits
to issue, which a squash's cause does again.  Commit retires a head once
``done_at <= cycle``, and a squash tells its issued victims by the stamp.
An E handle resolves at the ROB head alone, from its issue cycle plus its
resolve latency on: ``done_at - exec_latency + resolve_latency``.

Resolutions wait in per-cycle buckets of entries, and a tick fires its
cycle's bucket in seq order (sorted by ``seq`` when it holds more than
one): an older resolution may squash a younger one due in the same cycle,
which must then not fire.  An entry with a resolution still due is a live
queued handle.  A squash flags every queued handle younger than its cause
(``mark_squashed_after``), and the cause's own event is the one firing, so
an event is stale exactly when its entry is ``squashed``.  Latencies are
at least 1, so every event lands in a bucket the run has not reached yet.

A resolution asks the resolver whether the entry misspeculates, then
squashes from it or marks it resolved (``HandleQueue.mark_resolved``);
``tick`` does that for its due buckets and ``commit`` for a due E head,
each inline, and ``squash_from`` counts the squash.  The pipeline holds
the resolver only as its bound ``__call__``, taken once in ``__init__``,
since calling a callable instance looks the method up through its type on
every call (several times the cost of calling the bound method, on
Python 3.11 to 3.13 alike).  So a wrapper of a resolver class's
``__call__`` must be set on the class before the pipeline is built.

Dispatch does only the work some policy reads.  A PC's Bloom filter bit
mask is computed only when the policy holds Bloom filters (dos-bloom),
once per hash family and PC in a process, and kept in the entry: a mask
depends on the PC, the hash seeds and the filter size alone, so every
run of one family shares ``filters.mask_table``.  Under
every other policy the mask is 0, since only the rolling filters read
it.  Each dispatch takes the next seq, so ``PolicyState.next_seq`` is
also the dispatch count: the clock of a deferred Bloom clear, held by
the policy alone and moved only by its dispatch hook, which runs once
per cycle with the new ``next_seq``, not once per instruction.  That is
exact: nothing in the dispatch phase reads the clock or the filters (the
earlier phases do), so a deferred clear lands in the same cycle either
way.

The issue phase applies three of the four rules from the policy state
they read, and asks ``PolicyState.issue_decision``, which states every
rule, under dos-bloom alone.  Under baseline (``PolicyState.never_delays``)
the window issues whole.  An issue is speculative when a live handle older
than it is queued (``HandleQueue.shadows``); ``pop_safe`` has just left a
live head or an empty queue, and nothing changes the queue before the
issues, so the phase reads the head's seq, ``oldest``, once and compares
each seq with it.  Delay-all's rule is that same bound
(``PolicyState.delay_covers_younger``): the window issues up to its first
non-head entry younger than ``oldest``, and every entry from there on is
held, so no delay-all issue is speculative.  ``pending`` is in seq order
and the ROB head, when pending, is ``pending[0]``, so the held entries are
all non-head entries.  A live handle is always in the ROB, since commit
retires a handle only once it is resolved and a squash flags every handle
it drains, so the head is never younger than ``oldest``: when
``pending[0]`` is, the whole window is held.  Under dos-perfect (the
filter policy without Bloom filters) a non-head entry is held while its
PC is in ``PerfectFilter.live``.  Under dos-bloom the phase walks the
window in seq order, decides each non-head entry, fresh or cached, and
holds the delayed ones.  Each held entry adds one ``delayed_issues``, and
the entries let through issue in seq order.

Dos-bloom's decision is cached: a delayed entry is asked about again every
cycle, but the answer can only change when the policy state it reads
does, and the decision costs a Bloom query and, under the oracle, an exact
query with a side effect on ``perfect_only_count``.
``PolicyState.version`` moves under dos-bloom alone: on every squash
record, on a Bloom filter bulk clear and when the oracle's exact filter
drops a record (when its handle becomes safe).  Each entry caches the
version and the reason of its last decision; while the version holds, the
cached reason stands in for a new decision.  The pipeline alone counts false positives: a
``bloom-false-positive`` delay adds one to ``fp_count`` unless the entry's
``fp_counted`` is set, and sets it under ``fp_counting="entry"``, so that
mode counts one per delay episode and ``"evaluation"`` one per cycle.  A
delay never adds to ``perfect_only_count``, so there is nothing to repeat
there.

The per-PC issue counts, ``Metrics.per_pc_issues`` and
``per_pc_spec_issues``, are derived in ``_finalize``, not kept up on every
issue.  Every issue committed, was discarded by a squash or is still in
flight.  Commit is in order, so the committed records are
``records[:committed]``, whose PCs the trace counts (``Trace.pc_counts``,
once per trace for the whole of it).  ``squash_from`` counts the
discarded executions per PC: the issued victims and the cause.  The issued
entries still in the ROB are counted from the ROB; only a livelock leaves
any.  The speculative counts are the totals less the non-speculative
issues, which lead the issued list, as it is in seq order: the issue
phase counts that prefix alone, and not at all under delay-all, which
issues nothing speculatively.  So the dicts are complete only once ``run``
returns, pauses or raises; a caller that drives ``tick`` itself must not
read them.

A run's host time follows events, not cycles.  A tick is idle when it
fired no resolution, retired, popped and dispatched nothing, and neither
issued nor squashed (commit may squash without retiring): only the delay
counters moved.  The next tick then reads the same state: the same head,
window and handle queue, so the same delay-all bound; the same live exact
records, since only a squash records and only a pop drops; the same
``PolicyState.version``, so every dos-bloom decision is cached; and a
dispatch clock that stands still, so no deferred Bloom clear falls due.
It repeats the idle tick until the first timed event, which is the
earliest of: the head's ``done_at`` while it is ahead, else an E head's
resolve cycle (commit reads no entry behind a waiting head, and any
other executed head waits for its resolution); the earliest resolution
bucket; and ``_last_commit_cycle + budget + 1``, where the livelock check
fires, so that a livelock raises at the same cycle with the same text.
``run`` moves the clock to the cycle before that event, and adds the idle
tick's ``delayed_issues`` delta once per skipped cycle, and its
``fp_count`` delta too under ``fp_counting="evaluation"``; under
``"entry"`` the idle tick has already counted each episode, and
``perfect_only_count`` moves only on a fresh decision.  ``tick`` leaves
its mark in ``_idle``, not in a return value, which a wrapper of ``tick``
may drop.

Each phase is one method with its hot attributes bound to locals once per
call: ``tick`` fires the due resolutions and pops the safe handles
itself, and calls ``commit``, ``try_issue`` (which also issues) and
``dispatch`` (which also computes the Bloom masks).  The benchmark's tracer
(``perfbench/tracing.py``) wraps these methods, ``squash_from``, the
``HandleQueue`` and ``PolicyState`` methods and this module's
``compute_hashes`` by name, so each is looked up when it is called, not
bound at import.  The per-cycle path calls neither ``push_handle`` nor
``oldest_seq`` (the deque's own append and head read do that work), and
``issue_decision`` only under dos-bloom, so the tracer records no span for
that work.  ``tick`` and ``commit`` resolve without a ``_resolve``
method between, but still through ``mark_resolved``, which the tracer's
idle-tick count reads; and every squash calls ``on_squash``, which its
``policy.hook`` time reads, even with nothing to record.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter

from .config import MachineConfig
from .filters import compute_hashes, indices_to_mask, mask_table
from .metrics import Metrics
from .policy import DELAY_BLOOM_FP, PolicyState, restore_context, save_context
from .shadows import ShadowKind
from .trace import Instruction, Trace

NEVER = 1 << 62  # the ``done_at`` of an entry that waits to issue
_E = ShadowKind.E  # an enum member read through its class is slow before Python 3.12
_SEQ = attrgetter("seq")
_NO_PCS: frozenset[int] = frozenset()  # a squash's PCs, for a policy and observer that read none


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
    youngest_handle: int


class RobEntry:
    """One dispatched instance of an instruction: ``seq`` is its dynamic
    sequence number, new on every dispatch, and ``pos`` its trace position
    (record index), the same for every instance."""

    __slots__ = (
        "seq", "pos", "instr", "done_at", "resolved", "squashed",
        "mask", "fp_counted", "delay_version", "delay_reason",
    )

    def __init__(self, seq: int, pos: int, instr: Instruction, mask: int) -> None:
        self.seq = seq
        self.pos = pos
        self.instr = instr
        self.done_at = NEVER  # the cycle its execution completes
        # the handle-queue flags, for a shadow-casting instruction
        self.resolved = False
        self.squashed = False
        self.mask = mask  # the PC's Bloom mask, 0 unless the policy holds Bloom filters
        self.fp_counted = False  # one FP per delay episode in "entry" counting
        self.delay_version = -1  # PolicyState.version at the last decision
        self.delay_reason: str | None = None  # what that decision returned

    def describe(self, cycle: int) -> str:
        """The entry as of ``cycle``, for diagnostics."""
        if self.done_at == NEVER:
            state = "Dispatched"
        else:
            state = "Executed" if self.done_at <= cycle else "Issued"
        return (
            f"RobEntry(seq={self.seq}, pc=0x{self.instr.pc:x}, "
            f"state={state}, resolved={self.resolved})"
        )


class TraceResolver:
    """Default speculation outcomes: a pre-marked instruction misspeculates
    once at its trace position (``RobEntry.pos``); re-dispatched instances
    resolve correctly."""

    def __init__(self) -> None:
        self._consumed: set[int] = set()

    def __call__(self, entry: RobEntry) -> bool:
        if entry.instr.misspeculate and entry.pos not in self._consumed:
            self._consumed.add(entry.pos)
            return True
        return False


class Pipeline:
    """One execution context of the machine, paused at its context switches."""

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        policy: PolicyState | None = None,
        resolver=None,
        observer=None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.records = trace.instructions
        self.policy = policy if policy is not None else PolicyState(config)
        # the resolver's bound __call__ skips the type's lookup per call
        self._misspeculates = (resolver if resolver is not None else TraceResolver()).__call__
        self.observer = observer

        self.metrics = Metrics(trace_id=trace.trace_id, policy=str(config.policy))
        self.cycle = 0
        self.cursor = 0
        self.rob: list[RobEntry] = []
        self.pending: list[RobEntry] = []  # dispatched, not yet issued; in seq order
        # cycle -> the entries whose resolutions are due then
        self._resolutions: defaultdict[int, list[RobEntry]] = defaultdict(list)
        # Bloom filter bit mask per PC, for the one policy that reads masks;
        # shared by every run of the same hash family
        self._pc_masks: dict[int, int] | None = (
            mask_table(self.policy.hash_seeds, config.bits)
            if self.policy.filters is not None else None)
        self._fp_entry_mode = config.fp_counting == "entry"
        self._stop = len(self.records)  # dispatch brings in no record at or after this index
        self._last_commit_cycle = 0
        self._idle = False  # the last tick changed nothing but the delay counters
        # PC -> count, the two terms of the per-PC issue counts that _finalize
        # cannot read off the trace and the ROB (module docstring)
        self._discarded_issues: dict[int, int] = {}
        self._nonspec_issues: dict[int, int] = {}

    # -- lifecycle ------------------------------------------------------------

    def run(self, stop: int | None = None) -> Metrics:
        """Run until every record before index ``stop`` (by default, every
        record) has committed; return the context's metrics so far."""
        n_records = len(self.records)
        self._stop = stop = n_records if stop is None else min(stop, n_records)
        budget = self.config.effective_budget
        rob = self.rob
        resolutions = self._resolutions
        m = self.metrics
        count_fp_per_cycle = not self._fp_entry_mode
        tick = self.tick
        while self.cursor < stop or rob:
            self.cycle += 1
            delayed, fps = m.delayed_issues, m.fp_count
            tick()
            cycle = self.cycle
            if cycle - self._last_commit_cycle > budget:
                self._finalize()
                raise LivelockError(
                    f"no commit for {budget} cycles at cycle {cycle}"
                    f" (head={rob[0].describe(cycle)})",
                    m,
                )
            if self._idle:
                # every tick before the next timed event would repeat this
                # one (module docstring): count them, and tick that event's cycle
                event = self._last_commit_cycle + budget + 1  # where the livelock check fires
                head = rob[0]
                instr = head.instr
                if head.done_at > cycle:
                    event = min(event, head.done_at)
                elif instr.shadow_class is _E:
                    event = min(event, head.done_at - instr.exec_latency + instr.resolve_latency)
                if resolutions:
                    event = min(event, min(resolutions))
                skipped = event - 1 - cycle
                if skipped > 0:
                    m.delayed_issues += skipped * (m.delayed_issues - delayed)
                    if count_fp_per_cycle:
                        m.fp_count += skipped * (m.fp_count - fps)
                    self.cycle = event - 1
        self._finalize()
        return m

    next_seq = property(lambda self: self.policy.next_seq)  # the tracer's read of the clock

    def switch_context(self) -> None:
        """Switch the drained context out and back in: its policy state is
        restored from its blob, keeping the counters.  A drained run ended on
        a commit, with no resolution due: a re-dispatched instance resolves
        after its squashed one, so nothing else needs a reset."""
        if self.rob:
            raise ValueError("cannot switch a context with instructions in flight")
        old = self.policy
        self.policy = new = restore_context(save_context(old), self.config, old.context_id)
        new.perfect_only_count = old.perfect_only_count
        if new.filters is not None:
            new.filters.rotations, new.filters.clears = old.filters.rotations, old.filters.clears

    def _finalize(self) -> None:
        m = self.metrics
        m.cycles = self.cycle
        m.perfect_only_count = self.policy.perfect_only_count
        rf = self.policy.filters
        if rf is not None:
            m.rotations, m.filter_clears = rf.rotations, rf.clears
        # every issue committed, was discarded by a squash or is still in flight
        issues = self.trace.pc_counts(m.committed)
        for pc, n in self._discarded_issues.items():
            issues[pc] = issues.get(pc, 0) + n
        for e in self.rob:
            if e.done_at != NEVER:
                pc = e.instr.pc
                issues[pc] = issues.get(pc, 0) + 1
        m.per_pc_issues = issues
        if self.policy.delay_covers_younger:
            spec = {}  # delay-all issues nothing speculatively
        else:
            spec = dict(issues)  # less the non-speculative issues
            for pc, n in self._nonspec_issues.items():
                n = spec[pc] - n
                if n:
                    spec[pc] = n
                else:
                    del spec[pc]
        m.per_pc_spec_issues = spec

    def tick(self) -> None:
        """One cycle: fire the resolutions due now; commit; pop the safe
        handles; issue; dispatch.  Marks the tick idle when none of them
        changed anything but the delay counters."""
        m = self.metrics
        hq = self.policy.handle_queue
        work = m.dynamic_executed + m.squashes  # issues and squashes (commit may squash)
        due = self._resolutions.pop(self.cycle, None)
        if due is not None:
            if len(due) > 1:
                due.sort(key=_SEQ)  # oldest first: an older squash makes the younger ones stale
            misspeculates = self._misspeculates
            for e in due:
                if not e.squashed:  # else squashed since the event was scheduled
                    if misspeculates(e):
                        self.squash_from(e)
                    else:
                        hq.mark_resolved(e)
        retired = self.commit()
        popped = hq.pop_safe()
        if popped:
            # both filters expire everything up to the given seq, and the clock
            # is fixed within a cycle, so one call for the youngest pop is exact
            self.policy.on_handle_safe(popped[-1])
            observer = self.observer
            if observer is not None:
                for seq in popped:
                    observer.on_handle_safe(seq)
        self.try_issue()
        dispatched = self.dispatch()
        # a mark, not a return value, so that it survives a wrapper of tick
        self._idle = (due is None and not (retired or popped or dispatched)
                      and work == m.dynamic_executed + m.squashes)

    # -- phases ----------------------------------------------------------------

    def commit(self) -> int:
        """Retire up to `width` executed entries from the head, in order."""
        rob = self.rob
        width = self.config.width
        cycle = self.cycle
        retired = 0
        while rob and retired < width:
            head = rob[0]
            if head.done_at > cycle:
                break
            instr = head.instr
            kind = instr.shadow_class
            if kind is None or head.resolved:
                del rob[0]
                retired += 1
                continue
            if kind is not _E or cycle < head.done_at - instr.exec_latency + instr.resolve_latency:
                break  # only an E head resolves here (fault handling), once due
            if self._misspeculates(head):
                self.squash_from(head)
                break  # the head re-executes
            self.policy.handle_queue.mark_resolved(head)
            del rob[0]
            retired += 1
        if retired:
            self.metrics.committed += retired
            self._last_commit_cycle = cycle
        return retired

    def try_issue(self) -> None:
        """Consult up to `width` of the oldest dispatched entries against the
        policy and issue the ones it allows."""
        pending = self.pending
        if not pending:
            return
        width = self.config.width
        m = self.metrics
        policy = self.policy
        hq = policy.handle_queue
        # pop_safe has just left a live head, so hq.shadows(seq) is oldest < seq;
        # with no queued handle, nothing issuing is younger
        oldest = hq[0].seq if hq else policy.next_seq
        delay_all = policy.delay_covers_younger
        if delay_all:
            # delay-all: the window prefix up to the first non-head entry
            # younger than oldest; only pending[0] can be the ROB head, which
            # is never younger than oldest (module docstring)
            n = len(pending)
            if n > width:
                n = width
            if pending[0].seq > oldest:
                m.delayed_issues += n
                return
            k = bisect_right(pending, oldest, 1, n, key=_SEQ)
            m.delayed_issues += n - k
            ready = pending[:k]
            del pending[:k]
        elif policy.never_delays or (policy.filters is None and not policy.perfect.live):
            # baseline, or dos-perfect with no live exact record: nothing is held
            ready = pending[:width]
            del pending[:width]
        else:
            window = pending[:width]
            head = self.rob[0]
            ready = []
            held = []
            if policy.filters is None:
                # dos-perfect: hold the non-head entries whose PC has a live exact record
                live = policy.perfect.live
                for e in window:
                    if e.instr.pc in live and e is not head:
                        held.append(e)
                    else:
                        ready.append(e)
            else:
                decide = policy.issue_decision
                version = policy.version
                for e in window:
                    if e is not head:  # the ROB head is never delayed
                        if e.delay_version != version:  # else nothing it read has changed
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
        resolutions = self._resolutions
        observer = self.observer
        for e in ready:
            instr = e.instr
            e.done_at = cycle + instr.exec_latency
            shadow = instr.shadow_class
            if shadow is not None and shadow is not _E:  # an E resolves at the head (commit)
                resolutions[cycle + instr.resolve_latency].append(e)
            if observer is not None:
                observer.on_issue(e, oldest < e.seq, cycle)
        m.dynamic_executed += len(ready)
        if ready[0].seq <= oldest and not delay_all:
            # the non-speculative issues lead ready, which is in seq order
            nonspec = self._nonspec_issues
            for e in ready:
                if e.seq > oldest:
                    break
                pc = e.instr.pc
                nonspec[pc] = nonspec.get(pc, 0) + 1

    def dispatch(self) -> int:
        """Bring in up to `width` instructions; stalls when the ROB or the
        handle queue is full.  Returns the count dispatched."""
        rob = self.rob
        rob_size = self.config.rob_size
        cursor = self.cursor
        room = min(self.config.width, rob_size - len(rob), self._stop - cursor)
        if room <= 0:
            return 0
        pending = self.pending
        masks = self._pc_masks
        policy = self.policy
        hq = policy.handle_queue
        seq = policy.next_seq
        pos = cursor
        for rec in self.records[cursor:cursor + room]:
            shadow = rec.shadow_class
            if shadow is not None and len(hq) >= rob_size:
                break  # handle queue full; stall until zombies drain
            if masks is None:
                mask = 0
            else:
                mask = masks.get(rec.pc)
                if mask is None:
                    mask = masks[rec.pc] = indices_to_mask(
                        compute_hashes(rec.pc, policy.hash_seeds, self.config.bits))
            e = RobEntry(seq, pos, rec, mask)
            rob.append(e)
            pending.append(e)  # seq is monotonic, the list stays in order
            if shadow is not None:
                hq.append(e)  # seqs only grow: the queue stays in order
            seq += 1
            pos += 1
        n = seq - policy.next_seq
        if n:  # an empty cycle sweeps nothing, so clears land on the same cycles
            self.cursor = cursor + n
            policy.on_dispatch(seq)  # moves the clock
        return n

    # -- squash ----------------------------------------------------------------

    def squash_from(self, cause: RobEntry) -> None:
        """Drain every entry younger than the issued ``cause``, which
        re-executes."""
        rob = self.rob
        cut = rob.index(cause) + 1
        victims = rob[cut:]
        del rob[cut:]
        issued = [v for v in victims if v.done_at != NEVER]
        # the victims that never issued are the pending ones younger than the cause
        pending = self.pending
        del pending[len(pending) - (len(victims) - len(issued)):]

        policy = self.policy
        hq = policy.handle_queue
        hq.mark_squashed_after(cause.seq)  # their due resolutions are stale now
        youngest = hq.youngest_handle()  # never None: the cause is queued
        # build only what the policy (its reads_squash_* facts) or the observer
        # reads, and pass an empty value in place of the rest
        issued_pcs = [v.instr.pc for v in issued]
        observer = self.observer
        pcs = (frozenset(issued_pcs)
               if policy.reads_squash_pcs or observer is not None else _NO_PCS)
        policy.on_squash(pcs, [v.mask for v in issued] if policy.reads_squash_masks else (),
                         youngest)

        self.metrics.squashes += 1
        # the misspeculated execution of the cause itself is discarded too
        self.metrics.squashed_executions += len(issued) + 1
        discarded = self._discarded_issues
        issued_pcs.append(cause.instr.pc)
        for pc in issued_pcs:
            discarded[pc] = discarded.get(pc, 0) + 1
        cause.done_at = NEVER
        cause.fp_counted = False
        pending.append(cause)  # every entry still pending is older

        self.cursor = cause.pos + 1
        if observer is not None:
            observer.on_squash(SquashRecord(cause.seq, pcs, youngest))


def run(trace: Trace, config: MachineConfig, observer=None) -> Metrics:
    """Simulate a trace to completion, each handle resolving as its row says."""
    return Pipeline(trace, config, observer=observer).run()
