"""Issue policies and per-context save/restore of defense state.

Four policies decide whether a dispatched instruction may issue, and a
delay names one of four reasons:

* ``baseline``    -- always allow (insecure reference machine).
* ``delay-all``   -- delay (``unsafe-older-handle``) while any potential
  handle older than the instruction is still queued; the non-speculative
  lower bound.
* ``dos-perfect`` -- delay (``perfect-hit``) while the PC is in a live
  exact squash record.
* ``dos-bloom``   -- delay (``bloom-hit``) while the PC hits the rolling
  Bloom filters.  With the oracle enabled, the exact filter runs in
  lockstep, and a Bloom hit without an exact hit is a false positive
  (``bloom-false-positive``), which the pipeline counts.

``PolicyState.issue_decision`` states every rule and is the reference:
the golden walkthrough and the tests check the pipeline against it.  The
pipeline's issue phase asks it under dos-bloom only, whose decision reads
two filters and counts ``perfect_only_count``; it applies the other three
rules from the state they read.  Two facts about the rules are set from
the policy kind when the state is made:

* ``never_delays`` -- baseline's rule allows every instruction, so there
  is nothing to ask.
* ``delay_covers_younger`` -- delay-all's rule is a seq bound (delay iff
  the oldest queued handle is older than the instruction), so a delay of
  one instruction is also a delay of every younger one, and the bound is
  the handle queue's head.

Dos-perfect's rule is a lookup in ``PerfectFilter.live``.  The rule and
the hooks branch on these facts and on which filters the state holds
(dos-perfect is the filter policy without Bloom filters), never on
``config.policy``, which only the context blob reads: before Python 3.12
an enum member read through its class costs several times a plain
attribute read, and the rule and the hooks run on the per-cycle path.

Context blob layout (little-endian, versioned)::

    magic   4s   b"SQSM"
    version u16  currently 5
    kind    u8   policy variant (enum order)
    ctx     u64  context id
    next    u64  next pipeline sequence number, the context's clock (< 2**63)
    oracle  u8
    Bloom section (dos-bloom only): m u32, k u32, count u32, active u32,
        threshold u32, window u32, k seeds u64; per filter: bits (m/8
        bytes, little-endian bit packing), clear countdown u32 (0: none)

A saved context is a drained one.  A context switch drains the reorder
buffer, so no handle is queued, no exact record is live (each expires
with its handle) and no filter is associated with a handle; only the
filter bits and their pending clears survive, a clear as the dispatches
left until it lands, at most the window (``next < deadline <= next +
window``).  ``save_context`` refuses a state that still holds any of the
three.  A restored clock is below 2**63: 2**63 dispatches before its u64 fills.

A blob is ``bytes`` carrying state only: restoring it under a config whose
geometry, threshold, window or hash seeds differ raises ``ContextBlobError``.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

from .config import MachineConfig, PolicyKind
from .filters import PerfectFilter, RollingFilters, derive_hash_seeds
from .shadows import HandleQueue

BLOB_MAGIC = b"SQSM"
BLOB_VERSION = 5

_KIND_CODE = {k: i for i, k in enumerate(PolicyKind)}

DELAY_UNSAFE_HANDLE = "unsafe-older-handle"
DELAY_BLOOM_HIT = "bloom-hit"
DELAY_PERFECT_HIT = "perfect-hit"
DELAY_BLOOM_FP = "bloom-false-positive"


class ContextBlobError(ValueError):
    """Raised when a context blob is corrupt or bound to another context."""


class PolicyState:
    """Per-context defense state: handle queue plus policy-specific filters."""

    def __init__(self, config: MachineConfig, context_id: int = 0) -> None:
        if not 0 <= context_id < 1 << 64:
            raise ValueError(f"context id must fit the context blob's u64 ctx field, "
                             f"got {context_id}")
        kind = config.policy
        self.config = config
        self.context_id = context_id
        self.handle_queue = HandleQueue()
        self.next_seq = 0  # the next dispatch's seq, also the dispatch count: the clears' clock
        self.oracle = config.oracle and kind is PolicyKind.DOS_BLOOM

        self.hash_seeds: tuple[int, ...] = ()  # read only by the Bloom masks
        self.filters: RollingFilters | None = None
        self.perfect: PerfectFilter | None = None
        if kind is PolicyKind.DOS_BLOOM:
            self.hash_seeds = derive_hash_seeds(config.seed, config.hashes)
            self.filters = RollingFilters(
                count=config.filters,
                threshold=config.effective_threshold,
                window_len=config.effective_window,
            )
        if kind is PolicyKind.DOS_PERFECT or self.oracle:
            self.perfect = PerfectFilter()

        # lockstep accounting (dos-bloom with oracle): exact hits the Bloom filters miss
        self.perfect_only_count = 0
        # goes up when something dos-bloom's decision reads changes; only its cache reads it
        self.version = 0
        # what the rule implies, for callers that can skip asking (module docstring)
        self.never_delays = kind is PolicyKind.BASELINE
        self.delay_covers_younger = kind is PolicyKind.DELAY_ALL
        # what on_squash reads, so a squash builds nothing else
        self.reads_squash_pcs = self.perfect is not None
        self.reads_squash_masks = self.filters is not None

    # -- issue-time decision ------------------------------------------------

    def issue_decision(self, seq: int, pc: int, mask: int) -> str | None:
        """Reason to delay, or None to allow.  The ROB head never gets here."""
        if self.never_delays:  # baseline
            return None
        if self.delay_covers_younger:  # delay-all
            hq = self.handle_queue
            return DELAY_UNSAFE_HANDLE if hq and hq[0].seq < seq else None
        filters = self.filters
        if filters is None:  # dos-perfect
            return DELAY_PERFECT_HIT if self.perfect.query(pc) else None
        # dos-bloom
        hit = filters.query(mask)
        if self.oracle:
            exact = self.perfect.query(pc)
            if hit and not exact:
                return DELAY_BLOOM_FP
            if exact and not hit:
                self.perfect_only_count += 1
        return DELAY_BLOOM_HIT if hit else None

    # -- pipeline hooks -----------------------------------------------------

    def on_squash(self, pcs: frozenset[int], masks: Sequence[int], youngest_handle: int) -> None:
        """Record the issued-and-squashed PCs of one squash event under the
        youngest queued handle (the squash's cause is itself queued).  It
        reads ``pcs`` only when ``reads_squash_pcs`` and ``masks`` only when
        ``reads_squash_masks``, so a caller may pass an empty value for the
        other."""
        if self.filters is not None:
            self.filters.record_squash(masks, youngest_handle)
            self.version += 1
        if self.perfect is not None:
            self.perfect.record(pcs, youngest_handle)

    def on_handle_safe(self, seq: int) -> None:
        """Every queued handle up to ``seq`` has just been popped."""
        if self.filters is not None and self.filters.on_handle_safe(seq, self.next_seq):
            self.version += 1
        # a dropped exact record changes dos-bloom's oracle verdict, not its Bloom hit
        if self.perfect is not None and self.perfect.on_handle_safe(seq) and self.oracle:
            self.version += 1

    def on_dispatch(self, next_seq: int) -> None:
        """Every seq below ``next_seq`` has been dispatched.  Only the Bloom
        filters' deferred clears fall due on this clock (exact records
        expire by handle alone); one call for a cycle's whole dispatch
        group is exact (pipeline module docstring).  ``version`` moves if
        and only if a filter was cleared."""
        self.next_seq = next_seq
        if self.filters is not None and self.filters.on_dispatch(next_seq):
            self.version += 1


# -- context serialization ----------------------------------------------------


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.off = 0

    def take(self, fmt: str):
        try:
            out = struct.unpack_from(fmt, self.data, self.off)
        except struct.error as exc:
            raise ContextBlobError(f"truncated blob: {exc}") from None
        self.off += struct.calcsize(fmt)
        return out

    def take_bytes(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ContextBlobError("truncated blob: byte section")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out


def save_context(state: PolicyState) -> bytes:
    """Serialize a drained policy state (module docstring)."""
    if len(state.handle_queue):
        raise ValueError("cannot save a context with queued handles")
    if state.perfect is not None and state.perfect.records():
        raise ValueError("cannot save a context with live exact records")
    if state.filters is not None and any(a is not None for a in state.filters.assoc):
        raise ValueError("cannot save a context with a filter associated with a handle")
    parts = [
        struct.pack(
            "<4sHBQQB",
            BLOB_MAGIC,
            BLOB_VERSION,
            _KIND_CODE[state.config.policy],
            state.context_id,
            state.next_seq,
            1 if state.oracle else 0,
        )
    ]
    if state.filters is not None:
        rf = state.filters
        cfg = state.config
        parts.append(
            struct.pack(
                "<IIIIII",
                cfg.bits, cfg.hashes, len(rf.filters), rf.active, rf.threshold, rf.window_len,
            )
        )
        parts.append(struct.pack(f"<{len(state.hash_seeds)}Q", *state.hash_seeds))
        nbytes = max(1, cfg.bits // 8)
        for bits, deadline in zip(rf.filters, rf.deadline):
            parts.append(bits.to_bytes(nbytes, "little"))
            parts.append(struct.pack("<I", 0 if deadline is None else deadline - state.next_seq))

    return b"".join(parts)


def restore_context(data: bytes, config: MachineConfig, context_id: int) -> PolicyState:
    """Rebuild the policy state of context ``context_id`` from its blob."""
    r = _Reader(data)
    magic, version, kind_code, ctx, next_seq, oracle = r.take("<4sHBQQB")
    if magic != BLOB_MAGIC:
        raise ContextBlobError(f"bad magic {magic!r}")
    if version != BLOB_VERSION:
        raise ContextBlobError(f"unsupported blob version {version}")
    if next_seq >= 1 << 63:
        raise ContextBlobError(f"clock {next_seq} is not below 2**63")
    if ctx != context_id:
        raise ContextBlobError(f"blob belongs to context {ctx}, not {context_id}")
    if kind_code != _KIND_CODE[config.policy]:
        raise ContextBlobError(f"blob policy code {kind_code} is not config policy {config.policy}"
                               f" (code {_KIND_CODE[config.policy]})")
    state = PolicyState(config, context_id=ctx)
    state.next_seq = next_seq
    if oracle != state.oracle:
        raise ContextBlobError(f"oracle flag {oracle} in the blob, {state.oracle:d} in the config")

    if state.filters is not None:
        m, k, count, active, threshold, window = r.take("<IIIIII")
        rf = state.filters
        geometry = (config.bits, config.hashes, len(rf.filters), rf.threshold, rf.window_len)
        if (m, k, count, threshold, window) != geometry:
            # the config decides these; the blob only carries the state
            raise ContextBlobError(
                f"filter geometry (bits, hashes, filters, threshold, window) "
                f"{(m, k, count, threshold, window)} in the blob != {geometry} in the config")
        if active >= count:
            raise ContextBlobError(f"active filter {active} out of range for {count} filters")
        seeds = r.take(f"<{k}Q")
        if tuple(seeds) != state.hash_seeds:
            raise ContextBlobError("hash seed mismatch between blob and config")
        rf.active = active
        nbytes = max(1, m // 8)
        for i in range(count):
            bits = int.from_bytes(r.take_bytes(nbytes), "little")
            if bits >> m:
                raise ContextBlobError(f"filter {i} sets bits at or above its width of {m}")
            rf.filters[i] = bits
            (countdown,) = r.take("<I")
            if countdown > window:
                raise ContextBlobError(f"filter {i} clear countdown {countdown} "
                                       f"exceeds the window of {window}")
            rf.deadline[i] = next_seq + countdown if countdown else None

    if r.off != len(data):
        raise ContextBlobError(f"{len(data) - r.off} trailing bytes in blob")
    return state
