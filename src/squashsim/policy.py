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

The rule lives in ``PolicyState.issue_decision`` alone.  Two facts about
it are set from the policy kind when the state is made, so that the
pipeline asks only what the rule can answer:

* ``never_delays`` -- baseline's rule allows every instruction, so there
  is nothing to ask.
* ``delay_covers_younger`` -- delay-all's rule is a seq bound (delay iff
  the oldest queued handle is older than the instruction), so a delay of
  one instruction is also a delay of every younger one.

Context blob layout (little-endian, versioned)::

    magic   4s   b"SQSM"
    version u16  currently 1
    kind    u8   policy variant (enum order)
    ctx     u64  context id
    dyn     u64  dynamic instructions dispatched so far
    next    u64  next pipeline sequence number
    oracle  u8
    HQ section:      count u32, then per entry seq u64, kind u8, flags u8
    Bloom section (dos-bloom only): m u32, k u32, count u32, active u32,
        threshold u32, window u32, k seeds u64; per filter: bits (m/8
        bytes, little-endian bit packing), assoc flag u8 + u64,
        deadline flag u8 + u64
    Perfect section (dos-perfect, or dos-bloom with oracle): window u32,
        record count u32; per record: expire flag u8 + u64, deadline flag
        u8 + u64, pc count u32, pcs u64 each

A blob carries state only: restoring it under a config whose geometry,
threshold, windows or hash seeds differ raises ``ContextBlobError``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .config import MachineConfig, PolicyKind
from .filters import PerfectFilter, RollingFilters, derive_hash_seeds
from .shadows import HandleEntry, HandleQueue, ShadowKind

BLOB_MAGIC = b"SQSM"
BLOB_VERSION = 1

_KIND_CODE = {k: i for i, k in enumerate(PolicyKind)}
_CODE_KIND = {i: k for i, k in enumerate(PolicyKind)}
_SHADOW_CODE = {k: i for i, k in enumerate(ShadowKind)}
_CODE_SHADOW = {i: k for i, k in enumerate(ShadowKind)}

DELAY_UNSAFE_HANDLE = "unsafe-older-handle"
DELAY_BLOOM_HIT = "bloom-hit"
DELAY_PERFECT_HIT = "perfect-hit"
DELAY_BLOOM_FP = "bloom-false-positive"


class ContextBlobError(ValueError):
    """Raised when a context blob is corrupt or bound to another context."""


@dataclass
class ContextBlob:
    context_id: int
    data: bytes


class PolicyState:
    """Per-context defense state: handle queue plus policy-specific filters."""

    def __init__(self, config: MachineConfig, context_id: int = 0) -> None:
        self.kind = config.policy
        self.config = config
        self.context_id = context_id
        self.handle_queue = HandleQueue()
        self.dyn_count = 0       # dynamic instructions dispatched in this context
        self.next_seq = 0        # pipeline seq continuity across context switches
        self.oracle = config.oracle and self.kind is PolicyKind.DOS_BLOOM

        self.hash_seeds: tuple[int, ...] = ()  # read only by the Bloom masks
        self.filters: RollingFilters | None = None
        self.perfect: PerfectFilter | None = None
        if self.kind is PolicyKind.DOS_BLOOM:
            self.hash_seeds = derive_hash_seeds(config.seed, config.hashes)
            self.filters = RollingFilters(
                count=config.filters,
                threshold=config.effective_threshold,
                window_len=config.effective_window,
            )
        if self.kind is PolicyKind.DOS_PERFECT or self.oracle:
            self.perfect = PerfectFilter(window_len=config.effective_window)

        # lockstep accounting (dos-bloom with oracle): exact hits the Bloom filters miss
        self.perfect_only_count = 0
        # goes up whenever something issue_decision reads changes
        self.version = 0
        # what the rule implies, for callers that can skip asking (module docstring)
        self.never_delays = self.kind is PolicyKind.BASELINE
        self.delay_covers_younger = self.kind is PolicyKind.DELAY_ALL

    # -- issue-time decision ------------------------------------------------

    def issue_decision(self, seq: int, pc: int, mask: int) -> str | None:
        """Reason to delay, or None to allow.  The ROB head never gets here."""
        kind = self.kind
        if kind is PolicyKind.BASELINE:
            return None
        if kind is PolicyKind.DELAY_ALL:
            oldest = self.handle_queue.oldest_seq()
            if oldest is not None and oldest < seq:
                return DELAY_UNSAFE_HANDLE
            return None
        if kind is PolicyKind.DOS_PERFECT:
            return DELAY_PERFECT_HIT if self.perfect.query(pc) else None
        # dos-bloom
        hit = self.filters.query(mask)
        if self.oracle:
            exact = self.perfect.query(pc)
            if hit and not exact:
                return DELAY_BLOOM_FP
            if exact and not hit:
                self.perfect_only_count += 1
        return DELAY_BLOOM_HIT if hit else None

    # -- pipeline hooks -----------------------------------------------------

    def on_squash(self, pcs: frozenset[int], masks: list[int], youngest_handle: int | None) -> None:
        """Record the issued-and-squashed PCs of one squash event."""
        self.version += 1
        if self.filters is not None:
            self.filters.record_squash(masks, youngest_handle, self.dyn_count)
        if self.perfect is not None:
            self.perfect.record(pcs, youngest_handle, self.dyn_count)

    def on_handle_safe(self, seq: int) -> None:
        """Every queued handle up to ``seq`` has just been popped."""
        if self.kind is PolicyKind.DELAY_ALL:
            self.version += 1  # the oldest queued handle changed
            return
        if self.filters is not None and self.filters.on_handle_safe(seq, self.dyn_count):
            self.version += 1
        if self.perfect is not None and self.perfect.on_handle_safe(seq, self.dyn_count):
            self.version += 1

    def on_dispatch(self, n: int = 1) -> None:
        """``n`` more instructions have been dispatched.

        One call for a whole dispatch group is the same as ``n`` calls of
        one: each sweep clears or drops whatever fell due by the new
        ``dyn_count``, and the clears of a group land in its one cycle
        either way, because nothing reads the filters, the exact records
        or ``dyn_count`` between two dispatches of one cycle.  ``version``
        still moves if and only if something was cleared or dropped.
        """
        self.dyn_count += n
        if self.filters is not None and self.filters.on_dispatch(self.dyn_count):
            self.version += 1
        if self.perfect is not None and self.perfect.on_dispatch(self.dyn_count):
            self.version += 1

    @property
    def rotations(self) -> int:
        return self.filters.rotations if self.filters is not None else 0

    @property
    def filter_clears(self) -> int:
        return self.filters.clears if self.filters is not None else 0


# -- context serialization ----------------------------------------------------


def _pack_opt(value: int | None) -> bytes:
    if value is None:
        return struct.pack("<BQ", 0, 0)
    return struct.pack("<BQ", 1, value)


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

    def take_opt(self) -> int | None:
        flag, value = self.take("<BQ")
        return value if flag else None


def save_context(state: PolicyState) -> ContextBlob:
    """Serialize a quiescent policy state (no in-flight squash)."""
    parts = [
        struct.pack(
            "<4sHBQQQB",
            BLOB_MAGIC,
            BLOB_VERSION,
            _KIND_CODE[state.kind],
            state.context_id,
            state.dyn_count,
            state.next_seq,
            1 if state.oracle else 0,
        )
    ]
    hq_entries = state.handle_queue.entries()
    parts.append(struct.pack("<I", len(hq_entries)))
    for e in hq_entries:
        flags = (1 if e.resolved else 0) | (2 if e.squashed else 0)
        parts.append(struct.pack("<QBB", e.seq, _SHADOW_CODE[e.kind], flags))

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
        for i, bits in enumerate(rf.filters):
            parts.append(bits.to_bytes(nbytes, "little"))
            parts.append(_pack_opt(rf.assoc[i]))
            parts.append(_pack_opt(rf.deadline[i]))

    if state.perfect is not None:
        pf = state.perfect
        records = pf.records()
        parts.append(struct.pack("<II", pf.window_len, len(records)))
        for rec in records:
            parts.append(_pack_opt(rec.expire_seq))
            parts.append(_pack_opt(rec.deadline))
            pcs = sorted(rec.pcs)
            parts.append(struct.pack("<I", len(pcs)))
            parts.append(struct.pack(f"<{len(pcs)}Q", *pcs) if pcs else b"")

    return ContextBlob(context_id=state.context_id, data=b"".join(parts))


def restore_context(blob: ContextBlob, config: MachineConfig,
                    context_id: int | None = None) -> PolicyState:
    """Rebuild a policy state; rejects blobs bound to a different context."""
    r = _Reader(blob.data)
    magic, version, kind_code, ctx, dyn, next_seq, oracle = r.take("<4sHBQQQB")
    if magic != BLOB_MAGIC:
        raise ContextBlobError(f"bad magic {magic!r}")
    if version != BLOB_VERSION:
        raise ContextBlobError(f"unsupported blob version {version}")
    if kind_code not in _CODE_KIND:
        raise ContextBlobError(f"unknown policy code {kind_code}")
    if ctx != blob.context_id:
        raise ContextBlobError(f"blob header context {ctx} != envelope {blob.context_id}")
    expected = blob.context_id if context_id is None else context_id
    if ctx != expected:
        raise ContextBlobError(f"blob belongs to context {ctx}, not {expected}")

    kind = _CODE_KIND[kind_code]
    if kind is not config.policy:
        raise ContextBlobError(f"blob policy {kind} != config policy {config.policy}")
    state = PolicyState(config, context_id=ctx)
    state.dyn_count = dyn
    state.next_seq = next_seq
    if bool(oracle) != state.oracle:
        raise ContextBlobError("oracle flag mismatch between blob and config")

    (n_hq,) = r.take("<I")
    prev_seq = -1
    for _ in range(n_hq):
        seq, shadow_code, flags = r.take("<QBB")
        if shadow_code not in _CODE_SHADOW:
            raise ContextBlobError(f"unknown shadow code {shadow_code}")
        if seq <= prev_seq:
            raise ContextBlobError(f"handle seq {seq} not after {prev_seq}")
        prev_seq = seq
        entry = state.handle_queue.push_handle(HandleEntry(seq, _CODE_SHADOW[shadow_code]))
        if flags & 1:
            state.handle_queue.mark_resolved(entry)
        if flags & 2:
            state.handle_queue.mark_squashed_after(seq - 1)

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
            rf.assoc[i] = r.take_opt()
            rf.deadline[i] = r.take_opt()

    if state.perfect is not None:
        window, n_rec = r.take("<II")
        if window != state.perfect.window_len:
            raise ContextBlobError(f"exact-record window {window} in the blob != "
                                   f"{state.perfect.window_len} in the config")
        for _ in range(n_rec):
            expire_seq = r.take_opt()
            deadline = r.take_opt()
            (n_pc,) = r.take("<I")
            pcs = frozenset(r.take(f"<{n_pc}Q")) if n_pc else frozenset()
            rec_dyn = (deadline - window) if deadline is not None else state.dyn_count
            state.perfect.record(pcs, expire_seq, rec_dyn)

    if r.off != len(blob.data):
        raise ContextBlobError(f"{len(blob.data) - r.off} trailing bytes in blob")
    return state
