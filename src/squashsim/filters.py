"""The rolling Bloom filters, their PC hashing, and the exact oracle.

The rolling filters store the PCs of issued-and-squashed instructions.
Every squash is caused by a queued handle, so the handle queue is never
empty at a squash, and each squash record belongs to the youngest queued
handle at that moment.  Each filter is associated with the youngest
handle of its most recent insertion; it may only be bulk-reset once that
handle has left the window of speculation, and even then the reset is
deferred by a dynamic-instruction window so that squashed handles cannot
be re-introduced against cleared filters.  Bits are never cleared
individually.  Each filter is a plain int bit array; its size and hash
count live only in the config that builds the masks.

:class:`PerfectFilter` keeps exact per-squash PC sets under the same
rule: a record expires when its youngest handle becomes safe.  It backs
the ideal policy variant and the lockstep false-positive accounting: a
Bloom hit without a perfect hit at the same decision point is a false
positive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """64-bit multiply-xor-shift finalizer (splitmix64 style)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_hash_seeds(seed: int, k: int) -> tuple[int, ...]:
    """Derive k distinct odd multiplier constants from a run seed."""
    return tuple(_mix64((seed << 8) ^ (0xA5A5_0001 + i)) | 1 for i in range(k))


def compute_hashes(pc: int, seeds: tuple[int, ...], m: int) -> tuple[int, ...]:
    """k filter indices in [0, m) for a PC.

    Each index is the top ``log2(m)`` bits of ``_mix64(pc * seed_i)`` with a
    distinct odd constant per hash function.  Deterministic in (pc, seeds).
    """
    shift = 64 - (m.bit_length() - 1)
    return tuple(_mix64((pc * s) & _MASK64) >> shift for s in seeds)


def indices_to_mask(indices: tuple[int, ...]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


MASK_TABLE_FAMILIES = 64  # hash families whose masks a process keeps


@lru_cache(maxsize=MASK_TABLE_FAMILIES)
def mask_table(seeds: tuple[int, ...], bits: int) -> dict[int, int]:
    """The process's one PC -> Bloom mask dict for the hash family
    ``(seeds, bits)``; the caller fills it on a miss.

    A mask, ``indices_to_mask(compute_hashes(pc, seeds, bits))``, depends
    on nothing else, so every run of a family shares the dict
    and hashes each PC once per process.  A dict holds every PC hashed
    under its family; the cache keeps the ``MASK_TABLE_FAMILIES`` most
    recently used families, and ``mask_table.cache_clear()`` drops them all.
    """
    return {}


class RollingFilters:
    """Cyclical list of Bloom bit arrays; one active, the rest awaiting clears.

    Insertions go to the active filter; queries check every filter.  When
    the active filter reaches the saturation threshold (in set bits) and
    the next filter in the cycle is already clear, the roles rotate.  A
    filter becomes clear-eligible when its associated handle is safe, and
    actually resets once the deferral window of dynamic instructions has
    passed without a re-association.
    """

    def __init__(self, count: int, threshold: int, window_len: int) -> None:
        self.threshold = threshold
        self.window_len = window_len
        self.filters = [0] * count
        self.active = 0
        self.assoc: list[int | None] = [None] * count
        self.deadline: list[int | None] = [None] * count
        self.rotations = 0
        self.clears = 0

    def query(self, mask: int) -> bool:
        """Hit iff all of the mask's bits are set in any filter, active or not."""
        for bits in self.filters:
            if bits & mask == mask:
                return True
        return False

    def record_squash(self, masks: list[int], youngest_handle: int) -> None:
        """Insert squashed-PC masks and re-associate the active filter with
        the squash's youngest queued handle, which cancels a pending clear.
        Rotation is evaluated after the insertion.
        """
        bits = self.filters[self.active]
        for mask in masks:
            bits |= mask
        self.filters[self.active] = bits
        self.assoc[self.active] = youngest_handle
        self.deadline[self.active] = None
        self.maybe_rotate()

    def maybe_rotate(self) -> bool:
        """Swap roles when the active filter is saturated and the next is clear."""
        if self.filters[self.active].bit_count() < self.threshold:
            return False
        nxt = (self.active + 1) % len(self.filters)
        if self.filters[nxt]:
            return False
        self.active = nxt
        self.rotations += 1
        return True

    def on_handle_safe(self, safe_seq: int, next_seq: int) -> list[int]:
        """Arm clear deadlines for filters whose handle is now safe; return
        the filters this cleared (a zero window clears right away)."""
        armed = False
        for i, assoc in enumerate(self.assoc):
            if assoc is not None and assoc <= safe_seq:
                self.assoc[i] = None
                self.deadline[i] = next_seq + self.window_len
                armed = True
        return self._sweep(next_seq) if armed else []

    def on_dispatch(self, next_seq: int) -> list[int]:
        """Bulk-reset filters whose deferred clear deadline the clock
        ``next_seq`` has reached; return the filters this cleared."""
        return self._sweep(next_seq)

    def _sweep(self, next_seq: int) -> list[int]:
        """Reset every filter whose deadline has passed and return the ones
        that held bits; an empty filter only drops its deadline."""
        cleared = []
        for i, dl in enumerate(self.deadline):
            if dl is not None and next_seq >= dl:
                if self.filters[i]:
                    self.filters[i] = 0
                    self.clears += 1
                    cleared.append(i)
                self.deadline[i] = None
        return cleared


@dataclass
class _Record:
    pcs: frozenset[int]
    expire_seq: int  # the handle whose safety expires this record


class PerfectFilter:
    """Exact squashed-PC sets with unlimited storage.

    A PC hits while it belongs to a record whose handle, the youngest
    queued at its squash, is still unsafe.  Records expire exactly when
    that handle becomes safe.
    """

    def __init__(self) -> None:
        # youngest-handle seqs are non-decreasing across records, so
        # expiry pops strictly from the front
        self._records: deque[_Record] = deque()
        # pc -> number of live records holding it; dos-perfect's issue phase
        # tests membership in place of ``query``
        self.live: dict[int, int] = {}

    def query(self, pc: int) -> bool:
        return pc in self.live

    def record(self, pcs: set[int] | frozenset[int], youngest_handle: int) -> None:
        """Store one squash's PC set.

        ``youngest_handle`` values must be non-decreasing across calls
        (they come from the handle-queue tail, which only grows).
        """
        if not pcs:
            return  # exact sets: nothing to store
        rec = _Record(pcs=frozenset(pcs), expire_seq=youngest_handle)
        self._records.append(rec)
        for pc in rec.pcs:
            self.live[pc] = self.live.get(pc, 0) + 1

    def on_handle_safe(self, safe_seq: int) -> bool:
        """Expire the records of handles up to safe_seq; True if any expired."""
        q = self._records
        dropped = False
        while q and q[0].expire_seq <= safe_seq:
            self._drop(q.popleft())
            dropped = True
        return dropped

    def on_dispatch(self, next_seq: int) -> bool:
        """Nothing calls this: no record expires by dispatch count.  The
        benchmark's tracer wraps it by name; it goes when that stops
        (ROADMAP item 1)."""
        return False

    def _drop(self, rec: _Record) -> None:
        for pc in rec.pcs:
            n = self.live[pc] - 1
            if n:
                self.live[pc] = n
            else:
                del self.live[pc]

    def records(self) -> list[_Record]:
        return list(self._records)
