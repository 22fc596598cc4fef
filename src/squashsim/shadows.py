"""Speculative shadow kinds and the FIFO queue of potential replay handles.

Every in-flight instruction that can cause a squash casts a shadow and is
entered into the handle queue at dispatch.  Entries leave only from the
head, and only once safe: resolved (or squashed) with no older entry still
in front of them.  Squashed entries stay queued as placeholders until they
reach the head, which is what defeats serial and nested replay patterns.

A queue entry is any object with ``seq``, ``kind``, ``resolved`` and
``squashed``.  The pipeline queues its in-flight instruction, the
``RobEntry``, itself; ``HandleEntry`` is the entry for a handle with no
in-flight instruction behind it: one restored from a context blob, or one
pushed by the golden walkthrough or a test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum


class ShadowKind(str, Enum):
    E = "E"  # exceptions / page faults; resolve only at the ROB head
    C = "C"  # control flow
    D = "D"  # stores with unknown address
    M = "M"  # speculative reordering against the memory model

    def __str__(self) -> str:
        return self.value


class HandleQueueError(RuntimeError):
    """Raised on a FIFO invariant breach (an out-of-order push)."""


@dataclass(slots=True)
class HandleEntry:
    """A queued handle that no in-flight instruction stands for."""

    seq: int
    kind: ShadowKind
    resolved: bool = False
    squashed: bool = False


class HandleQueue:
    """FIFO of potential replay handles, keyed by dynamic sequence number."""

    def __init__(self) -> None:
        self._entries: deque[HandleEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[HandleEntry]:
        return list(self._entries)

    def push_handle(self, entry: HandleEntry) -> HandleEntry:
        """Queue ``entry`` and return it; the caller keeps it to mark it
        resolved.  Any object with ``HandleEntry``'s four fields will do."""
        if self._entries and entry.seq <= self._entries[-1].seq:
            raise HandleQueueError(
                f"push_handle out of order: seq {entry.seq} <= tail {self._entries[-1].seq}"
            )
        self._entries.append(entry)
        return entry

    def youngest_handle(self) -> int | None:
        """Tail seq, counting squashed-but-present entries; None when empty."""
        return self._entries[-1].seq if self._entries else None

    def oldest_seq(self) -> int | None:
        return self._entries[0].seq if self._entries else None

    def shadows(self, seq: int) -> bool:
        """True if some live entry (neither resolved nor squashed) older
        than seq exists.

        Only the oldest live entry matters, and the scan stops at it.  Just
        after ``pop_safe`` the head is live (or the queue empty), so there
        this is ``oldest_seq() < seq``, which is what the pipeline's issue
        phase reads instead.  This method states the rule for any queue
        state: the tests check the pipeline against it, and the
        benchmark's tracer (``perfbench/tracing.py``) wraps it by name.
        """
        for entry in self._entries:
            if not (entry.resolved or entry.squashed):
                return entry.seq < seq
        return False

    def mark_resolved(self, entry: HandleEntry) -> None:
        entry.resolved = True

    def mark_squashed_after(self, seq: int) -> None:
        """Flag every entry younger than seq; the causing entry stays live."""
        for entry in reversed(self._entries):
            if entry.seq <= seq:
                break
            entry.squashed = True

    def pop_safe(self) -> list[int]:
        """Remove the head while it is resolved or squashed; return popped seqs."""
        popped: list[int] = []
        while self._entries:
            head = self._entries[0]
            if not (head.resolved or head.squashed):
                break
            self._entries.popleft()
            popped.append(head.seq)
        return popped
