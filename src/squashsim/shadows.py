"""Speculative shadow kinds and the FIFO queue of potential replay handles.

Every in-flight instruction that can cause a squash casts a shadow and is
entered into the handle queue at dispatch.  Entries leave only from the
head, and only once safe: resolved (or squashed) with no older entry still
in front of them.  Squashed entries stay queued as placeholders until they
reach the head, which is what defeats serial and nested replay patterns.

The queue reads an entry's ``seq``, ``resolved`` and ``squashed``, and
nothing else; an entry's shadow kind is its instruction's
(``Instruction.shadow_class``), not the queue's.  The pipeline queues its
``RobEntry`` objects, each in-flight instruction its own entry; a context
blob restores no handles.  ``HandleEntry`` is a handle with no in-flight
instruction behind it, pushed by the golden walkthrough or a test.

The queue is a ``deque`` of its entries, oldest first.  Its methods state
the rules, and the golden walkthrough and the tests drive it through them
alone.  The pipeline's per-cycle path uses the deque's own operations
where a method would only wrap one: dispatch checks ``len`` and appends
(its seqs only grow, so the queue stays in order without
``push_handle``'s check), and the issue phase reads the head entry in
place.  Resolving, squashing and popping go through the methods.
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
    resolved: bool = False
    squashed: bool = False


class HandleQueue(deque):
    """FIFO of potential replay handles, keyed by dynamic sequence number:
    a ``deque`` of entries, oldest first (module docstring)."""

    __slots__ = ()

    def entries(self) -> list[HandleEntry]:
        return list(self)

    def push_handle(self, entry: HandleEntry) -> HandleEntry:
        """Queue ``entry`` and return it; the caller keeps it to mark it
        resolved.  Any object with ``seq``, ``resolved`` and ``squashed``
        will do."""
        if self and entry.seq <= self[-1].seq:
            raise HandleQueueError(
                f"push_handle out of order: seq {entry.seq} <= tail {self[-1].seq}"
            )
        self.append(entry)
        return entry

    def youngest_handle(self) -> int | None:
        """Tail seq, counting squashed-but-present entries; None when empty."""
        return self[-1].seq if self else None

    def oldest_seq(self) -> int | None:
        return self[0].seq if self else None

    def shadows(self, seq: int) -> bool:
        """True if some live entry (neither resolved nor squashed) older
        than seq exists.

        Only the oldest live entry matters, and the scan stops at it.  Just
        after ``pop_safe`` the head is live (or the queue empty), so there
        this is ``self[0].seq < seq``, which is what the pipeline's issue
        phase reads instead.  This method states the rule for any queue
        state: the tests check the pipeline against it, and the
        benchmark's tracer (``perfbench/tracing.py``) wraps it by name.
        """
        for entry in self:
            if not (entry.resolved or entry.squashed):
                return entry.seq < seq
        return False

    def mark_resolved(self, entry: HandleEntry) -> None:
        entry.resolved = True

    def mark_squashed_after(self, seq: int) -> None:
        """Flag every entry younger than seq; the causing entry stays live."""
        for entry in reversed(self):
            if entry.seq <= seq:
                break
            entry.squashed = True

    def pop_safe(self) -> list[int]:
        """Remove the head while it is resolved or squashed; return popped seqs."""
        popped: list[int] = []
        while self:
            head = self[0]
            if not (head.resolved or head.squashed):
                break
            self.popleft()
            popped.append(head.seq)
        return popped
