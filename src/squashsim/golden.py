"""Scripted six-step walkthrough of the tracking mechanism, used as a
golden test for the handle queue, the rolling filters, and the policy.

The script drives a window with three potential handles H1, H2, H3, other
instructions X (one between H1 and H2, one trailing), side-channel
instructions S, and an extra-path instruction Y:

1. H1, H2, H3 enter the handle queue at dispatch.
2. H2 misspeculates; the issued younger instructions {S, H3, trailing X}
   are inserted into the first filter, which is associated with the
   youngest queued handle (H3); squashed handles stay queued, flagged.
3. Re-execution after H2: S and H3 hit the filters and are delayed, the
   new instruction Y misses and is allowed.
4. H1 misspeculates; the only issued younger instructions {X, H2, Y} are
   inserted, landing in the second filter because the first passed the
   half-full mark at step 2.
5. While H1 is live nothing may be popped and no filter may be reset.
6. H1 resolves; the queue drains through the head and both filters clear.

Assertions are on membership decisions and queue state, never on concrete
bit positions, so they hold for any hash seed that is collision-free for
this small PC set.  The walkthrough runs at seed 0, and steps 2 and 3
check that it is one: step 2 fills the 8-bit filter to its threshold, and
step 3 finds no false positive on Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import MachineConfig, PolicyKind
from .filters import compute_hashes, indices_to_mask
from .policy import DELAY_BLOOM_HIT, PolicyState
from .shadows import HandleEntry

_M = 8
_K = 2

PC_H1 = 0x4100
PC_X = 0x4200
PC_H2 = 0x4300
PC_S = 0x4400
PC_H3 = 0x4500
PC_Y = 0x4600

# dynamic sequence numbers of the scripted window
_SEQ_H1, _SEQ_X, _SEQ_H2, _SEQ_S, _SEQ_H3, _SEQ_X2 = 1, 2, 3, 4, 5, 6
_SEQ_S2, _SEQ_H3B, _SEQ_Y = 7, 8, 9


@dataclass
class GoldenStep:
    step: int
    description: str
    passed: bool
    failures: list[str] = field(default_factory=list)


class _Check:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.failures.append(what)


def golden_config() -> MachineConfig:
    # window_len 0 makes the final clears land exactly at the drain step
    return MachineConfig(
        policy=PolicyKind.DOS_BLOOM, bits=_M, hashes=_K, filters=2,
        window_len=0, seed=0,
    )


def run_golden() -> list[GoldenStep]:
    """Execute the six steps, asserting each intermediate state."""
    config = golden_config()
    state = PolicyState(config)
    hq = state.handle_queue
    rf = state.filters
    masks = {
        pc: indices_to_mask(compute_hashes(pc, state.hash_seeds, _M))
        for pc in (PC_H1, PC_X, PC_H2, PC_S, PC_H3, PC_Y)
    }
    steps: list[GoldenStep] = []

    def record(step: int, description: str, c: _Check) -> None:
        steps.append(GoldenStep(step, description, not c.failures, c.failures))

    def decide(seq: int, pc: int) -> str | None:
        return state.issue_decision(seq, pc, masks[pc])

    # Step 1: potential handles enter the queue at dispatch.
    c = _Check()
    state.on_dispatch(_SEQ_X2 + 1)  # the clock passes the window's six seqs
    h1 = hq.push_handle(HandleEntry(_SEQ_H1))
    hq.push_handle(HandleEntry(_SEQ_H2))
    hq.push_handle(HandleEntry(_SEQ_H3))
    c.expect([e.seq for e in hq.entries()] == [_SEQ_H1, _SEQ_H2, _SEQ_H3],
             "queue holds H1, H2, H3 front to back")
    c.expect(hq.youngest_handle() == _SEQ_H3, "youngest handle is H3")
    c.expect(decide(_SEQ_S, PC_S) is None, "S allowed before any squash")
    c.expect(decide(_SEQ_H3, PC_H3) is None, "H3 allowed before any squash")
    record(1, "handles inserted into the handle queue", c)

    # Step 2: H2 misspeculates; issued younger {S, H3, trailing X} recorded.
    c = _Check()
    hq.mark_squashed_after(_SEQ_H2)
    pcs = frozenset({PC_S, PC_H3, PC_X})
    c.expect(hq.youngest_handle() == _SEQ_H3,
             "youngest handle counts squashed-but-present entries")
    state.on_squash(pcs, [masks[PC_S], masks[PC_H3], masks[PC_X]], hq.youngest_handle())
    flags = {e.seq: e.squashed for e in hq.entries()}
    c.expect(flags == {_SEQ_H1: False, _SEQ_H2: False, _SEQ_H3: True},
             "only handles younger than H2 are flagged squashed")
    c.expect(rf.query(masks[PC_S]) and rf.query(masks[PC_H3]) and rf.query(masks[PC_X]),
             "squashed PCs hit the filters")
    c.expect(rf.assoc[0] == _SEQ_H3, "first filter associated with the youngest handle")
    c.expect(rf.filters[0].bit_count() >= rf.threshold,
             "first filter reached the saturation threshold")
    c.expect(rf.filters[1] == 0, "second filter still empty")
    record(2, "squash at H2 fills the first filter, associated with H3", c)

    # Step 3: re-execution after H2 takes a slightly different path with Y.
    c = _Check()
    state.on_dispatch(_SEQ_Y + 1)
    hq.push_handle(HandleEntry(_SEQ_H3B))
    c.expect(decide(_SEQ_S2, PC_S) == DELAY_BLOOM_HIT, "S hits and is delayed")
    c.expect(decide(_SEQ_H3B, PC_H3) == DELAY_BLOOM_HIT, "H3 hits and is delayed")
    c.expect(decide(_SEQ_Y, PC_Y) is None, "Y misses and is allowed")
    record(3, "replayed S and H3 are delayed, new Y is allowed", c)

    # Step 4: H1 misspeculates; issued younger {X, H2, Y} land in filter two.
    c = _Check()
    bits_before = rf.filters[0]
    hq.mark_squashed_after(_SEQ_H1)
    pcs = frozenset({PC_X, PC_H2, PC_Y})
    c.expect(hq.youngest_handle() == _SEQ_H3B, "youngest handle is the replayed H3")
    state.on_squash(pcs, [masks[PC_X], masks[PC_H2], masks[PC_Y]], hq.youngest_handle())
    c.expect(rf.filters[0] == bits_before,
             "saturated first filter is left untouched")
    c.expect(rf.filters[1] != 0, "insertion targets the second filter")
    c.expect(rf.assoc[1] == _SEQ_H3B,
             "second filter associated with the youngest handle")
    c.expect(rf.query(masks[PC_H2]) and rf.query(masks[PC_Y]),
             "newly squashed PCs hit the filters")
    record(4, "squash at H1 records into the second filter", c)

    # Step 5: while H1 is live, nothing pops and nothing clears.
    c = _Check()
    flags = {e.seq: e.squashed for e in hq.entries()}
    c.expect(flags == {_SEQ_H1: False, _SEQ_H2: True, _SEQ_H3: True, _SEQ_H3B: True},
             "every handle but H1 is flagged squashed")
    c.expect(hq.pop_safe() == [], "unresolved H1 blocks the queue head")
    c.expect(rf.filters[0] != 0 and rf.filters[1] != 0,
             "no filter may be reset while H1 is live")
    c.expect(decide(_SEQ_S2, PC_S) == DELAY_BLOOM_HIT, "S stays delayed")
    record(5, "live H1 keeps both filters and the queue intact", c)

    # Step 6: H1 resolves; the queue drains and the filters clear.
    c = _Check()
    hq.mark_resolved(h1)
    popped = hq.pop_safe()
    for seq in popped:
        state.on_handle_safe(seq)
    c.expect(popped == [_SEQ_H1, _SEQ_H2, _SEQ_H3, _SEQ_H3B],
             "resolving H1 drains the squashed handles through the head")
    c.expect(len(hq) == 0, "handle queue empty after the drain")
    c.expect(rf.filters[0] == 0 and rf.filters[1] == 0,
             "both filters cleared once their handles are safe")
    c.expect(decide(_SEQ_S2, PC_S) is None, "S may issue again after the clears")
    record(6, "H1 resolution triggers the deferred filter clears", c)

    return steps


def golden_passed(steps: list[GoldenStep]) -> bool:
    return all(s.passed for s in steps)
