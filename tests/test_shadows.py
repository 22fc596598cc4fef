import pytest
from hypothesis import given, strategies as st

from squashsim.shadows import HandleEntry, HandleQueue, HandleQueueError, ShadowKind


def _queue_with(*seqs):
    """A queue of C handles and each seq's entry."""
    hq = HandleQueue()
    return hq, {s: hq.push_handle(HandleEntry(s, ShadowKind.C)) for s in seqs}


def test_push_keeps_fifo_order():
    hq, handles = _queue_with(1, 3, 5)
    assert hq.entries() == [handles[1], handles[3], handles[5]]
    assert [e.seq for e in hq.entries()] == [1, 3, 5]
    assert hq.oldest_seq() == 1
    assert hq.youngest_handle() == 5


def test_push_into_empty_is_head_and_tail():
    hq, _ = _queue_with(7)
    assert hq.oldest_seq() == hq.youngest_handle() == 7


def test_push_out_of_order_rejected():
    hq, _ = _queue_with(4)
    with pytest.raises(HandleQueueError):
        hq.push_handle(HandleEntry(3, ShadowKind.E))
    with pytest.raises(HandleQueueError):
        hq.push_handle(HandleEntry(4, ShadowKind.E))


def test_youngest_counts_squashed_entries():
    hq, _ = _queue_with(1, 3, 5)
    hq.mark_squashed_after(1)
    assert hq.youngest_handle() == 5
    assert hq.oldest_seq() == 1


def test_youngest_of_empty_is_none():
    assert HandleQueue().youngest_handle() is None


def test_mark_squashed_after_flags_only_younger():
    hq, _ = _queue_with(1, 3, 5, 8)
    hq.mark_squashed_after(3)
    flags = {e.seq: e.squashed for e in hq.entries()}
    assert flags == {1: False, 3: False, 5: True, 8: True}


def test_resolved_head_pops():
    hq, handles = _queue_with(1, 3)
    hq.mark_resolved(handles[1])
    assert handles[1].resolved
    assert hq.pop_safe() == [1]
    assert hq.oldest_seq() == 3


def test_resolved_mid_queue_waits_for_head():
    hq, handles = _queue_with(1, 3, 5)
    hq.mark_resolved(handles[3])
    hq.mark_resolved(handles[5])
    assert hq.pop_safe() == []  # unresolved head blocks everything
    hq.mark_resolved(handles[1])
    assert hq.pop_safe() == [1, 3, 5]


def test_squashed_entries_drain_behind_resolved_head():
    hq, handles = _queue_with(1, 3, 5, 8)
    hq.mark_squashed_after(1)
    assert hq.pop_safe() == []
    hq.mark_resolved(handles[1])
    assert hq.pop_safe() == [1, 3, 5, 8]
    assert len(hq) == 0


def test_shadows_predicate_ignores_resolved_and_squashed():
    hq, handles = _queue_with(1, 3, 5)
    assert hq.shadows(2)
    assert hq.shadows(99)
    assert not hq.shadows(1)  # nothing older than the oldest handle
    hq.mark_resolved(handles[1])
    assert not hq.shadows(2)
    assert hq.shadows(4)  # 3 still unresolved
    hq.mark_squashed_after(1)
    assert not hq.shadows(99)


@given(st.lists(st.tuples(st.sampled_from(["push", "resolve", "squash", "pop"]),
                          st.integers(0, 30)), max_size=80))
def test_fifo_discipline_property(ops):
    hq = HandleQueue()
    pushed: list[int] = []
    popped: list[int] = []
    queued: dict[int, list[bool]] = {}  # model: seq -> [resolved, squashed]
    handles = {}  # seq -> the entry push_handle returned
    for op, arg in ops:
        seqs = list(queued)
        if op == "push":
            seq = len(pushed)
            handles[seq] = hq.push_handle(HandleEntry(seq, ShadowKind.C))
            pushed.append(seq)
            queued[seq] = [False, False]
        elif op == "resolve" and seqs:
            seq = seqs[arg % len(seqs)]
            hq.mark_resolved(handles[seq])
            queued[seq][0] = True
        elif op == "squash" and seqs:
            seq = seqs[arg % len(seqs)]
            hq.mark_squashed_after(seq)
            for s in seqs:
                if s > seq:
                    queued[s][1] = True
        elif op == "pop":
            got = hq.pop_safe()
            popped.extend(got)
            for s in got:
                del queued[s]
        assert {e.seq: [e.resolved, e.squashed] for e in hq.entries()} == queued
        oldest_live = min((s for s, (res, sq) in queued.items() if not (res or sq)),
                          default=None)
        for s in range(len(pushed) + 1):
            assert hq.shadows(s) == (oldest_live is not None and oldest_live < s)
    popped.extend(hq.pop_safe())
    # popped seqs are always a prefix of pushed seqs, in insertion order
    assert popped == pushed[: len(popped)]


@given(st.lists(st.tuples(st.sampled_from(["push", "resolve", "squash", "pop"]),
                          st.integers(0, 30)), max_size=80))
def test_after_pop_safe_shadows_is_a_bound_on_the_oldest_seq(ops):
    # the pipeline's issue phase runs right after pop_safe and reads
    # hq.shadows(seq) as oldest_seq() < seq; this is what makes that exact
    hq = HandleQueue()
    handles: list[HandleEntry] = []
    for op, arg in ops:
        if op == "push":
            handles.append(hq.push_handle(HandleEntry(len(handles), ShadowKind.C)))
        elif op == "resolve" and handles:
            hq.mark_resolved(handles[arg % len(handles)])
        elif op == "squash" and handles:
            hq.mark_squashed_after(handles[arg % len(handles)].seq)
        elif op == "pop":
            hq.pop_safe()
            oldest = hq.oldest_seq()
            for s in range(len(handles) + 1):
                assert hq.shadows(s) == (oldest is not None and oldest < s)
