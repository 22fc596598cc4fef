import struct

import pytest
from hypothesis import given, settings, strategies as hs

from squashsim.config import MachineConfig, PolicyKind
from squashsim.experiment import _segments
from squashsim.filters import compute_hashes, indices_to_mask
from squashsim.pipeline import Pipeline
from squashsim.policy import (
    DELAY_BLOOM_FP,
    DELAY_BLOOM_HIT,
    DELAY_PERFECT_HIT,
    DELAY_UNSAFE_HANDLE,
    ContextBlobError,
    PolicyState,
    restore_context,
    save_context,
)
from squashsim.shadows import HandleEntry
from squashsim.trace import gen_loop_trace


def _state(policy, **kw):
    return PolicyState(MachineConfig(policy=policy, **kw))


def _mask(state, pc):
    return indices_to_mask(compute_hashes(pc, state.hash_seeds, state.config.bits))


def _dispatch(state, n=1):
    """Dispatch ``n`` instructions, one hook call each, on the state's clock."""
    for _ in range(n):
        state.on_dispatch(state.next_seq + 1)


@pytest.mark.parametrize("policy", [PolicyKind.BASELINE, PolicyKind.DELAY_ALL,
                                    PolicyKind.DOS_PERFECT])
def test_only_dos_bloom_derives_hash_seeds(policy):
    assert _state(policy, hashes=2**20).hash_seeds == ()


def test_baseline_always_allows():
    st = _state(PolicyKind.BASELINE)
    st.handle_queue.push_handle(HandleEntry(1))
    assert st.issue_decision(5, 0x400, 0) is None


def test_delay_all_blocks_younger_than_any_queued_handle():
    st = _state(PolicyKind.DELAY_ALL)
    handle = st.handle_queue.push_handle(HandleEntry(3))
    assert st.issue_decision(5, 0x400, 0) == DELAY_UNSAFE_HANDLE
    assert st.issue_decision(2, 0x300, 0) is None  # older than the handle
    st.handle_queue.mark_resolved(handle)
    # resolved but still queued: unsafe by definition until popped
    assert st.issue_decision(5, 0x400, 0) == DELAY_UNSAFE_HANDLE
    st.handle_queue.pop_safe()
    assert st.issue_decision(5, 0x400, 0) is None


def test_dos_bloom_delays_recorded_pcs():
    st = _state(PolicyKind.DOS_BLOOM)
    st.handle_queue.push_handle(HandleEntry(1))
    mask = _mask(st, 0x400)
    assert st.issue_decision(5, 0x400, mask) is None
    st.on_squash(frozenset({0x400}), [mask], youngest_handle=1)
    assert st.issue_decision(6, 0x400, mask) == DELAY_BLOOM_HIT


def test_dos_perfect_delays_exact_set_only():
    st = _state(PolicyKind.DOS_PERFECT)
    st.handle_queue.push_handle(HandleEntry(1))
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=1)
    assert st.issue_decision(6, 0x400, _mask(st, 0x400)) == DELAY_PERFECT_HIT
    assert st.issue_decision(6, 0x999, _mask(st, 0x999)) is None


def test_oracle_lockstep_counts_false_positives():
    st = _state(PolicyKind.DOS_BLOOM, oracle=True, bits=8, hashes=1)
    st.handle_queue.push_handle(HandleEntry(1))
    mask = _mask(st, 0x400)
    st.on_squash(frozenset({0x400}), [mask], youngest_handle=1)
    # find a colliding pc the exact filter knows nothing about
    collider = next(
        pc for pc in range(0x1000, 0x8000, 4)
        if _mask(st, pc) | mask == mask and pc != 0x400
    )
    assert st.issue_decision(7, collider, _mask(st, collider)) == DELAY_BLOOM_FP
    assert st.issue_decision(8, 0x400, mask) == DELAY_BLOOM_HIT  # exact hit as well
    assert st.perfect_only_count == 0


def test_squash_raises_version():
    # only dos-bloom's decision cache reads the version, so only it moves
    for policy in PolicyKind:
        st = _state(policy)
        st.handle_queue.push_handle(HandleEntry(1))
        st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=1)
        assert st.version == (policy is PolicyKind.DOS_BLOOM), policy


def test_delay_all_dispatch_keeps_version():
    st = _state(PolicyKind.DELAY_ALL)
    st.handle_queue.push_handle(HandleEntry(1))
    _dispatch(st, 100)  # nothing is ever due under delay-all
    assert st.version == 0


def test_bloom_clear_on_dispatch_raises_version():
    st = _state(PolicyKind.DOS_BLOOM, window_len=4)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_handle_safe(3)  # arms the clear four dispatches ahead
    _dispatch(st, 3)
    assert (st.filters.clears, st.version) == (0, 1)
    _dispatch(st)  # the deferred clear falls due
    assert (st.filters.clears, st.version) == (1, 2)
    _dispatch(st)
    assert st.version == 2


def test_bloom_clear_on_handle_safe_raises_version():
    st = _state(PolicyKind.DOS_BLOOM, window_len=0)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_handle_safe(2)
    assert st.version == 1
    st.on_handle_safe(3)  # a zero window clears right away
    assert (st.filters.clears, st.version) == (1, 2)


def test_bloom_arming_without_a_clear_keeps_version():
    st = _state(PolicyKind.DOS_BLOOM, window_len=4)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_handle_safe(3)  # only arms the deferred clear
    assert (st.filters.clears, st.version) == (0, 1)


def test_exact_record_dropped_by_handle_raises_version():
    # dos-perfect's record drops with its handle; nothing reads its version
    st = _state(PolicyKind.DOS_PERFECT)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_handle_safe(2)
    assert st.issue_decision(9, 0x400, 0) == DELAY_PERFECT_HIT
    st.on_handle_safe(3)
    assert st.issue_decision(9, 0x400, 0) is None
    assert st.version == 0


def test_oracle_record_drop_raises_version():
    # the Bloom filter keeps the PC, but the exact verdict behind fp_count moves
    st = _state(PolicyKind.DOS_BLOOM, oracle=True, window_len=4)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_handle_safe(3)
    assert (st.filters.clears, st.version) == (0, 2)


_BATCH_PCS = (0x400, 0x404, 0x500, 0x600)


def _batch_state(**kw):
    # three filters at threshold 1: each squash fills one and rotates on.
    # The pops of handles 3 and 5 arm the first two filters' clears, due at
    # clock 6 and 7; handle 9's squash stays live in the third
    st = _state(window_len=4, threshold=1, filters=3, **kw)
    st.on_dispatch(2)
    st.on_squash(frozenset({0x400, 0x404}), [_mask(st, 0x400), _mask(st, 0x404)], 3)
    st.on_handle_safe(3)
    st.on_dispatch(3)
    st.on_squash(frozenset({0x500}), [_mask(st, 0x500)], 5)
    st.on_handle_safe(5)
    st.on_squash(frozenset({0x600}), [_mask(st, 0x600)], 9)
    return st


def _batch_snapshot(st, version_before):
    rf = st.filters
    out = [st.next_seq, st.filters.clears, st.version != version_before,
           list(rf.filters), list(rf.assoc), list(rf.deadline)]
    pf = st.perfect
    if pf is not None:
        out += [[pf.query(pc) for pc in _BATCH_PCS],
                [(r.pcs, r.expire_seq) for r in pf.records()]]
    return out


# dos-perfect has no state that falls due by dispatch count, so only the
# Bloom filters' deferred clears are batched
@pytest.mark.parametrize("kw", [dict(policy=PolicyKind.DOS_BLOOM, oracle=True),
                                dict(policy=PolicyKind.DOS_BLOOM)])
@pytest.mark.parametrize("n", range(1, 8))
def test_on_dispatch_batch_matches_single_steps(kw, n):
    batched, stepped = _batch_state(**kw), _batch_state(**kw)
    assert batched.filters.deadline == [6, 7, None]
    if batched.perfect is not None:
        assert [r.expire_seq for r in batched.perfect.records()] == [9]
    v0 = batched.version
    c = batched.next_seq
    batched.on_dispatch(c + n)
    for i in range(1, n + 1):
        stepped.on_dispatch(c + i)
    assert _batch_snapshot(batched, v0) == _batch_snapshot(stepped, v0)


def _exercise(state):
    """Feed a fixed event stream; return the decision trail."""
    out = []
    hq = state.handle_queue
    handle = hq.push_handle(HandleEntry(10))
    _dispatch(state)
    state.on_squash(frozenset({0x400, 0x404}),
                    [_mask(state, 0x400), _mask(state, 0x404)], youngest_handle=10)
    for seq, pc in ((11, 0x400), (12, 0x404), (13, 0x500)):
        out.append(state.issue_decision(seq, pc, _mask(state, pc)))
    hq.mark_resolved(handle)
    for s in hq.pop_safe():
        state.on_handle_safe(s)
    _dispatch(state, 80)
    for seq, pc in ((14, 0x400), (15, 0x500)):
        out.append(state.issue_decision(seq, pc, _mask(state, pc)))
    return out


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_save_restore_reproduces_decisions(policy):
    a = _state(policy)
    b = restore_context(save_context(_state(policy)), MachineConfig(policy=policy), 0)
    assert _exercise(a) == _exercise(b)


def _phase_one(state):
    handle = state.handle_queue.push_handle(HandleEntry(10))
    _dispatch(state)
    state.on_squash(frozenset({0x400, 0x404}),
                    [_mask(state, 0x400), _mask(state, 0x404)], youngest_handle=10)
    state.handle_queue.mark_resolved(handle)
    for s in state.handle_queue.pop_safe():
        state.on_handle_safe(s)


def _phase_two(state):
    out = []
    for _ in range(10):
        _dispatch(state)
        for seq, pc in ((14, 0x400), (15, 0x404), (16, 0x500)):
            out.append(state.issue_decision(seq, pc, _mask(state, pc)))
    return out


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_save_restore_midstream(policy):
    # mid-run state (pending deferred clears included) must survive the blob
    uninterrupted = _state(policy)
    _phase_one(uninterrupted)
    trail_a = _phase_two(uninterrupted)

    interrupted = _state(policy)
    _phase_one(interrupted)
    restored = restore_context(save_context(interrupted), MachineConfig(policy=policy), 0)
    trail_b = _phase_two(restored)
    assert trail_a == trail_b
    again = restore_context(save_context(restored), MachineConfig(policy=policy), 0)
    assert save_context(again) == save_context(restored)


def test_save_refuses_a_queued_handle():
    st = _state(PolicyKind.BASELINE)
    handle = st.handle_queue.push_handle(HandleEntry(1))
    with pytest.raises(ValueError, match="queued handles"):
        save_context(st)
    st.handle_queue.mark_resolved(handle)  # resolved but still queued: not drained
    with pytest.raises(ValueError, match="queued handles"):
        save_context(st)
    st.handle_queue.pop_safe()
    save_context(st)


def test_save_refuses_a_live_exact_record():
    st = _state(PolicyKind.DOS_PERFECT)
    st.on_squash(frozenset({0x400}), [0], youngest_handle=3)
    with pytest.raises(ValueError, match="live exact records"):
        save_context(st)
    st.on_handle_safe(3)
    save_context(st)


def test_save_refuses_a_filter_associated_with_a_handle():
    st = _state(PolicyKind.DOS_BLOOM)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    assert st.filters.assoc == [3, None]
    with pytest.raises(ValueError, match="associated with a handle"):
        save_context(st)
    st.on_handle_safe(3)  # drops the association and arms the clear
    save_context(st)


def _drained(config, trace, cut):
    """Policy state after the first `cut` instructions of `trace`, run to
    completion: drained, as ``run_segmented`` drains at a boundary."""
    p = Pipeline(_segments(trace, [cut])[0], config)
    p.run()
    return p.policy


def _mid_run(policy, cut):
    """Config and drained policy state of a small squashing run cut at `cut`."""
    config = MachineConfig(policy=policy, oracle=True, window_len=8)
    return config, _drained(config, gen_loop_trace(8, 12, 0.2, 5), cut)


@settings(max_examples=40, deadline=None)
@given(hs.sampled_from(list(PolicyKind)), hs.integers(0, 96))
def test_save_restore_save_is_byte_identical(policy, cut):
    config, state = _mid_run(policy, cut)
    data = save_context(state)
    assert save_context(restore_context(data, config, 0)) == data


@pytest.mark.parametrize("ctx", [0, 2**64 - 1])
def test_context_ids_at_the_ends_of_the_u64_round_trip(ctx):
    config = MachineConfig(policy=PolicyKind.DOS_BLOOM)
    data = save_context(PolicyState(config, context_id=ctx))
    restored = restore_context(data, config, ctx)
    assert restored.context_id == ctx
    assert save_context(restored) == data


@pytest.mark.parametrize("ctx", [-1, 2**64])
def test_context_id_the_blob_cannot_hold_is_rejected_at_construction(ctx):
    with pytest.raises(ValueError, match="u64 ctx field"):
        PolicyState(MachineConfig(), context_id=ctx)


@pytest.mark.fuzz
@settings(max_examples=150, deadline=None)
@given(hs.integers(0, 96), hs.data())
def test_mutated_blob_restores_or_raises_blob_error(cut, draw):
    config, state = _mid_run(PolicyKind.DOS_BLOOM, cut)
    data = bytearray(save_context(state))
    edits = draw.draw(hs.lists(hs.tuples(hs.integers(0, len(data) - 1), hs.integers(0, 255)),
                               min_size=1, max_size=3))
    for pos, value in edits:
        data[pos] = value
    try:
        restore_context(bytes(data), config, 0)
    except ContextBlobError:
        pass


def test_every_single_byte_mutation_raises_or_round_trips():
    # a blob drained at a cut, with bits and a pending clear in one filter
    # and neither in the other
    config = MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True, rob_size=12, bits=32,
                           hashes=1, threshold=4)
    state = _drained(config, gen_loop_trace(8, 12, 0.2, 2), 20)
    rf = state.filters
    assert 0 in rf.filters and any(rf.filters)
    assert None in rf.deadline and set(rf.deadline) != {None}
    data = save_context(state)
    restored = 0
    for i in range(len(data)):
        for value in range(256):
            if value == data[i]:
                continue
            blob = data[:i] + bytes([value]) + data[i + 1:]
            try:
                again = save_context(restore_context(blob, config, 0))
            except ContextBlobError:
                continue
            assert again == blob, f"byte {i} set to {value:#x} restores but does not round-trip"
            restored += 1
    assert restored  # counts, the deadline and filter bits take other values


def test_restore_rejects_an_oracle_byte_other_than_0_or_1():
    config = MachineConfig(policy=PolicyKind.DOS_PERFECT)
    data = bytearray(save_context(_state(PolicyKind.DOS_PERFECT)))
    assert data[23] == 0  # the header's last byte
    data[23] = 2
    with pytest.raises(ContextBlobError, match="oracle flag 2"):
        restore_context(bytes(data), config, 0)


@pytest.mark.parametrize("off", [57, 62], ids=["armed", "unarmed"])
@pytest.mark.parametrize("countdown", [33, 2**32 - 1])
def test_restore_rejects_a_clear_countdown_beyond_the_window(countdown, off):
    config = MachineConfig(policy=PolicyKind.DOS_BLOOM, bits=8, hashes=1, window_len=32)
    st = PolicyState(config)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_dispatch(7)
    st.on_handle_safe(3)  # arms filter 0's clear a window ahead of the clock
    data = bytearray(save_context(st))
    # 24-byte header, 24 bytes of geometry, one seed, then per filter one
    # byte of bits and its clear countdown
    assert struct.unpack_from("<IBI", data, 57) == (32, 0, 0)
    for fits in (0, 1, 32):  # a countdown within the window round-trips
        struct.pack_into("<I", data, off, fits)
        restored = restore_context(bytes(data), config, 0)
        assert restored.filters.deadline[off == 62] == (7 + fits if fits else None)
        assert save_context(restored) == data
    struct.pack_into("<I", data, off, countdown)
    with pytest.raises(ContextBlobError, match=f"countdown {countdown} exceeds the window"):
        restore_context(bytes(data), config, 0)


@pytest.mark.parametrize("policy", [PolicyKind.BASELINE, PolicyKind.DOS_BLOOM])
def test_restore_rejects_a_clock_at_2_63_or_above(policy):
    config = MachineConfig(policy=policy)
    data = bytearray(save_context(PolicyState(config)))
    # the header's clock follows magic, version, kind and context id
    for clock in (2**63, 2**64 - 1):
        struct.pack_into("<Q", data, 15, clock)
        with pytest.raises(ContextBlobError, match=f"clock {clock} is not below 2\\*\\*63"):
            restore_context(bytes(data), config, 0)
    # the largest clock restores, runs a segment and saves again
    struct.pack_into("<Q", data, 15, 2**63 - 1)
    state = restore_context(bytes(data), config, 0)
    Pipeline(gen_loop_trace(4, 3, 0.2, 1), config, policy=state).run()
    assert state.next_seq >= 2**63 + 11
    assert struct.unpack_from("<Q", save_context(state), 15) == (state.next_seq,)


def test_restore_rejects_wrong_context():
    st = PolicyState(MachineConfig(policy=PolicyKind.DOS_BLOOM), context_id=1)
    blob = save_context(st)
    with pytest.raises(ContextBlobError):
        restore_context(blob, MachineConfig(policy=PolicyKind.DOS_BLOOM), context_id=2)


def test_restore_rejects_corrupt_blob():
    st = PolicyState(MachineConfig(policy=PolicyKind.DOS_BLOOM), context_id=0)
    blob = save_context(st)[:-3]
    with pytest.raises(ContextBlobError):
        restore_context(blob, MachineConfig(policy=PolicyKind.DOS_BLOOM), 0)
    blob = b"XXXX" + blob[4:]
    with pytest.raises(ContextBlobError):
        restore_context(blob, MachineConfig(policy=PolicyKind.DOS_BLOOM), 0)


@pytest.mark.parametrize("edit, message", [
    (lambda blob: blob[:-8], "truncated blob: byte section"),
    (lambda blob: blob + b"\0", "1 trailing bytes in blob"),
], ids=["cut-by-8", "one-extra-byte"])
def test_restore_rejects_a_cut_or_padded_blob(edit, message):
    config = MachineConfig(policy=PolicyKind.DOS_BLOOM)
    blob = save_context(PolicyState(config))
    assert len(blob) == 88
    with pytest.raises(ContextBlobError, match=f"^{message}$"):
        restore_context(edit(blob), config, 0)


def test_restore_rejects_active_filter_out_of_range():
    st = _state(PolicyKind.DOS_BLOOM)
    data = bytearray(save_context(st))
    # 24-byte header, then m, k, count, active as u32
    assert struct.unpack_from("<4I", data, 24) == (64, 2, 2, 0)
    struct.pack_into("<I", data, 36, 7)
    with pytest.raises(ContextBlobError, match="active filter"):
        restore_context(bytes(data), MachineConfig(policy=PolicyKind.DOS_BLOOM), 0)


def _narrow_bloom_blob(filter0: int) -> bytes:
    """A bits=4, hashes=1 dos-bloom blob whose first filter's byte is ``filter0``."""
    data = bytearray(save_context(_state(PolicyKind.DOS_BLOOM, bits=4, hashes=1)))
    # 24-byte header, six u32 (m, k, count, active, threshold, window), one
    # u64 hash seed, then filter 0 in max(1, m // 8) = 1 byte
    assert struct.unpack_from("<6I", data, 24)[:5] == (4, 1, 2, 0, 2)
    assert data[56] == 0
    data[56] = filter0
    return bytes(data)


def test_restore_rejects_bloom_bits_beyond_a_narrow_filter():
    # bits 4-7 of the byte lie outside a 4-bit filter: no mask tests them, but
    # they would count toward the rotation threshold
    config = MachineConfig(policy=PolicyKind.DOS_BLOOM, bits=4, hashes=1)
    with pytest.raises(ContextBlobError, match="width"):
        restore_context(_narrow_bloom_blob(0xF0), config, 0)
    blob = _narrow_bloom_blob(0x05)
    restored = restore_context(blob, config, 0)
    assert restored.filters.filters == [0x05, 0]
    assert save_context(restored) == blob


@pytest.mark.parametrize("threshold", [0, 999])
def test_restore_rejects_threshold_out_of_range(threshold):
    st = _state(PolicyKind.DOS_BLOOM)
    data = bytearray(save_context(st))
    # 24-byte header, then m, k, count, active, threshold as u32
    assert struct.unpack_from("<5I", data, 24) == (64, 2, 2, 0, 32)
    struct.pack_into("<I", data, 40, threshold)
    with pytest.raises(ContextBlobError, match="threshold"):
        restore_context(bytes(data), MachineConfig(policy=PolicyKind.DOS_BLOOM), 0)


@pytest.mark.parametrize("policy, saved, oracle", [
    (PolicyKind.DOS_BLOOM, {"threshold": 8, "window_len": 3}, False),
    (PolicyKind.DOS_BLOOM, {"threshold": 8}, False),
    (PolicyKind.DOS_BLOOM, {"window_len": 3}, False),
    (PolicyKind.DOS_BLOOM, {"window_len": 3}, True),
])
def test_restore_rejects_a_blob_whose_geometry_differs_from_the_config(policy, saved, oracle):
    # the config decides the threshold and the windows; a blob carries state only
    blob = save_context(_state(policy, oracle=oracle, **saved))
    with pytest.raises(ContextBlobError, match="window|threshold"):
        restore_context(blob, MachineConfig(policy=policy, oracle=oracle), 0)
    restored = restore_context(blob, MachineConfig(policy=policy, oracle=oracle, **saved), 0)
    assert save_context(restored) == blob


def test_dos_perfect_blob_round_trips_under_any_window_len():
    # exact records expire by handle alone, so a dos-perfect blob holds no window
    st = _state(PolicyKind.DOS_PERFECT, window_len=3)
    st.on_squash(frozenset({0x400}), [0], youngest_handle=4)
    st.on_handle_safe(4)
    st.on_dispatch(5)
    blob = save_context(st)
    for window_len in (0, 3, 64, None):
        config = MachineConfig(policy=PolicyKind.DOS_PERFECT, window_len=window_len)
        assert save_context(restore_context(blob, config, 0)) == blob


def test_restore_rejects_a_version_1_blob():
    # version 4 carried absolute clear deadlines, version 3 a dispatch count
    # beside next_seq, version 2 handles and exact records, version 1
    # exact-record deadlines
    data = bytearray(save_context(_state(PolicyKind.DOS_PERFECT)))
    assert struct.unpack_from("<H", data, 4) == (5,)
    for version in (1, 2, 3, 4):
        struct.pack_into("<H", data, 4, version)
        with pytest.raises(ContextBlobError, match=f"version {version}"):
            restore_context(bytes(data), MachineConfig(policy=PolicyKind.DOS_PERFECT), 0)


def test_restore_rejects_policy_mismatch():
    blob = save_context(PolicyState(MachineConfig(policy=PolicyKind.BASELINE)))
    with pytest.raises(ContextBlobError):
        restore_context(blob, MachineConfig(policy=PolicyKind.DOS_BLOOM), 0)


def test_baseline_blob_is_minimal():
    base = save_context(PolicyState(MachineConfig(policy=PolicyKind.BASELINE)))
    bloom = save_context(PolicyState(MachineConfig(policy=PolicyKind.DOS_BLOOM)))
    assert len(base) < len(bloom)
    restored = restore_context(base, MachineConfig(policy=PolicyKind.BASELINE), 0)
    assert restored.config.policy is PolicyKind.BASELINE
