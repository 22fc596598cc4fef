import struct

import pytest
from hypothesis import given, settings, strategies as hs

from squashsim.config import MachineConfig, PolicyKind
from squashsim.filters import compute_hashes, indices_to_mask
from squashsim.pipeline import Pipeline
from squashsim.policy import (
    DELAY_BLOOM_FP,
    DELAY_BLOOM_HIT,
    DELAY_PERFECT_HIT,
    DELAY_UNSAFE_HANDLE,
    ContextBlob,
    ContextBlobError,
    PolicyState,
    restore_context,
    save_context,
)
from squashsim.shadows import HandleEntry, ShadowKind
from squashsim.trace import gen_loop_trace


def _state(policy, **kw):
    return PolicyState(MachineConfig(policy=policy, **kw), context_id=kw.pop("ctx", 0))


def _mask(state, pc):
    return indices_to_mask(compute_hashes(pc, state.hash_seeds, state.config.bits))


@pytest.mark.parametrize("policy", [PolicyKind.BASELINE, PolicyKind.DELAY_ALL,
                                    PolicyKind.DOS_PERFECT])
def test_only_dos_bloom_derives_hash_seeds(policy):
    assert _state(policy, hashes=2**20).hash_seeds == ()


def test_baseline_always_allows():
    st = _state(PolicyKind.BASELINE)
    st.handle_queue.push_handle(HandleEntry(1, ShadowKind.E))
    assert st.issue_decision(5, 0x400, 0) is None


def test_delay_all_blocks_younger_than_any_queued_handle():
    st = _state(PolicyKind.DELAY_ALL)
    handle = st.handle_queue.push_handle(HandleEntry(3, ShadowKind.C))
    assert st.issue_decision(5, 0x400, 0) == DELAY_UNSAFE_HANDLE
    assert st.issue_decision(2, 0x300, 0) is None  # older than the handle
    st.handle_queue.mark_resolved(handle)
    # resolved but still queued: unsafe by definition until popped
    assert st.issue_decision(5, 0x400, 0) == DELAY_UNSAFE_HANDLE
    st.handle_queue.pop_safe()
    assert st.issue_decision(5, 0x400, 0) is None


def test_dos_bloom_delays_recorded_pcs():
    st = _state(PolicyKind.DOS_BLOOM)
    st.handle_queue.push_handle(HandleEntry(1, ShadowKind.E))
    mask = _mask(st, 0x400)
    assert st.issue_decision(5, 0x400, mask) is None
    st.on_squash(frozenset({0x400}), [mask], youngest_handle=1)
    assert st.issue_decision(6, 0x400, mask) == DELAY_BLOOM_HIT


def test_dos_perfect_delays_exact_set_only():
    st = _state(PolicyKind.DOS_PERFECT)
    st.handle_queue.push_handle(HandleEntry(1, ShadowKind.E))
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=1)
    assert st.issue_decision(6, 0x400, _mask(st, 0x400)) == DELAY_PERFECT_HIT
    assert st.issue_decision(6, 0x999, _mask(st, 0x999)) is None


def test_oracle_lockstep_counts_false_positives():
    st = _state(PolicyKind.DOS_BLOOM, oracle=True, bits=8, hashes=1)
    st.handle_queue.push_handle(HandleEntry(1, ShadowKind.E))
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
    for policy in PolicyKind:
        st = _state(policy)
        st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=None)
        assert st.version == 1, policy


def test_delay_all_pop_raises_version_and_dispatch_does_not():
    st = _state(PolicyKind.DELAY_ALL)
    handle = st.handle_queue.push_handle(HandleEntry(1, ShadowKind.E))
    for _ in range(100):
        st.on_dispatch()  # nothing is ever due under delay-all
    assert st.version == 0
    st.handle_queue.mark_resolved(handle)
    st.on_handle_safe(st.handle_queue.pop_safe()[-1])
    assert st.version == 1


def test_bloom_clear_on_dispatch_raises_version():
    st = _state(PolicyKind.DOS_BLOOM, window_len=4)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=None)
    for _ in range(3):
        st.on_dispatch()
    assert (st.filter_clears, st.version) == (0, 1)
    st.on_dispatch()  # the deferred clear falls due
    assert (st.filter_clears, st.version) == (1, 2)
    st.on_dispatch()
    assert st.version == 2


def test_bloom_clear_on_handle_safe_raises_version():
    st = _state(PolicyKind.DOS_BLOOM, window_len=0)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_handle_safe(2)
    assert st.version == 1
    st.on_handle_safe(3)  # a zero window clears right away
    assert (st.filter_clears, st.version) == (1, 2)


def test_bloom_arming_without_a_clear_keeps_version():
    st = _state(PolicyKind.DOS_BLOOM, window_len=4)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_handle_safe(3)  # only arms the deferred clear
    assert (st.filter_clears, st.version) == (0, 1)


def test_exact_record_dropped_by_handle_raises_version():
    st = _state(PolicyKind.DOS_PERFECT)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_handle_safe(2)
    assert st.version == 1
    st.on_handle_safe(3)
    assert st.version == 2
    assert st.issue_decision(9, 0x400, 0) is None


def test_exact_record_dropped_by_deadline_raises_version():
    st = _state(PolicyKind.DOS_PERFECT, window_len=2)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=None)
    st.on_dispatch()
    assert st.version == 1
    st.on_dispatch()
    assert st.version == 2
    assert st.issue_decision(9, 0x400, 0) is None


def test_oracle_record_drop_raises_version():
    # the Bloom filter keeps the PC, but the exact verdict behind fp_count moves
    st = _state(PolicyKind.DOS_BLOOM, oracle=True, window_len=4)
    st.on_squash(frozenset({0x400}), [_mask(st, 0x400)], youngest_handle=3)
    st.on_handle_safe(3)
    assert (st.filter_clears, st.version) == (0, 2)


_BATCH_PCS = (0x400, 0x404, 0x500)


def _batch_state(**kw):
    # two timed squash records, due at dyn_count 6 and 7; with threshold 1
    # the first squash rotates, so each Bloom filter holds one deadline
    st = _state(window_len=4, threshold=1, **kw)
    st.on_dispatch(2)
    st.on_squash(frozenset({0x400, 0x404}), [_mask(st, 0x400), _mask(st, 0x404)], None)
    st.on_dispatch(1)
    st.on_squash(frozenset({0x500}), [_mask(st, 0x500)], None)
    return st


def _batch_snapshot(st, version_before):
    out = [st.dyn_count, st.filter_clears, st.version != version_before]
    if st.filters is not None:
        rf = st.filters
        out += [list(rf.filters), list(rf.assoc), list(rf.deadline)]
    pf = st.perfect
    out += [[pf.query(pc) for pc in _BATCH_PCS],
            [(r.pcs, r.expire_seq, r.deadline) for r in pf.records()]]
    return out


@pytest.mark.parametrize("kw", [dict(policy=PolicyKind.DOS_BLOOM, oracle=True),
                                dict(policy=PolicyKind.DOS_PERFECT)])
@pytest.mark.parametrize("n", range(1, 8))
def test_on_dispatch_batch_matches_single_steps(kw, n):
    batched, stepped = _batch_state(**kw), _batch_state(**kw)
    assert [r.deadline for r in batched.perfect.records()] == [6, 7]
    if batched.filters is not None:
        assert batched.filters.deadline == [6, 7]
    v0 = batched.version
    batched.on_dispatch(n)
    for _ in range(n):
        stepped.on_dispatch()
    assert _batch_snapshot(batched, v0) == _batch_snapshot(stepped, v0)


def _exercise(state):
    """Feed a fixed event stream; return the decision trail."""
    out = []
    hq = state.handle_queue
    handle = hq.push_handle(HandleEntry(10, ShadowKind.E))
    state.on_dispatch()
    state.on_squash(frozenset({0x400, 0x404}),
                    [_mask(state, 0x400), _mask(state, 0x404)], youngest_handle=10)
    for seq, pc in ((11, 0x400), (12, 0x404), (13, 0x500)):
        out.append(state.issue_decision(seq, pc, _mask(state, pc)))
    hq.mark_resolved(handle)
    for s in hq.pop_safe():
        state.on_handle_safe(s)
    for _ in range(80):
        state.on_dispatch()
    for seq, pc in ((14, 0x400), (15, 0x500)):
        out.append(state.issue_decision(seq, pc, _mask(state, pc)))
    return out


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_save_restore_reproduces_decisions(policy):
    a = _state(policy)
    b = restore_context(save_context(_state(policy)), MachineConfig(policy=policy))
    assert _exercise(a) == _exercise(b)


def _phase_one(state):
    handle = state.handle_queue.push_handle(HandleEntry(10, ShadowKind.E))
    state.on_dispatch()
    state.on_squash(frozenset({0x400, 0x404}),
                    [_mask(state, 0x400), _mask(state, 0x404)], youngest_handle=10)
    state.handle_queue.mark_resolved(handle)
    for s in state.handle_queue.pop_safe():
        state.on_handle_safe(s)


def _phase_two(state):
    out = []
    for _ in range(10):
        state.on_dispatch()
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
    restored = restore_context(save_context(interrupted), MachineConfig(policy=policy))
    trail_b = _phase_two(restored)
    assert trail_a == trail_b
    again = restore_context(save_context(restored), MachineConfig(policy=policy))
    assert save_context(again).data == save_context(restored).data


def _mid_run(policy, stop):
    """Config and policy state of a small squashing run after `stop` cycles."""
    config = MachineConfig(policy=policy, oracle=True, window_len=8)
    p = Pipeline(gen_loop_trace(8, 12, 0.2, 5), config)
    while p.cycle < stop and (p.cursor < len(p.records) or p.rob):
        p.cycle += 1
        p.tick()
    return config, p.policy


@settings(max_examples=40, deadline=None)
@given(hs.sampled_from(list(PolicyKind)), hs.integers(0, 240))
def test_save_restore_save_is_byte_identical(policy, stop):
    config, state = _mid_run(policy, stop)
    data = save_context(state).data
    assert save_context(restore_context(ContextBlob(0, data), config)).data == data


@settings(max_examples=150, deadline=None)
@given(hs.integers(0, 160), hs.data())
def test_mutated_blob_restores_or_raises_blob_error(stop, draw):
    config, state = _mid_run(PolicyKind.DOS_BLOOM, stop)
    data = bytearray(save_context(state).data)
    edits = draw.draw(hs.lists(hs.tuples(hs.integers(0, len(data) - 1), hs.integers(0, 255)),
                               min_size=1, max_size=3))
    for pos, value in edits:
        data[pos] = value
    try:
        restore_context(ContextBlob(0, bytes(data)), config)
    except ContextBlobError:
        pass


def test_restore_rejects_wrong_context():
    st = PolicyState(MachineConfig(policy=PolicyKind.DOS_BLOOM), context_id=1)
    blob = save_context(st)
    with pytest.raises(ContextBlobError):
        restore_context(blob, MachineConfig(policy=PolicyKind.DOS_BLOOM), context_id=2)


def test_restore_rejects_corrupt_blob():
    st = PolicyState(MachineConfig(policy=PolicyKind.DOS_BLOOM), context_id=0)
    blob = save_context(st)
    blob.data = blob.data[:-3]
    with pytest.raises(ContextBlobError):
        restore_context(blob, MachineConfig(policy=PolicyKind.DOS_BLOOM))
    blob.data = b"XXXX" + blob.data[4:]
    with pytest.raises(ContextBlobError):
        restore_context(blob, MachineConfig(policy=PolicyKind.DOS_BLOOM))


def test_restore_rejects_unknown_shadow_code():
    st = _state(PolicyKind.DOS_BLOOM)
    st.handle_queue.push_handle(HandleEntry(1, ShadowKind.E))
    data = bytearray(save_context(st).data)
    # 32-byte header, handle count u32, then the first handle's seq u64 and code u8
    assert data[44] == 0
    data[44] = 9
    with pytest.raises(ContextBlobError, match="shadow code"):
        restore_context(ContextBlob(0, bytes(data)), MachineConfig(policy=PolicyKind.DOS_BLOOM))


def test_restore_rejects_active_filter_out_of_range():
    st = _state(PolicyKind.DOS_BLOOM)
    data = bytearray(save_context(st).data)
    # 32-byte header, zero handles, then m, k, count, active as u32
    assert struct.unpack_from("<4I", data, 36) == (64, 2, 2, 0)
    struct.pack_into("<I", data, 48, 7)
    with pytest.raises(ContextBlobError, match="active filter"):
        restore_context(ContextBlob(0, bytes(data)), MachineConfig(policy=PolicyKind.DOS_BLOOM))


def test_restore_rejects_handle_seqs_out_of_order():
    st = _state(PolicyKind.DOS_BLOOM)
    st.handle_queue.push_handle(HandleEntry(1, ShadowKind.E))
    st.handle_queue.push_handle(HandleEntry(5, ShadowKind.C))
    data = bytearray(save_context(st).data)
    # 32-byte header, handle count u32, then seq u64, code u8, flags u8 per handle
    assert struct.unpack_from("<Q", data, 46) == (5,)
    struct.pack_into("<Q", data, 46, 1)
    with pytest.raises(ContextBlobError, match="handle seq"):
        restore_context(ContextBlob(0, bytes(data)), MachineConfig(policy=PolicyKind.DOS_BLOOM))


def _narrow_bloom_blob(filter0: int) -> bytes:
    """A bits=4, hashes=1 dos-bloom blob whose first filter's byte is ``filter0``."""
    data = bytearray(save_context(_state(PolicyKind.DOS_BLOOM, bits=4, hashes=1)).data)
    # 32-byte header, zero handles, six u32 (m, k, count, active, threshold, window),
    # one u64 hash seed, then filter 0 in max(1, m // 8) = 1 byte
    assert struct.unpack_from("<6I", data, 36)[:5] == (4, 1, 2, 0, 2)
    assert data[68] == 0
    data[68] = filter0
    return bytes(data)


def test_restore_rejects_bloom_bits_beyond_a_narrow_filter():
    # bits 4-7 of the byte lie outside a 4-bit filter: no mask tests them, but
    # they would count toward the rotation threshold
    config = MachineConfig(policy=PolicyKind.DOS_BLOOM, bits=4, hashes=1)
    with pytest.raises(ContextBlobError, match="width"):
        restore_context(ContextBlob(0, _narrow_bloom_blob(0xF0)), config)
    blob = ContextBlob(0, _narrow_bloom_blob(0x05))
    restored = restore_context(blob, config)
    assert restored.filters.filters == [0x05, 0]
    assert save_context(restored) == blob


@pytest.mark.parametrize("threshold", [0, 999])
def test_restore_rejects_threshold_out_of_range(threshold):
    st = _state(PolicyKind.DOS_BLOOM)
    data = bytearray(save_context(st).data)
    # 32-byte header, zero handles, then m, k, count, active, threshold as u32
    assert struct.unpack_from("<5I", data, 36) == (64, 2, 2, 0, 32)
    struct.pack_into("<I", data, 52, threshold)
    with pytest.raises(ContextBlobError, match="threshold"):
        restore_context(ContextBlob(0, bytes(data)), MachineConfig(policy=PolicyKind.DOS_BLOOM))


@pytest.mark.parametrize("policy, saved, oracle", [
    (PolicyKind.DOS_BLOOM, {"threshold": 8, "window_len": 3}, False),
    (PolicyKind.DOS_BLOOM, {"threshold": 8}, False),
    (PolicyKind.DOS_BLOOM, {"window_len": 3}, False),
    (PolicyKind.DOS_PERFECT, {"window_len": 3}, False),
    (PolicyKind.DOS_BLOOM, {"window_len": 3}, True),
])
def test_restore_rejects_a_blob_whose_geometry_differs_from_the_config(policy, saved, oracle):
    # the config decides the threshold and the windows; a blob carries state only
    blob = save_context(_state(policy, oracle=oracle, **saved))
    with pytest.raises(ContextBlobError, match="window|threshold"):
        restore_context(blob, MachineConfig(policy=policy, oracle=oracle))
    restored = restore_context(blob, MachineConfig(policy=policy, oracle=oracle, **saved))
    assert save_context(restored) == blob


def test_restore_rejects_policy_mismatch():
    blob = save_context(PolicyState(MachineConfig(policy=PolicyKind.BASELINE)))
    with pytest.raises(ContextBlobError):
        restore_context(blob, MachineConfig(policy=PolicyKind.DOS_BLOOM))


def test_baseline_blob_keeps_its_handle_queue():
    # under baseline the queue still drives shadows() and the dispatch stall
    config = MachineConfig(policy=PolicyKind.BASELINE)
    st = PolicyState(config)
    hq = st.handle_queue
    handles = {seq: hq.push_handle(HandleEntry(seq, kind)) for seq, kind in
               ((1, ShadowKind.E), (4, ShadowKind.C), (6, ShadowKind.D), (9, ShadowKind.M))}
    hq.mark_resolved(handles[4])
    hq.mark_squashed_after(4)
    hq.mark_resolved(handles[9])
    restored = restore_context(save_context(st), config).handle_queue
    assert restored.entries() == hq.entries()
    assert restored.shadows(2) and not restored.shadows(1)


def test_baseline_blob_is_minimal():
    base = save_context(PolicyState(MachineConfig(policy=PolicyKind.BASELINE)))
    bloom = save_context(PolicyState(MachineConfig(policy=PolicyKind.DOS_BLOOM)))
    assert len(base.data) < len(bloom.data)
    restored = restore_context(base, MachineConfig(policy=PolicyKind.BASELINE))
    assert restored.kind is PolicyKind.BASELINE
