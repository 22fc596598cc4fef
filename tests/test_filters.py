import random


from squashsim.filters import (
    PerfectFilter,
    RollingFilters,
    compute_hashes,
    derive_hash_seeds,
    indices_to_mask,
)

_MASK64 = (1 << 64) - 1


def _oracle_mix64(x):
    # literal re-implementation of the documented mixer
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _oracle_hashes(pc, seeds, m):
    shift = 64 - (m.bit_length() - 1)
    return tuple(_oracle_mix64((pc * s) & _MASK64) >> shift for s in seeds)


def test_hashes_deterministic():
    seeds = derive_hash_seeds(3, 2)
    assert compute_hashes(0x400, seeds, 64) == compute_hashes(0x400, seeds, 64)
    assert derive_hash_seeds(3, 2) == seeds
    assert derive_hash_seeds(4, 2) != seeds


def test_hashes_match_independent_mixer_reimplementation():
    seeds = derive_hash_seeds(0, 4)
    for pc in (0, 1, 0x400, 0xDEADBEEF, (1 << 63) + 12345):
        for m in (8, 64, 1024):
            assert compute_hashes(pc, seeds, m) == _oracle_hashes(pc, seeds, m)


def test_hash_uniformity():
    m, k, n = 64, 2, 10_000
    seeds = derive_hash_seeds(1, k)
    rng = random.Random(0)
    counts = [0] * m
    for _ in range(n):
        for idx in compute_hashes(rng.getrandbits(64), seeds, m):
            counts[idx] += 1
    expected = n * k / m
    for c in counts:
        assert abs(c - expected) <= 0.2 * expected


def test_insert_then_query_hits():
    rf = RollingFilters(count=2, threshold=32, window_len=0)
    seeds = derive_hash_seeds(0, 2)
    h = compute_hashes(0x1234, seeds, 64)
    rf.record_squash([indices_to_mask(h)], youngest_handle=1)
    assert rf.query(indices_to_mask(h))
    assert rf.filters[0].bit_count() == len(set(h))


def test_empirical_fp_rate_matches_load():
    m, k = 256, 2
    seeds = derive_hash_seeds(5, k)
    rf = RollingFilters(count=2, threshold=m, window_len=0)  # never rotates here
    rng = random.Random(5)
    rf.record_squash([_mask(rng.getrandbits(64), seeds, m) for _ in range(60)],
                     youngest_handle=1)
    load = rf.filters[0].bit_count() / m
    expected = load**k
    trials = 20_000
    hits = sum(
        rf.query(_mask(rng.getrandbits(64), seeds, m)) for _ in range(trials)
    )
    rate = hits / trials
    assert abs(rate - expected) < 0.02


def _mask(pc, seeds, m):
    return indices_to_mask(compute_hashes(pc, seeds, m))


def test_pair_checks_both_filters():
    rf = RollingFilters(count=2, threshold=32, window_len=0)
    seeds = derive_hash_seeds(0, 2)
    mask = _mask(0x400, seeds, 64)
    rf.filters[1] = mask  # inactive filter only
    assert rf.active == 0
    assert rf.query(mask)
    assert not rf.query(_mask(0x999, seeds, 64)) or _mask(0x999, seeds, 64) == mask


def test_empty_pair_misses():
    rf = RollingFilters(count=2, threshold=32, window_len=0)
    seeds = derive_hash_seeds(0, 2)
    for pc in range(100):
        assert not rf.query(_mask(pc, seeds, 64))


def test_record_squash_sets_assoc_and_inserts():
    rf = RollingFilters(count=2, threshold=32, window_len=0)
    seeds = derive_hash_seeds(0, 2)
    masks = [_mask(pc, seeds, 64) for pc in (0x400, 0x404, 0x408)]
    rf.record_squash(masks, youngest_handle=17)
    assert rf.assoc[0] == 17
    for m in masks:
        assert rf.query(m)


def test_record_squash_empty_set_still_reassociates():
    rf = RollingFilters(count=2, threshold=32, window_len=0)
    rf.record_squash([], youngest_handle=9)
    assert rf.assoc[rf.active] == 9
    assert rf.filters == [0, 0]


def test_rotation_at_threshold_with_clear_inactive():
    rf = RollingFilters(count=2, threshold=4, window_len=0)
    rf.filters[0] = 0b00001111  # exactly at threshold
    assert rf.maybe_rotate()
    assert rf.active == 1
    assert rf.rotations == 1


def test_no_rotation_when_inactive_dirty():
    rf = RollingFilters(count=2, threshold=4, window_len=0)
    rf.filters[0] = 0b11111111
    rf.filters[1] = 0b1
    assert not rf.maybe_rotate()
    assert rf.active == 0


def test_no_rotation_when_empty():
    rf = RollingFilters(count=2, threshold=4, window_len=0)
    assert not rf.maybe_rotate()


def test_handle_safe_arms_deferred_clear():
    rf = RollingFilters(count=2, threshold=32, window_len=10)
    rf.filters[0] = 0b111
    rf.assoc[0] = 5
    rf.on_handle_safe(5, next_seq=100)
    assert rf.assoc[0] is None
    assert rf.deadline[0] == 110
    assert rf.filters[0] == 0b111  # still deferred
    rf.on_dispatch(109)
    assert rf.filters[0] == 0b111
    rf.on_dispatch(110)
    assert rf.filters[0] == 0
    assert rf.clears == 1


def test_sweeps_report_only_the_filters_they_cleared():
    rf = RollingFilters(count=3, threshold=32, window_len=0)
    rf.filters[1] = 0b1
    rf.assoc[0] = rf.assoc[1] = 3
    assert rf.on_handle_safe(3, next_seq=0) == [1]  # filter 0 was already empty
    rf.assoc[2] = 4
    assert rf.on_handle_safe(4, next_seq=0) == []
    rf.window_len = 5
    rf.filters[0] = 0b10
    rf.assoc[0] = 6
    assert rf.on_handle_safe(6, next_seq=0) == []  # only armed
    assert rf.on_dispatch(4) == []
    assert rf.on_dispatch(5) == [0]
    assert rf.clears == 2


def test_handle_safe_ignores_younger_assoc():
    rf = RollingFilters(count=2, threshold=32, window_len=0)
    rf.filters[0] = 0b1
    rf.assoc[0] = 9
    rf.on_handle_safe(5, next_seq=0)
    assert rf.assoc[0] == 9
    assert rf.filters[0] == 0b1


def test_window_zero_clears_immediately():
    rf = RollingFilters(count=2, threshold=32, window_len=0)
    rf.filters[0] = 0b1010
    rf.assoc[0] = 3
    rf.on_handle_safe(3, next_seq=42)
    assert rf.filters[0] == 0
    assert rf.clears == 1


def test_reassociation_cancels_pending_clear():
    rf = RollingFilters(count=2, threshold=32, window_len=10)
    rf.filters[0] = 0b1
    rf.assoc[0] = 3
    rf.on_handle_safe(3, next_seq=0)
    assert rf.deadline[0] == 10
    rf.record_squash([0b10], youngest_handle=8)
    assert rf.assoc[0] == 8
    assert rf.deadline[0] is None
    rf.on_dispatch(50)
    assert rf.filters[0] != 0  # kept alive by the re-association


def test_perfect_filter_live_and_expired_records():
    pf = PerfectFilter()
    pf.record({0x400, 0x404}, youngest_handle=7)
    assert pf.query(0x400)
    assert not pf.query(0x999)
    pf.on_handle_safe(6)
    assert pf.query(0x400)  # handle 7 not safe yet
    pf.on_handle_safe(7)
    assert not pf.query(0x400)


def test_perfect_hits_subset_of_pair_hits():
    # lockstep random history: the exact filter may expire records earlier
    # than the rolling pair clears, never later
    rng = random.Random(42)
    m, k = 64, 2
    seeds = derive_hash_seeds(2, k)
    rf = RollingFilters(count=2, threshold=m // 2, window_len=6)
    pf = PerfectFilter()
    pcs = [rng.getrandbits(48) for _ in range(60)]
    next_seq = 0
    handle = 0
    for step in range(3_000):
        next_seq += 1
        rf.on_dispatch(next_seq)
        r = rng.random()
        if r < 0.25:
            batch = frozenset(rng.sample(pcs, rng.randint(1, 4)))
            handle += 1
            rf.record_squash([_mask(pc, seeds, m) for pc in batch], handle)
            pf.record(batch, handle)
        elif r < 0.45 and handle:
            safe = rng.randint(max(0, handle - 5), handle)
            rf.on_handle_safe(safe, next_seq)
            pf.on_handle_safe(safe)
        probe = rng.choice(pcs)
        if pf.query(probe):
            assert rf.query(_mask(probe, seeds, m)), "exact hit missed by the pair"

