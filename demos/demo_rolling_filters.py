"""
Rolling Bloom filters with handle-associated clearing
=====================================================

Squashed PCs are folded into the active filter of a rolling pair.  The
filter is associated with the youngest queued handle at each insertion;
it may only be bulk-reset once that handle is safe, and the reset is
deferred by a window of dynamic instructions.  When the active filter
passes the half-full mark and its partner is already clean, the roles
rotate.
"""

from squashsim import compute_hashes
from squashsim.filters import RollingFilters, derive_hash_seeds, indices_to_mask
from squashsim.golden import run_golden

M, K = 64, 2
seeds = derive_hash_seeds(7, K)
mask = lambda pc: indices_to_mask(compute_hashes(pc, seeds, M))

rf = RollingFilters(count=2, threshold=M // 2, window_len=8)

############################################################
# A squash inserts the issued-and-squashed PCs and associates the active
# filter with the youngest handle (here, sequence number 30).

victims = [0x400, 0x404, 0x408, 0x40C]
rf.record_squash([mask(pc) for pc in victims], youngest_handle=30)
print(f"after squash: active={rf.active} set_bits={rf.filters[0].bit_count()} assoc={rf.assoc[0]}")
print(f"  0x400 hits: {rf.query(mask(0x400))}, fresh 0x900 hits: {rf.query(mask(0x900))}")

############################################################
# More squashes re-associate the same filter with ever-younger handles,
# extending its lifetime, until saturation forces a rotation.

handle = 30
batch = 0x500
while rf.rotations == 0:
    handle += 1
    batch += 0x10
    rf.record_squash([mask(batch + 4 * i) for i in range(4)], handle)
print(f"rotated after filling {rf.filters[0].bit_count()}/{M} bits; active is now filter {rf.active}")

############################################################
# Old entries still hit while the stale filter waits for its handle: both
# filters are checked on every issue.

print(f"0x400 still hits via the inactive filter: {rf.query(mask(0x400))}")

############################################################
# Once the associated handle leaves the window of speculation, the clear
# is armed, deferred by a window of dispatches, then applied.  The clock
# is the context's next sequence number, which counts its dispatches.

rf.on_handle_safe(handle, next_seq=100)
print(f"deadline armed at dispatch count {rf.deadline[0]} (window {rf.window_len})")
rf.on_dispatch(100 + rf.window_len)
print(f"after the window passes: filter bits = {[bits.bit_count() for bits in rf.filters]}, "
      f"clears = {rf.clears}")

############################################################
# The scripted six-step walkthrough drives the handle queue, the filters,
# and the issue policy together through a two-squash window.

print("\nsix-step tracking walkthrough:")
for step in run_golden():
    print(f"  step {step.step}: {'ok' if step.passed else 'MISMATCH'}  {step.description}")
