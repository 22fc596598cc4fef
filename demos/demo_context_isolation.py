"""
Per-context defense state across context switches
=================================================

Filters and the handle queue belong to one execution context.  A switch
drains the pipeline, which empties the handle queue; the filter state is
serialized into a context blob and later restored.  Blobs are bound to
their context id, so one context can never observe or pollute another
context's filters.  Interleaving two contexts must leave
each one's metrics exactly as if it had run alone.
"""

from squashsim import MachineConfig, PolicyKind, gen_loop_trace
from squashsim.experiment import run_interleaved, run_segmented
from squashsim.policy import ContextBlobError, PolicyState, restore_context, save_context

cfg = MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True)

############################################################
# Two workloads, each yielding the core three times.

trace_a = gen_loop_trace(10, 40, 0.15, seed=31)
trace_b = gen_loop_trace(14, 30, 0.25, seed=32)
bounds_a = [100, 200, 300]
bounds_b = [105, 210, 315]

solo_a = run_segmented(trace_a, cfg, bounds_a, context_id=1)
solo_b = run_segmented(trace_b, cfg, bounds_b, context_id=2)
mixed = run_interleaved({1: (trace_a, bounds_a), 2: (trace_b, bounds_b)}, cfg)

print("context 1:", "identical" if mixed[1] == solo_a else "DIVERGED",
      f"(cycles={mixed[1].cycles}, delayed={mixed[1].delayed_issues}, fp={mixed[1].fp_count})")
print("context 2:", "identical" if mixed[2] == solo_b else "DIVERGED",
      f"(cycles={mixed[2].cycles}, delayed={mixed[2].delayed_issues}, fp={mixed[2].fp_count})")

############################################################
# Blobs are small, versioned, and bound to their context id.

state = PolicyState(cfg, context_id=1)
blob = save_context(state)
print(f"\ncontext blob: {len(blob)} bytes for a fresh dos-bloom context")
try:
    restore_context(blob, cfg, context_id=2)
except ContextBlobError as err:
    print(f"restoring into the wrong context is rejected: {err}")
