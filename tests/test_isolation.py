import pytest

from squashsim.config import MachineConfig, PolicyKind
from squashsim.experiment import run_interleaved, run_segmented, run_workload
from squashsim.pipeline import LivelockError
from squashsim.trace import Instruction, InstructionKind, Trace, gen_loop_trace


def _boundaries(trace, parts):
    step = len(trace.instructions) // parts
    return [step * i for i in range(1, parts)]


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_interleaved_contexts_match_solo_runs(policy):
    cfg = MachineConfig(policy=policy, oracle=policy is PolicyKind.DOS_BLOOM)
    trace_a = gen_loop_trace(10, 40, 0.15, seed=31)
    trace_b = gen_loop_trace(14, 30, 0.25, seed=32)
    bounds_a = _boundaries(trace_a, 4)
    bounds_b = _boundaries(trace_b, 4)

    solo_a = run_segmented(trace_a, cfg, bounds_a, context_id=1)
    solo_b = run_segmented(trace_b, cfg, bounds_b, context_id=2)
    mixed = run_interleaved({1: (trace_a, bounds_a), 2: (trace_b, bounds_b)}, cfg)

    assert mixed[1] == solo_a
    assert mixed[2] == solo_b


def test_segmented_run_commits_everything():
    cfg = MachineConfig(policy=PolicyKind.DOS_BLOOM)
    trace = gen_loop_trace(8, 50, 0.2, seed=33)
    m = run_segmented(trace, cfg, _boundaries(trace, 5))
    assert m.committed == len(trace)
    assert m.dynamic_executed == m.committed + m.squashed_executions


def test_segment_boundaries_change_timing_not_safety():
    # draining at a boundary may cost cycles but never breaks determinism
    cfg = MachineConfig(policy=PolicyKind.DOS_BLOOM)
    trace = gen_loop_trace(8, 50, 0.2, seed=34)
    a = run_segmented(trace, cfg, _boundaries(trace, 2))
    b = run_segmented(trace, cfg, _boundaries(trace, 2))
    assert a == b
    whole = run_workload(trace, cfg)
    assert whole.committed == a.committed


def test_livelock_keeps_the_earlier_segments_metrics():
    # segment [0:2] commits both rows; segment [2:5] commits two, then stalls
    rows = [Instruction(pc=0x100 + 4 * i, kind=InstructionKind.PLAIN) for i in range(4)]
    rows.append(Instruction(pc=0x200, kind=InstructionKind.PLAIN, exec_latency=50))
    trace = Trace(name="stall", seed=0, instructions=rows)
    cfg = MachineConfig(livelock_budget=10)
    with pytest.raises(LivelockError) as solo:
        run_segmented(trace, cfg, [2])
    with pytest.raises(LivelockError) as mixed:
        run_interleaved({0: (trace, [2])}, cfg)
    assert solo.value.metrics.committed == 4
    assert mixed.value.metrics == solo.value.metrics
    assert mixed.value.metrics.trace_id == trace.trace_id


@pytest.mark.parametrize("ctx", [-1, 2**64])
def test_segment_loop_rejects_a_context_id_the_blob_cannot_hold(ctx):
    trace = gen_loop_trace(8, 10, 0.1, 1)
    with pytest.raises(ValueError, match="u64 ctx field"):
        run_segmented(trace, MachineConfig(), [20], context_id=ctx)
    with pytest.raises(ValueError, match="u64 ctx field"):
        run_interleaved({ctx: (trace, [])}, MachineConfig())
