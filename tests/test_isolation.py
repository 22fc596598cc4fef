from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from squashsim.config import MachineConfig, PolicyKind
from squashsim.experiment import run_interleaved, run_segmented, run_workload
from squashsim.metrics import Metrics
from squashsim.pipeline import LivelockError, Pipeline
from squashsim.policy import PolicyState, restore_context, save_context
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


def _stall_trace():
    # segment [0:2] commits both rows; segment [2:5] commits two, then stalls
    rows = [Instruction(pc=0x100 + 4 * i, kind=InstructionKind.PLAIN) for i in range(4)]
    rows.append(Instruction(pc=0x200, kind=InstructionKind.PLAIN, exec_latency=50))
    return Trace(name="stall", seed=0, instructions=rows)


def test_livelock_keeps_the_earlier_segments_metrics():
    trace = _stall_trace()
    cfg = MachineConfig(livelock_budget=10)
    with pytest.raises(LivelockError) as solo:
        run_segmented(trace, cfg, [2])
    with pytest.raises(LivelockError) as mixed:
        run_interleaved({0: (trace, [2])}, cfg)
    assert solo.value.metrics.committed == 4
    assert mixed.value.metrics == solo.value.metrics
    assert mixed.value.metrics.trace_id == trace.trace_id


def test_livelock_message_names_the_cycle_its_metrics_count():
    # the message and the counters are one context's, across its switch
    with pytest.raises(LivelockError) as err:
        run_segmented(_stall_trace(), MachineConfig(livelock_budget=10), [2])
    assert err.value.metrics.cycles == 17
    assert f"at cycle {err.value.metrics.cycles} " in str(err.value)


def test_switch_refuses_a_context_with_instructions_in_flight():
    # plain rows queue no handle, so the blob alone would not refuse them
    rows = [Instruction(pc=0x100 + 4 * i, kind=InstructionKind.PLAIN) for i in range(3)]
    p = Pipeline(Trace(name="plain", seed=0, instructions=rows), MachineConfig())
    p.dispatch()
    with pytest.raises(ValueError, match="in flight"):
        p.switch_context()


def test_a_switch_hands_the_pipeline_its_restored_state_and_keeps_the_counters():
    config = MachineConfig(policy=PolicyKind.DOS_BLOOM, bits=8, window_len=4)
    p = Pipeline(gen_loop_trace(8, 8, 0.3, 5), config)
    m = p.run(32)
    counts = (m.cycles, m.rotations, m.filter_clears)
    assert counts == (57, 2, 1)
    old = p.policy
    p.switch_context()
    assert p.policy is not old and p.hq is p.policy.handle_queue
    assert save_context(p.policy) == save_context(old)
    p.run(32)  # nothing left to run before 32
    assert (m.cycles, m.rotations, m.filter_clears) == counts


@pytest.mark.parametrize("ctx", [-1, 2**64])
def test_segment_loop_rejects_a_context_id_the_blob_cannot_hold(ctx):
    trace = gen_loop_trace(8, 10, 0.1, 1)
    with pytest.raises(ValueError, match="u64 ctx field"):
        run_segmented(trace, MachineConfig(), [20], context_id=ctx)
    with pytest.raises(ValueError, match="u64 ctx field"):
        run_interleaved({ctx: (trace, [])}, MachineConfig())


def _run_in_slices(trace, config, cuts):
    """The segment loop spelt out: a fresh ``Pipeline`` per slice, each
    later slice from the blob-restored state of the one before, with every
    counter and per-PC count summed."""
    n = len(trace)
    cuts = sorted({c for c in cuts if 0 < c < n})
    total = Metrics(trace_id=trace.trace_id, policy=str(config.policy))
    state = PolicyState(config)
    for lo, hi in zip([0] + cuts, cuts + [n]):
        if lo:
            state = restore_context(save_context(state), config, 0)
        part = Pipeline(Trace(trace.name, trace.seed, trace.instructions[lo:hi]),
                        config, policy=state).run()
        for f in fields(Metrics):
            mine = getattr(total, f.name)
            if isinstance(mine, dict):
                for pc, count in getattr(part, f.name).items():
                    mine[pc] = mine.get(pc, 0) + count
            elif isinstance(mine, int):
                setattr(total, f.name, mine + getattr(part, f.name))
    return total


@pytest.mark.fuzz
@pytest.mark.parametrize("policy, oracle", [
    *((kind, False) for kind in PolicyKind), (PolicyKind.DOS_BLOOM, True)],
    ids=[*map(str, PolicyKind), "dos-bloom-oracle"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_pipeline_across_switches_counts_what_a_pipeline_per_slice_sums(policy, oracle, data):
    # small filters and windows make rotations, bulk clears and clears still
    # pending at a switch; cuts outside (0, len) are dropped by both sides
    trace = gen_loop_trace(data.draw(st.integers(1, 24)), data.draw(st.integers(1, 8)),
                           data.draw(st.sampled_from([0.0, 0.1, 0.3, 1.0])),
                           data.draw(st.integers(0, 99)))
    cuts = data.draw(st.lists(st.integers(-1, len(trace) + 1), max_size=5))
    config = MachineConfig(
        policy=policy, oracle=oracle, rob_size=data.draw(st.integers(4, 32)),
        width=data.draw(st.integers(1, 4)), bits=data.draw(st.sampled_from([8, 64])),
        window_len=data.draw(st.sampled_from([0, 4, None])),
        fp_counting=data.draw(st.sampled_from(["evaluation", "entry"])))
    assert run_segmented(trace, config, cuts) == _run_in_slices(trace, config, cuts)
