from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings, strategies as st

from squashsim import pipeline
from squashsim.attacks import ScenarioResolver, build_unbounded
from squashsim.config import ConfigError, MachineConfig, PolicyKind
from squashsim.experiment import run_segmented
from squashsim.filters import compute_hashes
from squashsim.pipeline import ISSUED, LivelockError, Pipeline, run
from squashsim.policy import DELAY_BLOOM_FP, PolicyState
from squashsim.shadows import ShadowKind
from squashsim.trace import Instruction, InstructionKind, Trace, gen_loop_trace


def _trace(*rows):
    ins = []
    for row in rows:
        kind, shadow = row[0], row[1]
        ins.append(
            Instruction(
                seq=len(ins),
                pc=row[2],
                kind=kind,
                shadow_class=shadow,
                exec_latency=row[3] if len(row) > 3 else 1,
                resolve_latency=row[4] if len(row) > 4 else 1,
                misspeculate=row[5] if len(row) > 5 else False,
            )
        )
    return Trace(name="t", seed=0, instructions=ins)


def _plains(n, base=0x9000):
    return [(InstructionKind.PLAIN, None, base + 4 * i) for i in range(n)]


def test_dispatch_pushes_handles_on_queue():
    t = _trace((InstructionKind.LOAD, ShadowKind.E, 0x400, 1, 5),
               (InstructionKind.PLAIN, None, 0x404))
    p = Pipeline(t, MachineConfig())
    p.cycle = 1
    p.dispatch()
    assert len(p.rob) == 2
    assert [e.seq for e in p.hq.entries()] == [0]
    assert p.rob[0].mask == 0  # only the Bloom filters read masks
    p = Pipeline(t, MachineConfig(policy=PolicyKind.DOS_BLOOM))
    p.cycle = 1
    p.dispatch()
    assert p.rob[0].mask  # precomputed at dispatch


def _no_hashing(*args):
    raise AssertionError("compute_hashes called without Bloom filters")


@pytest.mark.parametrize(
    "policy", [PolicyKind.BASELINE, PolicyKind.DELAY_ALL, PolicyKind.DOS_PERFECT])
def test_no_hashing_without_bloom_filters(monkeypatch, policy):
    monkeypatch.setattr(pipeline, "compute_hashes", _no_hashing)
    m = run(gen_loop_trace(6, 30, 0.2, 3), MachineConfig(policy=policy))
    assert m.committed == 180 and m.squashes > 0


def test_bloom_policy_hashes_each_pc_once_per_run(monkeypatch):
    calls = []

    def counting(pc, seeds, bits):
        calls.append(pc)
        return compute_hashes(pc, seeds, bits)

    monkeypatch.setattr(pipeline, "compute_hashes", counting)
    trace = gen_loop_trace(6, 30, 0.2, 3)
    m = run(trace, MachineConfig(policy=PolicyKind.DOS_BLOOM))
    assert m.squashes > 0
    assert sorted(calls) == sorted({i.pc for i in trace.instructions})


def test_dispatch_stalls_when_rob_full():
    t = _trace(*_plains(5))
    p = Pipeline(t, MachineConfig(rob_size=2, width=8))
    p.cycle = 1
    p.dispatch()
    assert len(p.rob) == 2
    assert p.cursor == 2
    p.dispatch()
    assert len(p.rob) == 2  # no state change while full


def test_issue_respects_width():
    t = _trace(*_plains(10))
    p = Pipeline(t, MachineConfig(width=3))
    p.cycle = 1
    p.dispatch()
    assert len(p.rob) == 3  # dispatch is width-bound too
    p.cycle = 2
    p.try_issue()
    assert sum(1 for e in p.rob if e.state == ISSUED) == 3


def test_empty_trace_zero_metrics():
    m = run(Trace(name="empty", seed=0, instructions=[]), MachineConfig())
    assert m.cycles == 0
    assert m.committed == 0
    assert m.dynamic_executed == 0


def test_straight_line_plain_identical_across_baseline_and_bloom():
    t = _trace(*_plains(100))
    base = run(t, MachineConfig(policy=PolicyKind.BASELINE))
    bloom = run(t, MachineConfig(policy=PolicyKind.DOS_BLOOM))
    assert base.cycles == bloom.cycles
    assert base.delayed_issues == 0
    assert bloom.delayed_issues == 0
    assert base.committed == bloom.committed == 100


def test_run_twice_identical_metrics():
    t = gen_loop_trace(8, 60, 0.1, seed=7)
    cfg = MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True, seed=7)
    a = run(t, cfg)
    b = run(t, cfg)
    assert a == b


def test_marked_misspeculation_squashes_and_recovers():
    # branch marked to misspeculate once: younger issued work is discarded,
    # re-dispatched with fresh seqs, and the run still commits everything
    t = _trace(
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 3, True),
        *_plains(4),
    )
    m = run(t, MachineConfig())
    assert m.squashes == 1
    assert m.committed == 5
    assert m.dynamic_executed > 5  # replayed work
    assert m.dynamic_executed == m.committed + m.squashed_executions


def test_squash_record_excludes_never_issued():
    # delay-all keeps younger work un-issued, so the squash inserts nothing
    t = _trace(
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 4, True),
        *_plains(3),
    )
    records = []

    class Obs:
        def on_issue(self, e, speculative, cycle): pass
        def on_handle_safe(self, seq): pass
        def on_squash(self, record): records.append(record)

    run(t, MachineConfig(policy=PolicyKind.DELAY_ALL), observer=Obs())
    assert len(records) == 1
    assert records[0].squashed_issued_pcs == frozenset()


def test_squash_record_carries_issued_pcs_and_youngest():
    t = _trace(
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 6, True),
        (InstructionKind.PLAIN, None, 0x200),
        (InstructionKind.BRANCH, ShadowKind.C, 0x300, 1, 30),
        (InstructionKind.PLAIN, None, 0x400),
    )
    records = []

    class Obs:
        def on_issue(self, e, speculative, cycle): pass
        def on_handle_safe(self, seq): pass
        def on_squash(self, record): records.append(record)

    run(t, MachineConfig(), observer=Obs())
    record = records[0]
    assert record.squashed_issued_pcs == frozenset({0x200, 0x300, 0x400})
    assert record.youngest_handle == 2  # seq of the younger queued branch


def test_in_order_commit_and_forward_progress():
    t = gen_loop_trace(6, 40, 0.2, seed=3)
    for policy in PolicyKind:
        m = run(t, MachineConfig(policy=policy, seed=3))
        assert m.committed == len(t), policy
        assert m.dynamic_executed == m.committed + m.squashed_executions


def test_rob_head_never_delayed_under_delay_all():
    # without the head exemption delay-all would deadlock behind its own handle
    t = _trace(
        (InstructionKind.LOAD, ShadowKind.E, 0x100, 1, 4),
        (InstructionKind.LOAD, ShadowKind.E, 0x104, 1, 4),
        *_plains(4),
    )
    m = run(t, MachineConfig(policy=PolicyKind.DELAY_ALL))
    assert m.committed == 6
    assert m.delayed_issues > 0


def test_baseline_never_delays():
    t = gen_loop_trace(8, 50, 0.3, seed=5)
    m = run(t, MachineConfig(policy=PolicyKind.BASELINE, seed=5))
    assert m.delayed_issues == 0
    assert m.fp_count == 0


def test_exec_latency_orders_commit():
    t = _trace((InstructionKind.LOAD, None, 0x100, 5), *_plains(1))
    m = run(t, MachineConfig())
    # the load's execution pins the in-order commit of both instructions
    assert m.cycles >= 6
    assert m.committed == 2


def test_livelock_guard_raises():
    t = _trace((InstructionKind.LOAD, None, 0x100, 40))
    with pytest.raises(LivelockError):
        run(t, MachineConfig(livelock_budget=10))


def test_livelock_message_names_the_unresolved_head():
    # under baseline the replayed E handle sits executed at the head, never resolved
    scenario = build_unbounded()
    pipe = Pipeline(scenario.trace, MachineConfig(livelock_budget=400),
                    resolver=ScenarioResolver(scenario.force))
    with pytest.raises(LivelockError) as info:
        pipe.run()
    assert str(info.value) == (
        "no commit for 400 cycles at cycle 401 "
        "(head=RobEntry(seq=0, pc=0x4000, state=Executed, resolved=False))")


def test_string_shadow_class_runs_like_the_enum():
    def trace(shadow):
        return _trace((InstructionKind.LOAD, shadow, 0x400, 1, 10, True), *_plains(3))

    as_str = trace("E")
    assert as_str.instructions[0].shadow_class is ShadowKind.E
    for policy in PolicyKind:
        config = MachineConfig(policy=policy)
        assert run(as_str, config) == run(trace(ShadowKind.E), config)


def test_config_validation():
    with pytest.raises(ConfigError):
        MachineConfig(bits=48)
    with pytest.raises(ConfigError):
        MachineConfig(rob_size=0)
    with pytest.raises(ConfigError):
        MachineConfig(hashes=0)
    with pytest.raises(ConfigError):
        MachineConfig(fp_counting="sometimes")
    with pytest.raises(ConfigError):
        MachineConfig(policy=3)
    with pytest.raises(ConfigError):
        MachineConfig(policy="nope")
    config = MachineConfig()
    # a derived config is checked like a new one
    with pytest.raises(ConfigError):
        replace(config, bits=48)
    with pytest.raises(ConfigError):
        config.with_policy("nope")
    assert config.with_policy("dos-bloom").policy is PolicyKind.DOS_BLOOM
    # and a checked config cannot be changed afterwards
    with pytest.raises(FrozenInstanceError):
        config.bits = 48
    assert config == MachineConfig()


@pytest.mark.parametrize("name, largest, too_big", [
    ("bits", 2**16, 2**17), ("hashes", 2**32 - 1, 2**32), ("filters", 2**32 - 1, 2**32),
    ("window_len", 2**32 - 1, 2**33),
    ("rob_size", 2**32 - 1, 2**33),  # the window defaults to rob_size
])
def test_config_bounds_what_the_blob_packs_as_u32(name, largest, too_big):
    MachineConfig(**{name: largest})  # the checks allocate nothing
    # bits has a tighter cap, which bounds the hash seeds a config derives
    message = r"in \[2, 2\*\*16\]" if name == "bits" else r"< 2\*\*32"
    with pytest.raises(ConfigError, match=message):
        MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True, **{name: too_big})


def test_bloom_hashes_are_capped_by_bits():
    assert MachineConfig(policy=PolicyKind.DOS_BLOOM, bits=8, hashes=8).hashes == 8
    with pytest.raises(ConfigError, match="hashes must be <= bits"):
        MachineConfig(policy=PolicyKind.DOS_BLOOM, bits=8, hashes=9)
    # only the Bloom filters use hashes, so no other policy is capped
    assert MachineConfig(bits=8, hashes=9).with_policy("dos-perfect").hashes == 9
    with pytest.raises(ConfigError):
        MachineConfig(bits=8, hashes=9).with_policy("dos-bloom")


def test_oversized_window_fails_before_a_context_switch():
    with pytest.raises(ConfigError):
        config = MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True, window_len=2**33)
        run_segmented(gen_loop_trace(8, 10, 0.1, 1), config, [40])


def test_commit_width_and_head_blocking():
    t = _trace(*_plains(6))
    p = Pipeline(t, MachineConfig(width=3))
    p.cycle = 1
    p.dispatch()
    assert p.commit() == 0  # head still Dispatched
    p.cycle = 2
    p.try_issue()
    p.cycle = 3
    assert p.commit() == 0  # the completions due now have not fired yet
    p.tick()  # fires them, then commits
    assert p.metrics.committed == 3  # full width of Executed entries at the head


def test_squash_completeness():
    t = _trace(
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 30),
        *_plains(5),
    )
    records = []

    class Obs:
        def on_issue(self, e, speculative, cycle): pass
        def on_handle_safe(self, seq): pass
        def on_squash(self, record): records.append(record)

    p = Pipeline(t, MachineConfig(), observer=Obs())
    p.cycle = 1
    p.dispatch()
    p.cycle = 2
    p.try_issue()
    p.squash_from(p.rob[0])
    (record,) = records
    assert record.cause_seq == 0
    assert all(e.seq <= 0 for e in p.rob)
    assert p.pending == p.rob  # the cause waits to re-issue
    assert record.squashed_issued_pcs  # younger entries had issued


def test_head_with_filtered_pc_still_issues():
    # the PC of the head is in the filters, but the head is exempt
    t = _trace(
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 3, True),
        (InstructionKind.PLAIN, None, 0x200),
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 3),  # same PC as the squasher
        *_plains(2),
    )
    m = run(t, MachineConfig(policy=PolicyKind.DOS_BLOOM))
    assert m.committed == 5  # the recorded-PC branch eventually led the ROB and issued


def test_bloom_delay_increments_counter():
    t = _trace(
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 4, True),
        (InstructionKind.PLAIN, None, 0x200),
        (InstructionKind.PLAIN, None, 0x204),
    )
    m = run(t, MachineConfig(policy=PolicyKind.DOS_BLOOM))
    assert m.squashes == 1
    assert m.delayed_issues > 0  # replayed PCs hit the filter and waited


def test_full_handle_queue_stalls_dispatch_without_deadlock():
    # squashed handles stay queued until they reach the head, so a tiny
    # machine can fill its handle queue with zombies; dispatch must stall
    # and resume, never deadlock
    t = _trace(
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 3, True),
        (InstructionKind.BRANCH, ShadowKind.C, 0x104, 1, 3),
        (InstructionKind.BRANCH, ShadowKind.C, 0x108, 1, 3),
        (InstructionKind.PLAIN, None, 0x200),
    )
    m = run(t, MachineConfig(rob_size=2, width=2))
    assert m.committed == 4


def test_squash_recovery_stalls_redispatch():
    t = _trace(
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 3, True),
        *_plains(6),
    )
    fast = run(t, MachineConfig(squash_recovery=0))
    slow = run(t, MachineConfig(squash_recovery=5))
    assert fast.committed == slow.committed == 7
    assert slow.cycles > fast.cycles


def test_baseline_issues_without_asking_the_policy(monkeypatch):
    def never(*args):
        raise AssertionError("issue_decision called under baseline")

    monkeypatch.setattr(PolicyState, "issue_decision", never)
    m = run(gen_loop_trace(8, 50, 0.3, seed=5), MachineConfig(rob_size=64))
    assert m.committed == 400 and m.squashes > 0


def test_delay_all_delays_with_at_most_one_decision_per_cycle():
    p = Pipeline(gen_loop_trace(8, 50, 0.3, seed=5),
                 MachineConfig(policy=PolicyKind.DELAY_ALL, rob_size=64))
    decide = p.policy.issue_decision
    delaying_cycles = Counter()

    def counting(*args):
        reason = decide(*args)
        if reason is not None:
            delaying_cycles[p.cycle] += 1
        return reason

    p.policy.issue_decision = counting
    m = p.run()
    assert max(delaying_cycles.values()) == 1
    assert sum(delaying_cycles.values()) <= m.cycles
    assert m.delayed_issues > sum(delaying_cycles.values())  # one delay covers the younger


class _AskEveryCycle(Pipeline):
    """Reference issue phase: asks the policy about every non-head window
    entry on every cycle, with no cached decision and no per-policy shortcut."""

    def try_issue(self):
        if not self.pending:
            return
        head = self.rob[0]
        m = self.metrics
        cycle = self.cycle
        for e in self.pending[:self.config.width]:
            if e is not head:
                reason = self.policy.issue_decision(e.seq, e.instr.pc, e.mask)
                if reason is not None:
                    m.delayed_issues += 1
                    if reason == DELAY_BLOOM_FP and not e.fp_counted:
                        m.fp_count += 1
                        e.fp_counted = self.config.fp_counting == "entry"
                    continue
            self.pending.remove(e)
            e.state = ISSUED
            instr = e.instr
            self._completions.setdefault(cycle + instr.exec_latency, []).append((e, e.gen))
            if instr.shadow_class is ShadowKind.E:
                e.resolve_ready = cycle + instr.resolve_latency
            elif instr.shadow_class is not None:
                self._resolutions.setdefault(cycle + instr.resolve_latency, []).append(
                    (e.seq, e.gen, e))
            m.dynamic_executed += 1
            m.per_pc_issues[instr.pc] = m.per_pc_issues.get(instr.pc, 0) + 1
            speculative = self.hq.shadows(e.seq)
            if speculative:
                m.per_pc_spec_issues[instr.pc] = m.per_pc_spec_issues.get(instr.pc, 0) + 1
            self.observer.on_issue(e, speculative, cycle)


class _IssueStream:
    def __init__(self):
        self.issues = []

    def on_issue(self, e, speculative, cycle):
        self.issues.append((e.seq, speculative, cycle))

    def on_squash(self, record):
        pass

    def on_handle_safe(self, seq):
        pass


def _outcome(cls, trace, config):
    observer = _IssueStream()
    try:
        metrics = cls(trace, config, observer=observer).run()
    except LivelockError as exc:
        metrics = ("livelock", exc.metrics)
    return metrics, observer.issues


_ROWS = [(InstructionKind.PLAIN, None), (InstructionKind.TRANSMIT, None),
         (InstructionKind.LOAD, ShadowKind.E), (InstructionKind.STORE, ShadowKind.D),
         (InstructionKind.LOAD, ShadowKind.M), (InstructionKind.BRANCH, ShadowKind.C)]


@st.composite
def _random_machines(draw, policy):
    rows = draw(st.lists(st.tuples(st.sampled_from(_ROWS), st.integers(0, 23), st.integers(1, 4),
                                   st.integers(1, 8), st.integers(0, 3)),
                         min_size=16, max_size=64))
    ins = [Instruction(i, 0x400 + 4 * pc, kind, shadow, ex, res,
                       misspeculate=shadow is not None and miss == 0)
           for i, ((kind, shadow), pc, ex, res, miss) in enumerate(rows)]
    config = MachineConfig(
        policy=policy, rob_size=draw(st.integers(2, 64)), width=draw(st.integers(1, 8)),
        window_len=draw(st.sampled_from([0, 4, None])),
        squash_recovery=draw(st.integers(0, 2)),
        fp_counting=draw(st.sampled_from(["evaluation", "entry"])),
        bits=draw(st.sampled_from([8, 64])), hashes=draw(st.integers(1, 2)),
        oracle=policy is PolicyKind.DOS_BLOOM and draw(st.booleans()),
        seed=draw(st.integers(0, 3)))
    return Trace(name="prop", seed=0, instructions=ins), config


@pytest.mark.parametrize("policy", list(PolicyKind))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_issue_phase_matches_asking_every_cycle(policy, data):
    # traces of 16 or more give a delayed entry with an allowed younger one in
    # the same window in about a quarter of the filter-policy examples; that
    # window is where a delay-all shortcut applied to another policy shows
    trace, config = data.draw(_random_machines(policy))
    assert _outcome(Pipeline, trace, config) == _outcome(_AskEveryCycle, trace, config)
