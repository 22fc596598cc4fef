import ast
import inspect
import re
import textwrap
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings, strategies as st

from squashsim import experiment, pipeline
from squashsim.attacks import (ScenarioResolver, build_nested, build_serial, build_unbounded,
                               run_scenario)
from squashsim.config import ConfigError, MachineConfig, PolicyKind
from squashsim.experiment import run_segmented
from squashsim.filters import (MASK_TABLE_FAMILIES, compute_hashes, derive_hash_seeds,
                               indices_to_mask, mask_table)
from squashsim.metrics import Metrics
from squashsim.pipeline import NEVER, LivelockError, Pipeline, TraceResolver, run
from squashsim.policy import DELAY_BLOOM_FP, PolicyState
from squashsim.shadows import HandleQueue, ShadowKind
from squashsim.trace import Instruction, InstructionKind, Trace, gen_loop_trace


def _trace(*rows):
    ins = []
    for row in rows:
        kind, shadow = row[0], row[1]
        ins.append(
            Instruction(
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


@pytest.fixture
def hashed_pcs(monkeypatch):
    """The PCs the pipeline hashes, from cold mask tables on."""
    calls = []

    def counting(pc, seeds, bits):
        calls.append(pc)
        return compute_hashes(pc, seeds, bits)

    monkeypatch.setattr(pipeline, "compute_hashes", counting)
    mask_table.cache_clear()
    return calls


def test_bloom_policy_hashes_each_pc_once_per_hash_family(hashed_pcs):
    trace = gen_loop_trace(6, 30, 0.2, 3)
    pcs = sorted({i.pc for i in trace.instructions})
    cfg = MachineConfig(policy=PolicyKind.DOS_BLOOM)

    def hashed(run_once):
        hashed_pcs.clear()
        run_once()
        return sorted(hashed_pcs)

    assert run(trace, cfg).squashes > 0
    assert sorted(hashed_pcs) == pcs  # a cold family hashes each PC once
    assert hashed(lambda: run(trace, cfg)) == []  # the same family again: none
    assert hashed(lambda: run(trace, replace(cfg, bits=2 * cfg.bits))) == pcs
    assert hashed(lambda: run(trace, replace(cfg, seed=cfg.seed + 1))) == pcs

    mask_table.cache_clear()
    cuts = [len(trace.instructions) // 4 * i for i in (1, 2, 3)]
    assert hashed(lambda: run_segmented(trace, cfg, cuts)) == pcs  # once, not once a segment
    assert hashed(lambda: run_segmented(trace, cfg, cuts)) == []


def test_mask_tables_keep_at_most_the_bound_of_families(hashed_pcs):
    trace = gen_loop_trace(6, 10, 0.2, 3)
    configs = [MachineConfig(policy=PolicyKind.DOS_BLOOM, seed=s)
               for s in range(MASK_TABLE_FAMILIES + 2)]
    cold = [run(trace, cfg) for cfg in configs]
    assert mask_table.cache_info().currsize == MASK_TABLE_FAMILIES
    hashed_pcs.clear()
    assert run(trace, configs[-1]) == cold[-1]
    assert hashed_pcs == []  # the most recently used family is kept
    assert run(trace, configs[0]) == cold[0]
    assert sorted(hashed_pcs) == sorted({i.pc for i in trace.instructions})  # the least, evicted
    assert mask_table.cache_info().currsize == MASK_TABLE_FAMILIES


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
    assert sum(1 for e in p.rob if e.done_at != NEVER) == 3


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


@pytest.mark.parametrize("exec_lat, res_lat, cycles", [(1, 6, 8), (6, 1, 8), (3, 3, 5),
                                                       (8, 2, 10)])
@pytest.mark.parametrize("policy", list(PolicyKind), ids=str)
def test_e_head_resolves_at_issue_plus_resolve_latency(policy, exec_lat, res_lat, cycles):
    # dispatched at cycle 1, the load issues at cycle 2 and commits once it
    # has executed and its fault has resolved, at 2 + max(exec, resolve): the
    # resolve latency counts from the issue, not from the end of execution.
    # Delay-all holds the plain until the load's handle pops, one cycle more
    t = _trace((InstructionKind.LOAD, ShadowKind.E, 0x100, exec_lat, res_lat), *_plains(1))
    config = MachineConfig(policy=policy)
    outcome = _outcome(Pipeline, t, config)
    m = outcome[0]
    assert (m.cycles, m.committed, m.squashes) == (cycles + (policy is PolicyKind.DELAY_ALL), 2, 0)
    assert outcome == _outcome(_AskEveryCycle, t, config)  # the idle-cycle skip lands there too


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


@pytest.mark.parametrize("kw, message", [
    (dict(width=0), "width must be >= 1, got 0"),
    (dict(threshold=0), "threshold must be in [1, bits], got 0"),
    (dict(bits=64, threshold=65), "threshold must be in [1, bits], got 65"),
    (dict(window_len=-1), "window_len must be >= 0, got -1"),
])
def test_config_rejects_out_of_range_values(kw, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        MachineConfig(**kw)


@pytest.mark.parametrize("name, largest, too_big", [
    ("bits", 2**16, 2**17), ("hashes", 2**32 - 1, 2**32), ("filters", 64, 65),
    ("window_len", 2**32 - 1, 2**33),
    ("rob_size", 2**32 - 1, 2**33),  # the window defaults to rob_size
])
def test_config_bounds_what_the_blob_packs_as_u32(name, largest, too_big):
    MachineConfig(**{name: largest})  # the checks allocate nothing
    # bits and filters have tighter caps: bits bounds the hash seeds a config
    # derives, filters the per-decision query and per-cycle sweep
    message = {"bits": r"in \[2, 2\*\*16\]", "filters": r"in \[2, 64\]"}.get(name, r"< 2\*\*32")
    with pytest.raises(ConfigError, match=message):
        MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True, **{name: too_big})


def test_livelock_budget_is_capped_at_2_20():
    assert MachineConfig(livelock_budget=2**20).effective_budget == 2**20
    for budget in (0, 2**20 + 1):
        with pytest.raises(ConfigError, match=r"livelock_budget must be in \[1, 2\*\*20\]"):
            MachineConfig(livelock_budget=budget)


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
    p.dispatch()
    assert len(p.rob) == 6
    p.cycle = 2
    p.try_issue()
    p.try_issue()
    assert p.commit() == 0  # issued, still executing
    p.cycle = 3
    assert p.commit() == 3  # full width of Executed entries at the head
    assert p.metrics.committed == 3 and len(p.rob) == 3


class _Retirements(Pipeline):
    """Logs the position and cycle of each commit, by seq."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.committed_at = {}

    def commit(self):
        head = self.rob[:self.config.width]
        n = super().commit()
        for e in head[:n]:
            self.committed_at[e.seq] = (e.pos, self.cycle)
        return n


def _slow_cause(pc):
    return (InstructionKind.BRANCH, ShadowKind.C, pc, 6, 1, True)  # exec 6 > resolve 1


# case -> (the slow cause's position, trace rows)
_STALE_CAUSE_TRACES = {
    # the cause squashes its younger work and re-issues the same cycle
    "alone": (0, [_slow_cause(0x100), *_plains(4, 0x200)]),
    # an older slow branch stays live; a younger same-PC branch puts the cause's
    # PC in the filters, so the filter policies hold the cause back after its
    # squash until the older branch squashes it before it has re-issued
    "waits": (1, [
        (InstructionKind.BRANCH, ShadowKind.C, 0x100, 1, 8, True),
        _slow_cause(0x200),
        (InstructionKind.PLAIN, None, 0x300),
        (InstructionKind.BRANCH, ShadowKind.C, 0x200),
        *_plains(3, 0x400),
    ]),
}
# Metrics recorded before execution completed at a cycle stamp (completion
# events with generation counters): cycles, dynamic_executed, committed,
# squashes, squashed_executions, delayed_issues, per-PC issues, per-PC
# speculative issues; every other field is 0
_STALE_CAUSE_PINNED = {
    ("alone", "baseline"): (9, 10, 5, 1, 5, 0, {0x100: 2, 0x200: 2, 0x204: 2, 0x208: 2, 0x20c: 2},
                            {0x200: 1, 0x204: 1, 0x208: 1, 0x20c: 1}),
    ("alone", "delay-all"): (9, 6, 5, 1, 1, 4, {0x100: 2, 0x200: 1, 0x204: 1, 0x208: 1, 0x20c: 1},
                             {}),
    ("alone", "dos-perfect"): (9, 10, 5, 1, 5, 0,
                               {0x100: 2, 0x200: 2, 0x204: 2, 0x208: 2, 0x20c: 2},
                               {0x200: 1, 0x204: 1, 0x208: 1, 0x20c: 1}),
    ("alone", "dos-bloom"): (13, 10, 5, 1, 5, 26,
                             {0x100: 2, 0x200: 2, 0x204: 2, 0x208: 2, 0x20c: 2},
                             {0x200: 1, 0x204: 1, 0x208: 1, 0x20c: 1}),
    ("waits", "baseline"): (18, 20, 7, 2, 13, 0,
                            {0x100: 2, 0x200: 6, 0x300: 3, 0x400: 3, 0x404: 3, 0x408: 3},
                            {0x200: 6, 0x300: 3, 0x400: 3, 0x404: 3, 0x408: 3}),
    ("waits", "delay-all"): (25, 9, 7, 2, 2, 98,
                             {0x100: 2, 0x200: 3, 0x300: 1, 0x400: 1, 0x404: 1, 0x408: 1}, {}),
    ("waits", "dos-perfect"): (24, 14, 7, 2, 7, 79,
                               {0x100: 2, 0x200: 4, 0x300: 2, 0x400: 2, 0x404: 2, 0x408: 2},
                               {0x200: 3, 0x300: 2, 0x400: 2, 0x404: 2, 0x408: 2}),
    ("waits", "dos-bloom"): (29, 14, 7, 2, 7, 119,
                             {0x100: 2, 0x200: 4, 0x300: 2, 0x400: 2, 0x404: 2, 0x408: 2},
                             {0x200: 2, 0x300: 1, 0x400: 1, 0x404: 1, 0x408: 1}),
}


@pytest.mark.parametrize("case, policy", sorted(_STALE_CAUSE_PINNED))
def test_squashed_cause_completes_from_its_reissue(case, policy):
    # a squash's cause re-executes: its first execution, still in flight at
    # the squash, must not let it commit before the re-issue completes
    cause, rows = _STALE_CAUSE_TRACES[case]
    t = _trace(*rows)
    observer = _IssueStream()
    p = _Retirements(t, MachineConfig(policy=policy), observer=observer)
    m = p.run()
    issued_at = {seq: cycle for seq, _, cycle in observer.issues}  # the last issue of each
    for seq, (pos, cycle) in p.committed_at.items():
        assert cycle >= issued_at[seq] + t.instructions[pos].exec_latency, (seq, pos)
    (cause_seq,) = [seq for seq, (pos, _) in p.committed_at.items() if pos == cause]
    assert p.committed_at[cause_seq][1] >= issued_at[cause_seq] + 6
    cycles, executed, committed, squashes, squashed, delayed, issues, spec = (
        _STALE_CAUSE_PINNED[case, policy])
    assert m == Metrics(
        trace_id=t.trace_id, policy=policy, cycles=cycles, dynamic_executed=executed,
        committed=committed, squashes=squashes, squashed_executions=squashed,
        delayed_issues=delayed, per_pc_issues=issues, per_pc_spec_issues=spec)


def test_resolver_never_sees_a_squashed_entry():
    # the pinned order/dos-bloom run: several resolutions fall due in one
    # cycle, and an older one squashes younger ones, whose events go stale;
    # then every policy on further loop traces.  A plain function resolver
    # gives what the default TraceResolver gives.
    cases = [(gen_loop_trace(64, 10, 0.1, 1),
              MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True, seed=5))]
    cases += [(gen_loop_trace(body, iters, rate, seed), MachineConfig(policy=policy))
              for body, iters, rate, seed in ((40, 12, 0.3, 2), (11, 30, 1.0, 3))
              for policy in PolicyKind]
    for trace, config in cases:
        resolve = TraceResolver()
        calls = []

        def live_only(entry):
            assert not entry.squashed, entry.describe(0)
            calls.append(entry.seq)
            return resolve(entry)

        m = Pipeline(trace, config, resolver=live_only).run()
        assert m == run(trace, config), (trace.name, str(config.policy))
        assert m.squashes > 0 and len(calls) > m.squashes, (trace.name, str(config.policy))


@pytest.mark.parametrize("scenario", [build_serial(3, 2), build_nested(3, 2)],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("policy", list(PolicyKind), ids=str)
def test_a_class_level_resolver_wrapper_sees_every_live_resolution_once(
        monkeypatch, scenario, policy):
    # the pipeline binds the resolver's __call__ when it is built, so a
    # wrapper set on the class before then (as the benchmark's tracer sets
    # one) is the one it calls; serial's E handles resolve in commit and
    # nested's C handles in tick
    config = MachineConfig(policy=policy)
    unwrapped = run_scenario(scenario, config)
    seen, acted = [], []
    call, mark_resolved, squash_from = (
        ScenarioResolver.__call__, HandleQueue.mark_resolved, Pipeline.squash_from)

    def wrapped_call(self, entry):
        assert not entry.squashed, entry.describe(0)
        seen.append(entry.seq)
        return call(self, entry)

    def wrapped_mark_resolved(self, entry):
        acted.append(entry.seq)
        mark_resolved(self, entry)

    def wrapped_squash_from(self, cause):
        acted.append(cause.seq)
        squash_from(self, cause)

    monkeypatch.setattr(ScenarioResolver, "__call__", wrapped_call)
    monkeypatch.setattr(HandleQueue, "mark_resolved", wrapped_mark_resolved)
    monkeypatch.setattr(Pipeline, "squash_from", wrapped_squash_from)
    assert run_scenario(scenario, config) == unwrapped
    # each resolution the pipeline acted on was asked once, in the same order
    assert seen == acted
    assert unwrapped.metrics.squashes > 0 and len(seen) > unwrapped.metrics.squashes


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


class _AskEveryCycle(Pipeline):
    """Reference issue phase: asks the policy about every non-head window
    entry on every cycle, with no cached decision and no per-policy shortcut.
    It counts the per-PC issues as they happen and reports those counts, so
    a comparison with ``Pipeline`` checks the ones ``_finalize`` derives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counted_issues = {}
        self.counted_spec_issues = {}

    def _finalize(self):
        super()._finalize()
        self.metrics.per_pc_issues = dict(self.counted_issues)
        self.metrics.per_pc_spec_issues = dict(self.counted_spec_issues)

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
            instr = e.instr
            e.done_at = cycle + instr.exec_latency
            if instr.shadow_class not in (None, ShadowKind.E):  # an E resolves at the head
                self._resolutions[cycle + instr.resolve_latency].append(e)
            m.dynamic_executed += 1
            self.counted_issues[instr.pc] = self.counted_issues.get(instr.pc, 0) + 1
            speculative = self.hq.shadows(e.seq)
            if speculative:
                spec = self.counted_spec_issues
                spec[instr.pc] = spec.get(instr.pc, 0) + 1
            self.observer.on_issue(e, speculative, cycle)

    def tick(self):
        super().tick()
        self._idle = False  # no idle-cycle skip: a reference ticks every cycle


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


@pytest.mark.parametrize("policy", [PolicyKind.BASELINE, PolicyKind.DELAY_ALL,
                                    PolicyKind.DOS_PERFECT], ids=str)
def test_issue_phase_applies_the_rule_without_asking_the_policy(monkeypatch, policy):
    # only dos-bloom's decision is asked: the issue phase reads the other
    # rules from policy state, and a delay-all delay holds every younger
    # window entry, which the per-entry reference checks
    trace = gen_loop_trace(8, 50, 0.3, seed=5)
    config = MachineConfig(policy=policy, rob_size=64)
    asked = _outcome(_AskEveryCycle, trace, config)

    def never(*args):
        raise AssertionError(f"issue_decision called under {policy}")

    monkeypatch.setattr(PolicyState, "issue_decision", never)
    outcome = _outcome(Pipeline, trace, config)
    m = outcome[0]
    assert m.committed == 400 and m.squashes > 0
    if policy is not PolicyKind.BASELINE:
        assert m.delayed_issues > 0
        assert outcome == asked


class _CountIssues(_IssueStream):
    """Counts the per-PC issues, and the speculative ones, as they happen."""

    def __init__(self):
        super().__init__()
        self.per_pc = ({}, {})  # all issues, speculative issues

    def on_issue(self, e, speculative, cycle):
        for counts in self.per_pc[:1 + speculative]:
            counts[e.instr.pc] = counts.get(e.instr.pc, 0) + 1


@pytest.mark.parametrize("policy", list(PolicyKind), ids=str)
def test_per_pc_counts_are_exact_at_every_pause(monkeypatch, policy):
    # a pause drains the ROB, so the derived counts need every squash's
    # discarded executions and each segment's committed prefix of the trace
    counted = _CountIssues()
    pauses = []

    class Paused(Pipeline):
        def run(self, stop=None):
            m = super().run(stop)
            pauses.append(m.committed)
            assert (m.per_pc_issues, m.per_pc_spec_issues) == counted.per_pc, m.committed
            return m

    monkeypatch.setattr(experiment, "Pipeline", Paused)
    trace = gen_loop_trace(8, 20, 0.2, 3)
    m = run_segmented(trace, MachineConfig(policy=policy), [17, 40, 41, 100], observer=counted)
    assert pauses == [17, 40, 41, 100, 160] and m.squashes > 0


@pytest.mark.parametrize("policy", list(PolicyKind), ids=str)
def test_per_pc_counts_at_a_livelock_count_the_entries_in_flight(policy):
    # nothing has committed when the sustained replay livelocks, so every
    # issue is a discarded execution or an issued entry still in the ROB
    scenario = build_unbounded()
    counted = _CountIssues()
    pipe = Pipeline(scenario.trace, MachineConfig(policy=policy, livelock_budget=400),
                    resolver=ScenarioResolver(scenario.force), observer=counted)
    with pytest.raises(LivelockError) as info:
        pipe.run()
    m = info.value.metrics
    in_flight = sum(e.done_at != NEVER for e in pipe.rob)
    assert m.committed == 0 and in_flight > 0
    if policy is PolicyKind.BASELINE:
        assert in_flight == 12
    assert (m.per_pc_issues, m.per_pc_spec_issues) == counted.per_pc


_ROWS = [(InstructionKind.PLAIN, None), (InstructionKind.TRANSMIT, None),
         (InstructionKind.LOAD, ShadowKind.E), (InstructionKind.STORE, ShadowKind.D),
         (InstructionKind.LOAD, ShadowKind.M), (InstructionKind.BRANCH, ShadowKind.C)]


@st.composite
def _random_machines(draw, policy):
    rows = draw(st.lists(st.tuples(st.sampled_from(_ROWS), st.integers(0, 23), st.integers(1, 4),
                                   st.integers(1, 8), st.integers(0, 3)),
                         min_size=16, max_size=64))
    ins = [Instruction(0x400 + 4 * pc, kind, shadow, ex, res,
                       misspeculate=shadow is not None and miss == 0)
           for (kind, shadow), pc, ex, res, miss in rows]
    config = MachineConfig(
        policy=policy, rob_size=draw(st.integers(2, 64)), width=draw(st.integers(1, 8)),
        window_len=draw(st.sampled_from([0, 4, None])),
        fp_counting=draw(st.sampled_from(["evaluation", "entry"])),
        bits=draw(st.sampled_from([8, 64])), hashes=draw(st.integers(1, 2)),
        oracle=policy is PolicyKind.DOS_BLOOM and draw(st.booleans()),
        seed=draw(st.integers(0, 3)))
    return Trace(name="prop", seed=0, instructions=ins), config


@pytest.mark.fuzz
@pytest.mark.parametrize("policy", list(PolicyKind))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_issue_phase_matches_asking_every_cycle(policy, data):
    # traces of 16 or more give a delayed entry with an allowed younger one in
    # the same window in about a quarter of the filter-policy examples; that
    # window is where a delay-all shortcut applied to another policy shows
    trace, config = data.draw(_random_machines(policy))
    assert _outcome(Pipeline, trace, config) == _outcome(_AskEveryCycle, trace, config)


@st.composite
def _mask_families(draw, near=None):
    """A hash family, or with ``near`` a config, that config's family with
    one of its bits, hashes or seed redrawn: a table keyed on less than
    the whole family then hands a run another family's masks."""
    family = {"bits": near.bits, "hashes": near.hashes, "seed": near.seed} if near else {}
    redraw = {draw(st.sampled_from(list(family)))} if near else {"bits", "hashes", "seed"}
    if "bits" in redraw:  # a filter of m bits has room for at most m hashes
        least = family.get("hashes", 1)
        family["bits"] = draw(st.sampled_from([1 << e for e in range(1, 13) if 1 << e >= least]))
    if "hashes" in redraw:
        family["hashes"] = draw(st.integers(1, min(4, family["bits"])))
    if "seed" in redraw:
        family["seed"] = draw(st.integers(0, 1 << 16))
    return family


@pytest.mark.fuzz
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_warm_mask_tables_give_the_cold_metrics(data):
    # neighbouring families hash the same PCs into other masks, and the same
    # family over a prefix leaves its table part-filled
    trace, config = data.draw(_random_machines(PolicyKind.DOS_BLOOM))
    config = replace(config, **data.draw(_mask_families()))
    others = [replace(config, **f) for f in data.draw(st.lists(_mask_families(config), max_size=3))]
    mask_table.cache_clear()
    for other in others:
        run(trace, other)
    run(replace(trace, instructions=trace.instructions[:data.draw(st.integers(0, len(trace)))]),
        config)
    warm = run(trace, config)
    for cfg in (config, *others):
        seeds = derive_hash_seeds(cfg.seed, cfg.hashes)
        for pc, mask in Pipeline(trace, cfg)._pc_masks.items():
            assert mask == indices_to_mask(compute_hashes(pc, seeds, cfg.bits))
    mask_table.cache_clear()
    assert warm == run(trace, config)


class _TickEveryCycle(Pipeline):
    """Reference clock: ticks every simulated cycle, with no idle-cycle skip."""

    def tick(self):
        super().tick()
        self._idle = False


class _CountTicks(Pipeline):
    """Counts the calls of ``tick``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticks = 0

    def tick(self):
        super().tick()
        self.ticks += 1


def _run_outcome(cls, trace, config):
    """Metrics, or a livelock's text and metrics, and the issue stream."""
    observer = _IssueStream()
    try:
        result = cls(trace, config, observer=observer).run()
    except LivelockError as exc:
        result = (str(exc), exc.metrics)
    return result, observer.issues


_SHADOW_ROWS = [row for row in _ROWS if row[1] is not None]


@st.composite
def _long_latency_machines(draw, policy, oracle):
    rows = draw(st.lists(st.tuples(st.sampled_from(_SHADOW_ROWS), st.integers(0, 7),
                                   st.integers(1, 64), st.integers(1, 64), st.integers(0, 3)),
                         min_size=4, max_size=32))
    ins = [Instruction(0x400 + 4 * pc, kind, shadow, ex, res, misspeculate=miss == 0)
           for (kind, shadow), pc, ex, res, miss in rows]
    config = MachineConfig(
        policy=policy, rob_size=draw(st.integers(2, 32)), width=draw(st.integers(1, 4)),
        livelock_budget=draw(st.integers(16, 400)),
        fp_counting=draw(st.sampled_from(["evaluation", "entry"])),
        bits=draw(st.sampled_from([8, 64])), oracle=oracle)
    return Trace(name="prop", seed=0, instructions=ins), config


@pytest.mark.fuzz
@pytest.mark.parametrize("policy, oracle", [
    *((kind, False) for kind in PolicyKind), (PolicyKind.DOS_BLOOM, True)],
    ids=[*map(str, PolicyKind), "dos-bloom-oracle"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_idle_skip_matches_ticking_every_cycle(policy, oracle, data):
    # latencies up to 64 against budgets from 16 make every jump target the
    # nearest one in some stretch: a head's completion, an E head's fault, a
    # resolution bucket and the livelock check; the oracle case is the one
    # that counts false positives, once per cycle or once per episode
    trace, config = data.draw(_long_latency_machines(policy, oracle))
    assert _run_outcome(Pipeline, trace, config) == _run_outcome(_TickEveryCycle, trace, config)


_LONG_LOAD = _trace(
    (InstructionKind.LOAD, ShadowKind.E, 0x400, 900_000, 1),
    (InstructionKind.BRANCH, ShadowKind.C, 0x404, 1, 500_000, True),
    (InstructionKind.TRANSMIT, None, 0x408),
    (InstructionKind.PLAIN, None, 0x40C),
)

# _TickEveryCycle(_LONG_LOAD, MachineConfig(policy=p, livelock_budget=1 << 20)).run(),
# printed once: ticking its 1.0M-1.9M cycles takes seconds per policy
_ALL_ISSUES = {0x400: 1, 0x404: 2, 0x408: 2, 0x40C: 2}
_LONG_LOAD_TICKED = {
    PolicyKind.BASELINE: Metrics(
        "t:0:4", "baseline", cycles=1_000_002, dynamic_executed=7, committed=4, squashes=1,
        squashed_executions=3, delayed_issues=0,
        per_pc_spec_issues={0x404: 2, 0x408: 2, 0x40C: 2}, per_pc_issues=_ALL_ISSUES),
    PolicyKind.DELAY_ALL: Metrics(
        "t:0:4", "delay-all", cycles=1_900_003, dynamic_executed=5, committed=4, squashes=1,
        squashed_executions=1, delayed_issues=4_699_998,
        per_pc_spec_issues={}, per_pc_issues={0x400: 1, 0x404: 2, 0x408: 1, 0x40C: 1}),
    PolicyKind.DOS_PERFECT: Metrics(
        "t:0:4", "dos-perfect", cycles=1_000_003, dynamic_executed=7, committed=4, squashes=1,
        squashed_executions=3, delayed_issues=999_998,
        per_pc_spec_issues={0x404: 2, 0x408: 1, 0x40C: 1}, per_pc_issues=_ALL_ISSUES),
    PolicyKind.DOS_BLOOM: Metrics(
        "t:0:4", "dos-bloom", cycles=1_000_004, dynamic_executed=7, committed=4, squashes=1,
        squashed_executions=3, delayed_issues=999_999,
        per_pc_spec_issues={0x404: 2, 0x408: 1, 0x40C: 1}, per_pc_issues=_ALL_ISSUES),
}


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_long_latencies_cost_ticks_per_event_not_per_cycle(policy):
    config = MachineConfig(policy=policy, livelock_budget=1 << 20)
    counted = _CountTicks(_LONG_LOAD, config)
    m = counted.run()
    assert m.committed == 4 and m.cycles > 900_000
    assert counted.ticks < 100
    assert m == _LONG_LOAD_TICKED[policy]
    config = replace(config, livelock_budget=1000)
    with pytest.raises(LivelockError) as skipped:
        Pipeline(_LONG_LOAD, config).run()
    with pytest.raises(LivelockError) as ticked:
        _TickEveryCycle(_LONG_LOAD, config).run()
    assert str(skipped.value) == str(ticked.value)
    assert "at cycle 1001 " in str(skipped.value)
    assert skipped.value.metrics == ticked.value.metrics


# Before Python 3.12, reading an enum member through its class (``ShadowKind.E``)
# takes the enum type's slow attribute path, several times the cost of a module
# global, so the per-cycle methods compare with module aliases and policy facts.
_HOT_METHODS = [
    *(getattr(Pipeline, name)
      for name in ("run", "tick", "commit", "try_issue", "dispatch", "squash_from")),
    *(getattr(PolicyState, name)
      for name in ("issue_decision", "on_squash", "on_handle_safe", "on_dispatch")),
]
_ENUMS = {"ShadowKind", "PolicyKind", "InstructionKind"}


@pytest.mark.parametrize("method", _HOT_METHODS, ids=lambda m: m.__qualname__)
def test_per_cycle_path_reads_no_enum_member_through_its_class(method):
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    reads = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (
            isinstance(node.value, ast.Name) and node.value.id in _ENUMS
            or isinstance(node.value, ast.Attribute) and node.value.attr in _ENUMS)
    ]
    assert not reads, reads


@pytest.mark.parametrize("method", [Pipeline.tick, Pipeline.commit], ids=lambda m: m.__qualname__)
def test_resolutions_call_the_resolver_bound_at_construction(method):
    # self.resolver(e) on a callable instance takes the call slot's lookup
    # on every resolution; the phases call the callable bound in __init__
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    calls = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "resolver"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "self"
    ]
    assert not calls, calls


def test_issue_phase_reads_no_per_pc_count():
    # _finalize derives the per-PC counts; none may creep back onto the issue path
    tree = ast.parse(textwrap.dedent(inspect.getsource(Pipeline.try_issue)))
    reads = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and "per_pc_" in node.id
        or isinstance(node, ast.Attribute) and "per_pc_" in node.attr
        or isinstance(node, ast.Constant) and "per_pc_" in str(node.value)
    ]
    assert not reads, reads
