from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from squashsim import experiment
from squashsim.attacks import (
    INSTRUCTION_TABLE_SIZE,
    ForceMisspeculate,
    Scenario,
    ScenarioPattern,
    ScenarioResolver,
    build_nested,
    build_serial,
    build_single,
    build_unbounded,
    instruction,
    nested_latencies,
    run_scenario,
)
from squashsim.cli import SCENARIO_CAPS, scenario_from_params
from squashsim.config import ConfigError, MachineConfig, PolicyKind
from squashsim.pipeline import LivelockError, Pipeline
from squashsim.shadows import ShadowKind
from squashsim.trace import Instruction, InstructionKind, Trace, serialize_trace


def _enumerate_squash_tree(handles: int, replays: int) -> int:
    """Brute-force enumeration of the nested replay tree.

    A handle instance resolves replays+1 times (replays misspeculations,
    then one correct resolution); every resolution attempt re-runs the
    subtree below it, and the transmit instruction issues once per
    innermost pass.
    """

    def run_level(level: int) -> int:
        total = 0
        for _ in range(replays + 1):
            total += run_level(level + 1) if level < handles else 1
        return total

    return run_level(1)


def _baseline(scenario):
    return run_scenario(scenario, MachineConfig(policy=PolicyKind.BASELINE))


@pytest.mark.parametrize("r,expected", [(0, 1), (1, 2), (5, 6)])
def test_single_baseline_counts(r, expected):
    rep = _baseline(build_single(r))
    assert rep.attack_region_executions == expected
    assert rep.squashes == r


def test_single_large_replay_count():
    # commits stall at the faulting head for the whole attack, so the
    # sustained-replay guard needs headroom for the scripted length
    cfg = MachineConfig(policy=PolicyKind.BASELINE, livelock_budget=20_000)
    rep = run_scenario(build_single(1000), cfg)
    assert not rep.livelock
    assert rep.attack_region_executions == 1001
    assert sum(rep.spec_executions_of_s.values()) == 1001


def test_single_dos_policies_cap_issues():
    for policy in (PolicyKind.DOS_PERFECT, PolicyKind.DOS_BLOOM):
        rep = run_scenario(build_single(5), MachineConfig(policy=policy))
        assert sum(rep.total_issues_of_s.values()) <= 2
        assert rep.hot_spec_issues == 0


def test_serial_baseline_sum_arithmetic():
    rep = _baseline(build_serial(5, 1))
    assert rep.attack_region_executions == 10
    for h, r in [(2, 1), (3, 2), (4, 3)]:
        rep = _baseline(build_serial(h, r))
        assert rep.attack_region_executions == h * (r + 1)
        assert rep.squashes == h * r


def test_serial_single_handle_degenerates_to_single():
    a = _baseline(build_serial(1, 4))
    b = _baseline(build_single(4))
    assert a.attack_region_executions == b.attack_region_executions
    assert a.squashes == b.squashes


def test_serial_dos_bloom_blocks_each_episode():
    rep = run_scenario(build_serial(5, 1), MachineConfig(policy=PolicyKind.DOS_BLOOM))
    assert all(n <= 2 for n in rep.total_issues_of_s.values())
    assert all(n <= 1 for n in rep.spec_executions_of_s.values())
    assert rep.hot_spec_issues == 0


def test_nested_baseline_product_arithmetic():
    rep = _baseline(build_nested(5, 1))
    assert rep.attack_region_executions == 32
    for h, r in [(2, 2), (3, 2), (4, 1), (2, 3)]:
        rep = _baseline(build_nested(h, r))
        assert rep.attack_region_executions == _enumerate_squash_tree(h, r)


def test_nested_latencies_are_pinned():
    # innermost 3, then (replays + 1) * inner + 8 outward; the first is the
    # README's scenario-file example
    assert nested_latencies(5, 1) == [168, 80, 36, 14, 3]
    assert nested_latencies(3, 2) == [59, 17, 3]


def test_nested_squash_count_matches_tree():
    rep = _baseline(build_nested(3, 2))
    # every pass but the very first is entered through a squash
    assert rep.squashes == _enumerate_squash_tree(3, 2) - 1


def test_nested_dos_policies_block_replay():
    for policy in (PolicyKind.DOS_PERFECT, PolicyKind.DOS_BLOOM):
        rep = run_scenario(build_nested(5, 1), MachineConfig(policy=policy))
        assert sum(rep.total_issues_of_s.values()) <= 2
        assert rep.hot_spec_issues == 0


@pytest.mark.parametrize("build, message", [
    (lambda: build_single(-1), "replays must be >= 0, got -1"),
    (lambda: build_single(1, gap=-1), "gap must be >= 0, got -1"),
    (lambda: build_serial(0, 1), "handles must be >= 1, got 0"),
    (lambda: build_serial(1, 0), "replays must be >= 1, got 0"),
    (lambda: build_nested(2, 1, gap=-1), "gap must be >= 0, got -1"),
], ids=["single-replays", "single-gap", "serial-handles", "serial-replays", "nested-gap"])
def test_builders_reject_negative_or_empty_counts(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_nested_rejects_bad_latency_order():
    with pytest.raises(ConfigError):
        build_nested(3, 1, resolve_latencies=[3, 14, 36])  # inner slower than outer
    with pytest.raises(ConfigError):
        build_nested(2, 1, resolve_latencies=[5, 5])
    with pytest.raises(ConfigError):
        build_nested(2, 1, resolve_latencies=[5])


def test_delay_all_never_issues_s_speculatively():
    for scenario in (build_single(4), build_serial(3, 2), build_nested(3, 2)):
        rep = run_scenario(scenario, MachineConfig(policy=PolicyKind.DELAY_ALL))
        assert sum(rep.spec_executions_of_s.values()) == 0


def test_baseline_hot_issues_expose_the_attack():
    # under no defense the transmit PC replays while its handles are unsafe
    rep = _baseline(build_single(5))
    assert rep.hot_spec_issues == 5


def test_unbounded_replay_flags_livelock_under_baseline():
    rep = run_scenario(build_unbounded(), MachineConfig(policy=PolicyKind.BASELINE,
                                                        livelock_budget=500))
    assert rep.livelock
    assert rep.squashes > 0


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_policy_clock_keeps_up_through_a_livelock(policy):
    # the deferred-clear clock is the policy's next_seq, kept on every
    # dispatch rather than written back when a run ends
    sc = build_unbounded()
    pipe = Pipeline(sc.trace, MachineConfig(policy=policy, livelock_budget=200),
                    resolver=ScenarioResolver(sc.force))
    with pytest.raises(LivelockError):
        pipe.run()
    assert pipe.next_seq > len(sc.trace)  # every replay dispatched again
    assert pipe.policy.next_seq == pipe.next_seq


def test_monotonic_containment_bloom_vs_baseline():
    for scenario in (build_single(6), build_serial(4, 2), build_nested(3, 2)):
        base = _baseline(scenario)
        bloom = run_scenario(scenario, MachineConfig(policy=PolicyKind.DOS_BLOOM))
        assert (sum(bloom.spec_executions_of_s.values())
                <= sum(base.spec_executions_of_s.values()))


def test_context_switch_mid_scenario_preserves_counts():
    plain = build_serial(2, 2, window_pad=40)
    switched = build_serial(2, 2, window_pad=40)
    # yield the core between the two episodes
    boundary = len(plain.trace.instructions) // 2
    switched.switches.append(boundary)
    for policy in (PolicyKind.BASELINE, PolicyKind.DOS_BLOOM):
        a = run_scenario(plain, MachineConfig(policy=policy))
        b = run_scenario(switched, MachineConfig(policy=policy))
        assert a.total_issues_of_s == b.total_issues_of_s
        assert a.spec_executions_of_s == b.spec_executions_of_s
        assert a.squashes == b.squashes


def test_segmented_scenario_resolves_by_whole_trace_position():
    # a switch right before each later handle puts that handle first in a
    # segment starting at its slot; the resolver must still see the slot
    sc = build_serial(3, 2, window_pad=40)
    slots = sorted(sc.force)
    sc.switches = slots[1:]
    rep = run_scenario(sc, MachineConfig(policy=PolicyKind.BASELINE))
    assert rep.squashes == 3 * 2
    assert list(rep.total_issues_of_s.values()) == [3, 3, 3]
    assert rep.metrics.committed == len(sc.trace)


def test_livelock_after_context_switch_keeps_earlier_segments():
    sc = build_serial(2, 1, window_pad=40)
    second = list(sc.force)[1]
    # release the first handle, switch, then hold the second one forever
    sc.force = {0: ForceMisspeculate(1), second: ForceMisspeculate(None)}
    sc.switches = [second]
    for policy in PolicyKind:
        rep = run_scenario(sc, MachineConfig(policy=policy, livelock_budget=200))
        assert rep.livelock
        assert rep.metrics.committed == second  # the whole first segment
        assert rep.cycles > 201  # the first segment's cycles plus the livelocked ones
        assert rep.metrics.trace_id == sc.trace.trace_id


def test_scenario_pattern_metadata():
    sc = build_nested(2, 1)
    assert sc.pattern is ScenarioPattern.NESTED
    assert sc.params["handles"] == 2
    assert len(sc.transmit_pcs) == 1
    assert list(sc.force) == [0, 1]


@pytest.mark.parametrize("filters", [2, 3, 4])
def test_security_bound_holds_for_larger_filter_cycles(filters):
    cfg = MachineConfig(policy=PolicyKind.DOS_BLOOM, filters=filters)
    for scenario in (build_single(6), build_serial(3, 3), build_nested(3, 2)):
        rep = run_scenario(scenario, cfg)
        assert rep.hot_spec_issues == 0
        assert all(n <= 2 for n in rep.total_issues_of_s.values())


@pytest.mark.parametrize("rob,width", [(4, 1), (8, 2), (16, 4), (32, 1)])
def test_security_bound_independent_of_machine_shape(rob, width):
    # narrow or tiny machines only weaken the attack (truncated replay
    # trees); the defense bound must hold regardless
    for policy in (PolicyKind.DOS_PERFECT, PolicyKind.DOS_BLOOM):
        cfg = MachineConfig(policy=policy, rob_size=rob, width=width,
                            livelock_budget=100_000)
        for scenario in (build_single(5), build_serial(3, 2), build_nested(3, 2)):
            rep = run_scenario(scenario, cfg)
            assert rep.hot_spec_issues == 0, (policy, rob, width, scenario.name)
            assert all(n <= 2 for n in rep.total_issues_of_s.values())


def test_builders_budget_each_handle_slot():
    single = build_single(3)
    assert single.force == {0: ForceMisspeculate(3)}
    assert single.switches == []
    serial = build_serial(2, 1, gap=1, window_pad=4)
    assert serial.force == {0: ForceMisspeculate(1), 7: ForceMisspeculate(1)}
    assert serial.trace.instructions[7].pc == 0x4100
    unbounded = build_unbounded()
    assert unbounded.force == {0: ForceMisspeculate(None)}
    assert unbounded.trace.instructions == single.trace.instructions
    assert (unbounded.name, unbounded.params["replays"]) == ("unbounded-replay", None)
    nested = build_nested(3, 1)
    assert [(fm.times, fm.outer_slot) for fm in nested.force.values()] == [
        (1, None), (1, 0), (1, 1)]


def test_instruction_table_stays_within_its_bound():
    instruction.cache_clear()
    long = build_serial(1, 1, window_pad=INSTRUCTION_TABLE_SIZE + 10)
    assert len(set(long.trace.instructions)) > INSTRUCTION_TABLE_SIZE
    assert instruction.cache_info().currsize == INSTRUCTION_TABLE_SIZE


@pytest.mark.fuzz
@settings(max_examples=20, deadline=None)
@given(pattern=st.sampled_from([str(p) for p in ScenarioPattern]),
       handles=st.integers(1, SCENARIO_CAPS["handles"]),
       replays=st.integers(1, SCENARIO_CAPS["replays"]),
       gap=st.integers(0, SCENARIO_CAPS["gap"]),
       policy=st.sampled_from(list(PolicyKind)))
def test_warm_instruction_table_builds_what_a_cold_one_builds(pattern, handles, replays,
                                                              gap, policy):
    # a short livelock budget keeps the long replay trees cheap; a livelocked
    # row must match too
    config = MachineConfig(policy=policy, livelock_budget=200)
    if pattern == "single":
        handles = 1

    def build():
        try:
            return scenario_from_params(pattern, handles, replays, gap)
        except ConfigError as err:  # nested latencies past the largest budget
            return str(err)

    def outcome(scenario):
        if isinstance(scenario, str):
            return scenario
        return serialize_trace(scenario.trace), run_scenario(scenario, config).as_dict()

    build()  # fills the table with this scenario's instructions
    warm = outcome(build())
    instruction.cache_clear()
    assert outcome(build()) == warm


class _SetObserver:
    """Reference for ``AttackObserver``: the set-based bound check it
    replaced, which also counts the transmit issues itself.  Each squash of
    a transmit PC keeps the set of handle seqs queued at that squash, and
    the PC stays hot until one of its sets is empty."""

    def __init__(self, transmit_pcs):
        self.transmit_pcs = frozenset(transmit_pcs)
        self.total = {pc: 0 for pc in transmit_pcs}
        self.speculative = {pc: 0 for pc in transmit_pcs}
        self.hot_spec_issues = 0
        self.hq = None  # the running segment's handle queue
        self._hot = {}
        self._by_handle = {}

    def on_issue(self, entry, speculative, cycle):
        pc = entry.instr.pc
        if pc not in self.transmit_pcs:
            return
        self.total[pc] += 1
        if speculative:
            self.speculative[pc] += 1
            if self._hot.get(pc):
                self.hot_spec_issues += 1

    def on_squash(self, record):
        hq_seqs = [h.seq for h in self.hq.entries()]
        if not hq_seqs:
            return
        for pc in record.squashed_issued_pcs & self.transmit_pcs:
            live = set(hq_seqs)
            self._hot.setdefault(pc, []).append(live)
            for seq in hq_seqs:
                self._by_handle.setdefault(seq, []).append((pc, live))

    def on_handle_safe(self, seq):
        for pc, live in self._by_handle.pop(seq, ()):
            live.discard(seq)
            if not live:
                self._hot[pc] = [s for s in self._hot.get(pc, ()) if s]


class _QueueToObserver(Pipeline):
    """Hands the reference observer the handle queue it reads at a squash,
    and again after a context switch, which restores a new one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.observer.hq = self.hq

    def switch_context(self):
        super().switch_context()
        self.observer.hq = self.hq


def _reference(scenario, config):
    ref = _SetObserver(scenario.transmit_pcs)
    livelock = False
    with mock.patch.object(experiment, "Pipeline", _QueueToObserver):
        try:
            experiment.run_segmented(scenario.trace, config, scenario.switches,
                                     resolver=ScenarioResolver(scenario.force), observer=ref)
        except LivelockError:
            livelock = True
    return ref, livelock


_TRANSMIT_PCS = (0x5000, 0x5100, 0x5200)
_HANDLE_ROWS = [(InstructionKind.LOAD, ShadowKind.E), (InstructionKind.BRANCH, ShadowKind.C),
                (InstructionKind.STORE, ShadowKind.D), (InstructionKind.LOAD, ShadowKind.M)]


@st.composite
def _random_attacks(draw, policy):
    ins = []
    force = {}
    for seq in range(draw(st.integers(4, 40))):
        row = draw(st.sampled_from(["plain", "transmit", "handle", "handle"]))
        if row == "handle":
            kind, shadow = draw(st.sampled_from(_HANDLE_ROWS))
            ins.append(Instruction(0x4000 + 4 * seq, kind, shadow,
                                   draw(st.integers(1, 3)), draw(st.integers(1, 12))))
            if draw(st.booleans()):
                times = draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5]))
                outer = draw(st.sampled_from([None, *force]))
                force[seq] = ForceMisspeculate(times, outer)
        elif row == "transmit":
            ins.append(Instruction(draw(st.sampled_from(_TRANSMIT_PCS)),
                                   InstructionKind.TRANSMIT, exec_latency=draw(st.integers(1, 3))))
        else:
            ins.append(Instruction(0x70000 + 4 * seq, InstructionKind.PLAIN))
    scenario = Scenario(
        name="random", pattern=ScenarioPattern.SERIAL,
        trace=Trace(name="random", seed=0, instructions=ins), force=force,
        transmit_pcs=_TRANSMIT_PCS,
        switches=draw(st.lists(st.integers(1, len(ins) - 1), max_size=3)))
    config = MachineConfig(
        policy=policy, rob_size=draw(st.integers(4, 32)), width=draw(st.integers(1, 8)),
        bits=draw(st.sampled_from([8, 64])), hashes=draw(st.integers(1, 2)),
        window_len=draw(st.sampled_from([0, 4, None])), livelock_budget=200)
    return scenario, config


@pytest.mark.fuzz
@pytest.mark.parametrize("policy", list(PolicyKind))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_observer_bound_matches_the_set_based_reference(policy, data):
    # one youngest handle per hot PC, and the pipeline's per-PC counts, give
    # what a set of queued handles per squash and the observer's own counts did
    scenario, config = data.draw(_random_attacks(policy))
    report = run_scenario(scenario, config)
    ref, livelock = _reference(scenario, config)
    assert report.livelock == livelock
    assert report.hot_spec_issues == ref.hot_spec_issues
    assert report.total_issues_of_s == ref.total
    assert report.spec_executions_of_s == ref.speculative
    assert report.attack_region_executions == sum(ref.total.values())
    if policy is not PolicyKind.BASELINE:
        assert report.hot_spec_issues == 0
