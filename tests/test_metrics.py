import pytest

from squashsim.config import MachineConfig, PolicyKind
from squashsim.experiment import run_policies, run_workload
from squashsim.metrics import Metrics, fp_rate, perf_proxy
from squashsim.trace import gen_loop_trace


def test_fp_rate_trivial_cases():
    assert fp_rate(Metrics(dynamic_executed=100, fp_count=0)) == 0.0
    assert fp_rate(Metrics(dynamic_executed=1000, fp_count=5)) == 0.005
    assert fp_rate(Metrics(dynamic_executed=0, fp_count=0)) is None


def test_perf_proxy_identity_and_mismatch():
    a = Metrics(trace_id="t:1:10", cycles=100)
    b = Metrics(trace_id="t:1:10", cycles=100)
    assert perf_proxy(a, b) == 1.0
    c = Metrics(trace_id="other:1:10", cycles=50)
    with pytest.raises(ValueError):
        perf_proxy(a, c)


def test_perf_proxy_rejects_a_zero_cycle_reference():
    with pytest.raises(ValueError, match="reference run has zero cycles"):
        perf_proxy(Metrics(trace_id="t:1:10"), Metrics(trace_id="t:1:10", cycles=100))


def test_delay_all_slower_than_baseline():
    t = gen_loop_trace(16, 80, 0.1, seed=21)
    res = run_policies(t, MachineConfig(seed=21),
                       [PolicyKind.BASELINE, PolicyKind.DELAY_ALL])
    ratio = perf_proxy(res[PolicyKind.BASELINE], res[PolicyKind.DELAY_ALL])
    assert ratio > 1.0


def test_bloom_no_faster_than_perfect():
    t = gen_loop_trace(16, 80, 0.1, seed=22)
    res = run_policies(t, MachineConfig(seed=22),
                       [PolicyKind.DOS_PERFECT, PolicyKind.DOS_BLOOM])
    assert perf_proxy(res[PolicyKind.DOS_PERFECT], res[PolicyKind.DOS_BLOOM]) >= 1.0


def test_counter_conservation_across_policies():
    t = gen_loop_trace(12, 60, 0.15, seed=4)
    for policy in PolicyKind:
        m = run_workload(t, MachineConfig(policy=policy, seed=4))
        assert m.dynamic_executed == m.committed + m.squashed_executions
        assert m.committed == len(t)
        if policy is PolicyKind.BASELINE:
            assert m.delayed_issues == 0
            assert m.fp_count == 0


def test_fp_bounded_by_delays():
    t = gen_loop_trace(16, 100, 0.08, seed=9)
    m = run_workload(t, MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True, seed=9))
    assert 0 < m.fp_count <= m.delayed_issues


def test_fp_rate_stays_small_on_lightly_squashing_loops():
    # per-episode counting on a lightly squashing loop keeps spurious
    # delays down to a few per thousand executed instructions
    t = gen_loop_trace(128, 300, 0.0005, seed=5)
    m = run_workload(t, MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True,
                                      seed=5, fp_counting="entry"))
    rate = fp_rate(m)
    assert rate is not None
    assert 0.001 < rate < 0.02


def test_as_dict_row_keys_and_order():
    assert list(Metrics().as_dict()) == [
        "trace_id", "policy", "cycles", "dynamic_executed", "committed", "squashes",
        "squashed_executions", "delayed_issues", "fp_count", "filter_clears", "rotations",
        "fp_rate",
    ]
