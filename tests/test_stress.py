"""Randomized cross-policy stress: hard invariants over a wide config space."""

import random

from squashsim.config import MachineConfig, PolicyKind
from squashsim.experiment import run_workload
from squashsim.trace import gen_loop_trace


def test_invariants_hold_across_random_machines():
    rng = random.Random(2024)
    for trial in range(30):
        body = rng.randint(1, 24)
        iters = rng.randint(1, 40)
        rate = rng.choice([0.0, 0.05, 0.2, 0.5, 1.0])
        seed = rng.randint(0, 10_000)
        trace = gen_loop_trace(body, iters, rate, seed)
        cfg_kw = dict(
            rob_size=rng.choice([2, 4, 8, 32, 64]),
            width=rng.choice([1, 2, 4, 8]),
            bits=rng.choice([8, 32, 64, 256]),
            hashes=rng.choice([1, 2, 4]),
            filters=rng.choice([2, 3]),
            window_len=rng.choice([0, 4, 32]),
            seed=seed,
            fp_counting=rng.choice(["evaluation", "entry"]),
        )
        for policy in PolicyKind:
            m = run_workload(
                trace,
                MachineConfig(policy=policy,
                              oracle=policy is PolicyKind.DOS_BLOOM,
                              **cfg_kw),
            )
            ctx = (trial, policy, cfg_kw)
            assert m.committed == len(trace), ctx
            assert m.dynamic_executed == m.committed + m.squashed_executions, ctx
            assert m.fp_count <= m.delayed_issues, ctx
            # the per-PC counts the pipeline derives at the end of the run
            issues, spec = m.per_pc_issues, m.per_pc_spec_issues
            assert sum(issues.values()) == m.dynamic_executed, ctx
            assert all(n <= issues.get(pc, 0) for pc, n in spec.items()), ctx
            assert 0 not in issues.values() and 0 not in spec.values(), ctx
            if policy is PolicyKind.DELAY_ALL:
                assert spec == {}, ctx
            if policy is PolicyKind.BASELINE:
                assert m.delayed_issues == 0, ctx
                assert m.squashes == sum(i.misspeculate for i in trace), ctx
            if policy is PolicyKind.DOS_BLOOM:
                assert m.perfect_only_count == 0, ctx
