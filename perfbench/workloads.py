"""Workload definitions: inputs from a seed, the jobs of one pass, their checks
and the rows that make up the correctness digest.

A *job* is one simulation: one `Pipeline` run under one policy.  A *run*
is what a user waits on and what `run_ms` times: on `loop` one trace under
all four policies (four jobs), on `attack` and `sweep` a single job.  A
*pass* is every job of the workload once, in a fixed order; its digest is
the SHA-256 of the per-job digests.

The package is passed in as a namespace (`sq`) instead of being imported
here, because the set-up measurement imports it afresh on every repetition.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

POLICIES = ("baseline", "delay-all", "dos-perfect", "dos-bloom")

# Sizes.  Every seed changes which loop instructions misspeculate, and so
# how much work a pass holds; the pass spreads that over many independent
# traces so throughput barely depends on the seed (see README.md).
SIZES = {
    "loop": {"body": 40, "iterations": 50, "traces": 64, "rob": 64},
    "attack": {"handles": 6, "replays": 8},
    "sweep": {"body": 128, "iterations": 40, "traces": 12, "point_traces": 6,
              "bits": (32, 256, 4096), "hashes": (1, 2, 4), "filters": (2, 3)},
}

_MODULES = ("squashsim", "squashsim.attacks", "squashsim.experiment",
            "squashsim.filters", "squashsim.pipeline", "squashsim.policy",
            "squashsim.shadows", "squashsim.trace")


class MissingProgram(RuntimeError):
    """The checkout holds no `src/squashsim` to benchmark."""


def load_squashsim(fresh: bool) -> SimpleNamespace:
    """Import the simulator from the checkout's `src/`.  With `fresh`, drop
    any earlier import first so the import cost is paid again."""
    if not (SRC / "squashsim" / "__init__.py").is_file():
        raise MissingProgram(f"no squashsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "squashsim" or m.startswith("squashsim.")]:
            del sys.modules[name]
    mods = {name.rpartition(".")[2]: importlib.import_module(name) for name in _MODULES}
    return SimpleNamespace(**mods)


@dataclass
class Job:
    label: str                    # names the job in digests and reports
    run: int                      # index of the user-visible run it belongs to
    policy: str
    call: Callable[[], object]    # returns Metrics, or an AttackReport on `attack`
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    spec: str                     # size fingerprint; reference digests are keyed by it
    jobs: list[Job]


def spec_of(name: str) -> str:
    return name + ":" + json.dumps(SIZES[name], sort_keys=True, separators=(",", ":"))


# -- per-job checks -------------------------------------------------------------


def _metrics_invariants(m, expect_committed: int) -> list[str]:
    bad = []
    if m.committed != expect_committed:
        bad.append(f"committed {m.committed} of {expect_committed}")
    if m.dynamic_executed != m.committed + m.squashed_executions:
        bad.append("dynamic_executed != committed + squashed_executions")
    if m.perfect_only_count:
        bad.append(f"perfect_only_count {m.perfect_only_count} (Bloom false negative)")
    return bad


def _attack_check(policy: str, n_instr: int):
    defended = policy in ("dos-perfect", "dos-bloom")

    def check(rep) -> list[str]:
        if rep.livelock:
            return ["unexpected livelock"]
        bad = _metrics_invariants(rep.metrics, n_instr)
        if defended:
            if rep.hot_spec_issues:
                bad.append(f"hot_spec_issues {rep.hot_spec_issues}")
            worst = max(rep.total_issues_of_s.values())
            if worst > 2:
                bad.append(f"a transmit PC issued {worst} times")
        return bad
    return check


# -- workloads ------------------------------------------------------------------


def build(name: str, seed: int, sq: SimpleNamespace, span=None) -> Workload:
    """Generate the inputs of a workload.  `span(layer)` is an optional
    context manager that the traced run uses around input generation."""
    span = span or (lambda layer: contextlib.nullcontext())
    size = SIZES[name]
    jobs: list[Job] = []
    MachineConfig = sq.squashsim.MachineConfig

    if name == "loop":
        # one trace seed per trace, all derived from the workload seed
        for t in range(size["traces"]):
            tseed = seed * size["traces"] + t
            with span("trace.gen"):
                trace = sq.trace.gen_loop_trace(size["body"], size["iterations"], 0.05, tseed)
            for policy in POLICIES:
                config = MachineConfig(rob_size=size["rob"], policy=policy, seed=seed, oracle=True)
                jobs.append(Job(f"loop/t{tseed}/{policy}", t, policy,
                                partial(sq.pipeline.run, trace, config),
                                partial(_metrics_invariants, expect_committed=len(trace))))

    elif name == "attack":
        # the acceptance-criterion-2 grid at the default machine config
        compact = lambda h: [3 + 2 * (h - i) for i in range(1, h + 1)]
        a = sq.attacks
        with span("attacks.build"):
            scenarios = []
            for h in range(1, size["handles"] + 1):
                for r in range(1, size["replays"] + 1):
                    scenarios.append(a.build_serial(h, r))
                    if h == 1:
                        scenarios.append(a.build_single(r))
                    if h * r <= 8:
                        scenarios.append(a.build_nested(h, r))
                    else:
                        scenarios.append(a.build_nested(h, r, resolve_latencies=compact(h)))
        for sc in scenarios:
            for policy in POLICIES:
                config = MachineConfig(policy=policy, seed=seed)
                jobs.append(Job(f"attack/{sc.name}/{policy}", len(jobs), policy,
                                partial(a.run_scenario, sc, config),
                                _attack_check(policy, len(sc.trace))))

    elif name == "sweep":
        base = MachineConfig(policy="dos-bloom", oracle=True, seed=seed, fp_counting="entry")
        points = sq.experiment.sweep_points(base, list(size["bits"]), list(size["hashes"]),
                                            list(size["filters"]), [None])
        for t in range(size["traces"]):
            tseed = seed * size["traces"] + t
            with span("trace.gen"):
                trace = sq.trace.gen_loop_trace(size["body"], size["iterations"], 0.05, tseed)
            check = partial(_metrics_invariants, expect_committed=len(trace))
            # the other three policies: the references a filter sweep is
            # read against (slowdown, ideal, lower bound).  They are cheap,
            # so they run on more traces than the points, which keeps their
            # throughput from depending on the seed.
            for policy in POLICIES[:3]:
                jobs.append(Job(f"sweep/t{tseed}/{policy}", len(jobs), policy,
                                partial(sq.experiment.run_workload, trace,
                                        base.with_policy(policy)), check))
            if t >= size["point_traces"]:
                continue
            for p in points:
                jobs.append(Job(f"sweep/t{tseed}/dos-bloom/m{p.bits}k{p.hashes}n{p.filters}",
                                len(jobs), "dos-bloom",
                                partial(sq.experiment.run_workload, trace, p), check))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, spec_of(name), jobs)


# -- digests --------------------------------------------------------------------


def result_metrics(result):
    """The Metrics of a job result (an AttackReport carries its own)."""
    return getattr(result, "metrics", result)


def job_digest(label: str, result) -> str:
    """SHA-256 over every Metrics field, plus the AttackReport row on `attack`.

    `Metrics.as_dict()` leaves out the per-PC issue counts and
    `perfect_only_count`; the digest keeps them, so a change in which PCs
    issue speculatively shows."""
    row = {"job": label, "metrics": dataclasses.asdict(result_metrics(result))}
    if hasattr(result, "as_dict"):
        row["report"] = result.as_dict()
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pass_digest(job_digests: list[str]) -> str:
    return hashlib.sha256("\n".join(job_digests).encode()).hexdigest()


REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"


def reference_digest(spec: str, seed: int) -> str | None:
    """The recorded digest for this workload size and seed, if any."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(spec, {}).get(str(seed))
