"""Mid-level orchestration: policy comparisons, contexts switched round-robin, sweeps."""

from __future__ import annotations

from dataclasses import replace
from itertools import product, zip_longest

from .config import MachineConfig, PolicyKind
from .metrics import Metrics
from .pipeline import Pipeline
from .pipeline import run as run_workload  # the name the CLI, the sweeps and the benchmark call
from .policy import PolicyState
from .trace import Trace


def run_policies(trace: Trace, config: MachineConfig,
                 policies: list[PolicyKind] | None = None) -> dict[PolicyKind, Metrics]:
    """Run one trace under several policies with otherwise identical config."""
    out = {}
    for kind in policies or list(PolicyKind):
        out[kind] = run_workload(trace, config.with_policy(kind))
    return out


def run_segmented(trace: Trace, config: MachineConfig, boundaries: list[int],
                  context_id: int = 0, resolver=None, observer=None) -> Metrics:
    """Run one context's trace with a context switch at each boundary:
    ``run_interleaved`` with that context alone, so the same livelock rule holds."""
    return run_interleaved({context_id: (trace, boundaries)}, config,
                           resolver=resolver, observer=observer)[context_id]


def run_interleaved(workloads: dict[int, tuple[Trace, list[int]]], config: MachineConfig,
                    resolver=None, observer=None) -> dict[int, Metrics]:
    """Round-robin contexts at their switch points, in context-id order.

    A context is one ``Pipeline`` over its whole trace, from a fresh
    ``PolicyState``.  It runs until every record before its next switch
    point (a record index) has committed, yields, and is switched out and
    back in when scheduled again (``Pipeline.switch_context``).  The
    resolver and the observer see every context.  A livelock raises with
    the metrics of that context's run so far.
    """
    pipes: dict[int, Pipeline] = {}
    stops: dict[int, list[int]] = {}
    for cid in sorted(workloads):
        trace, boundaries = workloads[cid]
        pipes[cid] = Pipeline(trace, config, policy=PolicyState(config, context_id=cid),
                              resolver=resolver, observer=observer)
        n = len(trace)
        stops[cid] = sorted({b for b in boundaries if 0 < b < n}) + [n]
    for round_no, round_ in enumerate(zip_longest(*stops.values())):
        for (cid, pipe), stop in zip(pipes.items(), round_):
            if stop is None:
                continue  # this context has run its whole trace
            if round_no:  # scheduled again after yielding at a switch point
                pipe.switch_context()
            pipe.run(stop)
    return {cid: pipe.metrics for cid, pipe in pipes.items()}


# -- parameter sweeps -----------------------------------------------------------


def sweep_points(base: MachineConfig, bits: list[int], hashes: list[int],
                 filters: list[int], thresholds: list[int | None]) -> list[MachineConfig]:
    """Cartesian product of filter parameters over a base config."""
    points = []
    for m, k, n, t in product(bits, hashes, filters, thresholds):
        points.append(replace(base, bits=m, hashes=k, filters=n, threshold=t))
    return points


def run_sweep(trace: Trace, points: list[MachineConfig]) -> list[dict]:
    """One run of the trace per point, in this process and in point order:
    row ``i`` is the filter parameters of ``points[i]`` and its metrics."""
    rows = []
    for config in points:
        metrics = run_workload(trace, config)
        row = {
            "bits": config.bits,
            "hashes": config.hashes,
            "filters": config.filters,
            "threshold": config.effective_threshold,
            "policy": str(config.policy),
            "seed": config.seed,
        }
        row.update(metrics.as_dict())
        rows.append(row)
    return rows
