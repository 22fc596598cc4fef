"""Mid-level orchestration: policy comparisons, context interleaving, sweeps."""

from __future__ import annotations

from dataclasses import replace
from itertools import product, zip_longest

from .config import MachineConfig, PolicyKind
from .metrics import Metrics
from .pipeline import LivelockError, Pipeline
from .pipeline import run as run_workload  # the name the CLI, the sweeps and the benchmark call
from .policy import PolicyState, restore_context, save_context
from .trace import Trace


def run_policies(trace: Trace, config: MachineConfig,
                 policies: list[PolicyKind] | None = None) -> dict[PolicyKind, Metrics]:
    """Run one trace under several policies with otherwise identical config."""
    out = {}
    for kind in policies or list(PolicyKind):
        out[kind] = run_workload(trace, config.with_policy(kind))
    return out


def _segments(trace: Trace, boundaries: list[int]) -> list[Trace]:
    n = len(trace.instructions)
    cuts = sorted({b for b in boundaries if 0 < b < n})
    return [Trace(name=f"{trace.name}[{lo}:{hi}]", seed=trace.seed,
                  instructions=trace.instructions[lo:hi], start=trace.start + lo)
            for lo, hi in zip([0] + cuts, cuts + [n])]


def run_segmented(trace: Trace, config: MachineConfig, boundaries: list[int],
                  context_id: int = 0, resolver=None, observer=None) -> Metrics:
    """Run one context's trace in segments: ``run_interleaved`` with that
    context alone, so the same livelock rule holds."""
    return run_interleaved({context_id: (trace, boundaries)}, config,
                           resolver=resolver, observer=observer)[context_id]


def run_interleaved(workloads: dict[int, tuple[Trace, list[int]]], config: MachineConfig,
                    resolver=None, observer=None) -> dict[int, Metrics]:
    """Round-robin contexts at their segment boundaries, in context-id order,
    and merge each context's per-segment metrics under its whole trace's id.

    A segment is a slice of the trace whose ``start`` is the cut point, so
    every instruction keeps its whole-trace position: a resolver keyed by
    trace position sees the same positions as in an unsegmented run, and
    the pipeline restarts a squash relative to the segment's ``start``.
    A context's first segment starts from a fresh ``PolicyState``; each
    later one from its drained state saved to a blob and restored, as a
    context switch does.  The resolver and the observer see every context.
    A livelock in any segment re-raises with the merged metrics of that
    context's segments run so far.
    """
    segments = {cid: _segments(*workloads[cid]) for cid in sorted(workloads)}
    states = {cid: PolicyState(config, context_id=cid) for cid in segments}
    totals = {cid: Metrics(trace_id=workloads[cid][0].trace_id, policy=str(config.policy))
              for cid in segments}
    for round_no, round_ in enumerate(zip_longest(*segments.values())):
        for cid, seg in zip(segments, round_):
            if seg is None:
                continue  # this context has run all its segments
            if round_no:  # scheduled again after yielding at a boundary
                states[cid] = restore_context(save_context(states[cid]), config, cid)
            pipe = Pipeline(seg, config, policy=states[cid], resolver=resolver, observer=observer)
            try:
                totals[cid].merge(pipe.run())
            except LivelockError as err:
                err.metrics = totals[cid].merge(err.metrics)
                raise
    return totals


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
