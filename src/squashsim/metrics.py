"""Per-run counters and derived statistics."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

_OFF_ROW = {"row": False}  # field metadata: left out of the report row


@dataclass
class Metrics:
    """Exact counters of one ``Pipeline``'s run: one context, across its
    context switches.

    ``dynamic_executed`` counts issue events, including work that is later
    discarded; ``squashed_executions`` counts the discarded part, so
    ``dynamic_executed == committed + squashed_executions`` always holds.
    """

    trace_id: str = ""
    policy: str = ""
    cycles: int = 0
    dynamic_executed: int = 0
    committed: int = 0
    squashes: int = 0
    squashed_executions: int = 0
    delayed_issues: int = 0
    fp_count: int = 0
    # exact-oracle hits the Bloom filters missed (must stay 0)
    perfect_only_count: int = field(default=0, metadata=_OFF_ROW)
    filter_clears: int = 0
    rotations: int = 0
    per_pc_spec_issues: dict[int, int] = field(default_factory=dict, metadata=_OFF_ROW)
    per_pc_issues: dict[int, int] = field(default_factory=dict, metadata=_OFF_ROW)

    def as_dict(self) -> dict:
        """The report row: every field not marked off-row, then ``fp_rate``."""
        row = {f.name: getattr(self, f.name) for f in fields(self) if f.metadata.get("row", True)}
        row["fp_rate"] = fp_rate(self)
        return row


def fp_rate(metrics: Metrics) -> float | None:
    """Bloom false positives over executed (including squashed) instructions.

    Undefined (None) when nothing executed.
    """
    if metrics.dynamic_executed == 0:
        return None
    return metrics.fp_count / metrics.dynamic_executed


def perf_proxy(metrics_a: Metrics, metrics_b: Metrics) -> float:
    """Relative slowdown cycles_b / cycles_a for runs of the same trace."""
    if metrics_a.trace_id != metrics_b.trace_id:
        raise ValueError(
            f"perf_proxy across different traces: {metrics_a.trace_id!r} vs {metrics_b.trace_id!r}"
        )
    if metrics_a.cycles == 0:
        raise ValueError("reference run has zero cycles")
    return metrics_b.cycles / metrics_a.cycles
