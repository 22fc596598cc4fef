"""In-memory span tracer for the per-layer run.

The simulator has no tracing of its own, so the benchmark wraps the public
entry points of each layer from outside (`instrument`) and removes the
wrappers again afterwards.  A span is (name, start, end, parent, request);
the request is the job being simulated.  Self time is a span's duration
minus the time its child spans cover, so each layer's time excludes the
layers it calls.  Every span's self time and count is accumulated; the
first `SPAN_CAP` spans are also kept one by one and written out at the end.

The wrappers cost a Python call and two clock reads per span, which lands
in the caller's self time.  That cost is why per-layer times come from a
separate run and end-to-end times from an untraced one; the difference
between the two is reported as the tracing overhead.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.request = -1
        self._stack: list[list[int]] = []  # open spans: [name id, start, child ns, record index]
        self._rec = {k: array("q") for k in ("name", "parent", "request", "start", "end")}
        self.dropped = 0
        # counts taken at the same boundaries as the spans
        self.idle_ticks = 0
        self.delays = 0
        self.hq_changes = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        rec = self._rec
        idx = len(rec["name"])
        if idx < SPAN_CAP:
            rec["name"].append(nid)
            rec["parent"].append(stack[-1][3] if stack else -1)
            rec["request"].append(self.request)
            rec["start"].append(0)
            rec["end"].append(0)
        else:
            idx = -1
            self.dropped += 1
        stack.append([nid, perf_counter_ns(), 0, idx])

    def exit(self) -> None:
        end = perf_counter_ns()
        nid, start, child, idx = self._stack.pop()
        dur = end - start
        self.self_ns[nid] += dur - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self._rec["start"][idx] = start
            self._rec["end"][idx] = end

    @contextmanager
    def span(self, name: str):
        self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit()

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path) -> int:
        """Write the kept spans as gzip-compressed CSV; returns how many."""
        rec = self._rec
        n = len(rec["name"])
        t0 = rec["start"][0] if n else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,parent,request,name,start_ns,end_ns\n")
            for i in range(n):
                fh.write(f"{i},{rec['parent'][i]},{rec['request'][i]},"
                         f"{self.names[rec['name'][i]]},{rec['start'][i] - t0},"
                         f"{rec['end'][i] - t0}\n")
        return n


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    def spanned(*args, **kwargs):
        enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()
    return spanned


def _wrap_tick(tracer: Tracer, fn):
    """`Pipeline.tick`, counting idle ticks: nothing committed, issued,
    dispatched or squashed, and the handle queue unchanged."""
    spanned = _wrap(tracer, "pipeline.events", fn)

    def tick(pipe):
        m = pipe.metrics
        before = (m.committed, m.dynamic_executed, m.squashes, pipe.next_seq, tracer.hq_changes)
        spanned(pipe)
        if before == (m.committed, m.dynamic_executed, m.squashes, pipe.next_seq,
                      tracer.hq_changes):
            tracer.idle_ticks += 1
    return tick


def _wrap_decision(tracer: Tracer, fn):
    spanned = _wrap(tracer, "policy.decision", fn)

    def issue_decision(*args, **kwargs):
        reason = spanned(*args, **kwargs)
        if reason is not None:
            tracer.delays += 1
        return reason
    return issue_decision


def _wrap_hq_change(tracer: Tracer, fn, returns_popped: bool = False):
    spanned = _wrap(tracer, "shadows.op", fn)

    def change(*args, **kwargs):
        out = spanned(*args, **kwargs)
        if not returns_popped or out:
            tracer.hq_changes += 1
        return out
    return change


# (module, class or None for a module-level name, attribute, span name or wrapper)
_POINTS = [
    ("pipeline", "Pipeline", "__init__", "pipeline.setup"),
    ("pipeline", "Pipeline", "run", "pipeline.run"),
    ("pipeline", "Pipeline", "tick", _wrap_tick),
    ("pipeline", "Pipeline", "commit", "pipeline.commit"),
    ("pipeline", "Pipeline", "try_issue", "pipeline.issue"),
    ("pipeline", "Pipeline", "dispatch", "pipeline.dispatch"),
    ("pipeline", "Pipeline", "squash_from", "pipeline.squash"),
    # the pipeline calls compute_hashes through its own module namespace
    ("pipeline", None, "compute_hashes", "filters.hash"),
    ("policy", "PolicyState", "issue_decision", _wrap_decision),
    ("policy", "PolicyState", "on_dispatch", "policy.hook"),
    ("policy", "PolicyState", "on_squash", "policy.hook"),
    ("policy", "PolicyState", "on_handle_safe", "policy.hook"),
    ("filters", "RollingFilters", "query", "filters.bloom_query"),
    ("filters", "PerfectFilter", "query", "filters.exact_query"),
    ("filters", "RollingFilters", "record_squash", "filters.record"),
    ("filters", "PerfectFilter", "record", "filters.record"),
    ("filters", "RollingFilters", "on_dispatch", "filters.sweep"),
    ("filters", "RollingFilters", "on_handle_safe", "filters.sweep"),
    ("filters", "PerfectFilter", "on_dispatch", "filters.sweep"),
    ("filters", "PerfectFilter", "on_handle_safe", "filters.sweep"),
    ("shadows", "HandleQueue", "push_handle", _wrap_hq_change),
    ("shadows", "HandleQueue", "mark_resolved", _wrap_hq_change),
    ("shadows", "HandleQueue", "mark_squashed_after", _wrap_hq_change),
    ("shadows", "HandleQueue", "pop_safe",
     lambda t, fn: _wrap_hq_change(t, fn, returns_popped=True)),
    ("shadows", "HandleQueue", "shadows", "shadows.op"),
    ("shadows", "HandleQueue", "oldest_seq", "shadows.op"),
    ("shadows", "HandleQueue", "youngest_handle", "shadows.op"),
    ("shadows", "HandleQueue", "entries", "shadows.op"),
    ("attacks", "ScenarioResolver", "__call__", "attacks.resolver"),
    ("attacks", "AttackObserver", "on_issue", "attacks.observer"),
    ("attacks", "AttackObserver", "on_squash", "attacks.observer"),
    ("attacks", "AttackObserver", "on_handle_safe", "attacks.observer"),
]


@contextmanager
def instrument(tracer: Tracer, sq):
    """Wrap every layer entry point in `_POINTS` for the duration."""
    saved = []
    try:
        for module, cls, attr, how in _POINTS:
            owner = getattr(sq, module)
            if cls is not None:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            wrapper = _wrap(tracer, how, fn) if isinstance(how, str) else how(tracer, fn)
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# Per-layer metrics of one traced pass: name -> (unit, better).
LAYER_METRICS = {
    "pipeline.ticks": ("count", "lower"),
    "pipeline.idle_tick_ratio": ("ratio", "lower"),
    "pipeline.events_s": ("s", "lower"),
    "pipeline.issue_s": ("s", "lower"),
    "pipeline.dispatch_s": ("s", "lower"),
    "pipeline.commit_s": ("s", "lower"),
    "pipeline.squash_s": ("s", "lower"),
    "pipeline.setup_s": ("s", "lower"),
    "policy.decisions": ("count", "lower"),
    "policy.delay_ratio": ("ratio", "lower"),
    "policy.decision_s": ("s", "lower"),
    "policy.hook_s": ("s", "lower"),
    "filters.sweep_s": ("s", "lower"),
    "filters.hash_calls": ("count", "lower"),
    "filters.hash_s": ("s", "lower"),
    "filters.bloom_query_s": ("s", "lower"),
    "filters.exact_query_s": ("s", "lower"),
    "filters.record_s": ("s", "lower"),
    "filters.fp_ratio": ("ratio", "lower"),
    "filters.rotations": ("count", "lower"),
    "filters.clears": ("count", "lower"),
    "shadows.ops": ("count", "lower"),
    "shadows.op_s": ("s", "lower"),
    "tracing.overhead_s": ("s", "lower"),
    "tracing.overhead_ratio": ("ratio", "lower"),
}

# Layers that run on one kind of workload only; the report prints them where
# they run, and they stay out of the JSON result, whose metrics every
# workload reports.
WORKLOAD_LAYER_METRICS = {
    "attacks.resolver_s": "attacks.resolver",
    "attacks.observer_s": "attacks.observer",
    "attacks.build_s": "attacks.build",
    "trace.gen_s": "trace.gen",
}


def layer_values(tracer: Tracer, metrics: list) -> dict[str, float]:
    """Per-layer metrics from one traced pass and the Metrics of its jobs."""
    ticks = tracer.count("pipeline.events")
    decisions = tracer.count("policy.decision")
    delayed = sum(m.delayed_issues for m in metrics if m.policy == "dos-bloom")
    return {
        "pipeline.ticks": ticks,
        "pipeline.idle_tick_ratio": tracer.idle_ticks / ticks if ticks else 0.0,
        "pipeline.events_s": tracer.self_s("pipeline.events"),
        "pipeline.issue_s": tracer.self_s("pipeline.issue"),
        "pipeline.dispatch_s": tracer.self_s("pipeline.dispatch"),
        "pipeline.commit_s": tracer.self_s("pipeline.commit"),
        "pipeline.squash_s": tracer.self_s("pipeline.squash"),
        "pipeline.setup_s": tracer.self_s("pipeline.setup"),
        "policy.decisions": decisions,
        "policy.delay_ratio": tracer.delays / decisions if decisions else 0.0,
        "policy.decision_s": tracer.self_s("policy.decision"),
        "policy.hook_s": tracer.self_s("policy.hook"),
        "filters.sweep_s": tracer.self_s("filters.sweep"),
        "filters.hash_calls": tracer.count("filters.hash"),
        "filters.hash_s": tracer.self_s("filters.hash"),
        "filters.bloom_query_s": tracer.self_s("filters.bloom_query"),
        "filters.exact_query_s": tracer.self_s("filters.exact_query"),
        "filters.record_s": tracer.self_s("filters.record"),
        "filters.fp_ratio": (sum(m.fp_count for m in metrics) / delayed) if delayed else 0.0,
        "filters.rotations": sum(m.rotations for m in metrics),
        "filters.clears": sum(m.filter_clears for m in metrics),
        "shadows.ops": tracer.count("shadows.op"),
        "shadows.op_s": tracer.self_s("shadows.op"),
    }
