"""The benchmark's tracer (``perfbench/tracing.py``) wraps simulator
entry points by name, so a simplification that deletes or renames one
breaks the traced benchmark run.  This catches it in the test suite."""

import importlib.util
from pathlib import Path

import squashsim
from squashsim.config import MachineConfig, PolicyKind
from squashsim.trace import gen_loop_trace

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    points = _tracing()._POINTS
    assert points
    for module, cls, attr, _ in points:
        owner = getattr(squashsim, module, None)
        if cls is not None:
            owner = getattr(owner, cls, None)
        assert callable(getattr(owner, attr, None)), f"{module}.{cls}.{attr} does not resolve"


def test_every_phase_span_fires():
    # a phase folded into another would keep its name resolving but record
    # no span, and its per-layer time would read 0
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, squashsim):
        m = squashsim.run(gen_loop_trace(16, 10, 0.2, 3), MachineConfig(policy=PolicyKind.DOS_BLOOM))
    assert m.squashes > 0 and m.delayed_issues > 0
    for name in ("pipeline.events", "pipeline.commit", "pipeline.issue", "pipeline.dispatch",
                 "pipeline.squash", "policy.decision", "shadows.op"):
        assert tracer.count(name) > 0, name
