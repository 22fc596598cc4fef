"""The benchmark's tracer (``perfbench/tracing.py``) wraps simulator
entry points by name, so a simplification that deletes or renames one
breaks the traced benchmark run.  This catches it in the test suite."""

import importlib.util
from pathlib import Path

import squashsim

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._POINTS


def test_every_traced_entry_point_resolves():
    points = _traced_points()
    assert points
    for module, cls, attr, _ in points:
        owner = getattr(squashsim, module, None)
        if cls is not None:
            owner = getattr(owner, cls, None)
        assert callable(getattr(owner, attr, None)), f"{module}.{cls}.{attr} does not resolve"
