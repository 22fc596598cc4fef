"""Each demo prints, byte for byte, the output recorded in
``demos/expected/<name>.txt``, under ``-X dev -W error`` so that a warning
(an unclosed file, a deprecation) fails it too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "demos" / "expected"


def test_every_demo_has_an_expected_output():
    assert [d.stem for d in DEMOS] == sorted(e.stem for e in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_expected_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo)], env=env,
                         capture_output=True, check=True, timeout=300).stdout
    assert out == (EXPECTED / f"{demo.stem}.txt").read_bytes()
