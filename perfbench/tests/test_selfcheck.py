"""Self-check of the benchmark at small sizes.

    python3 -m pytest -q perfbench/tests

Each workload runs twice with identical digests, prints every metric with
its unit and fails no simulation; the traced run gives the untraced digest
and every per-layer metric; without the simulator the benchmark exits
non-zero and prints no result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "loop": {"body": 40, "iterations": 5, "traces": 2, "rob": 64},
    "attack": {"handles": 2, "replays": 2},
    "sweep": {"body": 16, "iterations": 5, "traces": 2, "point_traces": 1,
              "bits": (32, 256), "hashes": (1,), "filters": (2,)},
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Small sizes, spans written under tmp_path, and the test process's own
    squashsim modules restored afterwards (the benchmark re-imports it)."""
    def ours():
        return {k: v for k, v in sys.modules.items()
                if k == "squashsim" or k.startswith("squashsim.")}
    saved = ours()
    for name, size in SMALL.items():
        monkeypatch.setitem(workloads.SIZES, name, size)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    yield
    for k in ours():
        del sys.modules[k]
    sys.modules.update(saved)


def bench(capsys, *argv):
    assert run.main(list(argv)) == 0
    out = capsys.readouterr().out.splitlines()
    digests = [ln.split()[1] for ln in out if ln.startswith("digest ")]
    return out, digests, json.loads(out[-1])


def assert_printed(out, result, units):
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(re.match(rf"\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b", ln)
                   for ln in out), name


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_workload_is_deterministic_and_complete(small, capsys, workload):
    digests = []
    for _ in range(2):
        out, d, result = bench(capsys, "--workload", workload, "--seed", "3",
                               "--seconds", "0.01", "--trace", "0")
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert_printed(out, result, run.END_TO_END)
        assert any(ln.split()[:2] == ["failed_frac", "0.000000"] for ln in out)
        assert all(v["value"] > 0 for v in result["metrics"].values())
        digests += d
    assert len(digests) == 2 and digests[0] == digests[1]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_run_matches_untraced(small, capsys, workload):
    _, untraced, _ = bench(capsys, "--workload", workload, "--seed", "3",
                           "--seconds", "0.01", "--trace", "0")
    out, d, result = bench(capsys, "--workload", workload, "--seed", "3",
                           "--seconds", "0.01", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert d == untraced * 2  # the untraced and the traced pass
    units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    assert_printed(out, result, units)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["pipeline.ticks"] > 0 and m["policy.decisions"] > 0
    assert 0 <= m["pipeline.idle_tick_ratio"] <= 1
    if workload == "attack":
        assert any("attacks.resolver_s" in ln for ln in out)


def test_without_the_simulator_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "loop",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_digest_mismatch_counts_as_failure(small, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "reference_digest", lambda spec, seed: "0" * 64)
    out, _, result = bench(capsys, "--workload", "attack", "--seed", "3",
                           "--seconds", "0.01", "--trace", "0")
    assert not result["correct"] and result["failed"] > 0
    assert any("MISMATCH" in ln for ln in out)
