import contextlib
import csv
import io
import json
import os
import string
import subprocess
import sys
from dataclasses import fields as dataclass_fields
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from squashsim import cli
from squashsim.cli import (
    EXIT_CONFIG,
    EXIT_LIVELOCK,
    EXIT_OK,
    SCENARIO_CAPS,
    SWEEP_POINTS_CAP,
    config_values,
    main,
    make_parser,
    scenario_from_params,
)
from squashsim.config import MachineConfig
from squashsim.trace import gen_loop_trace, save_trace


@pytest.fixture()
def loop_trace(tmp_path):
    path = tmp_path / "loop.tr"
    save_trace(gen_loop_trace(8, 40, 0.1, seed=1), str(path))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _json_rows(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_simulate_baseline_no_delays(capsys, loop_trace):
    code, out = _run(capsys, ["simulate", "--trace", loop_trace, "--policy", "baseline",
                              "--seed", "1", "--format", "json-lines"])
    assert code == EXIT_OK
    (row,) = _json_rows(out)
    assert row["delayed_issues"] == 0
    assert row["policy"] == "baseline"
    assert row["committed"] == 320


def test_simulate_bloom_reports_fp_rate(capsys, loop_trace):
    code, out = _run(capsys, ["simulate", "--trace", loop_trace, "--policy", "dos-bloom",
                              "--bits", "64", "--hashes", "2", "--filters", "2",
                              "--oracle", "--seed", "1", "--format", "json-lines"])
    assert code == EXIT_OK
    (row,) = _json_rows(out)
    assert "fp_rate" in row
    assert row["fp_rate"] is not None


def test_simulate_deterministic_reports(capsys, loop_trace):
    argv = ["simulate", "--trace", loop_trace, "--policy", "dos-bloom", "--seed", "3",
            "--format", "json-lines"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_simulate_table_format(capsys, loop_trace):
    code, out = _run(capsys, ["simulate", "--trace", loop_trace])
    assert code == EXIT_OK
    header = out.splitlines()[0]
    assert "cycles" in header and "policy" in header


def test_simulate_golden(capsys):
    code, out = _run(capsys, ["simulate", "--golden"])
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.startswith("step")]
    assert len(lines) == 6
    assert all("pass" in l for l in lines)


def test_module_entry_point_runs_the_golden_walkthrough():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "squashsim", "simulate", "--golden"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK
    steps = [l for l in done.stdout.splitlines() if l.startswith("step")]
    assert [l.split()[:3] for l in steps] == [["step", f"{n}:", "pass"] for n in range(1, 7)]


def test_simulate_requires_trace_or_golden(capsys):
    assert main(["simulate"]) == EXIT_CONFIG


@pytest.mark.parametrize("extra", [
    ["--trace", "missing.tr", "--policy", "baseline", "--out", "o.csv"],
    ["--trace", "missing.tr"], ["--config", "missing.json"], ["--out", "o.csv"],
    ["--format", "csv"], ["--policy", "baseline"], ["--bits", "64"], ["--oracle"],
])
def test_simulate_golden_takes_no_other_input(capsys, tmp_path, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--golden", *extra])
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert out == ""  # the walkthrough did not run
    assert "--golden takes no trace, config, output or machine flags" in err
    assert list(tmp_path.iterdir()) == []  # and wrote no --out file


def test_simulate_missing_trace_file(capsys):
    assert main(["simulate", "--trace", "/nonexistent/x.tr"]) == EXIT_CONFIG


def test_simulate_bad_config_value(capsys, loop_trace):
    assert main(["simulate", "--trace", loop_trace, "--bits", "48"]) == EXIT_CONFIG


def test_simulate_window_beyond_u32_is_config_error(capsys, loop_trace):
    code = main(["simulate", "--trace", loop_trace, "--policy", "dos-bloom",
                 "--window-len", "8589934592"])
    assert code == EXIT_CONFIG


def test_simulate_more_than_64_filters_is_config_error(capsys, monkeypatch, loop_trace):
    # rejected when the config is made, before any trace or filter is built
    monkeypatch.setattr(cli, "load_trace", None)
    code = main(["simulate", "--trace", loop_trace, "--policy", "dos-bloom", "--filters", "65"])
    assert code == EXIT_CONFIG
    assert "filters must be in [2, 64], got 65" in capsys.readouterr().err


def test_simulate_more_hashes_than_bits_is_config_error(capsys, loop_trace):
    # u32-sized, so only the cap stops a seed derivation that would run for hours
    code = main(["simulate", "--trace", loop_trace, "--policy", "dos-bloom",
                 "--hashes", "4294967295"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("policy, bits, hashes", [
    ("dos-bloom", "131072", "2"),
    ("dos-perfect", "131072", "2"),
    # hashes == bits passes the hashes cap; only the bits cap stops 2**31 seeds
    ("dos-bloom", "2147483648", "2147483648"),
])
def test_simulate_bits_beyond_2_16_is_config_error(capsys, loop_trace, policy, bits, hashes):
    code = main(["simulate", "--trace", loop_trace, "--policy", policy,
                 "--bits", bits, "--hashes", hashes])
    assert code == EXIT_CONFIG
    assert "bits must be a power of two in [2, 2**16]" in capsys.readouterr().err


def test_simulate_livelock_exit_code(capsys, tmp_path):
    path = tmp_path / "slow.tr"
    path.write_text("0 0x10 LOAD - 40 1\n")
    code = main(["simulate", "--trace", str(path), "--budget", "10"])
    assert code == EXIT_LIVELOCK


def test_budget_above_2_20_is_config_error(capsys, loop_trace):
    argv = ["simulate", "--trace", loop_trace, "--budget"]
    assert main(argv + [str(2**20)]) == EXIT_OK
    capsys.readouterr()
    assert main(argv + [str(2**20 + 1)]) == EXIT_CONFIG
    assert "livelock_budget must be in [1, 2**20]" in capsys.readouterr().err


def test_latency_above_2_20_is_config_error(capsys, tmp_path):
    # 2**62 - 1: issued at cycle 1, its done_at would equal the pipeline's NEVER
    path = tmp_path / "slow.tr"
    path.write_text("0 0x400 PLAIN - 4611686018427387903 1\n")
    assert main(["simulate", "--trace", str(path)]) == EXIT_CONFIG
    assert "line 1: exec_latency must be in [1, 2**20]" in capsys.readouterr().err
    code = main(["attack", "--pattern", "nested", "--handles", "2", "--replays", "1",
                 "--latencies", "4611686018427387903,3"])
    assert code == EXIT_CONFIG
    assert "resolve_latency must be in [1, 2**20]" in capsys.readouterr().err


def test_attack_nested_baseline_arithmetic(capsys):
    code, out = _run(capsys, ["attack", "--pattern", "nested", "--handles", "5",
                              "--replays", "1", "--policy", "baseline",
                              "--format", "json-lines"])
    assert code == EXIT_OK
    (row,) = _json_rows(out)
    assert row["attack_region_executions"] == 32


def test_attack_serial_baseline_arithmetic(capsys):
    code, out = _run(capsys, ["attack", "--pattern", "serial", "--handles", "5",
                              "--replays", "1", "--policy", "baseline",
                              "--format", "json-lines"])
    assert code == EXIT_OK
    (row,) = _json_rows(out)
    assert row["attack_region_executions"] == 10


def test_attack_single_bloom_capped(capsys):
    code, out = _run(capsys, ["attack", "--pattern", "single", "--replays", "100",
                              "--policy", "dos-bloom", "--format", "json-lines"])
    assert code == EXIT_OK
    (row,) = _json_rows(out)
    assert row["total_issues_of_s"] <= 2


def test_attack_default_compares_all_policies(capsys):
    code, out = _run(capsys, ["attack", "--pattern", "single", "--replays", "3",
                              "--format", "json-lines"])
    assert code == EXIT_OK
    rows = _json_rows(out)
    assert [r["policy"] for r in rows] == ["baseline", "delay-all", "dos-perfect", "dos-bloom"]


def test_attack_runs_only_the_policy_the_config_file_names(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"policy": "dos-bloom"}')
    code, out = _run(capsys, ["attack", "--pattern", "single", "--replays", "2",
                              "--config", str(path), "--format", "json-lines"])
    assert code == EXIT_OK
    assert [r["policy"] for r in _json_rows(out)] == ["dos-bloom"]
    # a flag still overrides the file
    code, out = _run(capsys, ["attack", "--pattern", "single", "--replays", "2",
                              "--config", str(path), "--policy", "baseline",
                              "--format", "json-lines"])
    assert [r["policy"] for r in _json_rows(out)] == ["baseline"]


def test_attack_scenario_file(capsys, tmp_path):
    path = tmp_path / "attack.sc"
    path.write_text("# nested replay scenario\npattern nested\nhandles 2\nreplays 2\ngap 2\n")
    code, out = _run(capsys, ["attack", "--scenario", str(path), "--policy", "baseline",
                              "--format", "json-lines"])
    assert code == EXIT_OK
    (row,) = _json_rows(out)
    assert row["attack_region_executions"] == 9


def test_attack_oversized_scenario_file_is_config_error(capsys, tmp_path):
    path = tmp_path / "huge.sc"
    path.write_text("pattern serial\nhandles 100000\nreplays 100000\n")
    code = main(["attack", "--scenario", str(path)])
    assert code == EXIT_CONFIG
    assert "scenario handles must be <=" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["handles", "replays", "gap"])
def test_attack_flags_above_the_scenario_caps_are_config_errors(capsys, name):
    cap = SCENARIO_CAPS[name]
    code = main(["attack", "--pattern", "serial", f"--{name}", str(cap + 1)])
    assert code == EXIT_CONFIG
    assert f"scenario {name} must be <= {cap}" in capsys.readouterr().err


def test_scenario_caps_admit_the_largest_scenario():
    caps = SCENARIO_CAPS
    scenario = scenario_from_params("serial", caps["handles"], caps["replays"], caps["gap"])
    assert scenario.params == caps


@pytest.mark.parametrize("text, fragment", [
    ("pattern serial\nhndles 5\n", "line 2: unknown key 'hndles'"),
    ("pattern serial\nhandles 2\nHandles 3\n", "line 3: repeated key 'handles'"),
    ("pattern single\nlatencies 9,3\n", "latencies apply to the nested pattern only"),
    ("pattern single\nhandles 5\n", "the single pattern has one handle, got handles 5"),
    ("pattern ring\n", "unknown pattern 'ring'"),
])
def test_attack_scenario_file_rejects_what_it_would_ignore(capsys, tmp_path, text, fragment):
    path = tmp_path / "attack.sc"
    path.write_text(text)
    assert main(["attack", "--scenario", str(path), "--policy", "baseline"]) == EXIT_CONFIG
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("pattern", ["single", "serial"])
def test_attack_latencies_flag_needs_the_nested_pattern(capsys, pattern):
    code = main(["attack", "--pattern", pattern, "--handles", "2", "--latencies", "9,3"])
    assert code == EXIT_CONFIG
    assert "latencies apply to the nested pattern only" in capsys.readouterr().err


def test_attack_single_pattern_takes_one_handle(capsys):
    code = main(["attack", "--pattern", "single", "--handles", "5", "--policy", "baseline"])
    assert code == EXIT_CONFIG
    assert "the single pattern has one handle, got handles 5" in capsys.readouterr().err
    code, out = _run(capsys, ["attack", "--pattern", "single", "--handles", "1",
                              "--policy", "baseline", "--format", "json-lines"])
    assert code == EXIT_OK
    (row,) = _json_rows(out)
    assert row["handles"] == 1


def test_attack_bad_latencies(capsys):
    code = main(["attack", "--pattern", "nested", "--handles", "2", "--replays", "1",
                 "--latencies", "3,14"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv, fragment", [
    (["--handles", "2", "--latencies", "9,x"], "latencies must be integers, got '9,x'"),
    # the default latencies of nine handles at nine replays pass 2**20
    (["--handles", "9", "--replays", "9"], "resolve_latency must be in [1, 2**20]"),
    (["--handles", "0"], "handles must be >= 1, got 0"),
    (["--replays", "0"], "replays must be >= 1, got 0"),
    (["--gap", "-1"], "gap must be >= 0, got -1"),
])
def test_attack_builder_errors_are_config_errors(capsys, argv, fragment):
    assert main(["attack", "--pattern", "nested", "--policy", "baseline"] + argv) == EXIT_CONFIG
    assert fragment in capsys.readouterr().err


def test_sweep_bits_rows_and_fp_direction(capsys, tmp_path):
    path = tmp_path / "sweep.tr"
    save_trace(gen_loop_trace(64, 60, 0.01, seed=42), str(path))
    code, out = _run(capsys, ["sweep", "--trace", str(path), "--policy", "dos-bloom",
                              "--oracle", "--seed", "42", "--sweep-bits", "32,64,128",
                              "--fp-counting", "entry"])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert [int(r["bits"]) for r in rows] == [32, 64, 128]
    fps = [int(r["fp_count"]) for r in rows]
    assert fps[0] >= fps[2]


def test_sweep_single_point_matches_simulate(capsys, loop_trace):
    code, out = _run(capsys, ["sweep", "--trace", loop_trace, "--policy", "dos-bloom",
                              "--seed", "1", "--format", "json-lines"])
    assert code == EXIT_OK
    (srow,) = _json_rows(out)
    code, out = _run(capsys, ["simulate", "--trace", loop_trace, "--policy", "dos-bloom",
                              "--seed", "1", "--format", "json-lines"])
    (mrow,) = _json_rows(out)
    for key in ("cycles", "committed", "delayed_issues", "fp_count"):
        assert srow[key] == mrow[key]


@pytest.fixture()
def tiny_trace(tmp_path):
    path = tmp_path / "tiny.tr"
    path.write_text("0 0x10 PLAIN - 1 1\n1 0x14 BRANCH C 1 2\n2 0x18 LOAD - 2 1\n")
    return str(path)


def test_sweep_runs_at_most_the_capped_number_of_points(capsys, tiny_trace):
    assert SWEEP_POINTS_CAP == 256
    grid = ["--sweep-bits", "64,128,256,512", "--sweep-hashes", "1,2,3,4",
            "--sweep-filters", "2,3,4,5", "--sweep-threshold", "1,2,3,4"]
    code, out = _run(capsys, ["sweep", "--trace", tiny_trace, *grid])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    # one row per point, in the grid's point order
    assert [tuple(int(r[k]) for k in ("bits", "hashes", "filters", "threshold")) for r in rows] \
        == list(product([64, 128, 256, 512], [1, 2, 3, 4], [2, 3, 4, 5], [1, 2, 3, 4]))
    thresholds = ",".join(str(t) for t in range(1, 258))
    code = main(["sweep", "--trace", tiny_trace, "--bits", "512", "--sweep-threshold", thresholds])
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert out == ""  # rejected before any run
    assert "a sweep must have <= 256 points, got 257" in err


def test_sweep_has_no_jobs_flag(capsys, tiny_trace):
    # a sweep runs its points one after another in one process
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--trace", tiny_trace, "--jobs", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_CONFIG
    assert out == ""
    assert "unrecognized arguments: --jobs 2" in err
    assert "Traceback" not in err


def test_cli_import_leaves_multiprocessing_out():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", "import sys, squashsim.cli; "
                           "print('multiprocessing' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_package_import_leaves_golden_and_cli_out():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", "import sys, squashsim; "
                           "print(sorted({'squashsim.golden', 'squashsim.cli'} & set(sys.modules)))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_sweep_rejects_empty_range(capsys, loop_trace):
    with pytest.raises(SystemExit):
        main(["sweep", "--trace", loop_trace, "--sweep-bits", ""])


def test_sweep_rejects_a_range_that_is_not_integers(capsys, loop_trace):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--trace", loop_trace, "--sweep-bits", "3,x"])
    assert exc.value.code == 2
    assert "expected comma-separated integers, got '3,x'" in capsys.readouterr().err


def test_config_file_and_flag_precedence(capsys, tmp_path, loop_trace):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": "dos-bloom", "bits": 32, "seed": 9}))
    code, out = _run(capsys, ["simulate", "--trace", loop_trace, "--config", str(cfg),
                              "--bits", "128", "--format", "json-lines"])
    assert code == EXIT_OK
    (row,) = _json_rows(out)
    assert row["policy"] == "dos-bloom"  # from file
    assert row["bits"] == 128            # flag overrides file
    assert row["seed"] == 9


def test_config_file_unknown_key(capsys, tmp_path, loop_trace):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    assert main(["simulate", "--trace", loop_trace, "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("content,field", [
    ({"bits": "64"}, "bits"),
    ({"oracle": "no"}, "oracle"),
    ({"rob_size": True}, "rob_size"),
    (5, "JSON object"),
])
def test_config_file_mistyped_value(capsys, tmp_path, loop_trace, content, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    assert main(["simulate", "--trace", loop_trace, "--config", str(cfg)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("data, fragment", [
    (b"[" * 100_000 + b"]" * 100_000, "recursion"),
    (b'{"seed": ' + b"1" * 5000 + b"}", "digits"),
    (b'{"seed": 1', "Expecting"),
    (b'{"seed": "\xff"}', "utf-8"),
], ids=["nested-100000-deep", "5000-digit-int", "truncated", "not-utf-8"])
def test_config_file_that_does_not_decode_is_config_error(capsys, tmp_path, loop_trace,
                                                          data, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    assert main(["simulate", "--trace", loop_trace, "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config file is not valid JSON") and fragment in err


def test_main_does_not_read_a_program_bug_as_bad_input(monkeypatch, loop_trace):
    def bug(*args):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "run_workload", bug)
    with pytest.raises(ValueError, match="not an input error"):
        main(["simulate", "--trace", loop_trace])


def test_machine_flags_store_under_config_field_names():
    args = make_parser().parse_args(["simulate", "--rob", "16", "--budget", "99",
                                     "--window-len", "5"])
    config = MachineConfig(**config_values(args))
    assert (config.rob_size, config.livelock_budget, config.window_len) == (16, 99, 5)


def test_negative_pc_trace_rejected_with_line_number(capsys, tmp_path):
    path = tmp_path / "neg.tr"
    path.write_text("0 0x10 PLAIN - 1 1\n1 -0x4 PLAIN - 1 1\n")
    assert main(["simulate", "--trace", str(path)]) == EXIT_CONFIG
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("first", [1, 5])
def test_trace_whose_first_seq_is_not_0_is_rejected(capsys, tmp_path, first):
    path = tmp_path / "offset.tr"
    path.write_text(f"{first} 0x10 PLAIN - 1 1\n{first + 1} 0x14 PLAIN - 1 1\n")
    assert main(["simulate", "--trace", str(path)]) == EXIT_CONFIG
    assert f"line 1: seq {first} out of order, expected 0" in capsys.readouterr().err


def test_out_file_written(capsys, tmp_path, loop_trace):
    out_path = tmp_path / "report.csv"
    code, _ = _run(capsys, ["simulate", "--trace", loop_trace, "--format", "csv",
                            "--out", str(out_path)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 1


# -- every outside input ends in exit 0, 2 or 3 -----------------------------------
# One strategy per channel.  Each mostly builds well-formed input with a value
# at or past a bound, so the paths that reject input are the ones exercised.

_NUMS = st.integers(-2, 9) | st.sampled_from([65, 257, 2**20 + 1, 2**32, 2**64, 2**62 - 1])
_SMALL = st.integers(-1, 6).map(str)  # a scenario's host time grows with its size
# a fixed alphabet: no Unicode tables to build, and still a NUL and a line separator
_ALPHABET = string.printable + "\x00\u00e9\u2028"
_JUNK = st.text(alphabet=_ALPHABET, max_size=6)
_JUNK_LINE = st.text(alphabet=_ALPHABET, max_size=24)
_WORDS = _SMALL | _NUMS.map(str) | _JUNK
_LATENCIES = st.sampled_from(["9,3", "3,14", "4611686018427387903,3", "5,x", ",", "7"]) | _JUNK
_BUDGETS = st.integers(1, 500).map(str)  # bounds the host time of every run
_POLICIES = st.sampled_from(["baseline", "delay-all", "dos-perfect", "dos-bloom"])
_TINY_TRACE = "0 0x10 PLAIN - 1 1\n1 0x14 BRANCH C 1 2 MISS\n2 0x18 LOAD E 2 1\n"


def _some(draw, options: dict) -> list[tuple[str, str]]:
    """About half the keys of ``options``, each with a drawn value."""
    return [(key, draw(values)) for key, values in options.items() if draw(st.booleans())]


@st.composite
def _config_channel(draw):
    values = st.none() | st.booleans() | _NUMS | st.floats() | _JUNK | st.lists(_NUMS, max_size=2)
    keys = st.sampled_from([f.name for f in dataclass_fields(MachineConfig)] + ["nonsense"])
    text = draw(st.dictionaries(keys, values, max_size=5).map(json.dumps)
                | values.map(json.dumps) | _JUNK_LINE)
    command = draw(st.sampled_from([["simulate", "--trace", "{trace}"],
                                    ["attack", "--pattern", "single"]]))
    return command + ["--config", "{file}", "--budget", draw(_BUDGETS)], text


@st.composite
def _trace_channel(draw):
    lines = []
    for i in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(_JUNK_LINE))
            continue
        fields = [
            str(i) if draw(st.integers(0, 9)) else draw(_WORDS),
            draw(st.integers(0, 2**64).map(hex) | _JUNK),
            draw(st.sampled_from(["PLAIN", "LOAD", "STORE", "BRANCH", "TRANSMIT", "load", "FROB"])),
            draw(st.sampled_from(["-", "E", "C", "D", "M", "m", "Q"])),
            draw(_WORDS),
            draw(_WORDS),
        ]
        fields += draw(st.sampled_from([[], ["MISS"], ["miss"], ["WAT"], ["MISS", "x"]]))
        lines.append(" ".join(fields))
    argv = ["simulate", "--trace", "{file}", "--policy", draw(_POLICIES), "--budget", draw(_BUDGETS)]
    return argv, "\n".join(lines)


_SIZES = _SMALL | _WORDS  # mostly small, so that a drawn scenario runs quickly
_SCENARIO_KEYS = {"handles": _SIZES, "replays": _SIZES, "gap": _SIZES, "latencies": _LATENCIES}


@st.composite
def _scenario_channel(draw):
    pattern = draw(st.sampled_from(["single", "serial", "nested", "ring"]))
    lines = [f"pattern {pattern}"] if draw(st.integers(0, 9)) else []
    lines += [f"{key} {value}" for key, value in _some(draw, _SCENARIO_KEYS)]
    lines += draw(st.lists(st.sampled_from(["Handles 2", "hndles 2", "gap 1", "pattern"])
                           | _JUNK_LINE, max_size=2))
    argv = ["attack", "--scenario", "{file}", "--budget", draw(_BUDGETS)]
    return argv + draw(st.sampled_from([[], ["--policy", "dos-bloom"]])), "\n".join(lines)


_LISTS = st.lists(st.integers(-1, 130).map(str), max_size=3).map(",".join) | _JUNK
_MACHINE_FLAGS = {
    "--policy": _POLICIES | _JUNK,
    "--bits": st.sampled_from(["2", "3", "32", "64", "65536", "131072"]) | _WORDS,
    **{flag: _WORDS for flag in ("--hashes", "--filters", "--threshold", "--rob", "--width",
                                 "--seed", "--window-len")},
    "--fp-counting": st.sampled_from(["entry", "evaluation"]) | _JUNK,
    "--format": st.sampled_from(["table", "csv", "json-lines"]) | _JUNK,
}
_COMMAND_FLAGS = {
    "simulate": {},
    "attack": {"--pattern": st.sampled_from(["single", "serial", "nested", "ring"]),
               **{f"--{key}": values for key, values in _SCENARIO_KEYS.items()}},
    "sweep": {f"--sweep-{name}": _LISTS for name in ("bits", "hashes", "filters", "threshold")},
}


@st.composite
def _flag_channel(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command] if command == "attack" else [command, "--trace", "{trace}"]
    for flag, value in _some(draw, {**_MACHINE_FLAGS, **_COMMAND_FLAGS[command]}):
        argv += [flag, value]
    if draw(st.booleans()):
        argv.append("--oracle")
    return argv + ["--budget", draw(_BUDGETS)], ""


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "tiny.tr").write_text(_TINY_TRACE)
    return {"{file}": work / "in.txt", "{trace}": work / "tiny.tr"}


@pytest.mark.fuzz
@pytest.mark.parametrize("channel", [_config_channel, _trace_channel, _scenario_channel,
                                     _flag_channel], ids=lambda c: c.__name__[1:])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_maps_every_outside_input_to_an_exit_code(fuzz_paths, channel, data):
    argv, text = data.draw(channel())
    fuzz_paths["{file}"].write_text(text, encoding="utf-8")
    argv = [str(fuzz_paths.get(a, a)) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_LIVELOCK), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue()
