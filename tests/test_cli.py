import csv
import json

import pytest

from squashsim.cli import EXIT_CONFIG, EXIT_LIVELOCK, EXIT_OK, build_config, main, make_parser
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


def test_simulate_requires_trace_or_golden(capsys):
    assert main(["simulate"]) == EXIT_CONFIG


def test_simulate_missing_trace_file(capsys):
    assert main(["simulate", "--trace", "/nonexistent/x.tr"]) == EXIT_CONFIG


def test_simulate_bad_config_value(capsys, loop_trace):
    assert main(["simulate", "--trace", loop_trace, "--bits", "48"]) == EXIT_CONFIG


def test_simulate_window_beyond_u32_is_config_error(capsys, loop_trace):
    code = main(["simulate", "--trace", loop_trace, "--policy", "dos-bloom",
                 "--window-len", "8589934592"])
    assert code == EXIT_CONFIG


def test_simulate_more_hashes_than_bits_is_config_error(capsys, loop_trace):
    # u32-sized, so only the cap stops a seed derivation that would run for hours
    code = main(["simulate", "--trace", loop_trace, "--policy", "dos-bloom",
                 "--hashes", "4294967295"])
    assert code == EXIT_CONFIG


def test_simulate_livelock_exit_code(capsys, tmp_path):
    path = tmp_path / "slow.tr"
    path.write_text("0 0x10 LOAD - 40 1\n")
    code = main(["simulate", "--trace", str(path), "--budget", "10"])
    assert code == EXIT_LIVELOCK


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


def test_attack_scenario_file(capsys, tmp_path):
    path = tmp_path / "attack.sc"
    path.write_text("# nested replay scenario\npattern nested\nhandles 2\nreplays 2\ngap 2\n")
    code, out = _run(capsys, ["attack", "--scenario", str(path), "--policy", "baseline",
                              "--format", "json-lines"])
    assert code == EXIT_OK
    (row,) = _json_rows(out)
    assert row["attack_region_executions"] == 9


def test_attack_bad_latencies(capsys):
    code = main(["attack", "--pattern", "nested", "--handles", "2", "--replays", "1",
                 "--latencies", "3,14"])
    assert code == EXIT_CONFIG


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


def test_sweep_rejects_empty_range(capsys, loop_trace):
    with pytest.raises(SystemExit):
        main(["sweep", "--trace", loop_trace, "--sweep-bits", ""])


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


def test_machine_flags_store_under_config_field_names():
    args = make_parser().parse_args(["simulate", "--rob", "16", "--budget", "99",
                                     "--recovery", "2", "--window-len", "5"])
    config = build_config(args)
    assert (config.rob_size, config.livelock_budget, config.squash_recovery,
            config.window_len) == (16, 99, 2, 5)


def test_negative_pc_trace_rejected_with_line_number(capsys, tmp_path):
    path = tmp_path / "neg.tr"
    path.write_text("0 0x10 PLAIN - 1 1\n1 -0x4 PLAIN - 1 1\n")
    assert main(["simulate", "--trace", str(path)]) == EXIT_CONFIG
    assert "line 2" in capsys.readouterr().err


def test_out_file_written(capsys, tmp_path, loop_trace):
    out_path = tmp_path / "report.csv"
    code, _ = _run(capsys, ["simulate", "--trace", loop_trace, "--format", "csv",
                            "--out", str(out_path)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 1
