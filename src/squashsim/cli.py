"""Command-line harness: simulate workloads, run attack scenarios, sweep filters.

Exit codes: 0 success, 2 configuration or input error, 3 livelock
(sustained replay) detected.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import fields as dataclass_fields

from .attacks import build_nested, build_serial, build_single, run_scenario
from .config import ConfigError, MachineConfig, PolicyKind
from .experiment import run_sweep, run_workload, sweep_points
from .golden import golden_passed, run_golden
from .pipeline import LivelockError
from .trace import TraceFormatError, load_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LIVELOCK = 3

# The largest scenario the CLI builds (the builders take any size): a run
# grows with handles * replays, and its trace with handles * gap.
SCENARIO_CAPS = {"handles": 64, "replays": 256, "gap": 256}
# The most points a sweep runs, each one a whole simulation of the trace.
SWEEP_POINTS_CAP = 256

def _add_machine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--policy", choices=[str(k) for k in PolicyKind])
    p.add_argument("--bits", type=int, help="Bloom filter bits m (power of two, at most 65536)")
    p.add_argument("--hashes", type=int, help="hash functions k per filter")
    p.add_argument("--filters", type=int, help="rolling filter count (2 to 64)")
    p.add_argument("--threshold", type=int, help="saturation threshold in set bits")
    p.add_argument("--rob", type=int, dest="rob_size", help="reorder buffer entries")
    p.add_argument("--width", type=int, help="issue/commit width")
    p.add_argument("--seed", type=int)
    p.add_argument("--oracle", action="store_true", default=None,
                   help="run the exact-set oracle in lockstep (false-positive accounting)")
    p.add_argument("--window-len", type=int, dest="window_len",
                   help="deferred-clear window in dynamic instructions")
    p.add_argument("--budget", type=int, dest="livelock_budget",
                   help="livelock cycle budget (at most 1048576)")
    p.add_argument("--fp-counting", choices=["evaluation", "entry"], dest="fp_counting",
                   help="count a false positive per delayed check or per delay episode")


def _add_output_flags(p: argparse.ArgumentParser, default_format: str = "table") -> None:
    p.add_argument("--format", choices=["table", "csv", "json-lines"], default=default_format)
    p.add_argument("--out", help="also write the records to this file in the chosen format")


def config_values(args: argparse.Namespace) -> dict:
    """Config file values, overridden by the machine flags (each flag's
    dest is its MachineConfig field)."""
    names = [f.name for f in dataclass_fields(MachineConfig)]
    values: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(names)
        if unknown:
            raise ConfigError(f"unknown config file keys: {sorted(unknown)}")
        values.update(file_cfg)
    for name in names:
        v = getattr(args, name, None)
        if v is not None:
            values[name] = v
    return values


# -- report rendering -----------------------------------------------------------


def _render(rows: list[dict], fmt: str) -> str:
    if not rows:
        return ""
    if fmt == "json-lines":
        return "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"
    keys = list(rows[0].keys())
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
        return buf.getvalue()
    # table
    cells = [[_fmt_cell(r.get(k)) for k in keys] for r in rows]
    widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
    lines = ["  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _fmt_cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    text = _render(rows, args.format)
    sys.stdout.write(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if args.format != "table" else _render(rows, "csv"))


# -- subcommands ------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.golden:
        # config_values holds the machine flags once --config is ruled out
        if args.trace or args.config or args.out or args.format != "table" or config_values(args):
            raise ConfigError("simulate: --golden takes no trace, config, output or machine flags")
        steps = run_golden()
        for s in steps:
            status = "pass" if s.passed else "FAIL"
            print(f"step {s.step}: {status}  {s.description}")
            for f in s.failures:
                print(f"    mismatch: {f}")
        return EXIT_OK if golden_passed(steps) else 1
    if not args.trace:
        raise ConfigError("simulate: --trace is required (or --golden)")
    config = MachineConfig(**config_values(args))
    trace = load_trace(args.trace)
    metrics = run_workload(trace, config)
    row = {
        "policy": str(config.policy),
        "seed": config.seed,
        "rob": config.rob_size,
        "width": config.width,
        "bits": config.bits,
        "hashes": config.hashes,
        "filters": config.filters,
    }
    row.update(metrics.as_dict())
    _emit([row], args)
    return EXIT_OK


def _build_scenario(args: argparse.Namespace):
    if args.scenario:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            return parse_scenario_file(fh.read())
    if not args.pattern:
        raise ConfigError("attack: --pattern or --scenario is required")
    return scenario_from_params(args.pattern, args.handles, args.replays, args.gap,
                                args.latencies)


def scenario_from_params(pattern: str, handles: int, replays: int, gap: int,
                         latencies: str | None = None):
    for name, value in (("handles", handles), ("replays", replays), ("gap", gap)):
        if value > SCENARIO_CAPS[name]:
            raise ConfigError(f"scenario {name} must be <= {SCENARIO_CAPS[name]}, got {value}")
    if latencies is not None and pattern != "nested":
        raise ConfigError(f"latencies apply to the nested pattern only, not {pattern!r}")
    if pattern == "single":
        if handles != 1:
            raise ConfigError(f"the single pattern has one handle, got handles {handles}")
        return build_single(replays, gap=gap)
    if pattern == "serial":
        return build_serial(handles, replays, gap=gap)
    if pattern == "nested":
        try:
            lats = [int(x) for x in latencies.split(",")] if latencies else None
        except ValueError:
            raise ConfigError(f"latencies must be integers, got {latencies!r}") from None
        return build_nested(handles, replays, gap=gap, resolve_latencies=lats)
    raise ConfigError(f"unknown pattern {pattern!r}")


def parse_scenario_file(text: str):
    """Scenario files are `key value` lines, one per key: pattern, handles,
    replays, gap, latencies (comma-separated, nested only).  `#` starts a
    comment."""
    keys: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ConfigError(f"scenario line {line_no}: expected 'key value'")
        key = parts[0].lower()
        if key in keys or key not in ("pattern", "handles", "replays", "gap", "latencies"):
            what = "repeated" if key in keys else "unknown"
            raise ConfigError(f"scenario line {line_no}: {what} key {key!r}")
        keys[key] = parts[1].strip()
    try:
        pattern = keys["pattern"]
        handles = int(keys.get("handles", "1"))
        replays = int(keys.get("replays", "1"))
        gap = int(keys.get("gap", "2"))
    except KeyError as exc:
        raise ConfigError(f"scenario file missing key: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"scenario file: {exc}") from None
    return scenario_from_params(pattern, handles, replays, gap, keys.get("latencies"))


def cmd_attack(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    values = config_values(args)
    config = MachineConfig(**values)
    # a policy named by --policy or in the config file runs alone
    policies = [config.policy] if "policy" in values else list(PolicyKind)
    rows = []
    saw_livelock = False
    for kind in policies:
        report = run_scenario(scenario, config.with_policy(kind))
        saw_livelock |= report.livelock
        rows.append(report.as_dict())
    _emit(rows, args)
    return EXIT_LIVELOCK if saw_livelock else EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty range")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    config = MachineConfig(**config_values(args))
    grid = {
        "bits": args.sweep_bits or [config.bits],
        "hashes": args.sweep_hashes or [config.hashes],
        "filters": args.sweep_filters or [config.filters],
        "thresholds": args.sweep_threshold or [config.threshold],
    }
    n_points = math.prod(len(values) for values in grid.values())
    if n_points > SWEEP_POINTS_CAP:
        raise ConfigError(f"a sweep must have <= {SWEEP_POINTS_CAP} points, got {n_points}")
    trace = load_trace(args.trace)
    points = sweep_points(config, **grid)
    rows = run_sweep(trace, points)
    _emit(rows, args)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squashsim",
        description="Out-of-order speculation simulator with a delay-on-squash replay defense",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trace under one policy")
    p_sim.add_argument("--trace", help="trace file path")
    p_sim.add_argument("--golden", action="store_true",
                       help="run the six-step tracking walkthrough instead of a trace")
    _add_machine_flags(p_sim)
    _add_output_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_atk = sub.add_parser("attack", help="run a replay-attack scenario across policies")
    p_atk.add_argument("--pattern", choices=["single", "serial", "nested"])
    p_atk.add_argument("--handles", type=int, default=1)
    p_atk.add_argument("--replays", type=int, default=1)
    p_atk.add_argument("--gap", type=int, default=2,
                       help="instructions between a handle and its side-channel")
    p_atk.add_argument("--latencies", help="comma-separated nested resolve latencies, outermost first")
    p_atk.add_argument("--scenario", help="scenario file (overrides --pattern/--handles/...)")
    _add_machine_flags(p_atk)
    _add_output_flags(p_atk)
    p_atk.set_defaults(func=cmd_attack)

    p_swp = sub.add_parser("sweep", help="cartesian sweep of filter parameters")
    p_swp.add_argument("--trace", required=True)
    p_swp.add_argument("--sweep-bits", type=_int_list, metavar="M[,M...]")
    p_swp.add_argument("--sweep-hashes", type=_int_list, metavar="K[,K...]")
    p_swp.add_argument("--sweep-filters", type=_int_list, metavar="N[,N...]")
    p_swp.add_argument("--sweep-threshold", type=_int_list, metavar="T[,T...]")
    _add_machine_flags(p_swp)
    _add_output_flags(p_swp, default_format="csv")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LivelockError as err:
        print(f"livelock: {err}", file=sys.stderr)
        return EXIT_LIVELOCK
    # the typed input errors only: a ValueError from a program bug is a traceback
    except (ConfigError, TraceFormatError, UnicodeDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
