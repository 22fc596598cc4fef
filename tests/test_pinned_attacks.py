"""Attack report rows, pinned.

Every ``AttackReport.as_dict()`` row, in key order, of five scenarios under
all four policies: one single, serial and nested pattern each, a nested
chain whose latencies are too compact for the full replay tree, and a
serial scenario switched out and back before each later handle.  The
values were recorded before the report became a view over its scenario
and metrics; a change that means to alter these rows updates them and
says why.
"""

import pytest

from squashsim.attacks import build_nested, build_serial, build_single, run_scenario
from squashsim.config import MachineConfig, PolicyKind


def _scenarios():
    switched = build_serial(3, 2, window_pad=40)
    switched.switches = sorted(switched.force)[1:]
    return {
        "single": build_single(3),
        "serial": build_serial(2, 2),
        "nested": build_nested(3, 2),
        "nested-compact": build_nested(3, 3, resolve_latencies=[7, 5, 3]),
        "serial-switched": switched,
    }


@pytest.mark.parametrize("label", list(_scenarios()))
def test_attack_rows_match_pinned_values(label):
    scenario = _scenarios()[label]
    for policy in PolicyKind:
        row = run_scenario(scenario, MachineConfig(policy=policy)).as_dict()
        assert list(row.items()) == list(PINNED[f"{label}/{policy}"].items()), policy


PINNED: dict[str, dict] = {
    'single/baseline': {
        'scenario': 'single-r3', 'pattern': 'single', 'policy': 'baseline', 'gap': 2,
        'handles': 1, 'replays': 3, 'cycles': 27, 'squashes': 3, 'livelock': False,
        'attack_region_executions': 4, 'spec_executions_of_s': 4, 'total_issues_of_s': 4,
        'hot_spec_issues': 3},
    'single/delay-all': {
        'scenario': 'single-r3', 'pattern': 'single', 'policy': 'delay-all', 'gap': 2,
        'handles': 1, 'replays': 3, 'cycles': 28, 'squashes': 3, 'livelock': False,
        'attack_region_executions': 1, 'spec_executions_of_s': 0, 'total_issues_of_s': 1,
        'hot_spec_issues': 0},
    'single/dos-perfect': {
        'scenario': 'single-r3', 'pattern': 'single', 'policy': 'dos-perfect', 'gap': 2,
        'handles': 1, 'replays': 3, 'cycles': 28, 'squashes': 3, 'livelock': False,
        'attack_region_executions': 2, 'spec_executions_of_s': 1, 'total_issues_of_s': 2,
        'hot_spec_issues': 0},
    'single/dos-bloom': {
        'scenario': 'single-r3', 'pattern': 'single', 'policy': 'dos-bloom', 'gap': 2,
        'handles': 1, 'replays': 3, 'cycles': 37, 'squashes': 3, 'livelock': False,
        'attack_region_executions': 2, 'spec_executions_of_s': 1, 'total_issues_of_s': 2,
        'hot_spec_issues': 0},
    'serial/baseline': {
        'scenario': 'serial-h2-r2', 'pattern': 'serial', 'policy': 'baseline', 'gap': 2,
        'handles': 2, 'replays': 2, 'cycles': 51, 'squashes': 4, 'livelock': False,
        'attack_region_executions': 6, 'spec_executions_of_s': 6, 'total_issues_of_s': 6,
        'hot_spec_issues': 4},
    'serial/delay-all': {
        'scenario': 'serial-h2-r2', 'pattern': 'serial', 'policy': 'delay-all', 'gap': 2,
        'handles': 2, 'replays': 2, 'cycles': 55, 'squashes': 4, 'livelock': False,
        'attack_region_executions': 2, 'spec_executions_of_s': 0, 'total_issues_of_s': 2,
        'hot_spec_issues': 0},
    'serial/dos-perfect': {
        'scenario': 'serial-h2-r2', 'pattern': 'serial', 'policy': 'dos-perfect', 'gap': 2,
        'handles': 2, 'replays': 2, 'cycles': 55, 'squashes': 4, 'livelock': False,
        'attack_region_executions': 4, 'spec_executions_of_s': 2, 'total_issues_of_s': 4,
        'hot_spec_issues': 0},
    'serial/dos-bloom': {
        'scenario': 'serial-h2-r2', 'pattern': 'serial', 'policy': 'dos-bloom', 'gap': 2,
        'handles': 2, 'replays': 2, 'cycles': 110, 'squashes': 4, 'livelock': False,
        'attack_region_executions': 4, 'spec_executions_of_s': 2, 'total_issues_of_s': 4,
        'hot_spec_issues': 0},
    'nested/baseline': {
        'scenario': 'nested-h3-r2', 'pattern': 'nested', 'policy': 'baseline', 'gap': 2,
        'handles': 3, 'latencies': '59,17,3', 'replays': 2, 'cycles': 180, 'squashes': 26,
        'livelock': False, 'attack_region_executions': 27, 'spec_executions_of_s': 27,
        'total_issues_of_s': 27, 'hot_spec_issues': 26},
    'nested/delay-all': {
        'scenario': 'nested-h3-r2', 'pattern': 'nested', 'policy': 'delay-all', 'gap': 2,
        'handles': 3, 'latencies': '59,17,3', 'replays': 2, 'cycles': 200, 'squashes': 2,
        'livelock': False, 'attack_region_executions': 1, 'spec_executions_of_s': 0,
        'total_issues_of_s': 1, 'hot_spec_issues': 0},
    'nested/dos-perfect': {
        'scenario': 'nested-h3-r2', 'pattern': 'nested', 'policy': 'dos-perfect', 'gap': 2,
        'handles': 3, 'latencies': '59,17,3', 'replays': 2, 'cycles': 197, 'squashes': 6,
        'livelock': False, 'attack_region_executions': 2, 'spec_executions_of_s': 2,
        'total_issues_of_s': 2, 'hot_spec_issues': 0},
    'nested/dos-bloom': {
        'scenario': 'nested-h3-r2', 'pattern': 'nested', 'policy': 'dos-bloom', 'gap': 2,
        'handles': 3, 'latencies': '59,17,3', 'replays': 2, 'cycles': 206, 'squashes': 6,
        'livelock': False, 'attack_region_executions': 2, 'spec_executions_of_s': 1,
        'total_issues_of_s': 2, 'hot_spec_issues': 0},
    'nested-compact/baseline': {
        'scenario': 'nested-h3-r3', 'pattern': 'nested', 'policy': 'baseline', 'gap': 2,
        'handles': 3, 'latencies': '7,5,3', 'replays': 3, 'cycles': 35, 'squashes': 11,
        'livelock': False, 'attack_region_executions': 10, 'spec_executions_of_s': 10,
        'total_issues_of_s': 10, 'hot_spec_issues': 9},
    'nested-compact/delay-all': {
        'scenario': 'nested-h3-r3', 'pattern': 'nested', 'policy': 'delay-all', 'gap': 2,
        'handles': 3, 'latencies': '7,5,3', 'replays': 3, 'cycles': 39, 'squashes': 3,
        'livelock': False, 'attack_region_executions': 1, 'spec_executions_of_s': 0,
        'total_issues_of_s': 1, 'hot_spec_issues': 0},
    'nested-compact/dos-perfect': {
        'scenario': 'nested-h3-r3', 'pattern': 'nested', 'policy': 'dos-perfect', 'gap': 2,
        'handles': 3, 'latencies': '7,5,3', 'replays': 3, 'cycles': 36, 'squashes': 5,
        'livelock': False, 'attack_region_executions': 2, 'spec_executions_of_s': 2,
        'total_issues_of_s': 2, 'hot_spec_issues': 0},
    'nested-compact/dos-bloom': {
        'scenario': 'nested-h3-r3', 'pattern': 'nested', 'policy': 'dos-bloom', 'gap': 2,
        'handles': 3, 'latencies': '7,5,3', 'replays': 3, 'cycles': 45, 'squashes': 5,
        'livelock': False, 'attack_region_executions': 2, 'spec_executions_of_s': 1,
        'total_issues_of_s': 2, 'hot_spec_issues': 0},
    'serial-switched/baseline': {
        'scenario': 'serial-h3-r2', 'pattern': 'serial', 'policy': 'baseline', 'gap': 2,
        'handles': 3, 'replays': 2, 'cycles': 75, 'squashes': 6, 'livelock': False,
        'attack_region_executions': 9, 'spec_executions_of_s': 9, 'total_issues_of_s': 9,
        'hot_spec_issues': 6},
    'serial-switched/delay-all': {
        'scenario': 'serial-h3-r2', 'pattern': 'serial', 'policy': 'delay-all', 'gap': 2,
        'handles': 3, 'replays': 2, 'cycles': 78, 'squashes': 6, 'livelock': False,
        'attack_region_executions': 3, 'spec_executions_of_s': 0, 'total_issues_of_s': 3,
        'hot_spec_issues': 0},
    'serial-switched/dos-perfect': {
        'scenario': 'serial-h3-r2', 'pattern': 'serial', 'policy': 'dos-perfect', 'gap': 2,
        'handles': 3, 'replays': 2, 'cycles': 78, 'squashes': 6, 'livelock': False,
        'attack_region_executions': 6, 'spec_executions_of_s': 3, 'total_issues_of_s': 6,
        'hot_spec_issues': 0},
    'serial-switched/dos-bloom': {
        'scenario': 'serial-h3-r2', 'pattern': 'serial', 'policy': 'dos-bloom', 'gap': 2,
        'handles': 3, 'replays': 2, 'cycles': 166, 'squashes': 6, 'livelock': False,
        'attack_region_executions': 6, 'spec_executions_of_s': 3, 'total_issues_of_s': 6,
        'hot_spec_issues': 0},
}
