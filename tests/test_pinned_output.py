"""Exact simulated output, pinned.

Every ``Metrics`` field of a few small runs, per-PC issue counts included,
is compared with values recorded before the issue-decision cache was added
to the pipeline (``order/dos-bloom``: before the event heap became
per-cycle buckets).  Host-speed work must leave these byte for byte the same;
a change that means to alter simulated output updates them and says why.
"""

from dataclasses import asdict

from squashsim.attacks import build_unbounded, run_scenario
from squashsim.config import MachineConfig, PolicyKind
from squashsim.experiment import run_segmented, run_workload
from squashsim.metrics import Metrics
from squashsim.trace import gen_loop_trace

_TRACE = (24, 20, 0.1, 5)  # gen_loop_trace(body_len, iterations, squash_rate, seed)
_ORDER_TRACE = (64, 10, 0.1, 1)
# small filters, so the runs rotate and clear as well as alias
_FILTERS = {"bits": 32, "filters": 3, "window_len": 16}


def _cases() -> dict[str, Metrics]:
    trace = gen_loop_trace(*_TRACE)
    out = {}
    for counting in ("evaluation", "entry"):
        for policy in PolicyKind:
            config = MachineConfig(policy=policy, oracle=True, seed=5, fp_counting=counting,
                                   **_FILTERS)
            out[f"loop/{policy}/{counting}"] = run_workload(trace, config)
    bloom = MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True, seed=5, **_FILTERS)
    out["segmented/dos-bloom"] = run_segmented(trace, bloom, [90, 200, 260])
    # several resolutions fall due in one cycle here, and an older one squashes
    # younger ones; firing them out of seq order changes the cycle count
    out["order/dos-bloom"] = run_workload(
        gen_loop_trace(*_ORDER_TRACE),
        MachineConfig(policy=PolicyKind.DOS_BLOOM, oracle=True, seed=5))
    for policy in PolicyKind:
        report = run_scenario(build_unbounded(), MachineConfig(policy=policy, livelock_budget=400))
        assert report.livelock
        out[f"livelock/{policy}"] = report.metrics
    return out


def test_simulated_output_matches_pinned_values():
    got = {name: asdict(m) for name, m in _cases().items()}
    assert set(got) == set(PINNED)
    for name, row in PINNED.items():
        assert got[name] == row, name


PINNED: dict[str, dict] = {
    'loop/baseline/evaluation': {
        'trace_id': 'loop-24x20-r0.1:5:480',
        'policy': 'baseline',
        'cycles': 162,
        'dynamic_executed': 901,
        'committed': 480,
        'squashes': 23,
        'squashed_executions': 421,
        'delayed_issues': 0,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {
            0x1004: 38, 0x1008: 34, 0x100c: 35, 0x1010: 33, 0x1014: 33, 0x1018: 35, 0x101c: 34,
            0x1020: 35, 0x1024: 34, 0x1028: 36, 0x102c: 37, 0x1030: 37, 0x1034: 40, 0x1038: 40,
            0x103c: 37, 0x1040: 39, 0x1044: 39, 0x1048: 37, 0x104c: 39, 0x1050: 42, 0x1054: 42,
            0x1058: 42, 0x105c: 37, 0x1000: 34
        },
        'per_pc_issues': {
            0x1000: 38, 0x1004: 38, 0x1008: 34, 0x100c: 36, 0x1010: 33, 0x1014: 35, 0x1018: 35,
            0x101c: 34, 0x1020: 35, 0x1024: 34, 0x1028: 37, 0x102c: 37, 0x1030: 37, 0x1034: 40,
            0x1038: 40, 0x103c: 39, 0x1040: 39, 0x1044: 39, 0x1048: 39, 0x104c: 39, 0x1050: 42,
            0x1054: 42, 0x1058: 42, 0x105c: 37
        },
    },
    'loop/delay-all/evaluation': {
        'trace_id': 'loop-24x20-r0.1:5:480',
        'policy': 'delay-all',
        'cycles': 928,
        'dynamic_executed': 503,
        'committed': 480,
        'squashes': 23,
        'squashed_executions': 23,
        'delayed_issues': 6678,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {},
        'per_pc_issues': {
            0x1000: 23, 0x1004: 20, 0x1008: 20, 0x100c: 22, 0x1010: 20, 0x1014: 22, 0x1018: 20,
            0x101c: 20, 0x1020: 23, 0x1024: 20, 0x1028: 23, 0x102c: 20, 0x1030: 20, 0x1034: 23,
            0x1038: 20, 0x103c: 22, 0x1040: 20, 0x1044: 20, 0x1048: 22, 0x104c: 20, 0x1050: 23,
            0x1054: 20, 0x1058: 20, 0x105c: 20
        },
    },
    'loop/dos-perfect/evaluation': {
        'trace_id': 'loop-24x20-r0.1:5:480',
        'policy': 'dos-perfect',
        'cycles': 221,
        'dynamic_executed': 904,
        'committed': 480,
        'squashes': 23,
        'squashed_executions': 424,
        'delayed_issues': 457,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {
            0x1004: 35, 0x1008: 31, 0x100c: 32, 0x1010: 33, 0x1014: 32, 0x1018: 33, 0x101c: 32,
            0x1020: 35, 0x1024: 32, 0x1028: 34, 0x102c: 34, 0x1030: 34, 0x1034: 37, 0x1038: 37,
            0x103c: 34, 0x1040: 37, 0x1044: 37, 0x1048: 36, 0x104c: 37, 0x1050: 40, 0x1054: 39,
            0x1058: 39, 0x105c: 35, 0x1000: 34
        },
        'per_pc_issues': {
            0x1000: 38, 0x1004: 38, 0x1008: 34, 0x100c: 36, 0x1010: 34, 0x1014: 35, 0x1018: 35,
            0x101c: 34, 0x1020: 35, 0x1024: 34, 0x1028: 37, 0x102c: 37, 0x1030: 37, 0x1034: 40,
            0x1038: 40, 0x103c: 39, 0x1040: 39, 0x1044: 39, 0x1048: 40, 0x104c: 39, 0x1050: 42,
            0x1054: 42, 0x1058: 42, 0x105c: 38
        },
    },
    'loop/dos-bloom/evaluation': {
        'trace_id': 'loop-24x20-r0.1:5:480',
        'policy': 'dos-bloom',
        'cycles': 554,
        'dynamic_executed': 772,
        'committed': 480,
        'squashes': 23,
        'squashed_executions': 292,
        'delayed_issues': 3293,
        'fp_count': 2886,
        'perfect_only_count': 0,
        'filter_clears': 14,
        'rotations': 13,
        'per_pc_spec_issues': {
            0x1004: 27, 0x1008: 25, 0x100c: 24, 0x1010: 25, 0x1014: 24, 0x1018: 24, 0x101c: 23,
            0x1020: 23, 0x1024: 21, 0x1028: 22, 0x102c: 24, 0x1030: 24, 0x1034: 27, 0x1038: 24,
            0x103c: 22, 0x1040: 24, 0x1044: 24, 0x1048: 23, 0x104c: 24, 0x1050: 25, 0x1054: 26,
            0x1058: 24, 0x105c: 22, 0x1000: 27
        },
        'per_pc_issues': {
            0x1000: 35, 0x1004: 32, 0x1008: 30, 0x100c: 31, 0x1010: 31, 0x1014: 31, 0x1018: 31,
            0x101c: 30, 0x1020: 31, 0x1024: 29, 0x1028: 31, 0x102c: 30, 0x1030: 30, 0x1034: 33,
            0x1038: 33, 0x103c: 34, 0x1040: 32, 0x1044: 32, 0x1048: 34, 0x104c: 33, 0x1050: 37,
            0x1054: 36, 0x1058: 34, 0x105c: 32
        },
    },
    'loop/baseline/entry': {
        'trace_id': 'loop-24x20-r0.1:5:480',
        'policy': 'baseline',
        'cycles': 162,
        'dynamic_executed': 901,
        'committed': 480,
        'squashes': 23,
        'squashed_executions': 421,
        'delayed_issues': 0,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {
            0x1004: 38, 0x1008: 34, 0x100c: 35, 0x1010: 33, 0x1014: 33, 0x1018: 35, 0x101c: 34,
            0x1020: 35, 0x1024: 34, 0x1028: 36, 0x102c: 37, 0x1030: 37, 0x1034: 40, 0x1038: 40,
            0x103c: 37, 0x1040: 39, 0x1044: 39, 0x1048: 37, 0x104c: 39, 0x1050: 42, 0x1054: 42,
            0x1058: 42, 0x105c: 37, 0x1000: 34
        },
        'per_pc_issues': {
            0x1000: 38, 0x1004: 38, 0x1008: 34, 0x100c: 36, 0x1010: 33, 0x1014: 35, 0x1018: 35,
            0x101c: 34, 0x1020: 35, 0x1024: 34, 0x1028: 37, 0x102c: 37, 0x1030: 37, 0x1034: 40,
            0x1038: 40, 0x103c: 39, 0x1040: 39, 0x1044: 39, 0x1048: 39, 0x104c: 39, 0x1050: 42,
            0x1054: 42, 0x1058: 42, 0x105c: 37
        },
    },
    'loop/delay-all/entry': {
        'trace_id': 'loop-24x20-r0.1:5:480',
        'policy': 'delay-all',
        'cycles': 928,
        'dynamic_executed': 503,
        'committed': 480,
        'squashes': 23,
        'squashed_executions': 23,
        'delayed_issues': 6678,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {},
        'per_pc_issues': {
            0x1000: 23, 0x1004: 20, 0x1008: 20, 0x100c: 22, 0x1010: 20, 0x1014: 22, 0x1018: 20,
            0x101c: 20, 0x1020: 23, 0x1024: 20, 0x1028: 23, 0x102c: 20, 0x1030: 20, 0x1034: 23,
            0x1038: 20, 0x103c: 22, 0x1040: 20, 0x1044: 20, 0x1048: 22, 0x104c: 20, 0x1050: 23,
            0x1054: 20, 0x1058: 20, 0x105c: 20
        },
    },
    'loop/dos-perfect/entry': {
        'trace_id': 'loop-24x20-r0.1:5:480',
        'policy': 'dos-perfect',
        'cycles': 221,
        'dynamic_executed': 904,
        'committed': 480,
        'squashes': 23,
        'squashed_executions': 424,
        'delayed_issues': 457,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {
            0x1004: 35, 0x1008: 31, 0x100c: 32, 0x1010: 33, 0x1014: 32, 0x1018: 33, 0x101c: 32,
            0x1020: 35, 0x1024: 32, 0x1028: 34, 0x102c: 34, 0x1030: 34, 0x1034: 37, 0x1038: 37,
            0x103c: 34, 0x1040: 37, 0x1044: 37, 0x1048: 36, 0x104c: 37, 0x1050: 40, 0x1054: 39,
            0x1058: 39, 0x105c: 35, 0x1000: 34
        },
        'per_pc_issues': {
            0x1000: 38, 0x1004: 38, 0x1008: 34, 0x100c: 36, 0x1010: 34, 0x1014: 35, 0x1018: 35,
            0x101c: 34, 0x1020: 35, 0x1024: 34, 0x1028: 37, 0x102c: 37, 0x1030: 37, 0x1034: 40,
            0x1038: 40, 0x103c: 39, 0x1040: 39, 0x1044: 39, 0x1048: 40, 0x104c: 39, 0x1050: 42,
            0x1054: 42, 0x1058: 42, 0x105c: 38
        },
    },
    'loop/dos-bloom/entry': {
        'trace_id': 'loop-24x20-r0.1:5:480',
        'policy': 'dos-bloom',
        'cycles': 554,
        'dynamic_executed': 772,
        'committed': 480,
        'squashes': 23,
        'squashed_executions': 292,
        'delayed_issues': 3293,
        'fp_count': 285,
        'perfect_only_count': 0,
        'filter_clears': 14,
        'rotations': 13,
        'per_pc_spec_issues': {
            0x1004: 27, 0x1008: 25, 0x100c: 24, 0x1010: 25, 0x1014: 24, 0x1018: 24, 0x101c: 23,
            0x1020: 23, 0x1024: 21, 0x1028: 22, 0x102c: 24, 0x1030: 24, 0x1034: 27, 0x1038: 24,
            0x103c: 22, 0x1040: 24, 0x1044: 24, 0x1048: 23, 0x104c: 24, 0x1050: 25, 0x1054: 26,
            0x1058: 24, 0x105c: 22, 0x1000: 27
        },
        'per_pc_issues': {
            0x1000: 35, 0x1004: 32, 0x1008: 30, 0x100c: 31, 0x1010: 31, 0x1014: 31, 0x1018: 31,
            0x101c: 30, 0x1020: 31, 0x1024: 29, 0x1028: 31, 0x102c: 30, 0x1030: 30, 0x1034: 33,
            0x1038: 33, 0x103c: 34, 0x1040: 32, 0x1044: 32, 0x1048: 34, 0x104c: 33, 0x1050: 37,
            0x1054: 36, 0x1058: 34, 0x105c: 32
        },
    },
    'segmented/dos-bloom': {
        'trace_id': 'loop-24x20-r0.1:5:480',
        'policy': 'dos-bloom',
        'cycles': 609,
        'dynamic_executed': 772,
        'committed': 480,
        'squashes': 23,
        'squashed_executions': 292,
        'delayed_issues': 3561,
        'fp_count': 3162,
        'perfect_only_count': 0,
        'filter_clears': 14,
        'rotations': 13,
        'per_pc_spec_issues': {
            0x1004: 27, 0x1008: 25, 0x100c: 24, 0x1010: 25, 0x1014: 24, 0x1018: 24, 0x101c: 23,
            0x1020: 21, 0x1024: 20, 0x1028: 21, 0x102c: 23, 0x1030: 23, 0x1034: 26, 0x1038: 23,
            0x103c: 21, 0x1040: 23, 0x1044: 23, 0x1048: 21, 0x104c: 22, 0x1050: 22, 0x1054: 25,
            0x1058: 23, 0x105c: 22, 0x1000: 27
        },
        'per_pc_issues': {
            0x1000: 34, 0x1004: 33, 0x1008: 31, 0x100c: 32, 0x1010: 32, 0x1014: 32, 0x1018: 32,
            0x101c: 31, 0x1020: 31, 0x1024: 29, 0x1028: 31, 0x102c: 30, 0x1030: 30, 0x1034: 33,
            0x1038: 33, 0x103c: 34, 0x1040: 32, 0x1044: 32, 0x1048: 34, 0x104c: 33, 0x1050: 36,
            0x1054: 34, 0x1058: 32, 0x105c: 31
        },
    },
    'order/dos-bloom': {
        'trace_id': 'loop-64x10-r0.1:1:640',
        'policy': 'dos-bloom',
        'cycles': 940,
        'dynamic_executed': 965,
        'committed': 640,
        'squashes': 34,
        'squashed_executions': 325,
        'delayed_issues': 6202,
        'fp_count': 5644,
        'perfect_only_count': 0,
        'filter_clears': 12,
        'rotations': 9,
        'per_pc_spec_issues': {
            0x1004: 10, 0x1008: 8, 0x100c: 11, 0x1010: 10, 0x1014: 10, 0x1018: 10, 0x101c: 10,
            0x1020: 11, 0x1024: 10, 0x1028: 9, 0x102c: 9, 0x1030: 11, 0x1034: 11, 0x1038: 9,
            0x103c: 10, 0x1040: 10, 0x1044: 9, 0x1048: 9, 0x104c: 9, 0x1050: 9, 0x1054: 9,
            0x1058: 9, 0x105c: 11, 0x1060: 5, 0x1064: 12, 0x1068: 10, 0x106c: 9, 0x1070: 10,
            0x1074: 7, 0x1078: 10, 0x107c: 9, 0x1080: 11, 0x1084: 11, 0x1088: 10, 0x108c: 11,
            0x1090: 10, 0x1094: 11, 0x1098: 11, 0x109c: 10, 0x10a0: 11, 0x10a4: 7, 0x10a8: 10,
            0x10ac: 10, 0x10b0: 8, 0x10b4: 11, 0x10b8: 10, 0x10bc: 10, 0x10c0: 10, 0x10c4: 10,
            0x10c8: 11, 0x10cc: 9, 0x10d0: 10, 0x10d4: 10, 0x10d8: 10, 0x10dc: 7, 0x10e0: 7,
            0x10e4: 8, 0x10e8: 9, 0x10ec: 9, 0x10f0: 11, 0x10f4: 9, 0x10f8: 8, 0x10fc: 11,
            0x1000: 6
        },
        'per_pc_issues': {
            0x1000: 14, 0x1004: 14, 0x1008: 13, 0x100c: 17, 0x1010: 16, 0x1014: 16, 0x1018: 16,
            0x101c: 17, 0x1020: 18, 0x1024: 17, 0x1028: 18, 0x102c: 16, 0x1030: 17, 0x1034: 17,
            0x1038: 16, 0x103c: 17, 0x1040: 17, 0x1044: 15, 0x1048: 17, 0x104c: 17, 0x1050: 16,
            0x1054: 15, 0x1058: 16, 0x105c: 17, 0x1060: 13, 0x1064: 19, 0x1068: 17, 0x106c: 15,
            0x1070: 16, 0x1074: 16, 0x1078: 14, 0x107c: 13, 0x1080: 15, 0x1084: 15, 0x1088: 14,
            0x108c: 14, 0x1090: 13, 0x1094: 13, 0x1098: 15, 0x109c: 13, 0x10a0: 14, 0x10a4: 12,
            0x10a8: 14, 0x10ac: 16, 0x10b0: 13, 0x10b4: 17, 0x10b8: 15, 0x10bc: 15, 0x10c0: 15,
            0x10c4: 15, 0x10c8: 17, 0x10cc: 14, 0x10d0: 16, 0x10d4: 16, 0x10d8: 14, 0x10dc: 12,
            0x10e0: 11, 0x10e4: 12, 0x10e8: 15, 0x10ec: 13, 0x10f0: 14, 0x10f4: 13, 0x10f8: 14,
            0x10fc: 14
        },
    },
    'livelock/baseline': {
        'trace_id': 'single-r0:0:12',
        'policy': 'baseline',
        'cycles': 401,
        'dynamic_executed': 804,
        'committed': 0,
        'squashes': 66,
        'squashed_executions': 792,
        'delayed_issues': 0,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {
            0x70004: 67, 0x70008: 67, 0x5000: 67, 0x70010: 67, 0x70014: 67, 0x70018: 67,
            0x7001c: 67, 0x70020: 67, 0x70024: 67, 0x70028: 67, 0x7002c: 67
        },
        'per_pc_issues': {
            0x4000: 67, 0x70004: 67, 0x70008: 67, 0x5000: 67, 0x70010: 67, 0x70014: 67, 0x70018:
            67, 0x7001c: 67, 0x70020: 67, 0x70024: 67, 0x70028: 67, 0x7002c: 67
        },
    },
    'livelock/delay-all': {
        'trace_id': 'single-r0:0:12',
        'policy': 'delay-all',
        'cycles': 401,
        'dynamic_executed': 67,
        'committed': 0,
        'squashes': 66,
        'squashed_executions': 66,
        'delayed_issues': 2671,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {},
        'per_pc_issues': {0x4000: 67},
    },
    'livelock/dos-perfect': {
        'trace_id': 'single-r0:0:12',
        'policy': 'dos-perfect',
        'cycles': 401,
        'dynamic_executed': 78,
        'committed': 0,
        'squashes': 66,
        'squashed_executions': 77,
        'delayed_issues': 2624,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {
            0x70004: 1, 0x70008: 1, 0x5000: 1, 0x70010: 1, 0x70014: 1, 0x70018: 1, 0x7001c: 1,
            0x70020: 1, 0x70024: 1, 0x70028: 1, 0x7002c: 1
        },
        'per_pc_issues': {
            0x4000: 67, 0x70004: 1, 0x70008: 1, 0x5000: 1, 0x70010: 1, 0x70014: 1, 0x70018: 1,
            0x7001c: 1, 0x70020: 1, 0x70024: 1, 0x70028: 1, 0x7002c: 1
        },
    },
    'livelock/dos-bloom': {
        'trace_id': 'single-r0:0:12',
        'policy': 'dos-bloom',
        'cycles': 401,
        'dynamic_executed': 78,
        'committed': 0,
        'squashes': 66,
        'squashed_executions': 77,
        'delayed_issues': 2624,
        'fp_count': 0,
        'perfect_only_count': 0,
        'filter_clears': 0,
        'rotations': 0,
        'per_pc_spec_issues': {
            0x70004: 1, 0x70008: 1, 0x5000: 1, 0x70010: 1, 0x70014: 1, 0x70018: 1, 0x7001c: 1,
            0x70020: 1, 0x70024: 1, 0x70028: 1, 0x7002c: 1
        },
        'per_pc_issues': {
            0x4000: 67, 0x70004: 1, 0x70008: 1, 0x5000: 1, 0x70010: 1, 0x70014: 1, 0x70018: 1,
            0x7001c: 1, 0x70020: 1, 0x70024: 1, 0x70028: 1, 0x7002c: 1
        },
    },
}
