"""Host-speed benchmark of squashsim: how fast the Python engine simulates.

Run from the repository root:

    python3 perfbench/run.py --workload loop --seed 0 --seconds 30 --trace 0

Workloads are `loop`, `attack` and `sweep` (see README.md).  The untraced
run (`--trace 0`) prints the end-to-end metrics; the traced run
(`--trace 1`) simulates one pass untraced and one pass with every layer
wrapped in spans, and prints the per-layer metrics and the tracing
overhead.  Simulated results (cycles, false positives, attack counts) are
never measured here: they only enter the correctness digest.  The last
line of output is one JSON object: correct, attempted, failed, metrics.

Exit status is 0 once a result is printed, 2 if the arguments are wrong
or the checkout holds no simulator to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass

import hostspeed
import tracing
import workloads

SETUP_REPEATS = 5
MIN_RUNS = 11  # the tail percentile needs ten runs beyond it
OUT_DIR = workloads.ROOT / ".perfbench-out"

END_TO_END = {
    "kinstr_per_s": "kinstr/s",
    **{f"kinstr_per_s.{p}": "kinstr/s" for p in workloads.POLICIES},
    "run_ms.p50": "ms",
    "run_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(slots=True)
class Sample:
    """One timed simulation; `metrics` is kept only where the caller needs it."""

    job: workloads.Job
    seconds: float
    committed: int
    failures: list[str]
    digest: str | None
    metrics: object = None


def run_job(job, keep: bool = False) -> Sample:
    t0 = time.perf_counter()
    try:
        result = job.call()
    except Exception as exc:  # any exception is a failed simulation, not a crash
        return Sample(job, time.perf_counter() - t0, 0, [f"{type(exc).__name__}: {exc}"], None)
    seconds = time.perf_counter() - t0
    m = workloads.result_metrics(result)
    return Sample(job, seconds, m.committed, job.check(result),
                  workloads.job_digest(job.label, result), m if keep else None)


def check_digest(samples: list[Sample], wl, seed: int, lines: list[str]) -> None:
    """Compare the digest of one whole pass with the recorded reference."""
    digest = workloads.pass_digest([s.digest or "" for s in samples])
    ref = workloads.reference_digest(wl.spec, seed)
    if ref is None:
        lines.append(f"digest {digest} (no reference for seed {seed}; compare across commits)")
    elif digest == ref:
        lines.append(f"digest {digest} (matches reference)")
    else:
        lines.append(f"digest {digest} MISMATCH, reference {ref}")
        for s in samples:
            s.failures.append("pass digest mismatch")


def timed_setup(name: str, seed: int, clock: hostspeed.HostClock):
    """Import the simulator afresh and build the inputs, several times;
    returns the median set-up time in wall and in reference seconds, and
    the last workload built."""
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sq = workloads.load_squashsim(fresh=True)
        wl = workloads.build(name, seed, sq)
        wall.append(time.perf_counter() - t0)
        clock.calibrate()
        scaled.append(wall[-1] * clock.scale(clock.segment - 1))
    return statistics.median(wall), statistics.median(scaled), wl


def tail(values: list[float], per_pass: int) -> tuple[float, float]:
    """The highest percentile that has at least ten runs beyond it within
    one pass, taken over all `values`: the value and the percentile."""
    m = max(per_pass, MIN_RUNS)
    p = (m - MIN_RUNS + 1) / m
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)], 100.0 * p


def measure(args, lines: list[str]) -> tuple[dict, dict, int, list[Sample]]:
    clock = hostspeed.HostClock()
    wall_setup, setup_s, wl = timed_setup(args.workload, args.seed, clock)
    jobs = wl.jobs
    run_job(jobs[0])  # warm-up, untimed
    first: list[Sample] = []  # the first pass, whole, for its digest
    later_failed: list[Sample] = []
    # compact per-simulation record, so memory does not grow with host speed
    job_of, seconds, segment, committed = array("l"), array("d"), array("l"), array("q")
    deadline = time.perf_counter() + args.seconds
    i = runs = 0
    while True:
        j = i % len(jobs)
        if i == len(jobs):
            check_digest(first, wl, args.seed, lines)
        if j == 0 or jobs[j].run != jobs[j - 1].run:
            # stop between user-visible runs, after a whole pass, with a tail
            if i >= len(jobs) and runs >= MIN_RUNS and time.perf_counter() >= deadline:
                break
            runs += 1
        clock.maybe_calibrate()
        s = run_job(jobs[j])
        if i < len(jobs):
            first.append(s)
        else:
            if s.digest != first[j].digest:
                s.failures.append("digest differs from the first pass")
            if s.failures:
                later_failed.append(s)
        job_of.append(j)
        seconds.append(s.seconds)
        segment.append(clock.segment)
        committed.append(s.committed)
        i += 1
    clock.calibrate()

    n = len(job_of)
    per_pass = len({job.run for job in jobs})
    values, wall = {}, {}
    for out, scale in ((values, clock.scale), (wall, lambda seg: 1.0)):
        t = [seconds[k] * scale(segment[k]) for k in range(n)]

        def kips(ks):
            return sum(committed[k] for k in ks) / sum(t[k] for k in ks) / 1e3

        out["kinstr_per_s"] = kips(range(n))
        for p in workloads.POLICIES:
            out[f"kinstr_per_s.{p}"] = kips([k for k in range(n) if jobs[job_of[k]].policy == p])
        run_ms: dict[tuple[int, int], float] = {}
        for k in range(n):
            key = (k // len(jobs), jobs[job_of[k]].run)
            run_ms[key] = run_ms.get(key, 0.0) + t[k] * 1e3
        out["run_ms.p50"] = statistics.median(run_ms.values())
        out["run_ms.tail"], rank = tail(list(run_ms.values()), per_pass)
    values["setup_s"], wall["setup_s"] = setup_s, wall_setup
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"{n} simulations in {n / len(jobs):.2f} passes, "
                 f"{len(run_ms)} runs; run_ms.tail is p{rank:.1f} of {len(run_ms)} runs")
    lines.append(f"host calibration: {len(clock.samples)} samples, median "
                 f"{statistics.median(clock.samples) * 1e3:.2f} ms (reference "
                 f"{hostspeed.REFERENCE_S * 1e3:.2f} ms); times below are in reference "
                 f"seconds, wall-clock figures in brackets")
    return values, wall, n, [s for s in first if s.failures] + later_failed


def measure_traced(args, lines: list[str]) -> tuple[dict, dict, int, list[Sample]]:
    """One pass untraced and one traced, job by job, alternating which goes
    first; per-layer figures come from the traced pass."""
    tracer = tracing.Tracer()
    sq = workloads.load_squashsim(fresh=True)
    wl = workloads.build(args.workload, args.seed, sq, span=tracer.span)
    untraced: list[Sample] = []
    traced: list[Sample] = []

    def run_traced(n, job):
        tracer.request = n
        with tracing.instrument(tracer, sq), tracer.span("bench.job"):
            traced.append(run_job(job, keep=True))

    for n, job in enumerate(wl.jobs):
        if n % 2:
            run_traced(n, job)
        untraced.append(run_job(job))
        if not n % 2:
            run_traced(n, job)
    check_digest(untraced, wl, args.seed, lines)
    check_digest(traced, wl, args.seed, lines)
    for u, t in zip(untraced, traced):
        if u.digest != t.digest:
            t.failures.append("traced digest differs from untraced")

    values = tracing.layer_values(
        tracer, [s.metrics for s in traced if s.metrics is not None])
    t_u = sum(s.seconds for s in untraced)
    t_t = sum(s.seconds for s in traced)
    values["tracing.overhead_s"] = t_t - t_u
    values["tracing.overhead_ratio"] = (t_t - t_u) / t_u
    lines.append(f"untraced pass {t_u:.3f} s, traced pass {t_t:.3f} s")
    for metric, span in tracing.WORKLOAD_LAYER_METRICS.items():
        if tracer.count(span):
            lines.append(f"  {metric:28s} {tracer.self_s(span):14.6f} s   (this workload only)")
    lines.append("self time by span (traced pass):")
    for nid in sorted(range(len(tracer.names)), key=lambda k: -tracer.self_ns[k]):
        lines.append(f"  {tracer.names[nid]:24s} {tracer.self_ns[nid] / 1e9:10.4f} s "
                     f"{tracer.calls[nid]:10d} spans")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    kept = tracer.write(path)
    lines.append(f"wrote {kept} spans to {os.path.relpath(path)} "
                 f"({tracer.dropped} more counted but not kept)")
    samples = untraced + traced
    return values, {}, len(samples), [s for s in samples if s.failures]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        workloads.load_squashsim(fresh=False)
    except workloads.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}"]
    if args.trace:
        values, wall, attempted, failed = measure_traced(args, lines)
        units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    else:
        values, wall, attempted, failed = measure(args, lines)
        units = END_TO_END
    for s in failed[:10]:
        lines.append(f"FAILED {s.job.label}: {'; '.join(s.failures)}")
    for name, unit in units.items():
        raw = f"   [{wall[name]:.6f}]" if name in wall else ""
        lines.append(f"  {name:28s} {values[name]:14.6f} {unit}{raw}")
    lines.append(f"  {'failed_frac':28s} {len(failed) / attempted:14.6f} "
                 f"({len(failed)} of {attempted} simulations)")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
