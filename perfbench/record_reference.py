"""Record reference digests: one untimed pass per workload and seed.

Run from the repository root, on a commit whose simulated output is
trusted:

    python3 perfbench/record_reference.py --seeds 0-15 [--workload loop ...]

Digests are keyed by the workload's size fingerprint, so changing a size
in `workloads.SIZES` leaves the old entries unused until they are recorded
again.  Existing entries for other sizes and seeds are kept.
"""

from __future__ import annotations

import argparse
import json

import workloads
from run import run_job


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="range such as 0-15")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.SIZES))
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open(workloads.REFERENCE_FILE, encoding="utf-8") as fh:
        table = json.load(fh)
    sq = workloads.load_squashsim(fresh=False)
    for name in args.workload or sorted(workloads.SIZES):
        for seed in seeds:
            wl = workloads.build(name, seed, sq)
            samples = [run_job(job) for job in wl.jobs]
            bad = [s for s in samples if s.failures]
            if bad:
                raise SystemExit(f"{name} seed {seed}: {bad[0].job.label}: {bad[0].failures}")
            digest = workloads.pass_digest([s.digest for s in samples])
            table.setdefault(wl.spec, {})[str(seed)] = digest
            print(name, seed, digest, flush=True)
            with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    main()
