#!/usr/bin/env python3
"""Record the correctness reference of the scenario benchmark.

Usage (from the repository root, after one run.py invocation has built the
binary):
    python3 scenbench/record_reference.py [FIRST_SEED LAST_SEED]

Runs every workload for each seed in the range (default 0..63) with the
minimum three repetitions, requires the repetitions to agree exactly, and
writes their digest, counts and simulated outputs to scenbench/reference.json,
replacing it (so record the full range).
kv_e2e and dctcp_e2e ignore the seed, so they are recorded once, under "*".
Only re-record when a change is meant to alter simulated behaviour.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 else (0, 63)
    exe = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "scenbench",
                       "scenbench")
    refs = {}
    for workload in run.WORKLOADS:
        seeds = ["*"] if workload in run.FIXED_SEED else [str(s) for s in range(first, last + 1)]
        refs[workload] = {}
        for seed in seeds:
            cmd = [exe, "--workload", workload, "--seed", "0" if seed == "*" else seed,
                   "--seconds", "0", "--trace", "0", "--out", ".bench_out"]
            doc = json.loads(subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                            check=True).stdout.strip().splitlines()[-1])
            reps = [run.exact(r) for r in doc["reps"]]
            if not all(r["ok"] for r in doc["reps"]) or any(r != reps[0] for r in reps):
                sys.exit(f"{workload} seed {seed}: repetitions disagree; not recording")
            if not run.sanity(workload, reps[0]["outputs"]):
                sys.exit(f"{workload} seed {seed}: outputs violate the invariants")
            refs[workload][seed] = reps[0]
            print(f"{workload} seed {seed}: digest {reps[0]['digest']}", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
