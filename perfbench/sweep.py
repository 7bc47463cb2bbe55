"""Run the benchmark over several seeds and record one set of runs.

Usage (from the repository root):

    python3 perfbench/sweep.py --out runs-a.jsonl --seeds 1-10 \
        [--workloads build-db,reform-to-wood] [--trace 0]

Runs one benchmark process at a time, each for BENCHMARK.json's
``run_seconds``, waits for it, and appends one JSON line per run: workload,
seed, trace flag, wall seconds and the result object the benchmark printed. ``compare.py`` reads these files.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = None
            if proc.returncode == 0 and lines:
                result = json.loads(lines[-1])
            else:
                sys.stderr.write(proc.stderr[-2000:])
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "wall_s": wall, "exit": proc.returncode, "result": result}
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"{wall:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
