"""Compare sets of benchmark runs, or show that one set is steady.

Usage (from the repository root):

    python3 perfbench/compare.py runs.jsonl              # steadiness of one set
    python3 perfbench/compare.py parent.jsonl change.jsonl

Input files are written by ``sweep.py``. For every workload and metric the
tool prints each set's median and quartiles (``statistics.quantiles`` with
n=4), the spread (quartile distance / median) and, with two sets, a
verdict:

* better: the change wins at least nine tenths of the seed-paired runs
  (ties count for neither) and the medians differ, in the better direction,
  by more than the parent's quartile distance;
* worse: the change's median is worse than the parent's by more than the
  metric's bound;
* unresolved: a set's spread is wider than the bound, unless every run of
  the change reads better than every run of the parent;
* unchanged: none of these.

Per-layer metrics have no bound: they are better or worse by the pairing
rule alone. ``setup_s`` is judged by its median alone: its spread is shown
but gates nothing (see SPREAD_EXEMPT). The exit code is 1 when a set failed
a run, when the failed share of requests differs between the sets, or when
an end-to-end metric is worse or its spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Set-up time follows the machine's speed more than the program's: the same
# database build, reform-to-wood's set-up, took 10.4-15.3 s over ten runs on
# a shared 2-core machine (spread up to 0.25), and build-db's sub-second
# set-up spread up to 0.35. Its median still catches work moved into set-up;
# its spread is not gated.
SPREAD_EXEMPT = {"setup_s"}


def load_set(path):
    """{(workload, trace): {seed: result}}"""
    out = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def metric_values(runs, name):
    return {seed: rec["result"]["metrics"][name]["value"]
            for seed, rec in runs.items()
            if rec["result"] and name in rec["result"]["metrics"]}


def failed_share(runs):
    att = sum(r["result"]["attempted"] for r in runs.values() if r["result"])
    fail = sum(r["result"]["failed"] for r in runs.values() if r["result"])
    return fail, att


def verdict(name, a, b, higher_better, bound):
    """a, b: {seed: value} of parent and change."""
    sign = 1.0 if higher_better else -1.0
    med_a, med_b = statistics.median(a.values()), statistics.median(b.values())
    q1a, _, q3a = quartiles(list(a.values()))
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > q3a - q1a:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and \
                sign * (med_a - med_b) > q3a - q1a:
            return "worse"
        return "unchanged"
    all_better = all(sign * (y - x) > 0 for x in a.values() for y in b.values())
    if name not in SPREAD_EXEMPT and (spread(list(a.values())) > bound
                                      or spread(list(b.values())) > bound):
        return "better" if all_better else "unresolved"
    if sign * (med_a - med_b) > bound * abs(med_a):
        return "worse"
    return "unchanged"


def fmt(x):
    return f"{x:.4g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", help="one or two files from sweep.py")
    args = ap.parse_args(argv)
    if len(args.sets) > 2:
        ap.error("give one or two sets")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load_set(p) for p in args.sets]
    ok = True
    for key in sorted(sets[0]):
        workload, trace = key
        groups = [s.get(key, {}) for s in sets]
        print(f"== {workload} ({'traced' if trace else 'end-to-end'}, "
              f"{len(groups[0])} runs)")
        for g, path in zip(groups, args.sets):
            bad = [seed for seed, r in g.items() if not r["result"]
                   or not r["result"]["correct"]]
            fail, att = failed_share(g)
            print(f"  {os.path.basename(path)}: {fail}/{att} requests failed, "
                  f"runs without a correct result: {bad or 'none'}, "
                  f"wall {fmt(max(r['wall_s'] for r in g.values()))} s max")
            ok &= not bad
        if len(groups) == 2:
            fa, aa = failed_share(groups[0])
            fb, ab = failed_share(groups[1])
            if fa * ab != fb * aa:
                print(f"  failed share differs: {fa}/{aa} vs {fb}/{ab}")
                ok = False
        names = sorted({n for r in groups[0].values() if r["result"]
                        for n in r["result"]["metrics"]})
        for name in names:
            spec = specs.get(name, {})
            bound = spec.get("bound")
            higher = spec.get("better") == "higher"
            row = [f"  {name:32s}"]
            vals = [metric_values(g, name) for g in groups]
            for v in vals:
                q1, q2, q3 = quartiles(list(v.values()))
                sp = spread(list(v.values()))
                row.append(f"med {fmt(q2)} [{fmt(q1)}, {fmt(q3)}] spread {sp:.3f}")
                if bound is not None and sp > bound:
                    ok &= name in SPREAD_EXEMPT
                    row.append("spread>bound, not gated" if name in SPREAD_EXEMPT
                               else "SPREAD>BOUND")
                elif bound is not None and sp > bound / 3:
                    row.append("spread>bound/3")
            if bound is not None:
                row.append(f"bound {bound}")
            if len(vals) == 2 and vals[0] and vals[1]:
                v = verdict(name, vals[0], vals[1], higher, bound)
                row.append(v)
                if v == "worse" and bound is not None:
                    ok = False
            print("  ".join(row))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
