"""Closed-loop benchmark of the meshreform request paths.

Usage (from the repository root):

    python3 perfbench/run.py --workload reform-to-wood --seed 1 --seconds 45 --trace 0

One process, one client: the next request starts only after the previous
one finished. Inputs are generated from ``--seed`` during set-up, requests
run in whole rounds until ``--seconds`` of request time have passed, and
every output is checked (checks are not timed). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Exits 2 without a result when the program
sources are missing.
"""

import os

# One client is one thread: OpenBLAS worker threads spin on a small shared
# machine and made identical requests vary 1.5-12x (see README). Set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("build-db", "reform-to-wood")
# build-db set-up only writes corpora, so it is cheap enough to repeat; the
# reform set-up builds a database and runs once
SETUP_REPEATS = {"build-db": 11, "reform-to-wood": 1}

E2E_UNITS = {"setup_s": "s", "models_per_s": "models/s",
             "latency_p50_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import meshreform from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "meshreform", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: no program sources at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import meshreform
    if os.path.realpath(meshreform.__file__) != os.path.realpath(init):
        print(f"perfbench: imported {meshreform.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)
    logging.getLogger("meshreform").setLevel(logging.ERROR)


class Bench:
    """Set-up state and request execution for one workload."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.rounds = []
        self.db = None
        self._outputs = 0

    def setup(self):
        """Generate and write the inputs, build the database (reform
        workload) and warm up the kernels. Returns the seconds taken."""
        from meshreform import kernels
        from meshreform.pipeline import PipelineConfig, build_database_from_config

        from perfbench import workloads

        t0 = time.perf_counter()
        inputs = tempfile.mkdtemp(prefix="inputs-", dir=self.work_dir)
        if self.workload == "build-db":
            self.rounds = workloads.build_rounds(self.seed, inputs)
        else:
            self.rounds = workloads.reform_rounds(self.seed, inputs)
            self.db = build_database_from_config(workloads.database_sources(),
                                                 PipelineConfig())
        kernels.warmup()
        return time.perf_counter() - t0

    def _out_dir(self):
        self._outputs += 1
        return os.path.join(self.work_dir, f"out-{self._outputs}")

    def run(self, request):
        """Run one request; returns what the checks need. Timed."""
        from meshreform.database import load_database, save_database
        from meshreform.pipeline import (PipelineConfig, build_database_from_config,
                                         read_sources, run_pipeline)

        out_dir = self._out_dir()
        if self.workload == "build-db":
            os.makedirs(out_dir)
            path = os.path.join(out_dir, "db.json")
            sources = read_sources(request.path)
            db = build_database_from_config(sources, PipelineConfig())
            save_database(db, path)
            return out_dir, (db, load_database(path))
        cfg = PipelineConfig(target_materials="all=wood")
        return out_dir, run_pipeline(request.path, None, cfg, out_dir, db=self.db)

    def check(self, request, out_dir, result, rng):
        """Check one request's output; not timed. Raises CheckError, else
        returns the number of dropped cuts found in it."""
        from perfbench import checks

        dropped = 0
        if self.workload == "build-db":
            checks.check_database(*result)
        else:
            n_parts = checks.obj_group_count(request.path)
            dropped = checks.check_reform(out_dir, n_parts, "wood", rng)
        shutil.rmtree(out_dir)
        return dropped


class Loop:
    """Closed-loop client: whole rounds, request time only."""

    def __init__(self, bench):
        self.bench = bench
        self.attempted = 0
        self.failed = 0
        self.models = 0
        self.latencies = []
        self.spent = 0.0        # request time, failed requests included
        self.errors = []

    def request(self, req, rng, tracer=None):
        """Run, time and check one request. Returns (seconds, result,
        dropped cuts) or None when it failed."""
        self.attempted += 1
        if tracer is not None:
            tracer.request_id = self.attempted
        t0 = time.perf_counter()
        try:
            out_dir, result = self.bench.run(req)
        except Exception:
            self.failed += 1
            self.spent += time.perf_counter() - t0
            print(f"request {req.label} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        seconds = time.perf_counter() - t0
        self.spent += seconds
        print(f"request {req.label}: {seconds:.3f} s", file=sys.stderr)
        self.latencies.append(seconds)
        self.models += req.n_models
        dropped = 0
        try:
            dropped = self.bench.check(req, out_dir, result, rng)
        except Exception as exc:    # load_spec raises ValueError on bad specs
            self.errors.append(f"{req.label}: {exc}")
            print(f"output check failed for {req.label}: {exc}", file=sys.stderr)
        return seconds, result, dropped


def run_untraced(bench, seconds, rng):
    loop = Loop(bench)
    r = 0
    while r == 0 or loop.spent < seconds:
        for req in bench.rounds[r % len(bench.rounds)]:
            loop.request(req, rng)
        r += 1
    return loop


def run_traced(bench, seconds, rng, trace_path):
    """Every request runs twice in a row, untraced and traced, the order
    alternating so that neither side always gets the warmer second run; the
    paired request times give the tracing overhead. Returns (loop, per-layer
    metrics) and writes the spans to ``trace_path``."""
    from perfbench import checks
    from perfbench.tracer import Tracer

    loop = Loop(bench)
    tracer = Tracer()
    plain = traced = 0.0
    dropped = 0
    summaries = {}
    pairs = 0
    r = 0
    while r == 0 or loop.spent < seconds:
        for req in bench.rounds[r % len(bench.rounds)]:
            runs = {}
            for traced_run in ((True, False) if pairs % 2 else (False, True)):
                if not traced_run:
                    runs[False] = loop.request(req, rng)
                    continue
                tracer.install()
                try:
                    runs[True] = loop.request(req, rng, tracer)
                finally:
                    tracer.uninstall()
                if runs[True] is not None and bench.workload != "build-db":
                    summaries[tracer.request_id] = runs[True][1]
            pairs += 1
            if runs[False] is None or runs[True] is None:
                continue
            plain += runs[False][0]
            traced += runs[True][0]
            dropped += runs[True][2]
        r += 1
    worst_gap = 0.0
    for request_id, spans in tracer.stage_spans():
        if request_id not in summaries:     # the request raised
            continue
        try:
            gap = checks.check_stage_times(spans, summaries[request_id])
            worst_gap = max(worst_gap, gap)
        except AssertionError as exc:
            loop.errors.append(f"request {request_id}: tracer: {exc}")
    metrics = tracer.metrics()
    metrics["fabrication.dropped_cuts"] = float(dropped)
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0) if plain else 0.0
    print(f"tracer: {len(tracer.start)} spans over {pairs} request pairs",
          file=sys.stderr)
    if summaries:
        print(f"tracer: stage times within {worst_gap * 1e3:.3f} ms of "
              f"summary.json", file=sys.stderr)
    tracer.write(trace_path)
    return loop, metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, ROOT)
    import numpy as np
    from meshreform import kernels

    os.makedirs(WORK, exist_ok=True)
    print(f"kernels: {'numba' if kernels.USE_NUMBA else 'numpy fallback'} "
          f"(kernels.USE_NUMBA={kernels.USE_NUMBA})")
    setups = []
    work_dir = None
    try:
        for _ in range(SETUP_REPEATS[args.workload]):
            if work_dir is not None:
                shutil.rmtree(work_dir)
            work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
            bench = Bench(args.workload, args.seed, work_dir)
            setups.append(bench.setup())
        rng = np.random.default_rng(args.seed)
        if args.trace:
            loop, metrics = run_traced(bench, args.seconds, rng, os.path.join(
                WORK, f"trace-{args.workload}-seed{args.seed}.npz"))
            units = {m: unit_of(m) for m in metrics}
        else:
            loop = run_untraced(bench, args.seconds, rng)
            metrics = {
                "setup_s": statistics.median(setups),
                "models_per_s": loop.models / loop.spent,
                "latency_p50_s": statistics.median(loop.latencies)
                if loop.latencies else 0.0,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = E2E_UNITS
    finally:
        if work_dir is not None:
            shutil.rmtree(work_dir, ignore_errors=True)

    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(f"requests: {loop.attempted} attempted, {loop.failed} failed, "
          f"{len(loop.errors)} with wrong output")
    result = {
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
