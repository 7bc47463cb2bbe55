"""The benchmark's tracer names program functions by string, and a name that
no longer resolves adds 0 to its metric without a word. This test pins the
set of such names, so that a rename or deletion shows up here."""

import dataclasses
import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# tracer names of kernels that the k-d tree search replaced, and of the loopy
# BP that exact_map replaced; renaming them is ROADMAP item 11
MISSING = {"kernels.min_sq_dist", "kernels.nearest_sq_dists",
           "kernels.nearest_sq_sum_capped", "inference.run_loopy_bp"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_to_public_functions():
    tracer = load_tracer()
    names = {name for fns in tracer.SELF_TIME.values() for name in fns}
    names |= {fn for _, fn in tracer.STAGES} | set(tracer.OBSERVERS)
    missing = set()
    for name in names:
        short, attr = name.split(".")
        module = importlib.import_module(f"meshreform.{short}")
        fn = getattr(module, attr, None)
        if attr.startswith("_") or not inspect.isfunction(fn) \
                or fn.__module__ != module.__name__:
            missing.add(name)
    assert missing == MISSING


def test_stage_writer_resolves_to_a_pipeline_function():
    """The test above skips private names. The stage writer is one: the
    traced runs' stage spans end at its calls, and they are checked against
    summary.json."""
    tracer = load_tracer()
    short, attr = tracer.STAGE_WRITER.split(".")
    assert short == "pipeline"
    module = importlib.import_module("meshreform.pipeline")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_observers_read_only_fields_of_the_results():
    """The tracer's observers read attributes of the results of the calls
    they observe; a renamed or deleted field would fail every traced
    request. The solve observer runs here on a stand-in that has exactly the
    fields of the observed function's annotated result type. (The BP
    observer watches ``inference.run_loopy_bp``, which is in ``MISSING``, so
    it never runs.)"""
    tracer = load_tracer()
    fn = importlib.import_module("meshreform.config_opt").optimize_configuration
    result_type = inspect.signature(fn).return_annotation
    result = SimpleNamespace(**{f.name: 0 for f in dataclasses.fields(result_type)})
    tracer._observe_solve(defaultdict(float), (), {}, result)
