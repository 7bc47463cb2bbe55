"""In-process tracer for the benchmark's traced runs.

``Tracer.install`` wraps every public function of the request-path modules
of ``meshreform``. Where another module imported a function by name
(``pipeline`` and ``database`` do), that binding is replaced too, so every
call goes through the wrapper. Each call records one span: name, start,
end, parent span and request id. Spans are kept in flat arrays while the run
lasts and written out once at its end.

Per-layer metrics come from the spans:

* ``*_s`` layer metrics are self time: span duration minus the time its
  child spans cover, summed over the functions listed for the metric.
* ``pipeline.*_s`` are the inclusive stage intervals of ``run_pipeline``:
  from the stage's entry call to the end of the artifact write that closes
  the stage. They are checked against the stage ``seconds`` that
  ``run_pipeline`` writes to ``summary.json``.
* counts are read from the arguments or results of the wrapped calls. A
  "pairs" count is the computed size of the search, query size x reference
  size, not a count made inside the kernel.
"""

import functools
import importlib
import inspect
import json
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("mesh", "obb", "part_analysis", "kernels", "graphs", "similarity",
           "inference", "assembly", "config_opt", "qp", "fabrication",
           "database", "pipeline")

# Every stage of run_pipeline ends by writing its artifact through this
# private helper; wrapping it marks the stage boundaries.
STAGE_WRITER = "pipeline._dump"

STAGES = (
    ("preprocess", "pipeline.analyze_model"),
    ("materials", "pipeline.resolve_targets"),
    ("reform", "pipeline.reform_assignment"),
    ("restore", "pipeline.place_and_restore"),
    ("optimize-angles", "pipeline.optimize_angles"),
    ("infer-joints", "pipeline.infer_joints"),
    ("refine", "pipeline.refine_and_form"),
)
STAGE_METRICS = {
    "preprocess": "pipeline.preprocess_s",
    "materials": "pipeline.materials_s",
    "reform": "pipeline.reform_s",
    "restore": "pipeline.restore_s",
    "optimize-angles": "pipeline.optimize_angles_s",
    "infer-joints": "pipeline.infer_joints_s",
    "refine": "pipeline.refine_s",
    "export": "pipeline.export_s",
}

# self-time metrics: metric -> wrapped functions whose self time it sums
SELF_TIME = {
    "mesh.load_model_s": ("mesh.load_model",),
    "mesh.sample_surface_s": ("mesh.sample_surface",),
    "obb.fit_s": ("obb.fit_points_obb", "obb.pca_axes", "obb.pca_box",
                  "obb.min_area_rect"),
    "part_analysis.analyze_part_s": ("part_analysis.analyze_part",
                                     "part_analysis.fit_obb",
                                     "part_analysis.estimate_thickness",
                                     "part_analysis.describe_part"),
    "kernels.nearest_s": ("kernels.nearest_sq_dists", "kernels.min_sq_dist"),
    "kernels.capped_sum_s": ("kernels.nearest_sq_sum_capped",),
    "kernels.ray_s": ("kernels.ray_mesh_first_hit",),
    "graphs.contact_graph_s": ("graphs.build_contact_graph",),
    "graphs.repetition_graph_s": ("graphs.build_repetition_graph",
                                  "graphs.congruence_rms"),
    "graphs.contact_angle_s": ("graphs.annotate_contact_angles",
                               "graphs.estimate_contact_angle",
                               "graphs.fold_angle_deg"),
    "similarity.shape_matrix_s": ("similarity.shape_matrix",),
    "inference.reform_graph_s": ("inference.build_reform_factor_graph",),
    "inference.material_graph_s": ("inference.build_material_factor_graph",),
    "inference.bp_s": ("inference.run_loopy_bp",),
    "assembly.place_s": ("assembly.place_replacements",),
    "assembly.restore_s": ("assembly.restore_contacts",
                           "assembly.closest_point_on_placed"),
    "config_opt.enumerate_s": ("config_opt.enumerate_configurations",
                               "config_opt.assess_angle_feasibility",
                               "config_opt.determine_fixed_parts"),
    "config_opt.solve_s": ("config_opt.optimize_configuration",
                           "config_opt.make_objective",
                           "config_opt.segment_distance",
                           "config_opt.select_best_configuration",
                           "config_opt.all_rigid_configuration"),
    "qp.solve_s": ("qp.solve_min_change_qp", "qp.kkt_residual"),
    "fabrication.infer_s": ("fabrication.infer_joint_types",),
    "fabrication.refine_s": ("fabrication.refine_part_dimensions",),
    "fabrication.form_s": ("fabrication.form_joint_geometry",),
    "fabrication.export_s": ("fabrication.export_spec",),
    "database.build_s": ("database.build_database",),
    "database.cluster_s": ("database.cluster_candidates",
                           "database.part_feature"),
    "database.save_s": ("database.save_database",),
    "database.load_s": ("database.load_database",),
}

COUNTS = (
    "mesh.samples", "kernels.nearest_pairs", "kernels.capped_sum_pairs",
    "kernels.ray_tri_pairs", "graphs.congruence_checks",
    "similarity.shape_entries", "inference.bp_iterations", "inference.labels",
    "inference.bp_unconverged", "config_opt.sets",
    "config_opt.unconverged_solves", "qp.solves", "fabrication.export_bytes",
    "fabrication.ambiguous_joints", "fabrication.refine_violations",
    "database.db_bytes",
)


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs[name]


def _rows(a):
    return int(np.shape(a)[0])


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _export_bytes(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    out_dir = os.path.dirname(result)
    total = _file_size(result)
    for p in spec.parts:
        if p.mesh_file:
            total += _file_size(os.path.join(out_dir, p.mesh_file))
    return total


# wrapped function -> (counter, f(args, kwargs, result) -> increment)
OBSERVERS = {
    "mesh.sample_surface": ("mesh.samples",
                            lambda a, k, r: _arg(a, k, 1, "n")),
    "kernels.nearest_sq_dists": ("kernels.nearest_pairs", lambda a, k, r:
                                 _rows(_arg(a, k, 0, "query"))
                                 * _rows(_arg(a, k, 1, "ref"))),
    "kernels.nearest_sq_sum_capped": ("kernels.capped_sum_pairs", lambda a, k, r:
                                      _rows(_arg(a, k, 0, "query"))
                                      * _rows(_arg(a, k, 1, "ref"))),
    "kernels.ray_mesh_first_hit": ("kernels.ray_tri_pairs", lambda a, k, r:
                                   _rows(_arg(a, k, 0, "origins"))
                                   * _rows(_arg(a, k, 2, "v0"))),
    "graphs.congruence_rms": ("graphs.congruence_checks", lambda a, k, r: 1),
    "similarity.shape_matrix": ("similarity.shape_entries", lambda a, k, r:
                                len(_arg(a, k, 0, "descs_a"))
                                * len(_arg(a, k, 1, "descs_b"))),
    "config_opt.enumerate_configurations": ("config_opt.sets",
                                            lambda a, k, r: len(r)),
    "qp.solve_min_change_qp": ("qp.solves", lambda a, k, r: 1),
    "fabrication.export_spec": ("fabrication.export_bytes", _export_bytes),
    "fabrication.infer_joint_types": ("fabrication.ambiguous_joints",
                                      lambda a, k, r:
                                      sum(x.joint.ambiguous for x in r)),
    "fabrication.refine_part_dimensions": ("fabrication.refine_violations",
                                           lambda a, k, r: len(r.violations)),
    "database.save_database": ("database.db_bytes",
                               lambda a, k, r: _file_size(_arg(a, k, 1, "path"))),
}


def _observe_bp(counts, args, kwargs, result):
    graph = _arg(args, kwargs, 0, "graph")
    counts["inference.bp_iterations"] += result.iterations
    counts["inference.labels"] += sum(len(d) for d in graph.domains)
    counts["inference.bp_unconverged"] += int(not result.converged)


def _observe_solve(counts, args, kwargs, result):
    counts["config_opt.unconverged_solves"] += int(not result.converged)
    counts["config_opt.solves"] += 1
    counts["config_opt.supported_solves"] += int(result.no_hanging_ok)


def _is_function(obj):
    # numba dispatchers stand in for functions when the numba path is active
    return inspect.isfunction(obj) or hasattr(obj, "py_func")


class Tracer:
    """Records spans and counts for calls into ``meshreform``."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public function of MODULES and rebind every module
        attribute that refers to one of them. Returns the number wrapped."""
        mods = {m: importlib.import_module(f"meshreform.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("meshreform")
        wrappers = {}
        for short in MODULES:
            mod = mods[short]
            members = sorted(inspect.getmembers(mod, _is_function))
            # dispatch aliases (kernels.nearest_sq_dists is one of the
            # *_numpy / *_numba variants): name the span after the alias
            members.sort(key=lambda kv: kv[0].endswith(("_numpy", "_numba")))
            for attr, fn in members:
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        dump = mods["pipeline"]._dump
        wrappers[id(dump)] = (dump, self._wrap(STAGE_WRITER, dump))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return len(wrappers)

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, qualname, fn):
        nid = self._name_id(qualname)
        observer = None
        if qualname in OBSERVERS:
            counter, inc = OBSERVERS[qualname]

            def observer(counts, a, k, r, counter=counter, inc=inc):
                counts[counter] += inc(a, k, r)
        elif qualname == "inference.run_loopy_bp":
            observer = _observe_bp
        elif qualname == "config_opt.optimize_configuration":
            observer = _observe_solve
        start, end, name, parent, request = (self.start, self.end, self.name,
                                             self.parent, self.request)
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observer is not None:
                observer(counts, args, kwargs, result)
            return result

        return wrapper

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy(),
                np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.request, dtype=np.int32).copy())

    def self_times(self):
        """Total self time per span name."""
        start, end, name, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        totals = np.zeros(len(self.names))
        np.add.at(totals, name, own)
        return {n: float(totals[i]) for i, n in enumerate(self.names)}

    def stage_spans(self):
        """Per-request stage intervals of every traced run_pipeline call:
        list of (request id, {stage: seconds})."""
        start, end, name, parent, request = self.arrays()
        ids = self._name_ids
        run_id = ids.get("pipeline.run_pipeline")
        if run_id is None:
            return []
        entry = {ids[f]: stage for stage, f in STAGES if f in ids}
        writer = ids.get(STAGE_WRITER)
        order = np.argsort(parent, kind="stable")
        sorted_parent = parent[order]
        out = []
        for r in np.flatnonzero(name == run_id):
            lo, hi = np.searchsorted(sorted_parent, [r, r + 1])
            stages = {}
            current = None
            export_start = export_end = None
            for c in sorted(order[lo:hi], key=lambda c: start[c]):
                if name[c] in entry:
                    current = (entry[name[c]], start[c])
                elif name[c] == writer and current is not None:
                    stages[current[0]] = end[c] - current[1]
                    if current[0] == "refine":
                        export_start = end[c]
                    current = None
                elif name[c] == writer and export_end is not None:
                    # the summary write closes the export stage
                    stages.setdefault("export", export_end - export_start)
                elif export_start is not None:
                    export_end = end[c]
            out.append((int(request[r]), stages))
        return out

    def metrics(self):
        """Every per-layer metric: self times, stage totals and counts."""
        own = self.self_times()
        out = {m: sum(own.get(f, 0.0) for f in fns)
               for m, fns in SELF_TIME.items()}
        for metric in STAGE_METRICS.values():
            out[metric] = 0.0
        for _, stages in self.stage_spans():
            for stage, seconds in stages.items():
                out[STAGE_METRICS[stage]] += seconds
        for c in COUNTS:
            out[c] = float(self.counts.get(c, 0.0))
        solves = self.counts.get("config_opt.solves", 0.0)
        supported = self.counts.get("config_opt.supported_solves", 0.0)
        out["config_opt.supported_ratio"] = supported / solves if solves else 1.0
        return out

    def write(self, path):
        """Write every span, with the name table, as one compressed file."""
        start, end, name, parent, request = self.arrays()
        np.savez_compressed(path, start=start, end=end, name=name,
                            parent=parent, request=request,
                            names=np.array(json.dumps(self.names)))
