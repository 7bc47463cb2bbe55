"""Pipeline orchestration: preprocess, suggest, reform, restore, optimize
angles, infer joints, refine, form joints, export.

Every stage persists its artifacts under the output directory and all
randomness flows from the single config seed, so re-running any stage
reproduces identical downstream results.
"""

import json
import logging
import os
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import assembly, config_opt, fabrication, inference
from .codec import decode, encode
from .database import (CANDIDATES_K, Database, DatabaseSource,
                       build_database, cluster_candidates, load_database)
from .graphs import (CONTACT_SAMPLES, DEFAULT_CONTACT_DISTANCE, GROUND_ID,
                     ContactEdge, ContactGraph, annotate_contact_angles,
                     build_contact_graph, build_repetition_graph)
from .mesh import (Material, Model, Part, TriangleMesh, load_model,
                   normalize_model, sample_surface, save_model)
from .part_analysis import (THICKNESS_BIN_WIDTH, ThicknessEstimate,
                            analyze_part, describe_part)
from .similarity import orientation_angles

logger = logging.getLogger(__name__)

# per-part surface samples behind descriptors and contact angles
SURFACE_SAMPLES = 1000


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    """Per-request settings. The tuned values the stages share (kernel
    bandwidths, factor weights, message passing, feasibility, joint sizes)
    are constants of the module that reads them."""

    d_c: float = DEFAULT_CONTACT_DISTANCE
    thickness_bin: float = THICKNESS_BIN_WIDTH
    contact_samples: int = CONTACT_SAMPLES
    candidates_k: int = CANDIDATES_K
    seed: int = 0
    target_materials: object = "suggest"   # "suggest" | "all=wood" | "all=metal" | {pid: mat}
    compact_parts: list = field(default_factory=list)
    joint_overrides: dict = field(default_factory=dict)   # (i, j) -> kind

    @classmethod
    def from_json(cls, d):
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        # absent keys keep their defaults; decode checks every value's type
        cfg = decode(cls, {**encode(cls()), **d})
        for name in ("d_c", "thickness_bin", "contact_samples", "candidates_k"):
            if not getattr(cfg, name) > 0:
                raise ValueError(f"config {name} must be positive, "
                                 f"got {getattr(cfg, name)}")
        if cfg.seed < 0:
            raise ValueError(f"config seed must be non-negative, got {cfg.seed}")
        cfg.target_materials = _target_spec(cfg.target_materials)
        cfg.joint_overrides = _joint_overrides(cfg.joint_overrides)
        return cfg

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass
class ModelAnalysis:
    model: Model
    samples: dict
    descriptors: dict
    contact_graph: ContactGraph
    repetition_graph: object


def analyze_model(model: Model, cfg: PipelineConfig,
                  normalized=False) -> ModelAnalysis:
    """Normalize, sample, describe, and build both structure graphs.

    Parts tagged ``other`` (screws, pads, non-key elements) are dropped up
    front; they take no part in analysis, inference, or reform.
    """
    kept = [p for p in model.parts if p.material != Material.OTHER]
    if len(kept) != len(model.parts):
        logger.info("ignoring %d part(s) tagged other", len(model.parts) - len(kept))
        model = Model(parts=kept, global_scale=model.global_scale)
    if not model.parts:
        raise ValueError("model has no analyzable parts (all tagged other)")
    if not normalized:
        model = normalize_model(model)
    samples = {p.id: sample_surface(p, SURFACE_SAMPLES, seed=cfg.seed)
               for p in model.parts}
    descriptors = {p.id: analyze_part(p, samples[p.id], bin_width=cfg.thickness_bin)
                   for p in model.parts}
    # the dense contact samples are dropped once the graph is built
    graph = build_contact_graph(model, d_c=cfg.d_c, samples={
        p.id: sample_surface(p, cfg.contact_samples, seed=cfg.seed + 1)
        for p in model.parts})
    annotate_contact_angles(graph, descriptors, samples)
    rep = build_repetition_graph(model, descriptors, samples)
    return ModelAnalysis(model=model, samples=samples, descriptors=descriptors,
                         contact_graph=graph, repetition_graph=rep)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def suggest_materials(analysis: ModelAnalysis, db: Database):
    graph = inference.build_material_factor_graph(
        analysis.descriptors, analysis.contact_graph, analysis.repetition_graph,
        db)
    result = inference.exact_map(graph)
    return {pid: result.labels[pid] for pid in result.labels}, result


_TARGET_SPECS = ("suggest", "all=wood", "all=metal")


def _target_spec(spec):
    """A target-material spec in canonical form: one of ``_TARGET_SPECS``,
    or a map from integer part id to wood or metal. Raises ValueError on any
    other form. Whether a map names every part needs the model, so that is
    checked in the materials stage."""
    if isinstance(spec, str) and spec in _TARGET_SPECS:
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"target materials must be {', '.join(_TARGET_SPECS)} "
                         f"or a map from part id to wood/metal, got {spec!r}")
    out = {}
    for key, mat in spec.items():
        pid = int(key) if isinstance(key, str) and key.isdigit() else key
        if isinstance(pid, bool) or not isinstance(pid, (int, np.integer)):
            raise ValueError(f"target material part id must be an integer, got {key!r}")
        if mat not in (Material.WOOD, Material.METAL):
            raise ValueError(f"target material of part {key} must be wood or metal, "
                             f"got {mat!r}")
        out[int(pid)] = Material(mat)
    return out


def _joint_overrides(spec):
    """``{"i,j": kind}`` as ``{(min, max): kind}``. Raises ValueError on a
    malformed pair or a kind outside ``fabrication.JOINT_KINDS``; whether
    the kind fits the edge's materials is checked when joints are inferred."""
    kinds = sorted({k for ks in fabrication.JOINT_KINDS.values() for k in ks})
    out = {}
    for pair, kind in spec.items():
        try:
            i, j = (int(x) for x in pair.split(","))
        except ValueError:
            raise ValueError(f"joint override pair must be i,j, got {pair!r}") from None
        if kind not in kinds:
            raise ValueError(f"joint override {pair}: kind must be one of "
                             f"{', '.join(kinds)}, got {kind!r}")
        out[(min(i, j), max(i, j))] = kind
    return out


def resolve_targets(analysis: ModelAnalysis, db: Database, cfg: PipelineConfig):
    spec = _target_spec(cfg.target_materials)
    ids = [p.id for p in analysis.model.parts]
    if spec == "suggest":
        targets, _ = suggest_materials(analysis, db)
        return targets
    if isinstance(spec, str):
        mat = Material(spec.split("=", 1)[1])
        return {pid: mat for pid in ids}
    for pid in ids:
        if pid not in spec:
            raise ValueError(f"no target material for part {pid}")
    return {pid: spec[pid] for pid in ids}


def reform_assignment(analysis: ModelAnalysis, targets, db: Database,
                      cfg: PipelineConfig):
    graph = inference.build_reform_factor_graph(
        analysis.descriptors, analysis.contact_graph, analysis.repetition_graph,
        targets, db, compact=set(cfg.compact_parts))
    return inference.exact_map(graph)


def place_and_restore(analysis: ModelAnalysis, assignment, db: Database,
                      cfg: PipelineConfig):
    placed = assembly.place_replacements(analysis.descriptors, assignment, db,
                                         query_samples=analysis.samples,
                                         seed=cfg.seed)
    placed, report = assembly.restore_contacts(placed, analysis.contact_graph, db,
                                               seed=cfg.seed)
    return placed, report


@dataclass
class ReformedState:
    """Placed parts plus the contact data recomputed on them."""

    placed: dict                 # part id -> PlacedPart
    descriptors: dict
    graph: ContactGraph
    materials: dict
    repetition: object = None    # query model's repetition graph


def reformed_state(analysis: ModelAnalysis, placed, targets, db: Database,
                   cfg: PipelineConfig, restore_report) -> ReformedState:
    """The query's contact graph on the restored parts: a contact point
    becomes the midpoint of its two restored foot points, and a ground
    point moves with its part."""
    disp = restore_report.displacements
    edges = []
    for e in analysis.contact_graph.edges:
        if e.is_ground:
            edges.append(ContactEdge(e.i, GROUND_ID, e.contact_point + disp[e.i],
                                     None, True))
            continue
        pi, pj = restore_report.foot_points[e.key()]
        edges.append(ContactEdge(e.i, e.j,
                                 0.5 * ((pi + disp[e.i]) + (pj + disp[e.j]))))
    return _reformed({p.part_id: p for p in placed}, edges, dict(targets),
                     analysis.repetition_graph, db, cfg)


def optimize_angles(state: ReformedState, db: Database, cfg: PipelineConfig):
    """Angle feasibility assessment, enumeration, optimization of the sets
    that can still win, selection among them and the unmoved model. Returns
    (selected Configuration or None, its feasibility report or None,
    constraints, solved configs, number of enumerated sets)."""
    parts = {}
    for pid, desc in state.descriptors.items():
        parts[pid] = config_opt.PartState(
            segment=desc.segment.copy(), thickness=desc.thickness,
            material=state.materials[pid],
            box=None if desc.is_linear else desc.obb)
    constraints = config_opt.assess_angle_feasibility(state.graph, parts, db)
    if not constraints:
        return None, None, [], [], 0
    fixed = config_opt.determine_fixed_parts(parts, state.graph, constraints,
                                             repetition=state.repetition)
    sets = config_opt.enumerate_configurations(constraints, state.graph, parts,
                                               fixed=fixed)
    unmoved = config_opt.all_rigid_configuration(constraints, parts)
    configs = config_opt.solve_in_bound_order(
        sets, constraints, parts, state.graph, unmoved, d_c=cfg.d_c)
    best = config_opt.select_best_configuration([unmoved] + configs)
    report = config_opt._feasibility_report(best, constraints, parts, db)
    return best, report, constraints, configs, len(sets)


def apply_configuration(state: ReformedState, configuration, db,
                        cfg: PipelineConfig) -> ReformedState:
    """Re-pose moved parts onto their optimized segments and drop the
    configuration's broken contacts. ``state`` is left as it was."""
    if configuration is None or not configuration.moved_parts:
        return state
    placed = dict(state.placed)
    for pid in configuration.moved_parts:
        placed[pid] = assembly.repose_to_segment(placed[pid],
                                                 configuration.segments[pid])
    dropped = {tuple(e) for e in configuration.dropped_edges}
    dropped_ground = set(configuration.dropped_ground)
    edges = [ContactEdge(e.i, e.j, e.contact_point, None, e.is_ground)
             for e in state.graph.edges
             if not (e.i in dropped_ground if e.is_ground else e.key() in dropped)]
    return _reformed(placed, edges, state.materials, state.repetition, db, cfg)


def _reformed(placed: dict, edges, materials, repetition, db,
              cfg: PipelineConfig) -> ReformedState:
    """The reformed model on ``placed``. Each part's placed mesh gives its
    descriptor, on its placed box with the source's thickness and
    transformed barycenter (no re-fitting or ray casting), and its surface
    samples; the contact angles of ``edges`` are measured on them."""
    descriptors, samples = {}, {}
    for pid, p in placed.items():
        part = Part(id=pid, mesh=p.placed_mesh(db))
        src = db.part(p.source_index).descriptor
        thickness = ThicknessEstimate(src.thickness, src.thickness_fallback, 0.0)
        descriptors[pid] = describe_part(part, p.box, thickness,
                                         p.transform_points(src.barycenter)[0])
        samples[pid] = sample_surface(part, SURFACE_SAMPLES, seed=cfg.seed)
    graph = ContactGraph(nodes=list(placed), edges=edges)
    annotate_contact_angles(graph, descriptors, samples)
    return ReformedState(placed=placed, descriptors=descriptors, graph=graph,
                         materials=materials, repetition=repetition)


def _query_contacts(state: ReformedState):
    out = []
    for e in state.graph.part_edges():
        di = state.descriptors[e.i]
        dj = state.descriptors[e.j]
        out.append(fabrication.QueryContact(
            edge=e.key(),
            materials=(state.materials[e.i], state.materials[e.j]),
            descriptors=(di, dj),
            barycenter_distance=float(np.linalg.norm(di.barycenter - dj.barycenter)),
            orientation_vec=orientation_angles(di.obb.axes, dj.obb.axes),
            contact_point=np.asarray(e.contact_point, dtype=float)))
    return out


def infer_joints(state: ReformedState, db: Database, cfg: PipelineConfig):
    return fabrication.infer_joint_types(_query_contacts(state), db,
                                         overrides=cfg.joint_overrides)


def refine_and_form(state: ReformedState, assignments, cfg: PipelineConfig):
    boxes = {pid: d.obb for pid, d in state.descriptors.items()}
    refinement = fabrication.refine_part_dimensions(assignments, boxes)
    geometry = []
    for a in assignments:
        try:
            geometry.append(fabrication.form_joint_geometry(
                a, refinement.boxes, d_c=cfg.d_c))
        except ValueError as exc:
            logger.warning("joint %s not formed: %s", a.edge, exc)
    return refinement, geometry


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def _dump(out_dir, name, payload):
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(encode(payload), fh, indent=2)
    return path


def run_pipeline(model_path, db_path, cfg: PipelineConfig, out_dir,
                 model: Optional[Model] = None,
                 db: Optional[Database] = None) -> dict:
    """Run all stages; returns a summary dict. Artifacts and per-stage logs
    are written under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {"stages": {}}
    t_all = time.perf_counter()
    # input loading stays outside the stage wrapper: bad inputs are the
    # caller's problem (exit 2), stage failures are ours (exit 3)
    t0 = time.perf_counter()
    if model is None:
        model = load_model(model_path)
    if db is None:
        db = load_database(db_path)
    summary["stages"]["load"] = {"seconds": time.perf_counter() - t0}
    stage = "preprocess"
    try:
        t0 = time.perf_counter()
        analysis = analyze_model(model, cfg)
        _dump(out_dir, "01_analysis.json", {
            "descriptors": analysis.descriptors,
            "contact_graph": analysis.contact_graph,
            "repetition_graph": analysis.repetition_graph,
        })
        summary["stages"][stage] = {
            "seconds": time.perf_counter() - t0,
            "parts": len(model.parts),
            "contacts": len(analysis.contact_graph.part_edges()),
        }

        stage = "materials"
        t0 = time.perf_counter()
        targets = resolve_targets(analysis, db, cfg)
        _dump(out_dir, "02_targets.json", targets)
        summary["stages"][stage] = {"seconds": time.perf_counter() - t0,
                                    "targets": {str(k): v.value for k, v in targets.items()}}

        stage = "reform"
        t0 = time.perf_counter()
        assignment = reform_assignment(analysis, targets, db, cfg)
        _dump(out_dir, "03_assignment.json", {
            "labels": assignment.labels,
            "log_potential": assignment.log_potential,
            "variables": assignment.variables,
            "largest_table": assignment.largest_table,
        })
        summary["stages"][stage] = {"seconds": time.perf_counter() - t0,
                                    "log_potential": assignment.log_potential,
                                    "variables": assignment.variables,
                                    "largest_table": assignment.largest_table}

        stage = "restore"
        t0 = time.perf_counter()
        placed, report = place_and_restore(analysis, assignment, db, cfg)
        state = reformed_state(analysis, placed, targets, db, cfg,
                               restore_report=report)
        _dump(out_dir, "04_restore.json", {
            "displacements": report.displacements,
            "objective_before": report.objective_before,
            "objective_after": report.objective_after,
        })
        summary["stages"][stage] = {"seconds": time.perf_counter() - t0,
                                    "objective_before": report.objective_before,
                                    "objective_after": report.objective_after}

        stage = "optimize-angles"
        t0 = time.perf_counter()
        best, report, constraints, configs, n_sets = optimize_angles(state, db, cfg)
        if best is not None:
            state = apply_configuration(state, best, db, cfg)
        _dump(out_dir, "05_configuration.json", {
            "constraints": constraints,
            "n_configurations": n_sets,
            "selected": None if best is None else {
                "index": best.index, "objective": best.objective,
                "opt_value": best.opt_value,
                "dropped_edges": best.dropped_edges,
                "new_contacts": best.new_contacts,
                "moved_parts": best.moved_parts,
                "feasibility_report": report,
            },
        })
        summary["stages"][stage] = {"seconds": time.perf_counter() - t0,
                                    "constraints": len(constraints),
                                    "configurations": n_sets,
                                    "solves": len(configs),
                                    "unconverged_solves": sum(not c.converged for c in configs),
                                    "supported_solves": sum(c.no_hanging_ok for c in configs),
                                    "objective": None if best is None else best.objective}

        stage = "infer-joints"
        t0 = time.perf_counter()
        assignments = infer_joints(state, db, cfg)
        _dump(out_dir, "06_joints.json", assignments)
        summary["stages"][stage] = {"seconds": time.perf_counter() - t0,
                                    "joints": len(assignments),
                                    "ambiguous": sum(a.joint.ambiguous for a in assignments)}

        stage = "refine"
        t0 = time.perf_counter()
        refinement, geometry = refine_and_form(state, assignments, cfg)
        _dump(out_dir, "07_refinement.json", {
            "scales": refinement.scales,
            "violations": refinement.violations,
            "kkt_residual": refinement.kkt_residual,
        })
        summary["stages"][stage] = {"seconds": time.perf_counter() - t0,
                                    "violations": len(refinement.violations),
                                    "kkt_residual": refinement.kkt_residual}

        stage = "export"
        t0 = time.perf_counter()
        spec = fabrication.FabricationSpec(
            parts=[fabrication.PartSpec(
                part_id=pid, material=state.materials[pid],
                dimensions=refinement.boxes[pid].extents)
                for pid in sorted(state.placed)],
            joints=assignments, geometry=geometry)
        part_meshes = {}
        for pid, p in state.placed.items():
            mesh = p.placed_mesh(db)
            scales = refinement.scales.get(pid)
            if scales is not None and not np.allclose(scales, 1.0):
                mesh = _scale_mesh_in_box(mesh, refinement.boxes[pid], scales)
            part_meshes[pid] = mesh
        fabrication.export_spec(spec, out_dir, part_meshes=part_meshes)
        reformed = Model(parts=[
            Part(id=pid, mesh=part_meshes[pid], material=state.materials[pid],
                 name=f"part_{pid}")
            for pid in sorted(part_meshes)])
        save_model(reformed, os.path.join(out_dir, "reformed_model.obj"))
        summary["stages"][stage] = {"seconds": time.perf_counter() - t0}
    except Exception as exc:
        _dump(out_dir, "failure.json", {"stage": stage, "error": str(exc)})
        raise StageError(stage, exc) from exc

    summary["total_seconds"] = time.perf_counter() - t_all
    _dump(out_dir, "summary.json", summary)
    return summary


def _scale_mesh_in_box(mesh: TriangleMesh, box, scales) -> TriangleMesh:
    local = (mesh.vertices - box.center) @ box.axes.T
    local = local * np.asarray(scales)
    return TriangleMesh(local @ box.axes + box.center, mesh.faces.copy())


# ---------------------------------------------------------------------------
# source directories (generator output / training corpora)
# ---------------------------------------------------------------------------

def write_sources(sources, out_dir):
    """One polygon file + material sidecar + joint tag file per model."""
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for src in sources:
        base = os.path.join(out_dir, src.name)
        save_model(src.model, base + ".obj")
        materials = {p.name: p.material.value for p in src.model.parts}
        with open(base + ".materials.json", "w") as fh:
            json.dump(materials, fh, indent=2)
        if src.joint_tags:
            tags = [[*sorted(k), v] for k, v in sorted(
                src.joint_tags.items(), key=lambda kv: sorted(kv[0]))]
            with open(base + ".joints.json", "w") as fh:
                json.dump(tags, fh, indent=2)
        names.append(src.name)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"models": names}, fh, indent=2)
    return out_dir


def read_sources(dir_path):
    with open(os.path.join(dir_path, "manifest.json")) as fh:
        names = json.load(fh)["models"]
    sources = []
    for name in names:
        base = os.path.join(dir_path, name)
        model = load_model(base + ".obj", material_sidecar=base + ".materials.json")
        tags = None
        if os.path.exists(base + ".joints.json"):
            with open(base + ".joints.json") as fh:
                tags = {frozenset((a, b)): kind for a, b, kind in json.load(fh)}
        sources.append(DatabaseSource(model=model, name=name, joint_tags=tags))
    return sources


def build_database_from_config(sources, cfg: PipelineConfig) -> Database:
    return cluster_candidates(build_database(sources, cfg),
                              k=cfg.candidates_k, seed=cfg.seed)
