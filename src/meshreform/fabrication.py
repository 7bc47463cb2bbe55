"""Fabrication specs: joint-type inference, part refinement, joint forming.

Joint kinds are codified per material category:

* wood-wood: mortise_tenon, lap, dowel
* wood-metal: screw, bracket
* metal-metal: weld, bolt

Joint forming operates on OBB proxies with exact rectilinear box arithmetic
(the tenon prism is unioned onto the tenon box and the matching cavity is
carved out of the mortise box as a slab decomposition), so sculpted parts
stay watertight and prism/cavity volumes match exactly on aligned joints.
"""

import json
import logging
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .codec import decode, encode
from .graphs import DEFAULT_CONTACT_DISTANCE, connected_components
from .mesh import Material, Model, Part, save_model
from .obb import OrientedBox, box_gap, boxes_mesh, subtract_local_box
from .qp import QPInfeasibleError, kkt_residual, solve_min_change_qp
from .similarity import (orientation_angle_similarity, shape_matrix,
                         spatial_similarity)

logger = logging.getLogger(__name__)

JOINT_KINDS = {
    "wood-wood": ("mortise_tenon", "lap", "dowel"),
    "wood-metal": ("screw", "bracket"),
    "metal-metal": ("weld", "bolt"),
}

WALL_MARGIN = 0.004
PENETRATION_FACTOR = 0.3
SHRINK_LIMIT = 0.5
GROW_LIMIT = 2.0
TENON_FACE_SCALE = 0.5
KNN_K = 5
AMBIGUITY_MARGIN = 0.10
MIN_EXTENT = 1e-4

SPEC_VERSION = 1


def joint_category(mat_i: Material, mat_j: Material) -> str:
    pair = sorted([mat_i.value, mat_j.value], reverse=True)  # wood before metal
    if pair == ["wood", "wood"]:
        return "wood-wood"
    if pair == ["wood", "metal"]:
        return "wood-metal"
    if pair == ["metal", "metal"]:
        return "metal-metal"
    raise ValueError(f"no joint category for {mat_i}, {mat_j}")


@dataclass
class JointType:
    category: str
    kind: str
    ambiguous: bool = False
    candidates: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in JOINT_KINDS.get(self.category, ()):
            raise ValueError(f"kind {self.kind!r} not in category {self.category!r}")


@dataclass
class JointAssignment:
    edge: tuple
    joint: JointType
    tenon_part: Optional[int] = None
    mortise_part: Optional[int] = None

    def __post_init__(self):
        if self.joint.kind == "mortise_tenon":
            if self.tenon_part is None or self.mortise_part is None:
                raise ValueError("mortise_tenon needs tenon and mortise roles")
            if self.tenon_part == self.mortise_part:
                raise ValueError("tenon and mortise must differ")
        elif self.tenon_part is not None or self.mortise_part is not None:
            raise ValueError("tenon/mortise roles only apply to mortise_tenon")


@dataclass
class QueryContact:
    """Everything joint inference needs to know about one reformed contact."""

    edge: tuple
    materials: tuple              # (Material_i, Material_j)
    descriptors: tuple            # (PartDescriptor_i, PartDescriptor_j)
    barycenter_distance: float
    orientation_vec: np.ndarray
    contact_point: np.ndarray


# ---------------------------------------------------------------------------
# joint type inference
# ---------------------------------------------------------------------------

def _pool_scores(query: QueryContact, pool, db):
    """Joint affinity of one query contact against every pooled exemplar
    contact (max over the two part-order pairings), vectorized."""
    u_desc = [db.part(c.u).descriptor for c in pool]
    v_desc = [db.part(c.v).descriptor for c in pool]
    u_mat = np.array([db.part(c.u).material == query.materials[0] for c in pool])
    v_mat = np.array([db.part(c.v).material == query.materials[1] for c in pool])
    u_mat_sw = np.array([db.part(c.u).material == query.materials[1] for c in pool])
    v_mat_sw = np.array([db.part(c.v).material == query.materials[0] for c in pool])
    qi, qj = query.descriptors
    s_iu = shape_matrix([qi], u_desc, mode="obb_only")[0]
    s_jv = shape_matrix([qj], v_desc, mode="obb_only")[0]
    s_iv = shape_matrix([qi], v_desc, mode="obb_only")[0]
    s_ju = shape_matrix([qj], u_desc, mode="obb_only")[0]
    d_uv = np.array([c.barycenter_distance for c in pool])
    pr = spatial_similarity(query.barycenter_distance, d_uv)
    a_uv = np.stack([np.asarray(c.orientation_vec, dtype=float) for c in pool])
    oa = orientation_angle_similarity(query.orientation_vec, a_uv)
    direct = (u_mat & v_mat) * s_iu * s_jv
    swapped = (u_mat_sw & v_mat_sw) * s_iv * s_ju
    return np.maximum(direct, swapped) * pr * oa


def _tenon_role(query: QueryContact):
    """Tenon = the part whose dominant axis points into the other part at
    the contact, weighted by how close to that axis' end the contact sits
    (ties to the smaller part id)."""
    scores = []
    for k in (0, 1):
        own = query.descriptors[k]
        other = query.descriptors[1 - k]
        to_other = other.obb.center - query.contact_point
        nrm = np.linalg.norm(to_other)
        if nrm < 1e-12:
            scores.append(0.0)
            continue
        alignment = abs(float(own.dominant_axis @ (to_other / nrm)))
        along = abs(float(own.dominant_axis @ (query.contact_point - own.obb.center)))
        endness = min(along / max(own.obb.half_extents[0], 1e-12), 1.0)
        scores.append(alignment * (0.5 + 0.5 * endness))
    if scores[0] >= scores[1]:
        return query.edge[0], query.edge[1]
    return query.edge[1], query.edge[0]


def infer_joint_types(queries, db, k=KNN_K, overrides=None) -> list:
    """kNN vote over the tagged exemplar contacts.

    The winner is the plurality kind among the k highest-affinity tagged
    contacts; a tie in votes or a best-score margin below 10% against the
    runner-up kind marks the joint ambiguous. ``overrides`` maps an edge
    ``(min, max)``, the form of every query edge, to a kind and clears
    ambiguity.
    """
    overrides = overrides or {}
    tagged = db.tagged_contacts()
    by_category = {}
    for c in tagged:
        cat = joint_category(db.part(c.u).material, db.part(c.v).material)
        by_category.setdefault(cat, []).append(c)

    out = []
    for q in queries:
        cat = joint_category(*q.materials)
        pool = by_category.get(cat, [])
        if not pool:
            raise ValueError(f"no tagged {cat} contacts in database (edge {q.edge})")
        scores = _pool_scores(q, pool, db)
        top = np.argsort(-scores, kind="stable")[:min(k, len(pool))]
        votes = {}
        best_phi = {}
        for t in top:
            kind = pool[t].joint_kind
            votes[kind] = votes.get(kind, 0) + 1
            best_phi[kind] = max(best_phi.get(kind, 0.0), float(scores[t]))
        ranked = sorted(votes.items(), key=lambda kv: (-kv[1], -best_phi[kv[0]], kv[0]))
        winner = ranked[0][0]
        ambiguous = False
        if len(ranked) > 1:
            if ranked[1][1] == ranked[0][1]:
                ambiguous = True
            else:
                top1 = best_phi[winner]
                top2 = max(v for kk, v in best_phi.items() if kk != winner)
                if top1 <= 0 or (top1 - top2) / top1 < AMBIGUITY_MARGIN:
                    ambiguous = True
        candidates = [kk for kk, _ in ranked] if ambiguous else []

        if q.edge in overrides:
            winner = overrides[q.edge]
            ambiguous = False
            candidates = []
        joint = JointType(category=cat, kind=winner, ambiguous=ambiguous,
                          candidates=candidates)
        tenon = mortise = None
        if joint.kind == "mortise_tenon":
            tenon, mortise = _tenon_role(q)
        out.append(JointAssignment(edge=q.edge, joint=joint,
                                   tenon_part=tenon, mortise_part=mortise))
    return out


# ---------------------------------------------------------------------------
# QP part refinement
# ---------------------------------------------------------------------------

@dataclass
class RefinementResult:
    boxes: dict                 # part id -> refined OrientedBox
    scales: dict                # part id -> per-axis scale factors (3,)
    violations: list            # infeasible joints left unscaled
    kkt_residual: float = 0.0


def refine_part_dimensions(assignments, boxes: dict) -> RefinementResult:
    """Minimum-change resize of joint-incident OBBs (centroids fixed).

    For each mortise_tenon joint the tenon's two cross extents must fit
    inside the mortise's support widths minus ``WALL_MARGIN``, and the tenon
    must reach ``PENETRATION_FACTOR`` times the mortise width past the entry
    face. Variables are the half extents of all mortise_tenon-incident parts,
    solved jointly by the active-set QP; an infeasible cluster is reported
    and its parts are left at their original dimensions.

    ``SHRINK_LIMIT``/``GROW_LIMIT`` bound every extent to that multiple of
    its original value, so a single misjudged joint cannot mangle a part.
    """
    mt = [a for a in assignments if a.joint.kind == "mortise_tenon"]
    result = RefinementResult(boxes={pid: b for pid, b in boxes.items()},
                              scales={pid: np.ones(3) for pid in boxes},
                              violations=[])
    if not mt:
        return result

    # clusters of parts coupled by mortise_tenon joints, in the order of
    # their first joint
    pairs = [(a.tenon_part, a.mortise_part) for a in mt]
    cluster_of = {pid: k for k, members in enumerate(
        connected_components({p for pair in pairs for p in pair}, pairs))
        for pid in members}
    clusters = {}
    for a in mt:
        clusters.setdefault(cluster_of[a.tenon_part], []).append(a)

    worst_residual = 0.0
    for joints in clusters.values():
        res = _refine_cluster(joints, boxes)
        if isinstance(res, dict):
            result.violations.append(res)
            continue
        new_boxes, scales, residual = res
        result.boxes.update(new_boxes)
        result.scales.update(scales)
        worst_residual = max(worst_residual, residual)
    result.kkt_residual = worst_residual
    return result


def _refine_cluster(mt, boxes):
    involved = sorted({p for a in mt for p in (a.tenon_part, a.mortise_part)})
    col = {pid: 3 * k for k, pid in enumerate(involved)}
    x0 = np.concatenate([boxes[pid].half_extents for pid in involved])
    n = len(x0)

    rows, rhs, row_joint = [], [], []
    for a in mt:
        tb = boxes[a.tenon_part]
        mb = boxes[a.mortise_part]
        tcol = col[a.tenon_part]
        mcol = col[a.mortise_part]
        dom = tb.axes[0]
        # cross-section fit: 2*t_half_c <= sum_k |u . m_axis_k| * 2*m_half_k - margin
        for cross_axis in (1, 2):
            u = tb.axes[cross_axis]
            w = np.abs(mb.axes @ u)
            row = np.zeros(n)
            row[tcol + cross_axis] = 2.0
            row[mcol:mcol + 3] -= 2.0 * w
            rows.append(row)
            rhs.append(-WALL_MARGIN)
            row_joint.append(a)
        # reach: t_half_dom + (0.5 - PENETRATION_FACTOR) * W(dom) >= gap along dom
        gap = abs(float(dom @ (mb.center - tb.center)))
        wd = np.abs(mb.axes @ dom)
        row = np.zeros(n)
        row[tcol] = -1.0
        row[mcol:mcol + 3] -= (1.0 - 2.0 * PENETRATION_FACTOR) * wd
        rows.append(row)
        rhs.append(-gap)
        row_joint.append(a)

    # positivity and trust region of every variable extent
    for k in range(n):
        row = np.zeros(n)
        row[k] = -1.0
        rows.append(row)
        rhs.append(-max(MIN_EXTENT, SHRINK_LIMIT * x0[k]))
        row_joint.append(None)
        row = np.zeros(n)
        row[k] = 1.0
        rows.append(row)
        rhs.append(GROW_LIMIT * x0[k])
        row_joint.append(None)

    G = np.vstack(rows)
    h = np.asarray(rhs)
    try:
        x, active, lam = solve_min_change_qp(x0, G, h)
    except QPInfeasibleError as exc:
        edge = _find_violating_joint(mt, rows, rhs, row_joint, x0)
        logger.warning("refinement infeasible (joint %s): %s", edge, exc)
        return {"edge": list(edge) if edge else None, "reason": str(exc)}

    residual = kkt_residual(x, x0, G, h, active, lam)
    new_boxes = {}
    scales = {}
    for pid in involved:
        old = boxes[pid]
        new_half = x[col[pid]:col[pid] + 3].copy()
        new_boxes[pid] = OrientedBox(old.center.copy(), old.axes.copy(), new_half)
        scales[pid] = new_half / old.half_extents
    return new_boxes, scales, residual


def _find_violating_joint(mt, rows, rhs, row_joint, x0):
    """Name a joint whose own constraint block (plus bounds) is infeasible."""
    for joint in mt:
        idx = [k for k, j in enumerate(row_joint) if j is joint or j is None]
        G = np.vstack([rows[k] for k in idx])
        h = np.asarray([rhs[k] for k in idx])
        try:
            solve_min_change_qp(x0, G, h)
        except QPInfeasibleError:
            return joint.edge
    return mt[0].edge if mt else None


# ---------------------------------------------------------------------------
# joint forming (proxy CSG)
# ---------------------------------------------------------------------------

@dataclass
class JointGeometry:
    edge: tuple
    kind: str
    prism: Optional[OrientedBox] = None
    seam_point: Optional[np.ndarray] = None
    sculpted: dict[int, list[OrientedBox]] = field(default_factory=dict)


def _tenon_face(tb: OrientedBox, mb: OrientedBox):
    """Index (axis, sign) of the tenon box face nearest the mortise center."""
    best = None
    best_d = np.inf
    for axis in range(3):
        for sign in (-1.0, 1.0):
            fc = tb.center + sign * tb.half_extents[axis] * tb.axes[axis]
            d = float(np.linalg.norm(fc - mb.center))
            if d < best_d:
                best_d = d
                best = (axis, sign)
    return best


def form_joint_geometry(assignment: JointAssignment, boxes: dict,
                        d_c=DEFAULT_CONTACT_DISTANCE) -> JointGeometry:
    """Form one joint on OBB proxies.

    mortise_tenon: the tenon face nearest the mortise is scaled by
    ``TENON_FACE_SCALE`` and extruded ``PENETRATION_FACTOR`` times the
    mortise width into it; the tenon part gains the prism, the mortise part
    gains the matching cavity. lap: both parts lose a half-thickness notch
    over the overlap footprint. Other kinds record a seam/fastener at the
    contact midpoint.
    """
    i, j = assignment.edge
    kind = assignment.joint.kind
    geo = JointGeometry(edge=assignment.edge, kind=kind)
    if kind == "mortise_tenon":
        tb = boxes[assignment.tenon_part]
        mb = boxes[assignment.mortise_part]
        gap = box_gap(tb, mb)
        if gap > d_c:
            raise ValueError(
                f"joint {assignment.edge}: boxes separated by {gap:.4f} > d_c")
        axis, sign = _tenon_face(tb, mb)
        direction = sign * tb.axes[axis]
        depth = PENETRATION_FACTOR * mb.support_width(direction)
        cross = [a for a in range(3) if a != axis]
        face_center = tb.center + sign * tb.half_extents[axis] * tb.axes[axis]
        prism_axes = np.stack([tb.axes[axis], tb.axes[cross[0]], tb.axes[cross[1]]])
        if np.linalg.det(prism_axes) < 0:
            prism_axes[2] = -prism_axes[2]
        prism = OrientedBox(
            face_center + 0.5 * depth * direction,
            prism_axes,
            np.array([0.5 * depth,
                      TENON_FACE_SCALE * tb.half_extents[cross[0]],
                      TENON_FACE_SCALE * tb.half_extents[cross[1]]]))
        geo.prism = prism
        geo.sculpted[assignment.tenon_part] = [_copy_box(tb), prism]
        lo, hi = _local_aabb(mb, prism)
        geo.sculpted[assignment.mortise_part] = subtract_local_box(mb, lo, hi)
    elif kind == "lap":
        ba, bb = boxes[i], boxes[j]
        gap = box_gap(ba, bb)
        if gap > d_c:
            raise ValueError(f"joint {assignment.edge}: boxes separated by {gap:.4f} > d_c")
        geo.sculpted[i] = _lap_notch(ba, bb)
        geo.sculpted[j] = _lap_notch(bb, ba)
    else:
        # welds, screws, bolts, dowels, brackets: marker only
        ba, bb = boxes[i], boxes[j]
        geo.seam_point = 0.5 * (ba.center + bb.center)
    return geo


def _copy_box(b):
    return OrientedBox(b.center.copy(), b.axes.copy(), b.half_extents.copy(),
                       b.degenerate)


def _local_aabb(ref: OrientedBox, other: OrientedBox):
    """AABB of ``other`` in ``ref``'s local frame (conservative snap used to
    keep the carved cavity axis aligned; exact when the frames align)."""
    corners = ref.to_local(other.corners())
    return corners.min(axis=0), corners.max(axis=0)


def _lap_notch(part: OrientedBox, other: OrientedBox):
    """Remove the half-thickness slab of ``part`` facing ``other`` over the
    footprint both boxes share."""
    lo, hi = _local_aabb(part, other)
    lo = np.maximum(lo, -part.half_extents)
    hi = np.minimum(hi, part.half_extents)
    # stacking axis: largest center offset of the other box in local coords
    off = part.to_local(other.center)[0]
    stack = int(np.argmax(np.abs(off)))
    cut_lo = lo.copy()
    cut_hi = hi.copy()
    if off[stack] >= 0:
        # cut from the facing side down to the mid-plane (half thickness)
        cut_lo[stack], cut_hi[stack] = 0.0, part.half_extents[stack]
    else:
        cut_lo[stack], cut_hi[stack] = -part.half_extents[stack], 0.0
    return subtract_local_box(part, cut_lo, cut_hi)


# ---------------------------------------------------------------------------
# spec export
# ---------------------------------------------------------------------------

@dataclass
class PartSpec:
    part_id: int
    material: Material
    dimensions: np.ndarray       # refined OBB extents, descending
    mesh_file: Optional[str] = None


@dataclass
class FabricationSpec:
    parts: list[PartSpec]
    joints: list[JointAssignment]
    geometry: list[JointGeometry]


def export_spec(spec: FabricationSpec, out_dir, part_meshes=None):
    """Write spec.json plus one polygon file per sculpted part (and any
    provided reformed part meshes). Returns the spec.json path."""
    os.makedirs(out_dir, exist_ok=True)
    sculpt_meshes = {}
    for g in spec.geometry:
        for pid, bs in g.sculpted.items():
            sculpt_meshes[pid] = boxes_mesh(bs)
    for p in spec.parts:
        mesh = sculpt_meshes.get(p.part_id)
        if mesh is None and part_meshes is not None:
            mesh = part_meshes.get(p.part_id)
        if mesh is not None:
            fname = f"part_{p.part_id}.obj"
            save_model(Model([Part(p.part_id, mesh, name=f"part_{p.part_id}")]),
                       os.path.join(out_dir, fname))
            p.mesh_file = fname
    path = os.path.join(out_dir, "spec.json")
    with open(path, "w") as fh:
        json.dump({"version": SPEC_VERSION, **encode(spec)}, fh, indent=2)
    return path


def load_spec(path) -> FabricationSpec:
    with open(path) as fh:
        d = json.load(fh)
    version = d.get("version") if isinstance(d, dict) else None
    if version != SPEC_VERSION:
        raise ValueError(f"unsupported spec version {version!r}")
    return decode(FabricationSpec, d)

