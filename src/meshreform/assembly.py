"""Placing replacement parts and restoring the original contact graph."""

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .graphs import connected_components
from .mesh import SurfaceSamples, TriangleMesh, sample_surface, Part
from .obb import OrientedBox

logger = logging.getLogger(__name__)

# surface samples per side of a placement's alignment RMS
RMS_POINTS = 400

# sign patterns of proper rotations when axes are matched by extent order
_PROPER_SIGNS = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])


@dataclass
class PlacedPart:
    """A database part posed at a query part's location.

    The replacement's OBB frame is mapped onto the query part's frame and
    its dominant dimension is scaled to match; the two cross dimensions (and
    therefore thickness) stay untouched. Contact restoration translates the
    pose: ``offset`` and ``box`` move together.
    """

    part_id: int
    source_index: int
    linear: np.ndarray                     # (3, 3) rotation @ axis scale
    offset: np.ndarray                     # (3,) translation
    box: OrientedBox                       # placed OBB

    def transform_points(self, pts):
        return np.atleast_2d(pts) @ self.linear.T + self.offset

    def placed_mesh(self, db) -> TriangleMesh:
        src = db.part(self.source_index).mesh
        return TriangleMesh(self.transform_points(src.vertices), src.faces.copy())

    def placed_samples(self, db, n=2000, seed=0) -> SurfaceSamples:
        mesh = self.placed_mesh(db)
        return sample_surface(Part(id=self.part_id, mesh=mesh), n, seed=seed)


def place_replacements(descriptors: dict, assignment, db, query_samples: dict,
                       seed=0) -> list:
    """Pose each assigned database part at its query part.

    Axes are matched by descending extent; among the four proper-rotation
    alignments the one with the smallest sample RMS to the query part wins.
    The dominant extent is scaled to match the query part's.
    """
    placed = []
    for pid in sorted(descriptors):
        q = descriptors[pid]
        src_idx = int(assignment.labels[pid])
        r = db.part(src_idx).descriptor
        if q.obb.degenerate or r.obb.degenerate or r.obb.half_extents[0] <= 0:
            raise ValueError(f"degenerate OBB for part {pid} or candidate {src_idx}")
        s_diag = np.diag([q.obb.half_extents[0] / r.obb.half_extents[0], 1.0, 1.0])

        r_mesh = db.part(src_idx).mesh
        if r_mesh is None:
            raise ValueError(f"database part {src_idx} has no mesh")
        n = min(RMS_POINTS, max(3 * len(r_mesh.faces), 16))
        cand_pts = sample_surface(Part(id=src_idx, mesh=r_mesh), n, seed=seed).positions
        q_tree = cKDTree(query_samples[pid].positions[:RMS_POINTS])

        best = None
        best_rms = np.inf
        for signs in _PROPER_SIGNS:
            axes_q = q.obb.axes * signs[:, None]
            linear = axes_q.T @ s_diag @ r.obb.axes
            offset = q.obb.center - linear @ r.obb.center
            mapped = cand_pts @ linear.T + offset
            d = q_tree.query(mapped)[0]
            rms = float(np.sqrt((d * d).mean()))
            if rms < best_rms:
                best_rms = rms
                best = (linear, offset, axes_q)
        linear, offset, axes_q = best
        box = OrientedBox(q.obb.center.copy(), axes_q.copy(),
                          np.array([q.obb.half_extents[0],
                                    r.obb.half_extents[1],
                                    r.obb.half_extents[2]]))
        placed.append(PlacedPart(part_id=pid, source_index=src_idx,
                                 linear=linear, offset=offset, box=box))
    return placed


# ---------------------------------------------------------------------------
# contact restoration
# ---------------------------------------------------------------------------

def closest_point_on_placed(placed: PlacedPart, db, point, samples):
    """Closest surface point of a placed part to ``point``: nearest of its
    ``samples``, refined by projecting onto that sample's triangle."""
    d2 = ((samples.positions - point) ** 2).sum(axis=1)
    k = int(np.argmin(d2))
    mesh_src = db.part(placed.source_index).mesh
    face = mesh_src.faces[samples.face_indices[k]]
    tri = placed.transform_points(mesh_src.vertices[face])
    return _project_point_triangle(np.asarray(point, dtype=float), tri)


def _project_point_triangle(p, tri):
    a, b, c = tri
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = ab @ ap
    d2 = ac @ ap
    if d1 <= 0 and d2 <= 0:
        return a
    bp = p - b
    d3 = ab @ bp
    d4 = ac @ bp
    if d3 >= 0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return a + ab * (d1 / (d1 - d3))
    cp = p - c
    d5 = ab @ cp
    d6 = ac @ cp
    if d6 >= 0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return a + ac * (d2 / (d2 - d6))
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return b + (c - b) * w
    denom = 1.0 / (va + vb + vc)
    return a + ab * (vb * denom) + ac * (vc * denom)


@dataclass
class RestoreReport:
    displacements: dict
    objective_before: float
    objective_after: float
    foot_points: dict            # edge key -> (p_i, p_j)


def restore_contacts(placed: list, contact_graph, db, seed=0):
    """Translate placed parts so the original contact points close up.

    Foot points are found on surface samples of each placed part drawn with
    ``seed``. Per connected component of the part-part contact graph, the
    part with the most contacts is fixed (ties to the smallest id) and the
    quadratic gap objective is minimized in closed form through its normal
    equations (one graph Laplacian solve per coordinate). Ground edges carry
    no second part and do not enter the solve. Returns (new placed list,
    report); each returned part's pose is translated by its displacement.
    """
    by_id = {p.part_id: p for p in placed}
    edges = [e for e in contact_graph.part_edges()
             if e.i in by_id and e.j in by_id]

    foot_samples = {p.part_id: p.placed_samples(db, seed=seed) for p in placed}

    foot = {}
    for e in edges:
        pi = closest_point_on_placed(by_id[e.i], db, e.contact_point, foot_samples[e.i])
        pj = closest_point_on_placed(by_id[e.j], db, e.contact_point, foot_samples[e.j])
        foot[e.key()] = (pi, pj)

    degree = {pid: 0 for pid in by_id}
    for e in edges:
        degree[e.i] += 1
        degree[e.j] += 1

    disp = {pid: np.zeros(3) for pid in by_id}
    for members in connected_components(by_id, [e.key() for e in edges]):
        anchor = max(members, key=lambda pid: (degree[pid], -pid))
        free = [pid for pid in members if pid != anchor]
        if not free:
            if degree[anchor] == 0:
                logger.warning("part %d has no contacts; left in place", anchor)
            continue
        col = {pid: k for k, pid in enumerate(free)}
        lap = np.zeros((len(free), len(free)))
        rhs = np.zeros((len(free), 3))
        for e in edges:
            if e.i not in members:
                continue
            g = foot[e.key()][0] - foot[e.key()][1]   # p_i - p_j
            if e.i in col:
                lap[col[e.i], col[e.i]] += 1
                rhs[col[e.i]] -= g
            if e.j in col:
                lap[col[e.j], col[e.j]] += 1
                rhs[col[e.j]] += g
            if e.i in col and e.j in col:
                lap[col[e.i], col[e.j]] -= 1
                lap[col[e.j], col[e.i]] -= 1
        sol = np.linalg.solve(lap, rhs)
        for pid, k in col.items():
            disp[pid] = sol[k]

    def objective(displacements):
        total = 0.0
        for e in edges:
            pi, pj = foot[e.key()]
            gap = (pi + displacements[e.i]) - (pj + displacements[e.j])
            total += float(gap @ gap)
        return total

    before = objective({pid: np.zeros(3) for pid in by_id})
    after = objective(disp)
    out = [replace(p, offset=p.offset + disp[p.part_id],
                   box=OrientedBox(p.box.center + disp[p.part_id],
                                   p.box.axes, p.box.half_extents))
           for p in placed]
    return out, RestoreReport(displacements=disp,
                              objective_before=before, objective_after=after,
                              foot_points=foot)


def repose_to_segment(placed: PlacedPart, new_segment):
    """Rigidly (plus dominant-axis stretch) map a placed part so its segment
    endpoints land on ``new_segment``."""
    box = placed.box
    old = np.stack([box.center - box.half_extents[0] * box.axes[0],
                    box.center + box.half_extents[0] * box.axes[0]])
    new = np.asarray(new_segment, dtype=float)
    d_old = old[1] - old[0]
    d_new = new[1] - new[0]
    l_old = np.linalg.norm(d_old)
    l_new = np.linalg.norm(d_new)
    if l_old <= 0 or l_new <= 0:
        return placed
    u = d_old / l_old
    v = d_new / l_new
    rot = _minimal_rotation(u, v)
    stretch = np.eye(3) + (l_new / l_old - 1.0) * np.outer(u, u)
    m = rot @ stretch
    t = new[0] - m @ old[0]
    linear = m @ placed.linear
    offset = m @ placed.offset + t
    axes = box.axes @ rot.T
    if np.linalg.det(axes) < 0:
        axes[2] = -axes[2]
    new_box = OrientedBox(0.5 * (new[0] + new[1]), axes,
                          np.array([0.5 * l_new, box.half_extents[1], box.half_extents[2]]))
    return PlacedPart(placed.part_id, placed.source_index, linear, offset, new_box)


def _minimal_rotation(u, v):
    """Smallest rotation taking unit vector u to unit vector v."""
    c = float(np.clip(u @ v, -1.0, 1.0))
    axis = np.cross(u, v)
    s = np.linalg.norm(axis)
    if s < 1e-15:
        if c > 0:
            return np.eye(3)
        # antiparallel: rotate 180 degrees about any orthogonal axis
        helper = np.array([1.0, 0, 0]) if abs(u[0]) < 0.9 else np.array([0, 1.0, 0])
        axis = np.cross(u, helper)
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    axis = axis / s
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + s * k + (1 - c) * (k @ k)
