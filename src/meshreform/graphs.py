"""Contact and repetition graphs of a normalized multi-component model."""

import itertools
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .mesh import Model, SurfaceSamples
from .part_analysis import PartDescriptor

logger = logging.getLogger(__name__)

GROUND_ID = -1
DEFAULT_CONTACT_DISTANCE = 0.01
CONTACT_SAMPLES = 8000      # dense surface samples per part behind contacts
CURVILINEAR_NEIGHBORHOOD = 0.05
CONGRUENCE_EXTENT_TOL = 0.02
CONGRUENCE_RMS_TOL = 0.01
CONGRUENCE_MAX_POINTS = 1000


def connected_components(nodes, pairs):
    """Connected components of the graph on ``nodes`` with edges ``pairs``
    (union-find), as sorted lists ordered by their smallest node. Every
    node of ``pairs`` must be in ``nodes``."""
    parent = {n: n for n in nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups = {}
    for n in parent:
        groups.setdefault(find(n), []).append(n)
    return [sorted(g) for g in sorted(groups.values(), key=min)]


@dataclass
class ContactEdge:
    i: int
    j: int                      # GROUND_ID for ground contacts
    contact_point: np.ndarray
    angle: Optional[float] = None   # degrees in [0, 90], None when not defined
    is_ground: bool = False
    min_distance: float = 0.0

    def key(self):
        return (self.i, self.j)


@dataclass
class ContactGraph:
    nodes: list
    edges: list[ContactEdge] = field(default_factory=list)

    def part_edges(self):
        return [e for e in self.edges if not e.is_ground]

    def ground_edges(self):
        return [e for e in self.edges if e.is_ground]

    def edges_of(self, pid):
        return [e for e in self.edges if pid in (e.i, e.j)]

    def degree(self, pid):
        return len(self.edges_of(pid))

    def find_edge(self, i, j):
        a, b = min(i, j), max(i, j)
        for e in self.edges:
            if (e.i, e.j) == (a, b):
                return e
        return None


@dataclass
class RepetitionGraph:
    nodes: list
    edges: list[tuple] = field(default_factory=list)  # (i, j) pairs, i < j

    def classes(self):
        """Congruence classes as sorted lists (transitive closure)."""
        return connected_components(self.nodes, self.edges)

    def partners(self, pid):
        for cls_ in self.classes():
            if pid in cls_:
                return [p for p in cls_ if p != pid]
        return []


# ---------------------------------------------------------------------------
# contact graph
# ---------------------------------------------------------------------------

def build_contact_graph(model: Model, samples: dict,
                        d_c=DEFAULT_CONTACT_DISTANCE) -> ContactGraph:
    """Edges between part pairs whose sampled surfaces come within ``d_c``.

    Distances are measured between sample sets, not exact triangles: an
    upper bound on the true surface distance that tightens with sampling
    density, which is why contact analysis samples densely. The contact
    point is the barycenter of both parts' samples that lie within ``d_c``
    of the other part's samples. Parts whose lowest vertex is within
    ``d_c`` of the model's minimum z get an extra ground edge
    (``j == GROUND_ID``); the input is assumed z-up.

    ``samples`` maps part id to SurfaceSamples.
    """
    if d_c <= 0:
        raise ValueError("d_c must be positive")

    ids = [p.id for p in model.parts]
    pts = {pid: samples[pid].positions for pid in ids}
    cols = {pid: np.ascontiguousarray(pts[pid].T) for pid in ids}   # (3, n)
    aabb = {pid: (cols[pid].min(axis=1), cols[pid].max(axis=1)) for pid in ids}

    graph = ContactGraph(nodes=list(ids))
    for i, j in itertools.combinations(ids, 2):
        lo = np.maximum(aabb[i][0], aabb[j][0]) - d_c
        hi = np.minimum(aabb[i][1], aabb[j][1]) + d_c
        if (lo > hi).any():
            continue
        a = pts[i][_in_box(cols[i], lo, hi)]
        b = pts[j][_in_box(cols[j], lo, hi)]
        if len(a) == 0 or len(b) == 0:
            continue
        # A sample within d_c of the other part lies inside its own box and
        # within d_c of the other's, so inside the crop box: a tree over
        # the other part's cropped samples finds the same neighbours within
        # d_c as one over the whole part, and holds a few hundred points.
        d_a = cKDTree(b).query(a, distance_upper_bound=d_c)[0]
        dmin = float(d_a.min())
        if dmin >= d_c:
            continue
        # Likewise an a-sample within d_c of a b-sample is itself near, so a
        # tree over the near a-samples alone gives the same mask for b.
        near_a = a[d_a < d_c]
        d_b = cKDTree(near_a).query(b, distance_upper_bound=d_c)[0]
        near = np.vstack([near_a, b[d_b < d_c]])
        graph.edges.append(ContactEdge(i, j, near.mean(axis=0), min_distance=dmin))

    # ground contacts (z-up convention)
    all_min_z = min(float(p.mesh.vertices[:, 2].min()) for p in model.parts)
    for p in model.parts:
        if float(p.mesh.vertices[:, 2].min()) < all_min_z + d_c:
            low = pts[p.id][cols[p.id][2] < all_min_z + d_c]
            if len(low) == 0:
                low = p.mesh.vertices[p.mesh.vertices[:, 2] < all_min_z + d_c]
            cp = low.mean(axis=0)
            cp = np.array([cp[0], cp[1], all_min_z])
            graph.edges.append(ContactEdge(p.id, GROUND_ID, cp, is_ground=True))
    return graph


def _in_box(cols, lo, hi):
    """Mask of the points, given as (3, n) coordinate rows, inside the
    axis-aligned box [lo, hi]."""
    mask = (cols[0] >= lo[0]) & (cols[0] <= hi[0])
    for k in (1, 2):
        mask &= (cols[k] >= lo[k]) & (cols[k] <= hi[k])
    return mask


def _angle_leg(desc: PartDescriptor, samples: SurfaceSamples, contact_point):
    """Direction of a part at a contact, or None when the part is neither
    linear nor locally linear (curvilinear) there."""
    if desc.is_linear:
        return desc.dominant_axis
    if desc.curvilinear and samples is not None:
        rel = samples.positions - np.asarray(contact_point)
        near = (rel * rel).sum(axis=1) < CURVILINEAR_NEIGHBORHOOD * CURVILINEAR_NEIGHBORHOOD
        local = samples.positions[near]
        if len(local) >= 5:
            centered = local - local.mean(axis=0)
            w, v = np.linalg.eigh(centered.T @ centered)
            if np.sqrt(w[2]) >= 3.0 * np.sqrt(max(w[1], 0.0)):
                return v[:, 2]
    return None


def fold_angle_deg(u, v):
    """Angle between two directions folded into [0, 90] degrees."""
    c = abs(float(np.dot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return float(np.degrees(np.arccos(np.clip(c, 0.0, 1.0))))


def estimate_contact_angle(di: PartDescriptor, dj: PartDescriptor,
                           edge: ContactEdge,
                           samples_i: Optional[SurfaceSamples] = None,
                           samples_j: Optional[SurfaceSamples] = None
                           ) -> Optional[float]:
    """Contact angle between the two parts' legs, or None."""
    leg_i = _angle_leg(di, samples_i, edge.contact_point)
    leg_j = _angle_leg(dj, samples_j, edge.contact_point)
    if leg_i is None or leg_j is None:
        return None
    return fold_angle_deg(leg_i, leg_j)


def annotate_contact_angles(graph: ContactGraph, descriptors: dict,
                            samples: dict):
    """Fill ``angle`` on every part-part edge, in place."""
    for e in graph.part_edges():
        e.angle = estimate_contact_angle(
            descriptors[e.i], descriptors[e.j], e,
            samples.get(e.i), samples.get(e.j))
    return graph


# ---------------------------------------------------------------------------
# repetition graph
# ---------------------------------------------------------------------------

def _alignments():
    """(perm, inverse perm, signs) of the 48 axis permutations and
    reflections."""
    out = []
    for perm in itertools.permutations(range(3)):
        inv = np.argsort(perm)
        for signs in itertools.product((1.0, -1.0), repeat=3):
            out.append((list(perm), inv, np.array(signs)))
    return out


_ALIGNMENTS = _alignments()


def congruence_rms(desc_a: PartDescriptor, pts_a, desc_b: PartDescriptor, pts_b,
                   stop_below=None):
    """Smallest symmetric RMS nearest-point distance over the 48 box-frame
    alignments (axis permutations and reflections) mapping b onto a.

    Both sets are searched in their own box frames. An alignment maps b's
    local points into a's frame; it is an isometry, so its inverse maps a's
    local points into b's, and one tree per set serves all 48.
    ``stop_below`` ends the scan once an alignment is clearly congruent.
    """
    a_local = desc_a.obb.to_local(pts_a)
    b_local = desc_b.obb.to_local(pts_b)
    tree_a, tree_b = cKDTree(a_local), cKDTree(b_local)
    count = len(pts_a) + len(pts_b)
    best_sum = np.inf
    for perm, inv, signs in _ALIGNMENTS:
        d_ba = tree_a.query(b_local[:, perm] * signs)[0]
        d_ab = tree_b.query((a_local * signs)[:, inv])[0]
        d2 = float((d_ba * d_ba).sum() + (d_ab * d_ab).sum())
        if d2 < best_sum:
            best_sum = d2
            if stop_below is not None and np.sqrt(best_sum / count) < stop_below:
                break
    return float(np.sqrt(best_sum / count))


def build_repetition_graph(model: Model, descriptors: dict,
                           samples: dict) -> RepetitionGraph:
    """Congruence edges between parts with matching extents and small aligned
    RMS; the result is transitively closed into cliques.

    A pair already joined through earlier congruence edges is not checked:
    the closure puts it in one class whatever its own RMS, so k congruent
    copies cost at most k - 1 checks inside their class.
    """
    ids = [p.id for p in model.parts]
    graph = RepetitionGraph(nodes=list(ids))
    direct = []
    cls_of = {pid: {pid} for pid in ids}     # the class found so far
    for i, j in itertools.combinations(ids, 2):
        if cls_of[i] is cls_of[j]:
            continue
        ea, eb = descriptors[i].size_vec, descriptors[j].size_vec
        if (np.abs(ea - eb)
                > CONGRUENCE_EXTENT_TOL * np.maximum(ea, eb) + 1e-12).any():
            continue
        pa = samples[i].positions[:CONGRUENCE_MAX_POINTS]
        pb = samples[j].positions[:CONGRUENCE_MAX_POINTS]
        rms = congruence_rms(descriptors[i], pa, descriptors[j], pb,
                             stop_below=0.5 * CONGRUENCE_RMS_TOL)
        if rms < CONGRUENCE_RMS_TOL:
            direct.append((i, j))
            joined = cls_of[i] | cls_of[j]
            for pid in joined:
                cls_of[pid] = joined
    # transitive closure: each component becomes a clique
    for cls_ in connected_components(ids, direct):
        graph.edges.extend(itertools.combinations(cls_, 2))
    return graph
