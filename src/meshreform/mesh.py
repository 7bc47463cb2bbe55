"""Triangle meshes, multi-component models, and surface sampling."""

import json
import logging
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

logger = logging.getLogger(__name__)

DEGENERATE_AREA_TOL = 1e-12


class MeshParseError(ValueError):
    """Raised for malformed polygon files; message carries the line number."""


class Material(str, Enum):
    WOOD = "wood"
    METAL = "metal"
    OTHER = "other"
    UNTAGGED = "untagged"


@dataclass
class TriangleMesh:
    """Indexed triangle soup with derived per-face normals and areas.

    vertices: (n, 3) float64, faces: (m, 3) int64. Face indices must be in
    range; :meth:`drop_degenerate_faces` removes faces whose area is at most
    ``DEGENERATE_AREA_TOL``.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face index out of range")

    @property
    def n_faces(self):
        return len(self.faces)

    def triangle_corners(self):
        v = self.vertices
        f = self.faces
        return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]

    def face_cross(self):
        a, b, c = self.triangle_corners()
        return np.cross(b - a, c - a)

    def face_areas(self):
        return 0.5 * np.linalg.norm(self.face_cross(), axis=1)

    def face_normals(self):
        cr = self.face_cross()
        return _unit_rows(cr, np.linalg.norm(cr, axis=1))

    def surface_area(self):
        return float(self.face_areas().sum())

    def drop_degenerate_faces(self, area_tol=DEGENERATE_AREA_TOL):
        keep = self.face_areas() > area_tol
        if keep.all():
            return self
        return TriangleMesh(self.vertices, self.faces[keep])

    def transformed(self, matrix=None, translation=None, scale=None):
        v = self.vertices
        if scale is not None:
            v = v * scale
        if matrix is not None:
            v = v @ np.asarray(matrix).T
        if translation is not None:
            v = v + translation
        return TriangleMesh(v, self.faces.copy())


def _unit_rows(rows, lengths):
    """``rows`` divided by their ``lengths``; zero-length rows stay zero."""
    return rows / np.where(lengths > 0, lengths, 1.0)[:, None]


@dataclass
class Part:
    """One connected component of a model, tagged with a material."""

    id: int
    mesh: TriangleMesh
    material: Material = Material.UNTAGGED
    name: str = ""


@dataclass
class Model:
    """Ordered list of parts plus the cumulative normalization scale."""

    parts: list
    global_scale: float = 1.0

    def __post_init__(self):
        ids = [p.id for p in self.parts]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate part ids")

    def all_vertices(self):
        if not self.parts:
            return np.zeros((0, 3))
        return np.vstack([p.mesh.vertices for p in self.parts])


@dataclass
class SurfaceSamples:
    """Area-weighted surface samples of one part (array-of-structs layout)."""

    positions: np.ndarray    # (n, 3)
    normals: np.ndarray      # (n, 3) unit face normals
    face_indices: np.ndarray  # (n,)

    def __len__(self):
        return len(self.positions)

    def barycenter(self):
        return self.positions.mean(axis=0)


# ---------------------------------------------------------------------------
# Wavefront-style polygon IO
# ---------------------------------------------------------------------------

_MATERIAL_ALIASES = {m.value: m for m in Material}


def _parse_material(tag, context=""):
    key = str(tag).strip().lower()
    if key not in _MATERIAL_ALIASES:
        raise ValueError(f"unknown material {tag!r}{context}")
    return _MATERIAL_ALIASES[key]


def load_model(path, material_sidecar=None, regroup=None, weld_tol=None) -> Model:
    """Load a polygon file with ``g`` groups as parts.

    Quads and larger polygons are fan-triangulated. ``material_sidecar`` is a
    JSON file mapping group names to materials; groups without an entry stay
    untagged. ``regroup`` is a JSON file mapping group names to integer part
    ids so several groups can merge into one part. Groups that contribute no
    faces are dropped. ``weld_tol`` (fraction of the bounding diagonal)
    optionally merges nearly coincident vertices before grouping.
    """
    vertices = []
    groups = {}
    order = []
    current = "default"

    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            tag = tokens[0]
            if tag == "v":
                if len(tokens) < 4:
                    raise MeshParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    vertices.append([float(t) for t in tokens[1:4]])
                except ValueError as exc:
                    raise MeshParseError(f"{path}:{lineno}: bad vertex coordinate") from exc
            elif tag == "g" or tag == "o":
                current = " ".join(tokens[1:]) if len(tokens) > 1 else "default"
            elif tag == "f":
                if len(tokens) < 4:
                    raise MeshParseError(f"{path}:{lineno}: face needs >= 3 vertices")
                idx = []
                for t in tokens[1:]:
                    head = t.split("/")[0]
                    try:
                        k = int(head)
                    except ValueError as exc:
                        raise MeshParseError(f"{path}:{lineno}: bad face index {t!r}") from exc
                    if k > 0:
                        k -= 1
                    elif k < 0:
                        k += len(vertices)
                    else:
                        raise MeshParseError(f"{path}:{lineno}: face index 0 is invalid")
                    if k < 0 or k >= len(vertices):
                        raise MeshParseError(f"{path}:{lineno}: face index out of range")
                    idx.append(k)
                if current not in groups:
                    groups[current] = []
                    order.append(current)
                for k in range(1, len(idx) - 1):
                    groups[current].append((idx[0], idx[k], idx[k + 1]))
            # other tags (vn, vt, usemtl, mtllib, s, ...) are ignored

    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    if weld_tol is not None and len(verts):
        verts, remap = weld_vertices(verts, weld_tol)
        groups = {g: [(remap[a], remap[b], remap[c]) for a, b, c in fs] for g, fs in groups.items()}

    materials = {}
    if material_sidecar is not None:
        with open(material_sidecar) as fh:
            raw = json.load(fh)
        materials = {k: _parse_material(v, f" in sidecar for group {k!r}") for k, v in raw.items()}

    group_to_pid = None
    if regroup is not None:
        with open(regroup) as fh:
            group_to_pid = {k: int(v) for k, v in json.load(fh).items()}

    parts = []
    used_ids = set()
    merged = {}  # part id -> (name, faces)
    next_id = 0
    for name in order:
        faces = groups[name]
        if not faces:
            logger.warning("group %r has no faces; dropped", name)
            continue
        if group_to_pid is not None and name in group_to_pid:
            pid = group_to_pid[name]
        else:
            while next_id in used_ids or (group_to_pid and next_id in group_to_pid.values()):
                next_id += 1
            pid = next_id
        used_ids.add(pid)
        if pid in merged:
            merged[pid][1].extend(faces)
        else:
            merged[pid] = (name, list(faces))

    for pid in sorted(merged):
        name, faces = merged[pid]
        mesh = _compact(verts, np.asarray(faces, dtype=np.int64))
        mesh = mesh.drop_degenerate_faces()
        if mesh.n_faces == 0:
            logger.warning("group %r only had degenerate faces; dropped", name)
            continue
        parts.append(Part(id=pid, mesh=mesh, material=materials.get(name, Material.UNTAGGED), name=name))

    return Model(parts=parts)


def save_model(model, path):
    """Write a model as a polygon file, one ``g`` group per part."""
    with open(path, "w") as fh:
        offset = 1
        for part in model.parts:
            fh.write(f"g {part.name or f'part_{part.id}'}\n")
            for v in part.mesh.vertices:
                fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
            for f in part.mesh.faces:
                fh.write(f"f {f[0] + offset} {f[1] + offset} {f[2] + offset}\n")
            offset += len(part.mesh.vertices)


def _compact(vertices, faces):
    """Re-index a face subset onto its own vertex list."""
    used = np.unique(faces)
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriangleMesh(vertices[used], remap[faces])


def weld_vertices(vertices, tol):
    """Merge vertices within ``tol`` of the bounding diagonal. Returns
    (new_vertices, remap)."""
    diag = float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))
    eps = tol * diag if diag > 0 else tol
    if eps <= 0:
        return vertices, np.arange(len(vertices))
    keys = np.round(vertices / eps).astype(np.int64)
    _, first, remap = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return vertices[first], remap


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def normalize_model(model: Model) -> Model:
    """Uniformly scale a model so its whole-model OBB diagonal equals 1."""
    from .obb import fit_points_obb

    verts = model.all_vertices()
    if len(verts) == 0:
        raise ValueError("model is empty")
    box = fit_points_obb(verts)
    diag = float(np.linalg.norm(2.0 * box.half_extents))
    if diag <= 0:
        raise ValueError("model has zero extent")
    s = 1.0 / diag
    parts = [replace(p, mesh=p.mesh.transformed(scale=s)) for p in model.parts]
    return Model(parts=parts, global_scale=model.global_scale * s)


def sample_surface(part: Part, n: int, seed=0) -> SurfaceSamples:
    """Draw ``n`` area-proportional surface samples, stratified by face.

    Counts per face are the largest-remainder apportionment of ``n`` by face
    area; positions are uniform barycentric within each face,
    ``a + u (b - a) + v (c - a)``. The samples of a face are consecutive, so
    each per-face quantity (corner, edge vectors, unit normal) is computed
    once per face and repeated by its count. The RNG is seeded per call so
    identical meshes sample identically regardless of part order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    a, b, c = part.mesh.triangle_corners()
    ab, ac = b - a, c - a
    cross = np.cross(ab, ac)
    length = np.linalg.norm(cross, axis=1)
    areas = 0.5 * length
    total = areas.sum()
    if total <= DEGENERATE_AREA_TOL:
        raise ValueError(f"part {part.id} has degenerate (zero-area) surface")
    quota = n * areas / total
    counts = np.floor(quota).astype(np.int64)
    short = n - int(counts.sum())
    if short > 0:
        frac = quota - counts
        # stable argsort: ties resolved toward lower face index
        counts[np.argsort(-frac, kind="stable")[:short]] += 1

    rng = np.random.default_rng(seed)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u = np.where(flip, 1.0 - u, u)
    v = np.where(flip, 1.0 - v, v)
    pos = (np.repeat(a, counts, axis=0)
           + u[:, None] * np.repeat(ab, counts, axis=0)
           + v[:, None] * np.repeat(ac, counts, axis=0))
    normals = np.repeat(_unit_rows(cross, length), counts, axis=0)
    face_idx = np.repeat(np.arange(len(areas)), counts)
    return SurfaceSamples(pos, normals, face_idx)
