"""Oriented bounding boxes: fitting, queries, and exact box arithmetic.

Fitting starts from PCA axes and refines them by repeatedly fixing one axis,
projecting the points into the orthogonal plane, and replacing the two free
axes with the minimum-area enclosing rectangle of the projected hull. Each
replacement can only shrink the volume, so the result never exceeds the PCA
box volume.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .mesh import TriangleMesh


@dataclass
class OrientedBox:
    """Box with orthonormal axes (rows of ``axes``) ordered by descending
    half extent. All owning points lie inside within a 1e-6 inflation."""

    center: np.ndarray
    axes: np.ndarray
    half_extents: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.axes = np.asarray(self.axes, dtype=np.float64).reshape(3, 3)
        self.half_extents = np.asarray(self.half_extents, dtype=np.float64).reshape(3)

    @property
    def extents(self):
        return 2.0 * self.half_extents

    @property
    def volume(self):
        return float(np.prod(self.extents))

    @property
    def surface_area(self):
        a, b, c = self.extents
        return 2.0 * (a * b + b * c + a * c)

    def to_local(self, points):
        return (np.atleast_2d(points) - self.center) @ self.axes.T

    def to_world(self, local):
        return np.atleast_2d(local) @ self.axes + self.center

    def contains(self, points, tol=1e-6):
        return (np.abs(self.to_local(points)) <= self.half_extents + tol).all(axis=1)

    def corners(self):
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
        return self.to_world(signs * self.half_extents)

    def support_width(self, direction):
        """Extent of the box projected onto a unit direction."""
        d = np.asarray(direction, dtype=np.float64)
        return float(2.0 * np.abs(self.axes @ d) @ self.half_extents)


def _box_from_axes(points, axes):
    """Tight box around points for a given orthonormal frame; axes reordered
    by descending extent and kept right-handed."""
    local = points @ axes.T
    lo = local.min(axis=0)
    hi = local.max(axis=0)
    half = 0.5 * (hi - lo)
    center_local = 0.5 * (hi + lo)
    order = np.argsort(-half, kind="stable")
    axes = axes[order]
    half = half[order]
    center = center_local[order] @ axes
    if np.linalg.det(axes) < 0:
        axes[2] = -axes[2]
    return OrientedBox(center, axes, half)


def pca_axes(points):
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / max(1, len(points))
    w, v = np.linalg.eigh(cov)
    return v[:, ::-1].T  # rows, descending eigenvalue


def pca_box(points):
    """PCA-only box, the refinement baseline."""
    return _box_from_axes(points, pca_axes(points))


def min_area_rect(points2d):
    """Directions (u, v) of the minimum-area rectangle enclosing 2D points.

    One rectangle side is collinear with a hull edge (rotating calipers
    property). Returns None when the points are degenerate in 2D.
    """
    pts = np.asarray(points2d)
    if len(pts) < 3:
        return None
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    hp = pts[hull.vertices]
    edges = np.roll(hp, -1, axis=0) - hp
    lengths = np.linalg.norm(edges, axis=1)
    keep = lengths > 1e-15
    if not keep.any():
        return None
    dirs = edges[keep] / lengths[keep][:, None]
    best = None
    best_area = np.inf
    for d in dirs:
        n = np.array([-d[1], d[0]])
        pu = hp @ d
        pv = hp @ n
        area = (pu.max() - pu.min()) * (pv.max() - pv.min())
        if area < best_area - 1e-18:
            best_area = area
            best = (d, n)
    return best


def fit_points_obb(points, max_rounds=20, vol_tol=1e-8) -> OrientedBox:
    """PCA box refined with per-axis rotating calipers until the relative
    volume improvement drops below ``vol_tol`` (or ``max_rounds``)."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("no points")
    centered = points - points[0]
    if len(points) < 3 or np.linalg.matrix_rank(centered, tol=1e-12) < 2:
        # all points collinear or coincident: degenerate flagged box
        box = pca_box(points)
        box.degenerate = True
        return box

    box = _box_from_axes(points, pca_axes(points))
    for _ in range(max_rounds):
        prev = box.volume
        for k in range(3):
            fixed = box.axes[k]
            e1, e2 = box.axes[(k + 1) % 3], box.axes[(k + 2) % 3]
            plane = points @ np.stack([e1, e2]).T
            rect = min_area_rect(plane)
            if rect is None:
                continue
            (du, dn) = rect
            new_axes = np.stack([
                fixed,
                du[0] * e1 + du[1] * e2,
                dn[0] * e1 + dn[1] * e2,
            ])
            cand = _box_from_axes(points, new_axes)
            if cand.volume <= box.volume:
                box = cand
        if prev <= 0 or (prev - box.volume) / prev < vol_tol:
            break
    return box


# ---------------------------------------------------------------------------
# box meshes and exact rectilinear CSG (proxy geometry for joints)
# ---------------------------------------------------------------------------

_BOX_FACES = np.array([
    [0, 1, 3], [0, 3, 2],   # -x
    [4, 6, 7], [4, 7, 5],   # +x
    [0, 4, 5], [0, 5, 1],   # -y
    [2, 3, 7], [2, 7, 6],   # +y
    [0, 2, 6], [0, 6, 4],   # -z
    [1, 5, 7], [1, 7, 3],   # +z
], dtype=np.int64)


def box_mesh(box: OrientedBox) -> TriangleMesh:
    """Closed 12-triangle mesh of a box with outward normals."""
    return TriangleMesh(box.corners(), _BOX_FACES.copy())


def boxes_mesh(boxes) -> TriangleMesh:
    """Concatenated closed meshes of several boxes (volumes add)."""
    verts = []
    faces = []
    off = 0
    for b in boxes:
        m = box_mesh(b)
        verts.append(m.vertices)
        faces.append(m.faces + off)
        off += len(m.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


def subtract_local_box(outer: OrientedBox, lo, hi):
    """Exact ``outer minus [lo, hi]`` where the cut box is axis aligned in
    the outer box's local frame. Returns the complement as disjoint boxes.

    The cut interval is clipped to the outer box first; an empty clip
    returns ``[outer]`` unchanged.
    """
    lo = np.maximum(np.asarray(lo, dtype=float), -outer.half_extents)
    hi = np.minimum(np.asarray(hi, dtype=float), outer.half_extents)
    if (hi <= lo).any():
        return [OrientedBox(outer.center.copy(), outer.axes.copy(), outer.half_extents.copy())]

    pieces = []
    # slabs outside the cut along each axis, shrinking the working interval
    work_lo = -outer.half_extents.copy()
    work_hi = outer.half_extents.copy()
    for k in range(3):
        for a, b in ((work_lo[k], lo[k]), (hi[k], work_hi[k])):
            if b - a > 1e-12:
                plo = work_lo.copy()
                phi = work_hi.copy()
                plo[k], phi[k] = a, b
                pieces.append(_local_interval_box(outer, plo, phi))
        work_lo[k], work_hi[k] = lo[k], hi[k]
    return pieces


def _local_interval_box(ref: OrientedBox, lo, hi):
    half = 0.5 * (hi - lo)
    center_local = 0.5 * (hi + lo)
    center = ref.to_world(center_local)[0]
    order = np.argsort(-half, kind="stable")
    axes = ref.axes[order].copy()
    if np.linalg.det(axes) < 0:
        axes[2] = -axes[2]
    return OrientedBox(center, axes, half[order])


def box_gap(a: OrientedBox, b: OrientedBox):
    """Separation lower bound between two boxes via the 15 SAT axes
    (exact when a separating face axis exists; 0 when overlapping)."""
    axes = [*a.axes, *b.axes]
    for u in a.axes:
        for v in b.axes:
            c = np.cross(u, v)
            n = np.linalg.norm(c)
            if n > 1e-12:
                axes.append(c / n)
    gap = 0.0
    d = b.center - a.center
    for ax in axes:
        ra = np.abs(a.axes @ ax) @ a.half_extents
        rb = np.abs(b.axes @ ax) @ b.half_extents
        sep = abs(float(d @ ax)) - (ra + rb)
        gap = max(gap, sep)
    return gap
