"""Hot numeric kernels: ray casting and box occupancy.

Each kernel is one vectorized numpy implementation. The ray kernel works
through its rays in chunks, so that the ray x triangle intermediate arrays
stay a few million entries long whatever the mesh size, and keeps one such
array per vector component instead of (rays, triangles, 3) products. The
tests check every kernel against a per-element loop, and the ray kernel bit
for bit against the ``np.cross`` formulation. Nearest-point search is not
here: the contact graph, congruence and placement query
``scipy.spatial.cKDTree`` directly.
"""

import numpy as np

_EPS_DET = 1e-14

# No compiled kernel path exists; perfbench/run.py prints this value.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# ray / mesh first hit (Moller-Trumbore, no backface culling)
# ---------------------------------------------------------------------------

def ray_mesh_first_hit(origins, dirs, v0, v1, v2, min_t=1e-9):
    """Distance along each ray to its first triangle hit (inf if none).

    origins, dirs: (n, 3); v0, v1, v2: (m, 3) triangle corners. Hits at
    parameter <= min_t are ignored so rays cast from the surface skip their
    own face.
    """
    n = origins.shape[0]
    out = np.full(n, np.inf)
    if v0.shape[0] == 0 or n == 0:
        return out
    # One (chunk, m) array per vector component of p = d x e2 and
    # q = (o - v0) x e1; each cross and dot product is written out in
    # np.cross's and a 3-term sum's order, so the distances are
    # bit-identical to the (chunk, m, 3) formulation.
    ax, ay, az = v0.T
    e1x, e1y, e1z = (v1 - v0).T
    e2x, e2y, e2z = (v2 - v0).T
    chunk = max(1, int(4_000_000 // max(1, v0.shape[0])))
    for s in range(0, n, chunk):
        ox, oy, oz = origins[s:s + chunk].T[:, :, None]
        dx, dy, dz = dirs[s:s + chunk].T[:, :, None]
        px = dy * e2z - dz * e2y
        py = dz * e2x - dx * e2z
        pz = dx * e2y - dy * e2x
        det = e1x * px + e1y * py + e1z * pz
        ok = np.abs(det) > _EPS_DET
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tx, ty, tz = ox - ax, oy - ay, oz - az
        u = (tx * px + ty * py + tz * pz) * inv
        qx = ty * e1z - tz * e1y
        qy = tz * e1x - tx * e1z
        qz = tx * e1y - ty * e1x
        v = (dx * qx + dy * qy + dz * qz) * inv
        t = (e2x * qx + e2y * qy + e2z * qz) * inv
        hit = ok & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12) & (t > min_t)
        out[s:s + chunk] = t.min(axis=1, initial=np.inf, where=hit)
    return out


# ---------------------------------------------------------------------------
# point-in-oriented-box occupancy (voxel oracles, proxy CSG checks)
# ---------------------------------------------------------------------------

def points_in_boxes(points, centers, axes, half_extents, tol=1e-9):
    """Boolean mask: point inside at least one oriented box.

    centers: (k, 3); axes: (k, 3, 3) rows are unit box axes;
    half_extents: (k, 3).
    """
    n = points.shape[0]
    out = np.zeros(n, dtype=np.bool_)
    for b in range(centers.shape[0]):
        rel = points - centers[b]
        local = rel @ axes[b].T
        inside = (np.abs(local) <= half_extents[b] + tol).all(axis=1)
        out |= inside
    return out


def warmup():
    """Run every kernel once on tiny inputs, so that one-off costs of a
    first call (imports, allocator growth) fall outside timed work."""
    pts = np.zeros((2, 3))
    tri = np.array([[[0.0, 0, 0]], [[1.0, 0, 0]], [[0.0, 1, 0]]])
    ray_mesh_first_hit(pts, pts + [0.0, 0.0, 1.0], tri[0], tri[1], tri[2])
    points_in_boxes(pts, np.zeros((1, 3)), np.eye(3)[None], np.ones((1, 3)))
