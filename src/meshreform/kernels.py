"""Hot numeric kernels: ray casting and box occupancy.

Each kernel is one vectorized numpy implementation. The ray kernel works
through its rays in chunks, so that the ray x triangle intermediate arrays
stay a few million entries long whatever the mesh size. The tests check
every kernel against a per-element loop. Nearest-point search is not here:
the contact graph, congruence and placement query ``scipy.spatial.cKDTree``
directly.
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
    e1 = v1 - v0
    e2 = v2 - v0
    chunk = max(1, int(4_000_000 // max(1, v0.shape[0])))
    for s in range(0, n, chunk):
        o = origins[s:s + chunk][:, None, :]
        d = dirs[s:s + chunk][:, None, :]
        pvec = np.cross(d, e2[None, :, :])
        det = (e1[None, :, :] * pvec).sum(axis=-1)
        ok = np.abs(det) > _EPS_DET
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = o - v0[None, :, :]
        u = (tvec * pvec).sum(axis=-1) * inv
        qvec = np.cross(tvec, e1[None, :, :])
        v = (d * qvec).sum(axis=-1) * inv
        t = (e2[None, :, :] * qvec).sum(axis=-1) * inv
        hit = ok & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12) & (t > min_t)
        t = np.where(hit, t, np.inf)
        out[s:s + chunk] = t.min(axis=1)
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
