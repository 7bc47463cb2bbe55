"""The numpy kernels against per-element references: Moller-Trumbore and
point-in-box loops written out one ray, triangle, point and box at a time,
and the ray kernel bit for bit against the broadcast ``np.cross`` form."""

import numpy as np
import pytest

from meshreform import kernels
from meshreform.mesh import Part, sample_surface
from meshreform.synthetic import arc_tube, box_part, rod_part
from conftest import points_in_boxes


def ray_first_hit_loops(origins, dirs, v0, v1, v2, min_t=1e-9):
    out = np.full(origins.shape[0], np.inf)
    for i, (o, d) in enumerate(zip(origins, dirs)):
        for a, b, c in zip(v0, v1, v2):
            e1, e2 = b - a, c - a
            p = np.cross(d, e2)
            det = float(e1 @ p)
            if abs(det) <= kernels._EPS_DET:
                continue
            tv = o - a
            u = float(tv @ p) / det
            if u < -1e-12 or u > 1.0 + 1e-12:
                continue
            q = np.cross(tv, e1)
            v = float(d @ q) / det
            if v < -1e-12 or u + v > 1.0 + 1e-12:
                continue
            t = float(e2 @ q) / det
            if min_t < t < out[i]:
                out[i] = t
    return out


def ray_first_hit_cross(origins, dirs, v0, v1, v2, min_t=1e-9):
    """Moller-Trumbore on (n, m, 3) arrays with ``np.cross`` and summed
    products. The kernel must return exactly these floats: thickness is a
    histogram bin, so a last-digit change could move a part to another bin."""
    e1 = v1 - v0
    e2 = v2 - v0
    o = origins[:, None, :]
    d = dirs[:, None, :]
    pvec = np.cross(d, e2[None, :, :])
    det = (e1[None, :, :] * pvec).sum(axis=-1)
    ok = np.abs(det) > kernels._EPS_DET
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = o - v0[None, :, :]
    u = (tvec * pvec).sum(axis=-1) * inv
    qvec = np.cross(tvec, e1[None, :, :])
    v = (d * qvec).sum(axis=-1) * inv
    t = (e2[None, :, :] * qvec).sum(axis=-1) * inv
    hit = ok & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12) & (t > min_t)
    return np.where(hit, t, np.inf).min(axis=1)


def points_in_boxes_loops(points, centers, axes, half_extents, tol=1e-9):
    out = np.zeros(points.shape[0], dtype=bool)
    for i, p in enumerate(points):
        for c, ax, h in zip(centers, axes, half_extents):
            if all(abs(float((p - c) @ ax[a])) <= h[a] + tol for a in range(3)):
                out[i] = True
                break
    return out


@pytest.fixture
def tris():
    rng = np.random.default_rng(3)
    v0 = rng.normal(size=(40, 3))
    v1 = v0 + rng.normal(scale=0.3, size=(40, 3))
    v2 = v0 + rng.normal(scale=0.3, size=(40, 3))
    return v0, v1, v2


def test_ray_paths_agree(tris):
    rng = np.random.default_rng(4)
    origins = rng.normal(size=(100, 3))
    # aim most rays near a triangle's centroid so that hits and misses mix
    centroids = sum(tris)[np.arange(100) % 40] / 3.0
    dirs = centroids + rng.normal(scale=0.2, size=(100, 3)) - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    got = kernels.ray_mesh_first_hit(origins, dirs, *tris)
    want = ray_first_hit_loops(origins, dirs, *tris)
    assert 10 < np.isfinite(want).sum() < 100
    assert np.allclose(got, want)
    assert np.array_equal(got, ray_first_hit_cross(origins, dirs, *tris))


def test_ray_simple_hit():
    v0 = np.array([[0.0, 0.0, 1.0]])
    v1 = np.array([[1.0, 0.0, 1.0]])
    v2 = np.array([[0.0, 1.0, 1.0]])
    o = np.array([[0.2, 0.2, 0.0]])
    d = np.array([[0.0, 0.0, 1.0]])
    t = kernels.ray_mesh_first_hit(o, d, v0, v1, v2)
    assert abs(t[0] - 1.0) < 1e-12
    miss = kernels.ray_mesh_first_hit(o, -d, v0, v1, v2)
    assert np.isinf(miss[0])


def test_points_in_boxes_paths_agree():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, size=(500, 3))
    centers = rng.uniform(-1, 1, size=(3, 3))
    axes = np.stack([np.linalg.qr(rng.normal(size=(3, 3)))[0].T
                     for _ in range(3)])
    half = rng.uniform(0.2, 1.0, size=(3, 3))
    got = points_in_boxes(pts, centers, axes, half)
    want = points_in_boxes_loops(pts, centers, axes, half)
    assert 0 < want.sum() < len(pts)
    assert (got == want).all()


@pytest.mark.parametrize("mesh", [
    box_part([0.1, -0.2, 0.3], [0.5, 0.07, 0.31]),
    rod_part([0.0, 0.0, 0.0], [0.4, 0.3, 0.9], 0.03),
    arc_tube([0.0, 0.0, 0.2], 0.4, 0.1, 2.9, 0.04),
], ids=["box", "rod", "arc"])
def test_ray_kernel_bit_identical_on_thickness_rays(mesh):
    """Rays from surface samples cast along -normals, as
    ``estimate_thickness`` casts them, and along +normals: a mesh wound
    inside out (the rod and the arc) is hit only by the latter."""
    part = Part(id=0, mesh=mesh)
    s = sample_surface(part, 600, seed=5)
    tri = mesh.triangle_corners()
    hit = np.zeros(len(s), dtype=bool)
    for dirs in (-s.normals, s.normals):
        got = kernels.ray_mesh_first_hit(s.positions, dirs, *tri)
        assert np.array_equal(got, ray_first_hit_cross(s.positions, dirs, *tri))
        hit |= np.isfinite(got)
    assert hit.mean() > 0.9
