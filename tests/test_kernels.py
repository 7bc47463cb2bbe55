"""The numpy kernels against per-element references: Moller-Trumbore and
point-in-box loops written out one ray, triangle, point and box at a time."""

import numpy as np
import pytest

from meshreform import kernels


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
    got = kernels.points_in_boxes(pts, centers, axes, half)
    want = points_in_boxes_loops(pts, centers, axes, half)
    assert 0 < want.sum() < len(pts)
    assert (got == want).all()
