"""The numpy kernels against per-element references: Moller-Trumbore and
point-in-box loops written out one ray, triangle, point and box at a time,
and a dense distance matrix for nearest-point queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def oracle_nearest(query, ref):
    """Row minima of the dense (n, m) squared-distance matrix."""
    if ref.shape[0] == 0:
        return np.full(query.shape[0], np.inf)
    d = query[:, None, :] - ref[None, :, :]
    return (d * d).sum(axis=-1).min(axis=1)


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


def test_nearest_paths_agree():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(200, 3))
    r = rng.normal(size=(150, 3))
    assert np.allclose(kernels.nearest_sq_dists(q, r), oracle_nearest(q, r))


def test_capped_sum_matches_uncapped():
    rng = np.random.default_rng(6)
    q = rng.normal(size=(50, 3))
    r = rng.normal(size=(60, 3))
    exact = oracle_nearest(q, r).sum()
    got = kernels.nearest_sq_sum_capped(q, r, 1e30)
    assert abs(got - exact) < 1e-9
    assert np.isinf(kernels.nearest_sq_sum_capped(q, r, exact * 0.5))


def test_empty_reference_is_infinitely_far():
    q = np.zeros((3, 3))
    empty = np.zeros((0, 3))
    assert np.isinf(kernels.nearest_sq_dists(q, empty)).all()
    assert np.isinf(kernels.nearest_sq_sum_capped(q, empty, 1e30))
    assert np.isinf(kernels.nearest_sq_sum_capped(q, empty, np.inf))
    assert kernels.nearest_sq_sum_capped(empty, empty, 1.0) == 0.0


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


def _points(n):
    return st.builds(
        lambda seed: np.random.default_rng(seed).normal(size=(n, 3)),
        st.integers(0, 2 ** 32 - 1))


point_sets = st.integers(0, 40).flatmap(_points)


@settings(max_examples=60, deadline=None)
@given(query=point_sets, ref=point_sets)
def test_nearest_property(query, ref):
    # einsum may add the three squared coordinates in another order
    assert np.allclose(kernels.nearest_sq_dists(query, ref),
                       oracle_nearest(query, ref), rtol=1e-14, atol=0)


@settings(max_examples=60, deadline=None)
@given(query=point_sets, ref=point_sets,
       slack=st.floats(0.0, 2.0, allow_nan=False))
def test_capped_sum_property(query, ref, slack):
    exact = float(oracle_nearest(query, ref).sum())
    if not np.isfinite(exact):
        assert np.isinf(kernels.nearest_sq_sum_capped(query, ref, 1e30))
        return
    # a cap at or above the sum never aborts, one below it always does
    got = kernels.nearest_sq_sum_capped(query, ref, exact * (1.0 + slack) + 1e-9)
    assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)
    if exact > 0:
        assert np.isinf(kernels.nearest_sq_sum_capped(query, ref, exact * 0.999))
