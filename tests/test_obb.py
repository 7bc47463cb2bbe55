import numpy as np
import pytest
from scipy.spatial import ConvexHull

from meshreform.mesh import Part, TriangleMesh
from meshreform.obb import (OrientedBox, box_gap, box_mesh, boxes_mesh,
                            fit_points_obb, pca_box, subtract_local_box)
from meshreform.part_analysis import fit_obb
from conftest import box_contains, make_box_part, random_rotation


def hull_part(pid, points):
    hull = ConvexHull(points)
    return Part(id=pid, mesh=TriangleMesh(points, hull.simplices))


def test_axis_aligned_box_recovered():
    part = make_box_part(0, [0.3, -0.2, 1.0], [2, 1, 0.5])
    box = fit_obb(part)
    assert np.allclose(np.sort(box.extents)[::-1], [2, 1, 0.5], atol=1e-6)
    assert abs(box.volume - 1.0) < 1e-9
    assert box_contains(box, part.mesh.vertices).all()


def test_rotated_box_extents_invariant():
    rng = np.random.default_rng(0)
    part = make_box_part(0, [0, 0, 0], [2, 1, 0.5])
    rot = random_rotation(rng)
    rotated = Part(id=1, mesh=part.mesh.transformed(matrix=rot, translation=[1, 2, 3]))
    a = fit_obb(part)
    b = fit_obb(rotated)
    assert np.allclose(a.extents, b.extents, atol=1e-6)


def test_calipers_never_worse_than_pca():
    """Oracle: the PCA-only box of the same vertex set."""
    rng = np.random.default_rng(1)
    for _ in range(25):
        pts = rng.normal(size=(60, 3)) * rng.uniform(0.2, 2.0, size=3)
        part = hull_part(0, pts)
        refined = fit_obb(part)
        baseline = pca_box(part.mesh.vertices)
        assert refined.volume <= baseline.volume + 1e-9
        assert box_contains(refined, part.mesh.vertices).all()


def test_lshape_beats_pca():
    # L bracket: union of two slabs, PCA axes are skewed by the asymmetry
    rng = np.random.default_rng(2)
    a = rng.uniform(size=(150, 3)) * [2.0, 0.3, 0.3]
    b = rng.uniform(size=(150, 3)) * [0.3, 1.2, 0.3]
    pts = np.vstack([a, b])
    rot = random_rotation(rng)
    part = hull_part(0, pts @ rot.T)
    refined = fit_obb(part)
    baseline = pca_box(part.mesh.vertices)
    assert refined.volume <= baseline.volume + 1e-9


def test_rigid_invariance_random_parts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pts = rng.normal(size=(40, 3)) * [1.5, 0.7, 0.2]
        part = hull_part(0, pts)
        moved = Part(id=1, mesh=part.mesh.transformed(
            matrix=random_rotation(rng), translation=rng.normal(size=3)))
        a = fit_obb(part)
        b = fit_obb(moved)
        assert np.allclose(a.extents, b.extents, atol=1e-6)


def test_degenerate_part_flagged():
    line = TriangleMesh(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], float),
                        np.array([[0, 1, 2]]))
    box = fit_points_obb(line.vertices)
    assert box.degenerate
    assert box.extents.min() < 1e-12


def test_empty_part_errors():
    with pytest.raises(ValueError):
        fit_points_obb(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# box utilities
# ---------------------------------------------------------------------------

def test_box_mesh_volume_and_watertightness():
    box = OrientedBox([1, 2, 3], np.eye(3), [0.5, 0.4, 0.3])
    mesh = box_mesh(box)
    # divergence-theorem volume of a closed mesh
    v0, v1, v2 = mesh.triangle_corners()
    vol = float(np.einsum("ij,ij->i", v0, np.cross(v1, v2)).sum() / 6.0)
    assert abs(vol - box.volume) < 1e-12
    # every edge appears exactly twice with opposite orientation
    edges = {}
    for f in mesh.faces:
        for k in range(3):
            e = (int(f[k]), int(f[(k + 1) % 3]))
            edges[e] = edges.get(e, 0) + 1
    for (a, b), count in edges.items():
        assert count == 1 and edges.get((b, a), 0) == 1


def test_subtract_local_box_volumes():
    outer = OrientedBox([0, 0, 0], np.eye(3), [1.0, 1.0, 1.0])
    pieces = subtract_local_box(outer, [-0.5, -0.5, 0.0], [0.5, 0.5, 1.0])
    total = sum(p.volume for p in pieces)
    assert abs(total - (outer.volume - 1.0 * 1.0 * 1.0)) < 1e-12
    # pieces stay inside the outer box and avoid the cut region
    rng = np.random.default_rng(4)
    for p in pieces:
        pts = p.corners()
        assert box_contains(outer, pts, tol=1e-9).all()
        inner_pts = rng.uniform(-0.49, 0.49, size=(50, 2))
        z = rng.uniform(0.01, 0.99, size=50)
        probe = np.column_stack([inner_pts, z])
        assert not box_contains(p, probe, tol=-1e-9).any()


def test_subtract_disjoint_cut_returns_box():
    outer = OrientedBox([0, 0, 0], np.eye(3), [1.0, 1.0, 1.0])
    pieces = subtract_local_box(outer, [2.0, 2.0, 2.0], [3.0, 3.0, 3.0])
    assert len(pieces) == 1
    assert abs(pieces[0].volume - outer.volume) < 1e-12


def test_box_gap():
    a = OrientedBox([0, 0, 0], np.eye(3), [1, 1, 1])
    b = OrientedBox([3, 0, 0], np.eye(3), [1, 1, 1])
    assert abs(box_gap(a, b) - 1.0) < 1e-12
    c = OrientedBox([1.5, 0, 0], np.eye(3), [1, 1, 1])
    assert box_gap(a, c) == 0.0
