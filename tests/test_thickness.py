import math

import numpy as np
import pytest

from meshreform.mesh import Part, TriangleMesh, sample_surface
from meshreform.part_analysis import (analyze_part, describe_part,
                                      estimate_thickness, fit_obb)
from conftest import face_normals, make_box_part, random_rotation


def plank(pid, thickness, a=0.8):
    """Plank with unit diagonal: a^2 + b^2 + t^2 = 1."""
    b = math.sqrt(1.0 - a * a - thickness * thickness)
    return make_box_part(pid, [0, 0, 0], [a, b, thickness])


def area_weighted_vote_oracle(part, bin_width):
    """Exact chord length through the solid from each face, weighted by
    area: for an axis-aligned box every face sees the opposite wall at the
    box dimension along its normal."""
    areas = part.mesh.face_areas()
    normals = face_normals(part.mesh)
    verts = part.mesh.vertices
    dims = verts.max(axis=0) - verts.min(axis=0)
    votes = {}
    for ar, n in zip(areas, normals):
        d = float(dims[int(np.argmax(np.abs(n)))])  # chord along the face normal
        k = int(d // bin_width)
        votes[k] = votes.get(k, 0.0) + ar
    best = max(votes.items(), key=lambda kv: kv[1])[0]
    return (best + 0.5) * bin_width


@pytest.mark.parametrize("t", [0.012, 0.025, 0.033, 0.047, 0.071])
def test_plank_thickness_recovered(t):
    part = plank(0, t)
    samples = sample_surface(part, 1000, seed=1)
    est = estimate_thickness(part, samples, bin_width=0.005)
    assert not est.fallback
    assert abs(est.value - t) <= 0.005
    # the oracle may land one bin off when the true chord sits on a bin edge
    oracle = area_weighted_vote_oracle(part, 0.005)
    assert abs(est.value - oracle) <= 0.005 + 1e-12


def test_unit_cube_scaled_bin():
    part = make_box_part(0, [0, 0, 0], [1, 1, 1])
    samples = sample_surface(part, 1000, seed=2)
    est = estimate_thickness(part, samples, bin_width=0.01)
    assert abs(est.value - 1.0) <= 0.01


def test_open_sheet_fallback():
    sheet = TriangleMesh(
        np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float),
        np.array([[0, 1, 2], [0, 2, 3]]))
    part = Part(id=0, mesh=sheet)
    samples = sample_surface(part, 200, seed=3)
    est = estimate_thickness(part, samples, bin_width=0.005)
    assert est.fallback
    box = fit_obb(part)
    assert abs(est.value - box.extents.min()) < 1e-9


def test_rigid_invariance():
    rng = np.random.default_rng(4)
    part = plank(0, 0.033)
    samples = sample_surface(part, 1000, seed=5)
    base = estimate_thickness(part, samples, bin_width=0.005)
    moved = Part(id=1, mesh=part.mesh.transformed(matrix=random_rotation(rng),
                                                  translation=[0.3, -1, 2]))
    samples2 = sample_surface(moved, 1000, seed=5)
    got = estimate_thickness(moved, samples2, bin_width=0.005)
    assert abs(got.value - base.value) < 1e-12


def test_subdivision_changes_less_than_one_bin():
    part = plank(0, 0.047)
    samples = sample_surface(part, 1000, seed=6)
    base = estimate_thickness(part, samples, bin_width=0.005)

    # split every face at its centroid into three
    mesh = part.mesh
    v0, v1, v2 = mesh.triangle_corners()
    centroids = (v0 + v1 + v2) / 3.0
    verts = np.vstack([mesh.vertices, centroids])
    cidx = len(mesh.vertices) + np.arange(len(centroids))
    faces = np.vstack([
        np.column_stack([mesh.faces[:, 0], mesh.faces[:, 1], cidx]),
        np.column_stack([mesh.faces[:, 1], mesh.faces[:, 2], cidx]),
        np.column_stack([mesh.faces[:, 2], mesh.faces[:, 0], cidx]),
    ])
    fine = Part(id=1, mesh=TriangleMesh(verts, faces))
    samples2 = sample_surface(fine, 1000, seed=6)
    got = estimate_thickness(fine, samples2, bin_width=0.005)
    assert abs(got.value - base.value) <= 0.005 + 1e-12


def test_thickness_below_min_extent_for_solids():
    for dims in ([0.7, 0.5, 0.04], [1, 1, 1], [0.9, 0.1, 0.1]):
        part = make_box_part(0, [0, 0, 0], dims)
        samples = sample_surface(part, 1000, seed=7)
        est = estimate_thickness(part, samples, bin_width=0.005)
        assert est.value <= min(dims) + 0.005


# ---------------------------------------------------------------------------
# describe_part
# ---------------------------------------------------------------------------

def test_rod_is_linear():
    part = make_box_part(0, [0, 0, 0], [1, 0.05, 0.05])
    samples = sample_surface(part, 600, seed=8)
    desc = analyze_part(part, samples)
    assert desc.is_linear
    assert abs(np.linalg.norm(desc.segment[1] - desc.segment[0]) - 1.0) < 1e-6
    assert abs(abs(desc.dominant_axis[0]) - 1.0) < 1e-6


def test_flat_board_not_linear():
    part = make_box_part(0, [0, 0, 0], [1, 1, 0.05])
    samples = sample_surface(part, 600, seed=9)
    desc = analyze_part(part, samples)
    assert not desc.is_linear


def test_solid_box_area_ratio_one():
    part = make_box_part(0, [0, 0, 0], [0.6, 0.3, 0.2])
    samples = sample_surface(part, 600, seed=10)
    desc = analyze_part(part, samples)
    assert abs(desc.area_ratio - 1.0) < 1e-9
