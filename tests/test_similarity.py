import math

import numpy as np
import pytest

from meshreform.mesh import sample_surface
from meshreform.part_analysis import analyze_part
from meshreform.similarity import (SHAPE_MODES, SIGMA_R, SIGMA_T,
                                   area_ratio_similarity,
                                   contact_angle_similarity,
                                   obb_similarity,
                                   orientation_angle_similarity,
                                   orientation_angles, shape_matrix,
                                   shape_similarity, spatial_similarity,
                                   thickness_similarity)
from conftest import make_box_part, random_rotation

E1 = math.exp(-1.0)


def descriptor(dims, seed=0):
    part = make_box_part(0, [0, 0, 0], dims)
    return analyze_part(part, sample_surface(part, 600, seed=seed))


def test_identical_descriptors_give_one():
    d = descriptor([0.6, 0.3, 0.1])
    for mode in ("obb_only", "obb_plus_area", "full"):
        assert shape_similarity(d, d, mode=mode) == pytest.approx(1.0, abs=1e-12)


def test_obb_spot_value():
    # L1 extent difference 0.1 with sigma_b = 0.1: exp(-0.01/0.01) = e^-1
    assert obb_similarity([0.5, 0.3, 0.1], [0.5, 0.3, 0.2]) == pytest.approx(E1, abs=1e-12)


def test_thickness_spot_value():
    a = descriptor([0.6, 0.3, 0.1])
    b = descriptor([0.6, 0.3, 0.1])
    b.thickness = a.thickness + 0.02
    got = shape_similarity(a, b, mode="full")
    expected = (obb_similarity(a.size_vec, b.size_vec)
                * math.exp(-(a.area_ratio - b.area_ratio) ** 2 / 0.01)
                * E1)
    assert got == pytest.approx(expected, abs=1e-12)


def test_full_mode_is_product():
    a = descriptor([0.6, 0.3, 0.1], seed=1)
    b = descriptor([0.5, 0.35, 0.12], seed=2)
    prod = (obb_similarity(a.size_vec, b.size_vec)
            * math.exp(-(a.area_ratio - b.area_ratio) ** 2 / SIGMA_R ** 2)
            * math.exp(-(a.thickness - b.thickness) ** 2 / SIGMA_T ** 2))
    assert shape_similarity(a, b, mode="full") == pytest.approx(prod, abs=1e-12)


def test_spatial_spot_values():
    assert spatial_similarity(0.4, 0.4) == 1.0
    assert spatial_similarity(0.1, 0.3) == pytest.approx(E1, abs=1e-12)
    assert spatial_similarity(0.1, 0.5) == pytest.approx(math.exp(-4.0), abs=1e-12)


def test_contact_angle_cases():
    assert contact_angle_similarity(None, None) == 1.0
    assert contact_angle_similarity(90.0, None) == 0.0
    assert contact_angle_similarity(None, 45.0) == 0.0
    assert contact_angle_similarity(90.0, 80.0) == pytest.approx(E1, abs=1e-12)
    # NaN is N/A too, also inside arrays
    assert contact_angle_similarity(np.nan, None) == 1.0
    assert contact_angle_similarity(80.0, np.nan) == 0.0
    assert contact_angle_similarity(None, [None, 10.0, np.nan]).tolist() == [1.0, 0.0, 1.0]


def _angles(rng, n):
    a = rng.uniform(0.0, 90.0, n)
    a[rng.random(n) < 0.3] = np.nan
    return a


# kernel, draw of one argument array (rng, n) -> array of n arguments
ARRAY_KERNELS = {
    "obb": (obb_similarity, lambda rng, n: rng.uniform(0.01, 1.0, (n, 3))),
    "area_ratio": (area_ratio_similarity, lambda rng, n: rng.uniform(0.0, 1.0, n)),
    "thickness": (thickness_similarity, lambda rng, n: rng.uniform(0.0, 0.1, n)),
    "spatial": (spatial_similarity, lambda rng, n: rng.uniform(0.0, 1.5, n)),
    "contact_angle": (contact_angle_similarity, _angles),
    "orientation": (orientation_angle_similarity,
                    lambda rng, n: rng.uniform(0.0, 90.0, (n, 9))),
}


@pytest.mark.parametrize("name", sorted(ARRAY_KERNELS))
def test_array_call_matches_scalar_calls(name):
    """One array call equals the elementwise scalar calls bit for bit, both
    for a scalar against an array and for two broadcast arrays."""
    kernel, draw = ARRAY_KERNELS[name]
    rng = np.random.default_rng(13)
    a, b = draw(rng, 7), draw(rng, 5)
    got = kernel(a[0], b)
    assert got.shape == (5,)
    assert all(got[k] == kernel(a[0], b[k]) for k in range(5))
    grid = kernel(a[:, None], b[None, :])
    assert grid.shape == (7, 5)
    assert all(grid[i, k] == kernel(a[i], b[k]) for i in range(7) for k in range(5))
    assert isinstance(kernel(a[0], b[0]), float)


@pytest.mark.parametrize("mode", SHAPE_MODES)
def test_shape_matrix_matches_shape_similarity(mode):
    descs = [descriptor(dims, seed=k) for k, dims in enumerate(
        ([0.6, 0.3, 0.1], [0.5, 0.35, 0.12], [0.55, 0.3, 0.09], [0.2, 0.2, 0.2]))]
    mat = shape_matrix(descs, descs[1:], mode=mode)
    assert mat.shape == (4, 3)
    for i, a in enumerate(descs):
        for k, b in enumerate(descs[1:]):
            assert mat[i, k] == shape_similarity(a, b, mode=mode)


def test_orientation_identical_frames():
    f = np.eye(3)
    v = orientation_angles(f, f)
    assert np.allclose(v, [0, 90, 90, 90, 0, 90, 90, 90, 0])
    assert orientation_angle_similarity(v, v) == 1.0


def test_orientation_orthogonal_vs_identical():
    same = orientation_angles(np.eye(3), np.eye(3))
    rot = np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 1]])  # 90 deg about z
    other = orientation_angles(np.eye(3), rot)
    got = orientation_angle_similarity(same, other)
    expected = math.exp(-float(((same - other) ** 2).sum()) / 360.0 ** 2)
    assert got == pytest.approx(expected, abs=1e-12)
    assert 0.0 < got < 1.0


def test_orientation_spot_value():
    a = np.zeros(9)
    b = np.zeros(9)
    b[0] = 360.0  # |a-b|_2 = 360 -> e^-1 (entries are angles only in spirit here)
    assert orientation_angle_similarity(a, b) == pytest.approx(E1, abs=1e-12)


def test_kernels_symmetric_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ea = rng.uniform(0.01, 1.0, 3)
        eb = rng.uniform(0.01, 1.0, 3)
        s1 = obb_similarity(np.sort(ea)[::-1], np.sort(eb)[::-1])
        s2 = obb_similarity(np.sort(eb)[::-1], np.sort(ea)[::-1])
        assert s1 == pytest.approx(s2, abs=1e-15)
        assert 0.0 < s1 <= 1.0
        d1, d2 = rng.uniform(0, 1, 2)
        assert spatial_similarity(d1, d2) == pytest.approx(spatial_similarity(d2, d1), abs=1e-15)
        a1, a2 = rng.uniform(0, 90, 2)
        assert contact_angle_similarity(a1, a2) == pytest.approx(
            contact_angle_similarity(a2, a1), abs=1e-15)
        va = rng.uniform(0, 90, 9)
        vb = rng.uniform(0, 90, 9)
        assert orientation_angle_similarity(va, vb) == pytest.approx(
            orientation_angle_similarity(vb, va), abs=1e-15)


def test_kernels_rigid_invariant():
    """Kernels consume invariant descriptors, so rigid motion changes
    nothing."""
    rng = np.random.default_rng(12)
    from meshreform.mesh import Part
    # thickness off the voting-bin boundary so the vote is rotation-stable
    part = make_box_part(0, [0.2, 0.1, 0], [0.7, 0.25, 0.077])
    moved = Part(id=1, mesh=part.mesh.transformed(matrix=random_rotation(rng),
                                                  translation=[5, -2, 1]))
    a = analyze_part(part, sample_surface(part, 800, seed=3))
    b = analyze_part(moved, sample_surface(moved, 800, seed=3))
    ref = descriptor([0.5, 0.3, 0.1])
    for mode in ("obb_only", "obb_plus_area", "full"):
        assert shape_similarity(a, ref, mode=mode) == pytest.approx(
            shape_similarity(b, ref, mode=mode), abs=1e-9)
