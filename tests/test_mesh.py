import json
import math

import numpy as np
import pytest

from meshreform.mesh import (Material, MeshParseError, Model, Part,
                             TriangleMesh, load_model, normalize_model,
                             sample_surface, save_model)
from meshreform.synthetic import arc_tube, rod_part
from conftest import make_box_part

CUBE_PAIR = """\
g left
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3
f 1 3 4
f 5 7 6
f 5 8 7
f 1 6 2
f 1 5 6
f 2 7 3
f 2 6 7
f 3 8 4
f 3 7 8
f 4 5 1
f 4 8 5
g right
v 2 0 0
v 3 0 0
v 3 1 0
v 2 1 0
v 2 0 1
v 3 0 1
v 3 1 1
v 2 1 1
f 9 10 11
f 9 11 12
f 13 15 14
f 13 16 15
f 9 14 10
f 9 13 14
f 10 15 11
f 10 14 15
f 11 16 12
f 11 15 16
f 12 13 9
f 12 16 13
"""


def test_load_two_group_file(tmp_path):
    path = tmp_path / "pair.obj"
    path.write_text(CUBE_PAIR)
    model = load_model(path)
    assert len(model.parts) == 2
    assert [p.mesh.n_faces for p in model.parts] == [12, 12]
    assert [p.name for p in model.parts] == ["left", "right"]


def test_quads_fan_triangulated(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("g q\nv 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    model = load_model(path)
    assert model.parts[0].mesh.n_faces == 2


def test_material_sidecar(tmp_path):
    path = tmp_path / "table.obj"
    lines = []
    for gi, name in enumerate(["legs", "top", "back", "shelf"]):
        base = gi * 3
        lines.append(f"g {name}")
        lines += [f"v {base} 0 0", f"v {base + 1} 0 0", f"v {base} 1 0"]
        lines.append(f"f {base + 1} {base + 2} {base + 3}")
    path.write_text("\n".join(lines) + "\n")
    sidecar = tmp_path / "materials.json"
    sidecar.write_text(json.dumps({"legs": "wood"}))
    model = load_model(path, material_sidecar=sidecar)
    mats = {p.name: p.material for p in model.parts}
    assert mats["legs"] == Material.WOOD
    assert all(mats[n] == Material.UNTAGGED for n in ("top", "back", "shelf"))


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("g a\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 nope\n")
    with pytest.raises(MeshParseError, match=":5:"):
        load_model(path)


def test_face_index_out_of_range(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(MeshParseError, match=":4:"):
        load_model(path)


def test_empty_group_dropped(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("g nothing\ng real\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    model = load_model(path)
    assert [p.name for p in model.parts] == ["real"]


def test_regroup_merges_groups(tmp_path):
    path = tmp_path / "pair.obj"
    path.write_text(CUBE_PAIR)
    regroup = tmp_path / "regroup.json"
    regroup.write_text(json.dumps({"left": 0, "right": 0}))
    model = load_model(path, regroup=regroup)
    assert len(model.parts) == 1
    assert model.parts[0].mesh.n_faces == 24


def test_save_load_roundtrip(tmp_path):
    model = Model(parts=[make_box_part(0, [0, 0, 0], [1, 1, 1], Material.WOOD, "a"),
                         make_box_part(1, [3, 0, 0], [1, 2, 1], Material.METAL, "b")])
    path = tmp_path / "out.obj"
    save_model(model, path)
    back = load_model(path)
    assert len(back.parts) == 2
    for p, q in zip(model.parts, back.parts):
        assert np.allclose(np.sort(p.mesh.vertices, axis=0),
                           np.sort(q.mesh.vertices, axis=0))


# ---------------------------------------------------------------------------
# normalize_model
# ---------------------------------------------------------------------------

def test_normalize_unit_cube():
    model = Model(parts=[make_box_part(0, [0, 0, 0], [1, 1, 1])])
    out = normalize_model(model)
    assert abs(out.global_scale - 1 / math.sqrt(3)) < 1e-9
    ext = out.parts[0].mesh.vertices.max(axis=0) - out.parts[0].mesh.vertices.min(axis=0)
    assert abs(np.linalg.norm(ext) - 1.0) < 1e-9


def test_normalize_idempotent():
    model = Model(parts=[make_box_part(0, [2, 1, 0], [0.3, 0.9, 0.1])])
    once = normalize_model(model)
    twice = normalize_model(once)
    assert abs(twice.global_scale / once.global_scale - 1.0) < 1e-9
    assert np.allclose(once.parts[0].mesh.vertices, twice.parts[0].mesh.vertices,
                       atol=1e-12)


def test_normalize_records_scale():
    model = Model(parts=[make_box_part(0, [0, 0, 0], np.array([6.0, 8.0, 0.0]) / np.sqrt(1))])
    # diagonal sqrt(36+64) = 10
    out = normalize_model(model)
    assert abs(out.global_scale - 0.1) < 1e-9


def test_normalize_zero_extent_errors():
    flat = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        normalize_model(Model(parts=[Part(id=0, mesh=flat)]))


# ---------------------------------------------------------------------------
# sample_surface
# ---------------------------------------------------------------------------

def test_sampling_counts_area_proportional():
    """Oracle: per-face-pair counts of an area-proportional multinomial stay
    within 5 sigma of n * p."""
    part = make_box_part(0, [0, 0, 0], [1, 1, 1])
    n = 1000
    s = sample_surface(part, n, seed=11)
    areas = part.mesh.face_areas()
    # cube faces come in coplanar triangle pairs 0..5
    for pair in range(6):
        mask = (s.face_indices // 2) == pair
        p = areas[2 * pair:2 * pair + 2].sum() / areas.sum()
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(mask.sum() - n * p) <= 5 * sigma


def test_sampling_single_point():
    part = make_box_part(0, [0, 0, 0], [1, 1, 1])
    s = sample_surface(part, 1, seed=0)
    assert len(s) == 1
    assert 0 <= s.face_indices[0] < 12


def test_sampling_deterministic():
    part = make_box_part(0, [0, 0, 0], [2, 1, 1])
    a = sample_surface(part, 500, seed=42)
    b = sample_surface(part, 500, seed=42)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.face_indices, b.face_indices)


def test_sampling_barycentric_containment():
    part = make_box_part(0, [1, 2, 3], [2, 0.5, 1])
    s = sample_surface(part, 800, seed=3)
    v0, v1, v2 = part.mesh.triangle_corners()
    a = v0[s.face_indices]
    b = v1[s.face_indices]
    c = v2[s.face_indices]
    # solve barycentric coordinates and check reconstruction
    e1 = b - a
    e2 = c - a
    rel = s.positions - a
    d11 = (e1 * e1).sum(1)
    d12 = (e1 * e2).sum(1)
    d22 = (e2 * e2).sum(1)
    r1 = (rel * e1).sum(1)
    r2 = (rel * e2).sum(1)
    det = d11 * d22 - d12 * d12
    u = (d22 * r1 - d12 * r2) / det
    v = (d11 * r2 - d12 * r1) / det
    assert (u >= -1e-9).all() and (v >= -1e-9).all() and (u + v <= 1 + 1e-9).all()
    rebuilt = a + u[:, None] * e1 + v[:, None] * e2
    assert np.abs(rebuilt - s.positions).max() < 1e-9


def test_sampling_zero_area_errors():
    degenerate = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        sample_surface(Part(id=0, mesh=degenerate), 10)


def sample_surface_gather(part, n, seed=0):
    """The per-sample gather formulation: corners and normals indexed by
    each sample's face."""
    areas = part.mesh.face_areas()
    quota = n * areas / areas.sum()
    counts = np.floor(quota).astype(np.int64)
    short = n - int(counts.sum())
    if short > 0:
        counts[np.argsort(-(quota - counts), kind="stable")[:short]] += 1
    rng = np.random.default_rng(seed)
    face_idx = np.repeat(np.arange(len(areas)), counts)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    a, b, c = part.mesh.triangle_corners()
    a, b, c = a[face_idx], b[face_idx], c[face_idx]
    pos = a + u[:, None] * (b - a) + v[:, None] * (c - a)
    return pos, part.mesh.face_normals()[face_idx], face_idx


def _with_zero_area_face():
    """A box plus one face on three collinear vertices."""
    box = make_box_part(0, [0.1, 0.2, 0.3], [0.7, 0.2, 0.4]).mesh
    verts = np.vstack([box.vertices, [[0, 0, 0], [1, 1, 1], [2, 2, 2]]])
    n = len(box.vertices)
    faces = np.vstack([box.faces[:5], [[n, n + 1, n + 2]], box.faces[5:]])
    return Part(id=0, mesh=TriangleMesh(verts, faces))


SAMPLED_PARTS = {
    "box": lambda: make_box_part(0, [1, 2, 3], [2, 0.5, 1]),
    "rod": lambda: Part(id=0, mesh=rod_part([0.1, 0, 0.2], [0.5, 0.3, 0.9],
                                            0.04, 0.03)),
    "arc_tube": lambda: Part(id=0, mesh=arc_tube([0, 0, 0.5], 0.4, 0.2, 2.1,
                                                 0.05, segments=16)),
    "zero_area_face": _with_zero_area_face,
}


@pytest.mark.parametrize("name", sorted(SAMPLED_PARTS))
@pytest.mark.parametrize("n, seed_offset", [(1000, 0), (8000, 1), (7, 0)],
                         ids=["descriptor", "contact", "fewer_than_faces"])
@pytest.mark.parametrize("seed", [0, 5])
def test_sampling_matches_gather_formulation(name, n, seed_offset, seed):
    """Run-length sampling gives the gather formulation's samples bit for
    bit, at the descriptor (1000, seed) and contact (8000, seed + 1) settings
    of ``analyze_model`` and with fewer samples than faces."""
    part = SAMPLED_PARTS[name]()
    assert part.mesh.n_faces > 7
    got = sample_surface(part, n, seed=seed + seed_offset)
    pos, normals, face_idx = sample_surface_gather(part, n, seed=seed + seed_offset)
    assert np.array_equal(got.positions, pos)
    assert np.array_equal(got.normals, normals)
    assert np.array_equal(got.face_indices, face_idx)
