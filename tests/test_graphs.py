import itertools

import numpy as np
import pytest

from meshreform import kernels
from meshreform.graphs import (GROUND_ID, build_contact_graph,
                               build_repetition_graph, congruence_rms,
                               estimate_contact_angle, fold_angle_deg,
                               annotate_contact_angles)
from meshreform.mesh import Model, Part, TriangleMesh, normalize_model, sample_surface
from meshreform.part_analysis import analyze_part
from conftest import make_box_part, random_rotation


def analyzed(model, n=1000, dense=1500):
    samples = {p.id: sample_surface(p, n, seed=0) for p in model.parts}
    dense_s = {p.id: sample_surface(p, dense, seed=1) for p in model.parts}
    descs = {p.id: analyze_part(p, samples[p.id]) for p in model.parts}
    return samples, dense_s, descs


def brute_force_min_distance(pa, pb):
    """O(n^2) oracle over the same sample sets the builder uses."""
    d = pa[:, None, :] - pb[None, :, :]
    return float(np.sqrt((d * d).sum(-1).min()))


def test_touching_cubes_edge_and_contact_point():
    model = Model(parts=[make_box_part(0, [0, 0, 0.5], [1, 1, 1]),
                         make_box_part(1, [1, 0, 0.5], [1, 1, 1])])
    model = normalize_model(model)
    _, dense, _ = analyzed(model, dense=12000)
    g = build_contact_graph(model, d_c=0.01, samples=dense)
    part_edges = g.part_edges()
    assert len(part_edges) == 1
    e = part_edges[0]
    # shared face center: x = 0.5 scaled, mid y/z
    expected = np.array([0.5, 0.0, 0.5]) * model.global_scale
    expected[2] = 0.5 * model.global_scale
    assert np.linalg.norm(e.contact_point - expected) < 0.01


def test_separated_cubes_no_edge():
    model = Model(parts=[make_box_part(0, [0, 0, 0.5], [1, 1, 1]),
                         make_box_part(1, [1.5, 0, 0.5], [1, 1, 1])])
    model = normalize_model(model)
    _, dense, _ = analyzed(model)
    g = build_contact_graph(model, d_c=0.01, samples=dense)
    assert len(g.part_edges()) == 0


def test_table_star_topology_vs_bruteforce():
    """4-leg table: edges match the O(n^2) sample-distance oracle, legs get
    ground edges."""
    legs = [make_box_part(i, [x, y, 0.35], [0.06, 0.06, 0.7], name=f"leg{i}")
            for i, (x, y) in enumerate([(-0.4, -0.25), (0.4, -0.25),
                                        (-0.4, 0.25), (0.4, 0.25)])]
    top = make_box_part(4, [0, 0, 0.725], [1.0, 0.6, 0.05], name="top")
    model = normalize_model(Model(parts=legs + [top]))
    _, dense, _ = analyzed(model)
    d_c = 0.01
    g = build_contact_graph(model, d_c=d_c, samples=dense)

    got = {(e.i, e.j) for e in g.part_edges()}
    expected = set()
    ids = [p.id for p in model.parts]
    for i, j in itertools.combinations(ids, 2):
        if brute_force_min_distance(dense[i].positions, dense[j].positions) < d_c:
            expected.add((i, j))
    assert got == expected == {(0, 4), (1, 4), (2, 4), (3, 4)}
    assert {e.i for e in g.ground_edges()} == {0, 1, 2, 3}


def test_dc_must_be_positive():
    model = Model(parts=[make_box_part(0, [0, 0, 0], [1, 1, 1])])
    with pytest.raises(ValueError):
        build_contact_graph(model, samples={}, d_c=0.0)


def test_edges_match_bruteforce_random_scatter():
    rng = np.random.default_rng(8)
    parts = [make_box_part(i, rng.uniform(-0.5, 0.5, 3), rng.uniform(0.1, 0.4, 3))
             for i in range(6)]
    model = normalize_model(Model(parts=parts))
    _, dense, _ = analyzed(model)
    d_c = 0.02
    g = build_contact_graph(model, d_c=d_c, samples=dense)
    got = {(e.i, e.j) for e in g.part_edges()}
    expected = set()
    for i, j in itertools.combinations(range(6), 2):
        if brute_force_min_distance(dense[i].positions, dense[j].positions) < d_c:
            expected.add((i, j))
    assert got == expected


# ---------------------------------------------------------------------------
# contact angles
# ---------------------------------------------------------------------------

def rods_at_angle(angle_deg):
    """Two rods meeting at the origin region enclosing the given angle."""
    from meshreform.synthetic import rod_part
    a = Part(id=0, mesh=rod_part([0, 0, 0], [1, 0, 0], 0.04))
    th = np.radians(angle_deg)
    b = Part(id=1, mesh=rod_part([0, 0, 0.04], [np.cos(th), np.sin(th), 0.04], 0.04))
    return Model(parts=[a, b])


@pytest.mark.parametrize("angle,expected", [(90, 90.0), (120, 60.0), (45, 45.0)])
def test_rod_rod_angles(angle, expected):
    model = normalize_model(rods_at_angle(angle))
    samples, dense, descs = analyzed(model)
    g = build_contact_graph(model, d_c=0.02, samples=dense)
    annotate_contact_angles(g, descs, samples)
    edges = g.part_edges()
    assert len(edges) == 1
    assert abs(edges[0].angle - expected) < 1.0


def test_rod_blob_angle_na():
    from meshreform.synthetic import rod_part
    rod = Part(id=0, mesh=rod_part([0, 0, 0.5], [1, 0, 0.5], 0.05))
    blob = make_box_part(1, [-0.25, 0, 0.5], [0.5, 0.45, 0.55])
    model = normalize_model(Model(parts=[rod, blob]))
    samples, dense, descs = analyzed(model)
    g = build_contact_graph(model, d_c=0.02, samples=dense)
    annotate_contact_angles(g, descs, samples)
    assert len(g.part_edges()) == 1
    assert g.part_edges()[0].angle is None


def test_angle_symmetric_in_arguments():
    model = normalize_model(rods_at_angle(70))
    samples, dense, descs = analyzed(model)
    g = build_contact_graph(model, d_c=0.02, samples=dense)
    e = g.part_edges()[0]
    a = estimate_contact_angle(descs[0], descs[1], e, samples[0], samples[1])
    b = estimate_contact_angle(descs[1], descs[0], e, samples[1], samples[0])
    assert abs(a - b) < 1e-9


def test_fold_angle():
    assert abs(fold_angle_deg([1, 0, 0], [0, 1, 0]) - 90) < 1e-12
    u = np.array([1.0, 0, 0])
    v = np.array([np.cos(np.radians(120)), np.sin(np.radians(120)), 0.0])
    assert abs(fold_angle_deg(u, v) - 60) < 1e-9


def test_curvilinear_leg_from_local_samples():
    """An arc tube is not linear; its angle leg comes from the local
    neighborhood of the contact."""
    from meshreform.synthetic import arc_tube, rod_part
    arc = Part(id=0, mesh=arc_tube([0, 0, 0.5], 0.5, 0, np.pi, 0.012, segments=24))
    post = Part(id=1, mesh=rod_part([0.5, 0, 0.0], [0.5, 0, 0.5], 0.012))
    model = normalize_model(Model(parts=[arc, post]))
    samples, dense, descs = analyzed(model, n=2000)
    assert descs[0].curvilinear and not descs[0].is_linear
    g = build_contact_graph(model, d_c=0.02, samples=dense)
    annotate_contact_angles(g, descs, samples)
    e = g.part_edges()[0]
    # arc tangent at its base is vertical, post is vertical: angle near 0
    assert e.angle is not None
    assert e.angle < 25.0


# ---------------------------------------------------------------------------
# repetition graph
# ---------------------------------------------------------------------------

def test_four_identical_legs_form_clique():
    legs = [make_box_part(i, [x, y, 0.35], [0.06, 0.06, 0.7])
            for i, (x, y) in enumerate([(-0.4, -0.25), (0.4, -0.25),
                                        (-0.4, 0.25), (0.4, 0.25)])]
    top = make_box_part(4, [0, 0, 0.725], [1.0, 0.6, 0.05])
    model = normalize_model(Model(parts=legs + [top]))
    samples, _, descs = analyzed(model)
    rep = build_repetition_graph(model, descs, samples)
    assert sorted(map(sorted, rep.classes()), key=min)[0] == [0, 1, 2, 3]
    assert set(rep.edges) == set(itertools.combinations([0, 1, 2, 3], 2))


def test_mirrored_pair_congruent():
    """Reflection is among the 48 alignments."""
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.uniform(size=(80, 3)) * [0.8, 0.2, 0.2],
                     rng.uniform(size=(80, 3)) * [0.2, 0.5, 0.2]])
    from scipy.spatial import ConvexHull
    hull = ConvexHull(pts)
    mesh = TriangleMesh(pts, hull.simplices)
    mirrored = TriangleMesh(pts * [-1, 1, 1] + [3, 0, 0], hull.simplices[:, ::-1])
    model = normalize_model(Model(parts=[Part(id=0, mesh=mesh),
                                         Part(id=1, mesh=mirrored)]))
    samples, _, descs = analyzed(model)
    rep = build_repetition_graph(model, descs, samples)
    assert (0, 1) in rep.edges


def test_different_lengths_not_congruent():
    a = make_box_part(0, [0, 0, 0], [0.9, 0.06, 0.06])
    b = make_box_part(1, [0, 0.5, 0], [0.7, 0.06, 0.06])
    model = normalize_model(Model(parts=[a, b]))
    samples, _, descs = analyzed(model)
    rep = build_repetition_graph(model, descs, samples)
    assert rep.edges == []


def test_congruence_invariant_under_model_rotation():
    rng = np.random.default_rng(10)
    legs = [make_box_part(i, [x, y, 0.35], [0.06, 0.06, 0.7])
            for i, (x, y) in enumerate([(-0.4, -0.25), (0.4, 0.25)])]
    rot = random_rotation(rng)
    moved = [Part(id=p.id, mesh=p.mesh.transformed(matrix=rot, translation=[1, -2, 0.5]))
             for p in legs]
    for parts in (legs, moved):
        model = normalize_model(Model(parts=list(parts)))
        samples, _, descs = analyzed(model)
        rep = build_repetition_graph(model, descs, samples)
        assert (0, 1) in rep.edges
