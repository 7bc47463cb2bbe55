import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from meshreform import graphs, synthetic
from meshreform.graphs import (CONGRUENCE_EXTENT_TOL, CONGRUENCE_MAX_POINTS,
                               CONGRUENCE_RMS_TOL, CONTACT_SAMPLES,
                               GROUND_ID, build_contact_graph,
                               build_repetition_graph, congruence_rms,
                               connected_components, estimate_contact_angle,
                               fold_angle_deg, annotate_contact_angles)
from meshreform.mesh import (Model, Part, SurfaceSamples, TriangleMesh,
                             normalize_model, sample_surface)
from meshreform.obb import OrientedBox
from meshreform.part_analysis import analyze_part
from conftest import make_box_part, random_rotation


def analyzed(model, n=1000, dense=1500):
    samples = {p.id: sample_surface(p, n, seed=0) for p in model.parts}
    dense_s = {p.id: sample_surface(p, dense, seed=1) for p in model.parts}
    descs = {p.id: analyze_part(p, samples[p.id]) for p in model.parts}
    return samples, dense_s, descs


def oracle_nearest(query, ref):
    """Row minima of the dense (n, m) squared-distance matrix, built a block
    of query rows at a time."""
    out = np.empty(query.shape[0])
    for s in range(0, query.shape[0], 256):
        d = query[s:s + 256, None, :] - ref[None, :, :]
        out[s:s + 256] = (d * d).sum(axis=-1).min(axis=1)
    return out


def brute_force_min_distance(pa, pb):
    """O(n^2) oracle over the same sample sets the builder uses."""
    return float(np.sqrt(oracle_nearest(pa, pb).min()))


def contact_edges_reference(model, samples, d_c):
    """The contact scan written as cropped-against-cropped dense distance
    matrices: (i, j, contact point, min distance) per part-part edge."""
    pts = {p.id: samples[p.id].positions for p in model.parts}
    edges = []
    for i, j in itertools.combinations([p.id for p in model.parts], 2):
        lo = np.maximum(pts[i].min(axis=0), pts[j].min(axis=0)) - d_c
        hi = np.minimum(pts[i].max(axis=0), pts[j].max(axis=0)) + d_c
        a = pts[i][((pts[i] >= lo) & (pts[i] <= hi)).all(axis=1)]
        b = pts[j][((pts[j] >= lo) & (pts[j] <= hi)).all(axis=1)]
        if len(a) == 0 or len(b) == 0:
            continue
        d2a = oracle_nearest(a, b)
        dmin = float(np.sqrt(d2a.min()))
        if dmin >= d_c:
            continue
        d2b = oracle_nearest(b, a)
        near = np.vstack([a[d2a < d_c * d_c], b[d2b < d_c * d_c]])
        edges.append((i, j, near.mean(axis=0), dmin))
    return edges


def assert_edges_match_reference(model, samples, d_c, min_edges=0):
    got = build_contact_graph(model, samples, d_c=d_c).part_edges()
    want = contact_edges_reference(model, samples, d_c)
    assert len(want) >= min_edges
    assert [(e.i, e.j) for e in got] == [(i, j) for i, j, _, _ in want]
    for e, (_, _, point, dmin) in zip(got, want):
        assert np.abs(e.contact_point - point).max() <= 1e-12
        assert e.min_distance == pytest.approx(dmin, rel=1e-12, abs=0)


@pytest.mark.parametrize("generator, seed", [
    ("wood_table", 0), ("metal_table", 1), ("mixed_table", 2),
    ("wood_bed", 3), ("metal_bed", 4),
    ("wood_chair", 5), ("metal_chair", 6), ("mixed_chair", 7),
])
def test_contact_graph_matches_dense_reference(generator, seed):
    parts = getattr(synthetic, generator)(np.random.default_rng(seed),
                                          synthetic.GeneratorConfig()).parts
    model = normalize_model(Model(parts=parts))
    dense = {p.id: sample_surface(p, 2000, seed=1) for p in model.parts}
    assert_edges_match_reference(model, dense, 0.01, min_edges=3)


def contact_edges_whole_crop(model, samples, d_c):
    """The contact scan with the second query against a tree over all of
    the cropped ``a``: (i, j, contact point, min distance) per edge."""
    pts = {p.id: samples[p.id].positions for p in model.parts}
    edges = []
    for i, j in itertools.combinations([p.id for p in model.parts], 2):
        lo = np.maximum(pts[i].min(axis=0), pts[j].min(axis=0)) - d_c
        hi = np.minimum(pts[i].max(axis=0), pts[j].max(axis=0)) + d_c
        a = pts[i][((pts[i] >= lo) & (pts[i] <= hi)).all(axis=1)]
        b = pts[j][((pts[j] >= lo) & (pts[j] <= hi)).all(axis=1)]
        if len(a) == 0 or len(b) == 0:
            continue
        d_a = cKDTree(b).query(a, distance_upper_bound=d_c)[0]
        if d_a.min() >= d_c:
            continue
        d_b = cKDTree(a).query(b, distance_upper_bound=d_c)[0]
        near = np.vstack([a[d_a < d_c], b[d_b < d_c]])
        edges.append((i, j, near.mean(axis=0), float(d_a.min())))
    return edges


@pytest.mark.parametrize("generator, seed", [
    ("wood_table", 0), ("metal_table", 1), ("mixed_table", 2),
    ("wood_bed", 3), ("metal_bed", 4),
    ("wood_chair", 5), ("metal_chair", 6), ("mixed_chair", 7),
])
def test_near_only_second_query_is_bit_identical(generator, seed):
    """Querying ``b`` against the near ``a``-samples alone gives the edges,
    contact points and distances of the query against all of the crop, bit
    for bit, at the contact samples ``analyze_model`` draws."""
    parts = getattr(synthetic, generator)(np.random.default_rng(seed),
                                          synthetic.GeneratorConfig()).parts
    model = normalize_model(Model(parts=parts))
    dense = {p.id: sample_surface(p, CONTACT_SAMPLES, seed=1)
             for p in model.parts}
    got = build_contact_graph(model, dense, d_c=0.01).part_edges()
    want = contact_edges_whole_crop(model, dense, 0.01)
    assert len(want) >= 3
    assert [(e.i, e.j) for e in got] == [(i, j) for i, j, _, _ in want]
    for e, (_, _, point, dmin) in zip(got, want):
        assert np.array_equal(e.contact_point, point)
        assert e.min_distance == dmin


def _samples(pos):
    n = len(pos)
    return SurfaceSamples(pos, np.tile([1.0, 0, 0], (n, 1)), np.zeros(n, dtype=int))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sizes=st.lists(st.integers(1, 80),
                                                        min_size=2, max_size=4),
       d_c=st.floats(0.01, 0.5))
def test_contact_edges_property(seed, sizes, d_c):
    """Scattered sample clouds of any size, near or apart, get the edges,
    contact points and distances of the dense reference."""
    rng = np.random.default_rng(seed)
    model = Model(parts=[make_box_part(k, [0, 0, 0], [1, 1, 1])
                         for k in range(len(sizes))])
    samples = {k: _samples(rng.normal(scale=0.3, size=(n, 3))
                           + rng.uniform(-0.5, 0.5, 3))
               for k, n in enumerate(sizes)}
    assert_edges_match_reference(model, samples, d_c)


def _facing_grids(gap):
    """Two box parts with sample grids on parallel planes ``gap`` apart in x;
    every grid coordinate is a dyadic fraction, so distances are exact."""
    yz = np.array([[y, z] for y in np.arange(0, 1, 0.125)
                   for z in np.arange(0, 1, 0.125)])
    samples = {pid: _samples(np.column_stack([np.full(len(yz), x), yz]))
               for pid, x in ((0, 0.0), (1, gap))}
    model = Model(parts=[make_box_part(0, [-0.5, 0.5, 0.5], [1, 1, 1]),
                         make_box_part(1, [gap + 0.5, 0.5, 0.5], [1, 1, 1])])
    return model, samples


def test_sample_sets_exactly_dc_apart_form_no_edge():
    d_c = 0.25
    model, samples = _facing_grids(d_c)
    assert build_contact_graph(model, samples, d_c=d_c).part_edges() == []
    # a hair closer, every sample of both grids is in contact
    model, samples = _facing_grids(d_c - 2.0 ** -20)
    edges = build_contact_graph(model, samples, d_c=d_c).part_edges()
    assert len(edges) == 1
    assert edges[0].min_distance == d_c - 2.0 ** -20
    assert np.allclose(edges[0].contact_point, [(d_c - 2.0 ** -20) / 2, 0.4375, 0.4375])


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


def _crop_sizes(samples, i, j, d_c):
    """How many samples of parts i and j lie in the pair's crop box: the
    overlap of their bounding boxes grown by d_c."""
    pi, pj = samples[i].positions, samples[j].positions
    lo = np.maximum(pi.min(axis=0), pj.min(axis=0)) - d_c
    hi = np.minimum(pi.max(axis=0), pj.max(axis=0)) + d_c
    return tuple(int(((p >= lo) & (p <= hi)).all(axis=1).sum()) for p in (pi, pj))


def test_rod_tip_on_block_crops_a_few_percent():
    """Only the rod's tip is near the block: the crop keeps a few percent of
    the rod's samples and still finds the reference's edge."""
    from meshreform.synthetic import rod_part
    model = Model(parts=[Part(id=0, mesh=rod_part([0, 0, 0], [1, 0, 0], 0.02)),
                         make_box_part(1, [1.05, 0, 0], [0.1, 0.1, 0.1])])
    samples = {p.id: sample_surface(p, 4000, seed=1) for p in model.parts}
    n_rod, _ = _crop_sizes(samples, 0, 1, 0.01)
    assert 0 < n_rod < 0.05 * 4000
    assert_edges_match_reference(model, samples, 0.01, min_edges=1)


def test_skew_rods_with_overlapping_crops_form_no_edge():
    """Two skew rods 0.05 apart (axis to axis): their crop boxes hold
    samples of both, but no sample is within d_c of the other rod."""
    from meshreform.synthetic import rod_part
    z = 0.5 + 0.025 * np.sqrt(6.0)     # line distance |2z - 1| / sqrt(6) = 0.05
    model = Model(parts=[Part(id=0, mesh=rod_part([0, 0, 0], [1, 1, 1], 0.02)),
                         Part(id=1, mesh=rod_part([1, 0, z], [0, 1, z], 0.02))])
    samples = {p.id: sample_surface(p, 4000, seed=1) for p in model.parts}
    assert min(_crop_sizes(samples, 0, 1, 0.01)) > 0
    assert contact_edges_reference(model, samples, 0.01) == []
    assert build_contact_graph(model, samples, d_c=0.01).part_edges() == []


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
    """The legs form one class, every pair of them congruent; the top is
    a class of its own."""
    legs = [make_box_part(i, [x, y, 0.35], [0.06, 0.06, 0.7])
            for i, (x, y) in enumerate([(-0.4, -0.25), (0.4, -0.25),
                                        (-0.4, 0.25), (0.4, 0.25)])]
    top = make_box_part(4, [0, 0, 0.725], [1.0, 0.6, 0.05])
    model = normalize_model(Model(parts=legs + [top]))
    samples, _, descs = analyzed(model)
    rep = build_repetition_graph(model, descs, samples)
    assert rep.classes == [[0, 1, 2, 3], [4]]


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
    assert rep.classes == [[0, 1]]


def test_different_lengths_not_congruent():
    a = make_box_part(0, [0, 0, 0], [0.9, 0.06, 0.06])
    b = make_box_part(1, [0, 0.5, 0], [0.7, 0.06, 0.06])
    model = normalize_model(Model(parts=[a, b]))
    samples, _, descs = analyzed(model)
    rep = build_repetition_graph(model, descs, samples)
    assert rep.classes == [[0], [1]]


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
        assert rep.classes == [[0, 1]]


def repetition_classes_all_pairs(model, descriptors, samples):
    """The repetition scan that checks every pair with matching extents,
    transitively closed into classes."""
    ids = [p.id for p in model.parts]
    direct = []
    for i, j in itertools.combinations(ids, 2):
        ea, eb = descriptors[i].size_vec, descriptors[j].size_vec
        if (np.abs(ea - eb) > CONGRUENCE_EXTENT_TOL * np.maximum(ea, eb)
                + 1e-12).any():
            continue
        pa = samples[i].positions[:CONGRUENCE_MAX_POINTS]
        pb = samples[j].positions[:CONGRUENCE_MAX_POINTS]
        if congruence_rms(descriptors[i], pa, descriptors[j], pb,
                          stop_below=0.5 * CONGRUENCE_RMS_TOL) < CONGRUENCE_RMS_TOL:
            direct.append((i, j))
    return connected_components(ids, direct)


def _two_classes():
    """Four legs and three rails: two classes of different extents, the
    parts listed out of id order."""
    legs = [make_box_part(i, [x, 0, 0.35], [0.06, 0.06, 0.7])
            for i, x in enumerate([-0.45, -0.15, 0.15, 0.45])]
    rails = [make_box_part(4 + k, [0, 0.3 * k - 0.3, 0.75], [1.0, 0.05, 0.04])
             for k in range(3)]
    return rails[:1] + legs + rails[1:]


@pytest.mark.parametrize("build", [
    lambda: synthetic.wood_chair(np.random.default_rng(3),
                                 synthetic.GeneratorConfig(), n_slats=6).parts,
    lambda: synthetic.wood_bed(np.random.default_rng(4),
                               synthetic.GeneratorConfig(), n_slats=5).parts,
    _two_classes,
], ids=["wood_chair_6_slats", "wood_bed_5_slats", "two_classes"])
def test_repetition_skips_pairs_already_in_one_class(build, monkeypatch):
    """Skipping pairs the closure already joined keeps the all-pairs classes,
    and k congruent copies cost at most k - 1 checks inside their class."""
    model = normalize_model(Model(parts=build()))
    samples, _, descs = analyzed(model)
    want = repetition_classes_all_pairs(model, descs, samples)
    pid_of = {id(d): pid for pid, d in descs.items()}
    checked = []

    def counting(desc_a, pts_a, desc_b, pts_b, stop_below=None):
        checked.append({pid_of[id(desc_a)], pid_of[id(desc_b)]})
        return congruence_rms(desc_a, pts_a, desc_b, pts_b, stop_below)

    monkeypatch.setattr(graphs, "congruence_rms", counting)
    rep = build_repetition_graph(model, descs, samples)
    assert rep.classes == want
    classes = [c for c in rep.classes if len(c) > 1]
    assert len(classes) >= 2 and max(map(len, classes)) >= 3
    for cls_ in classes:
        assert sum(pair <= set(cls_) for pair in checked) <= len(cls_) - 1


def capped_sum(query, ref, cap):
    """Sum of nearest squared distances, inf once the running total of a
    block of rows exceeds ``cap``."""
    total = 0.0
    for s in range(0, len(query), 256):
        total += float(oracle_nearest(query[s:s + 256], ref).sum())
        if total > cap:
            return np.inf
    return total


def congruence_rms_reference(desc_a, pts_a, desc_b, pts_b):
    """The 48-alignment scan on world-frame points with an early abort: each
    alignment maps b onto a and stops once its sum passes the best so far."""
    b_local = desc_b.obb.to_local(pts_b)
    count = len(pts_a) + len(pts_b)
    best_sum = np.inf
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            mapped = ((b_local[:, list(perm)] * signs) @ desc_a.obb.axes
                      + desc_a.obb.center)
            cap = best_sum if np.isfinite(best_sum) else 1e30
            d2 = capped_sum(mapped, pts_a, cap)
            if not np.isfinite(d2):
                continue
            d2 += capped_sum(pts_a, mapped, cap - d2)
            best_sum = min(best_sum, d2)
    return float(np.sqrt(best_sum / count))


@pytest.mark.parametrize("generator, seed", [
    ("wood_table", 0), ("metal_bed", 4), ("wood_chair", 5),
])
def test_congruence_matches_dense_reference(generator, seed):
    parts = getattr(synthetic, generator)(np.random.default_rng(seed),
                                          synthetic.GeneratorConfig()).parts
    model = normalize_model(Model(parts=parts[:6]))
    samples = {p.id: sample_surface(p, 250, seed=p.id) for p in model.parts}
    descs = {p.id: analyze_part(p, samples[p.id]) for p in model.parts}
    rms = []
    for i, j in itertools.combinations(descs, 2):
        pa, pb = samples[i].positions, samples[j].positions
        got = congruence_rms(descs[i], pa, descs[j], pb, stop_below=None)
        want = congruence_rms_reference(descs[i], pa, descs[j], pb)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        rms.append(got)
    # both decisions occur: some pairs are congruent copies, some are not
    assert min(rms) < 0.01 < max(rms)


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_congruence_finds_copy_under_any_frame_labelling(perm):
    """A translated copy whose box axes are listed in another order and
    sign is found exactly, cyclic relabellings included."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(size=(200, 3)) * [0.8, 0.3, 0.1]
    rot = random_rotation(rng)
    half = np.array([0.4, 0.15, 0.05])
    shift = np.array([2.0, -1.0, 0.5])
    signs = np.array([1.0, -1.0, 1.0])
    desc_a = SimpleNamespace(obb=OrientedBox(np.zeros(3), rot, half))
    desc_b = SimpleNamespace(obb=OrientedBox(
        shift, rot[list(perm)] * signs[:, None], half[list(perm)]))
    pts_a = pts @ rot
    pts_b = pts_a + shift
    got = congruence_rms(desc_a, pts_a, desc_b, pts_b, stop_below=None)
    assert got < 1e-12
    assert congruence_rms_reference(desc_a, pts_a, desc_b, pts_b) < 1e-12


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_connected_components_matches_scipy(data):
    """Memberships equal scipy's labelling; each component is sorted and the
    components are ordered by their smallest node. Isolated nodes, repeated
    pairs and self-pairs all occur in the draws."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components as scipy_components

    nodes = data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=25,
                               unique=True))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(nodes),
                                         st.sampled_from(nodes)), max_size=40))
    got = connected_components(nodes, pairs)

    index = {n: k for k, n in enumerate(nodes)}
    rows = [index[i] for i, _ in pairs]
    cols = [index[j] for _, j in pairs]
    adj = coo_matrix((np.ones(len(pairs)), (rows, cols)),
                     shape=(len(nodes), len(nodes)))
    count, labels = scipy_components(adj, directed=False)
    expected = {frozenset(n for n in nodes if labels[index[n]] == c)
                for c in range(count)}
    assert {frozenset(c) for c in got} == expected
    assert sum(len(c) for c in got) == len(nodes)
    assert all(c == sorted(c) for c in got)
    assert [c[0] for c in got] == sorted(c[0] for c in got)
