import numpy as np
import pytest

from meshreform.assembly import (PlacedPart, closest_point_on_placed,
                                 place_replacements, repose_to_segment,
                                 restore_contacts)
from meshreform.database import build_database, cluster_candidates, DatabaseSource
from meshreform.graphs import ContactEdge, ContactGraph
from meshreform.mesh import (Material, Model, Part, TriangleMesh,
                             normalize_model, sample_surface)
from meshreform.part_analysis import analyze_part
from meshreform.pipeline import PipelineConfig
from meshreform.synthetic import GeneratorConfig, arc_tube, rod_part
from meshreform.inference import Assignment
from conftest import make_box_part


def mini_db(parts_dims, materials=None):
    """Database of standalone box parts (one single-part model each)."""
    sources = []
    for k, dims in enumerate(parts_dims):
        mat = materials[k] if materials else Material.WOOD
        part = make_box_part(0, [0, 0, 0.5 * dims[2]], dims, mat, name=f"p{k}")
        sources.append(DatabaseSource(model=Model(parts=[part]), name=f"m{k}"))
    db = build_database(sources, PipelineConfig(contact_samples=1500))
    return cluster_candidates(db, k=len(parts_dims), seed=0)


def analyzed_model(parts):
    model = normalize_model(Model(parts=parts))
    samples = {p.id: sample_surface(p, 800, seed=0) for p in model.parts}
    descs = {p.id: analyze_part(p, samples[p.id]) for p in model.parts}
    return model, samples, descs


def place(descs, labels, db, samples):
    assignment = Assignment(labels=labels, indices={}, log_potential=0.0,
                            variables=len(labels), largest_table=0)
    return place_replacements(descs, assignment, db, query_samples=samples)


def test_identity_replacement_identity_pose():
    db = mini_db([[1.0, 0.1, 0.1]])
    _, samples, descs = analyzed_model([make_box_part(0, [0, 0, 0], [1.0, 0.1, 0.1])])
    # the db part is itself normalized: same proportions, same descriptor
    placed = place(descs, {0: db.candidates[0]}, db, samples)[0]
    src = db.part(placed.source_index)
    mapped = placed.transform_points(src.mesh.vertices)
    assert np.allclose(np.sort(mapped, axis=0),
                       np.sort(descs[0].obb.corners(), axis=0), atol=1e-6)
    # pose maps the replacement OBB exactly onto the query OBB
    box = placed.box
    assert np.allclose(box.center, descs[0].obb.center, atol=1e-9)
    assert np.allclose(np.abs(box.axes @ descs[0].obb.axes.T), np.eye(3), atol=1e-6)
    # the pose stretches the source's dominant axis by 1
    r_axis = db.part(placed.source_index).descriptor.obb.axes[0]
    assert np.linalg.norm(placed.linear @ r_axis) == pytest.approx(1.0, abs=1e-6)


def test_dominant_scale_rule():
    db = mini_db([[0.5, 0.06, 0.06]])
    _, samples, descs = analyzed_model([make_box_part(0, [0, 0, 0], [1.0, 0.06, 0.06])])
    placed = place(descs, {0: db.candidates[0]}, db, samples)[0]
    r = db.part(placed.source_index).descriptor
    expected = descs[0].obb.half_extents[0] / r.obb.half_extents[0]
    assert np.linalg.norm(placed.linear @ r.obb.axes[0]) == pytest.approx(expected,
                                                                          rel=1e-9)
    box = placed.box
    # dominant extent matches the query part, cross extents stay the source's
    assert box.half_extents[0] == pytest.approx(descs[0].obb.half_extents[0], abs=1e-9)
    assert box.half_extents[1] == pytest.approx(r.obb.half_extents[1], abs=1e-9)


def l_bar_mesh():
    """A bar with a foot at one end on one side: no proper rotation other
    than the identity maps it onto itself."""
    bar = make_box_part(0, [0, 0, 0], [1.0, 0.1, 0.1]).mesh
    foot = make_box_part(0, [0.45, 0.1, 0], [0.1, 0.1, 0.1]).mesh
    return TriangleMesh(np.vstack([bar.vertices, foot.vertices]),
                        np.vstack([bar.faces, foot.faces + len(bar.vertices)]))


@pytest.mark.parametrize("turn", [np.diag([1.0, 1, 1]), np.diag([-1.0, -1, 1]),
                                  np.diag([-1.0, 1, -1]), np.diag([1.0, -1, -1])])
def test_placement_picks_the_matching_rotation(turn):
    """Of the four proper alignments of the candidate's box onto the query's,
    the one that lays the foot on the query's foot wins."""
    source = Part(id=0, mesh=l_bar_mesh(), material=Material.WOOD)
    db = cluster_candidates(build_database(
        [DatabaseSource(model=Model(parts=[source]), name="l")],
        PipelineConfig(contact_samples=1500)), k=1)
    query = Part(id=0, mesh=l_bar_mesh().transformed(matrix=turn))
    model, samples, descs = analyzed_model([query])
    placed = place(descs, {0: db.candidates[0]}, db, samples)[0]
    moved = placed.transform_points(db.part(placed.source_index).mesh.vertices)
    want = model.parts[0].mesh.vertices
    gaps = np.linalg.norm(moved[:, None, :] - want[None, :, :], axis=-1).min(axis=1)
    assert gaps.max() < 0.02


def test_curved_tube_lands_on_rod_endpoints():
    """OBB-frame mapping oracle: the placed OBB's dominant chord must match
    the query rod's dominant chord."""
    sources = [DatabaseSource(model=Model(parts=[
        type(make_box_part(0, [0, 0, 0], [1, 1, 1]))(
            id=0, mesh=arc_tube([0, 0, 0], 0.5, 0, np.pi, 0.02),
            material=Material.METAL, name="arc")]), name="arcm")]
    db = cluster_candidates(build_database(sources, PipelineConfig(contact_samples=1500)),
                            k=1, seed=0)
    _, samples, descs = analyzed_model(
        [make_box_part(0, [0.2, 0.3, 0.1], [0.9, 0.05, 0.05], Material.WOOD)])
    placed = place(descs, {0: db.candidates[0]}, db, samples)[0]
    q = descs[0]
    q_ends = np.stack([q.obb.center - q.obb.half_extents[0] * q.obb.axes[0],
                       q.obb.center + q.obb.half_extents[0] * q.obb.axes[0]])
    box = placed.box
    p_ends = np.stack([box.center - box.half_extents[0] * box.axes[0],
                       box.center + box.half_extents[0] * box.axes[0]])
    d_direct = np.linalg.norm(q_ends - p_ends, axis=1).max()
    d_swapped = np.linalg.norm(q_ends - p_ends[::-1], axis=1).max()
    assert min(d_direct, d_swapped) < 1e-6


def test_degenerate_obb_errors():
    db = mini_db([[1.0, 0.1, 0.1]])
    _, samples, descs = analyzed_model([make_box_part(0, [0, 0, 0], [1.0, 0.1, 0.1])])
    descs[0].obb.degenerate = True
    with pytest.raises(ValueError):
        place(descs, {0: db.candidates[0]}, db, samples)


# ---------------------------------------------------------------------------
# restore_contacts
# ---------------------------------------------------------------------------

def chair_like_setup():
    """Four legs + top placed as themselves via a self-database."""
    legs = [make_box_part(i, [x, y, 0.35], [0.06, 0.06, 0.7], Material.WOOD,
                          name=f"leg{i}")
            for i, (x, y) in enumerate([(-0.4, -0.25), (0.4, -0.25),
                                        (-0.4, 0.25), (0.4, 0.25)])]
    top = make_box_part(4, [0, 0, 0.725], [1.0, 0.6, 0.05], Material.WOOD, name="top")
    model = normalize_model(Model(parts=legs + [top]))
    src = DatabaseSource(model=model, name="self")
    db = cluster_candidates(build_database([src], PipelineConfig(contact_samples=3000),
                                           normalized=True), k=5, seed=0)
    samples = {p.id: sample_surface(p, 1000, seed=0) for p in model.parts}
    descs = {p.id: analyze_part(p, samples[p.id]) for p in model.parts}
    by_dims = {}
    for c in db.candidates:
        d = db.part(c).descriptor
        by_dims[tuple(np.round(d.size_vec, 4))] = c
    labels = {pid: by_dims[tuple(np.round(descs[pid].size_vec, 4))]
              for pid in descs}
    from meshreform.graphs import build_contact_graph
    dense = {p.id: sample_surface(p, 3000, seed=1) for p in model.parts}
    graph = build_contact_graph(model, d_c=0.01, samples=dense)
    placed = place(descs, labels, db, samples)
    return placed, graph, db


def test_already_contacting_zero_displacement():
    placed, graph, db = chair_like_setup()
    out, report = restore_contacts(placed, graph, db)
    for pid, t in report.displacements.items():
        assert np.linalg.norm(t) < 2e-3
    assert report.objective_after <= report.objective_before + 1e-12


def test_foot_points_follow_seed():
    placed, graph, db = chair_like_setup()
    _, report = restore_contacts(placed, graph, db, seed=3)
    by_id = {p.part_id: p for p in placed}
    samples = {pid: p.placed_samples(db, seed=3) for pid, p in by_id.items()}
    assert report.foot_points
    for e in graph.part_edges():
        want = [closest_point_on_placed(by_id[pid], db, e.contact_point,
                                        samples[pid]) for pid in (e.i, e.j)]
        got = report.foot_points[e.key()]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_two_parts_gap_closes_exactly():
    a = make_box_part(0, [0, 0, 0], [0.3, 0.3, 0.3], Material.WOOD, "a")
    b = make_box_part(1, [0.5, 0, 0], [0.3, 0.3, 0.3], Material.WOOD, "b")
    model = Model(parts=[a, b])
    src = DatabaseSource(model=model, name="ab")
    db = cluster_candidates(build_database([src], PipelineConfig(contact_samples=1500),
                                           normalized=True), k=2, seed=0)
    samples = {p.id: sample_surface(p, 800, seed=0) for p in model.parts}
    descs = {p.id: analyze_part(p, samples[p.id]) for p in model.parts}
    sizes = {tuple(np.round(db.part(c).descriptor.size_vec, 3)): c for c in db.candidates}
    labels = {pid: sizes[tuple(np.round(descs[pid].size_vec, 3))] for pid in descs}
    placed = place(descs, labels, db, samples)
    # fabricate a contact edge with a known gap g along x between foot points
    graph = ContactGraph(nodes=[0, 1],
                         edges=[ContactEdge(0, 1, np.array([0.25, 0.0, 0.0]))])
    out, report = restore_contacts(placed, graph, db)
    p0, p1 = report.foot_points[(0, 1)]
    gap = p0 - p1
    # part 0 and part 1 tie on degree; smaller id (0) is fixed
    assert np.allclose(report.displacements[0], 0.0)
    assert np.allclose(report.displacements[1], gap, atol=1e-9)
    assert report.objective_after < 1e-18


def random_restore_case(rng, n_parts, extra_edges):
    """Random foot points on a connected graph; solved directly against the
    dense least-squares oracle."""
    edges = [(int(rng.integers(0, k)), k) for k in range(1, n_parts)]
    edges += [tuple(sorted(rng.choice(n_parts, size=2, replace=False)))
              for _ in range(extra_edges)]
    edges = sorted(set((min(a, b), max(a, b)) for a, b in edges if a != b))
    foot = {e: (rng.normal(size=3), rng.normal(size=3)) for e in edges}
    degree = {i: 0 for i in range(n_parts)}
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    anchor = max(range(n_parts), key=lambda p: (degree[p], -p))
    return edges, foot, anchor


def dense_lsq_oracle(n_parts, edges, foot, anchor):
    """Stack the gap equations and solve with lstsq per coordinate."""
    free = [p for p in range(n_parts) if p != anchor]
    col = {p: k for k, p in enumerate(free)}
    rows = []
    rhs = []
    for (i, j) in edges:
        row = np.zeros(len(free))
        if i in col:
            row[col[i]] = 1.0
        if j in col:
            row[col[j]] = -1.0
        rows.append(row)
        rhs.append(foot[(i, j)][1] - foot[(i, j)][0])
    a = np.vstack(rows)
    b = np.vstack(rhs)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    disp = {anchor: np.zeros(3)}
    for p, k in col.items():
        disp[p] = sol[k]
    return disp


def solve_restore_directly(n_parts, edges, foot, anchor):
    """Re-implements the normal-equation path restore_contacts uses, without
    the mesh machinery (for oracle comparison on random instances)."""
    free = [p for p in range(n_parts) if p != anchor]
    col = {p: k for k, p in enumerate(free)}
    lap = np.zeros((len(free), len(free)))
    rhs = np.zeros((len(free), 3))
    for (i, j) in edges:
        g = foot[(i, j)][0] - foot[(i, j)][1]
        if i in col:
            lap[col[i], col[i]] += 1
            rhs[col[i]] -= g
        if j in col:
            lap[col[j], col[j]] += 1
            rhs[col[j]] += g
        if i in col and j in col:
            lap[col[i], col[j]] -= 1
            lap[col[j], col[i]] -= 1
    sol = np.linalg.solve(lap, rhs)
    disp = {anchor: np.zeros(3)}
    for p, k in col.items():
        disp[p] = sol[k]
    return disp


def objective(edges, foot, disp):
    return sum(float(np.sum(((foot[e][0] + disp[e[0]]) - (foot[e][1] + disp[e[1]])) ** 2))
               for e in edges)


def test_random_cases_match_lsq_oracle():
    rng = np.random.default_rng(20)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        edges, foot, anchor = random_restore_case(rng, n, extra_edges=int(rng.integers(0, 4)))
        mine = solve_restore_directly(n, edges, foot, anchor)
        oracle = dense_lsq_oracle(n, edges, foot, anchor)
        for p in mine:
            assert np.allclose(mine[p], oracle[p], atol=1e-8)
        assert objective(edges, foot, mine) <= objective(
            edges, foot, {p: np.zeros(3) for p in range(n)}) + 1e-12


def test_tree_graphs_close_exactly():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        edges, foot, anchor = random_restore_case(rng, n, extra_edges=0)
        disp = solve_restore_directly(n, edges, foot, anchor)
        assert objective(edges, foot, disp) < 1e-18


def test_translation_invariance():
    rng = np.random.default_rng(22)
    n = 5
    edges, foot, anchor = random_restore_case(rng, n, extra_edges=2)
    v = np.array([3.0, -1.0, 2.0])
    shifted = {e: (foot[e][0] + v, foot[e][1] + v) for e in edges}
    a = solve_restore_directly(n, edges, foot, anchor)
    b = solve_restore_directly(n, edges, shifted, anchor)
    for p in a:
        assert np.allclose(a[p], b[p], atol=1e-9)


def test_star_graph_residual_zero():
    rng = np.random.default_rng(23)
    edges = [(0, k) for k in range(1, 5)]
    foot = {e: (rng.normal(size=3), rng.normal(size=3)) for e in edges}
    disp = solve_restore_directly(5, edges, foot, 0)
    assert np.allclose(disp[0], 0.0)
    for e in edges:
        gap = (foot[e][0] + disp[e[0]]) - (foot[e][1] + disp[e[1]])
        assert np.linalg.norm(gap) < 1e-9


# ---------------------------------------------------------------------------
# repose
# ---------------------------------------------------------------------------

def test_repose_maps_segment_endpoints():
    db = mini_db([[1.0, 0.1, 0.1]])
    _, samples, descs = analyzed_model([make_box_part(0, [0, 0, 0], [1.0, 0.1, 0.1])])
    placed = place(descs, {0: db.candidates[0]}, db, samples)[0]
    box = placed.box
    new_seg = np.array([[0.1, 0.2, 0.0], [0.1, 0.2, 0.8]])
    out = repose_to_segment(placed, new_seg)
    nb = out.box
    ends = np.stack([nb.center - nb.half_extents[0] * nb.axes[0],
                     nb.center + nb.half_extents[0] * nb.axes[0]])
    d1 = np.linalg.norm(ends - new_seg, axis=1).max()
    d2 = np.linalg.norm(ends[::-1] - new_seg, axis=1).max()
    assert min(d1, d2) < 1e-9
    # cross extents untouched
    assert np.allclose(nb.half_extents[1:], box.half_extents[1:], atol=1e-12)
