import itertools
import json

import numpy as np
import pytest

from meshreform import kernels
from meshreform.fabrication import (FabricationSpec, JointAssignment,
                                    JointGeometry, JointType, PartSpec,
                                    QueryContact, export_spec,
                                    form_joint_geometry, infer_joint_types,
                                    joint_category, load_spec,
                                    refine_part_dimensions)
from meshreform.mesh import Material, sample_surface
from meshreform.obb import OrientedBox, boxes_mesh
from meshreform.part_analysis import analyze_part
from meshreform.qp import QPInfeasibleError, kkt_residual, solve_min_change_qp
from meshreform.similarity import orientation_angles
from conftest import make_box_part


def boxes_volume(boxes):
    return float(sum(b.volume for b in boxes))


def aab(center, half):
    """Axis-aligned box with the extents/axes ordering the contract needs."""
    half = np.asarray(half, float)
    order = np.argsort(-half, kind="stable")
    axes = np.eye(3)[order]
    if np.linalg.det(axes) < 0:
        axes[2] = -axes[2]
    return OrientedBox(np.asarray(center, float), axes, half[order])


# ---------------------------------------------------------------------------
# QP solver
# ---------------------------------------------------------------------------

def test_qp_unconstrained_returns_x0():
    x0 = np.array([1.0, 2.0])
    x, active, lam = solve_min_change_qp(x0, np.zeros((0, 2)), np.zeros(0))
    assert np.allclose(x, x0)
    assert active == []


def test_qp_single_halfspace_projection():
    x0 = np.array([1.0, 1.0])
    G = np.array([[1.0, 1.0]])
    h = np.array([1.0])
    x, active, lam = solve_min_change_qp(x0, G, h)
    assert np.allclose(x, [0.5, 0.5])
    assert kkt_residual(x, x0, G, h, active, lam) < 1e-10


def test_qp_against_grid_search():
    rng = np.random.default_rng(40)
    for _ in range(20):
        x0 = rng.uniform(-1, 1, 2)
        G = rng.normal(size=(3, 2))
        h = G @ x0 + rng.uniform(-0.5, 0.5, 3)
        try:
            x, active, lam = solve_min_change_qp(x0, G, h)
        except QPInfeasibleError:
            continue
        assert (G @ x <= h + 1e-8).all()
        grid = np.linspace(-2, 2, 161)
        best = np.inf
        for a in grid:
            feas = (G[:, 0] * a)[:, None] + np.outer(G[:, 1], grid) <= h[:, None] + 1e-12
            ok = feas.all(axis=0)
            if ok.any():
                vals = (a - x0[0]) ** 2 + (grid[ok] - x0[1]) ** 2
                best = min(best, vals.min())
        assert np.sum((x - x0) ** 2) <= best + 1e-6


def test_qp_infeasible_detected():
    x0 = np.zeros(1)
    G = np.array([[1.0], [-1.0]])
    h = np.array([-1.0, -1.0])      # x <= -1 and x >= 1
    with pytest.raises(QPInfeasibleError):
        solve_min_change_qp(x0, G, h)


# ---------------------------------------------------------------------------
# joint inference
# ---------------------------------------------------------------------------

def make_query(edge, desc_i, desc_j, mat_i, mat_j, cp):
    return QueryContact(
        edge=edge, materials=(mat_i, mat_j), descriptors=(desc_i, desc_j),
        barycenter_distance=float(np.linalg.norm(desc_i.barycenter - desc_j.barycenter)),
        orientation_vec=orientation_angles(desc_i.obb.axes, desc_j.obb.axes),
        contact_point=np.asarray(cp, float))


def descriptor_of(dims, center=(0, 0, 0), seed=0):
    p = make_box_part(0, center, dims)
    return analyze_part(p, sample_surface(p, 500, seed=seed))


def test_categories():
    assert joint_category(Material.WOOD, Material.WOOD) == "wood-wood"
    assert joint_category(Material.METAL, Material.WOOD) == "wood-metal"
    assert joint_category(Material.METAL, Material.METAL) == "metal-metal"


def test_joint_kind_respects_category(small_db):
    """The kNN can only ever vote within the edge's material category."""
    rod = descriptor_of([0.4, 0.03, 0.03])
    board = descriptor_of([0.45, 0.4, 0.03], center=(0, 0, 0.23))
    q = make_query((0, 1), rod, board, Material.METAL, Material.METAL,
                   [0, 0, 0.2])
    out = infer_joint_types([q], small_db)[0]
    assert out.joint.category == "metal-metal"
    assert out.joint.kind in ("weld", "bolt")


def test_exact_exemplar_match_recovers_kind(small_db):
    """Querying with a database contact's own geometry returns its tag."""
    tagged = [c for c in small_db.tagged_contacts()
              if c.joint_kind == "mortise_tenon"]
    c = tagged[0]
    pu = small_db.part(c.u)
    pv = small_db.part(c.v)
    q = QueryContact(edge=(0, 1), materials=(pu.material, pv.material),
                     descriptors=(pu.descriptor, pv.descriptor),
                     barycenter_distance=c.barycenter_distance,
                     orientation_vec=np.asarray(c.orientation_vec),
                     contact_point=pu.descriptor.segment[1])
    out = infer_joint_types([q], small_db)[0]
    assert out.joint.kind == "mortise_tenon"
    assert out.tenon_part is not None and out.mortise_part is not None
    assert out.tenon_part != out.mortise_part


def test_metal_tubes_weld(small_db):
    a = descriptor_of([0.4, 0.008, 0.008], seed=1)
    b = descriptor_of([0.35, 0.008, 0.008], center=(0.0, 0.1, 0.1), seed=2)
    q = make_query((5, 6), a, b, Material.METAL, Material.METAL, [0, 0.05, 0.05])
    out = infer_joint_types([q], small_db)[0]
    assert out.joint.kind == "weld"


def test_missing_category_errors(small_db):
    import dataclasses
    db = dataclasses.replace(small_db)
    db.contacts = [c for c in small_db.contacts
                   if joint_category(small_db.part(c.u).material,
                                     small_db.part(c.v).material) != "metal-metal"]
    a = descriptor_of([0.4, 0.008, 0.008])
    q = make_query((0, 1), a, a, Material.METAL, Material.METAL, [0, 0, 0])
    with pytest.raises(ValueError, match="metal-metal"):
        infer_joint_types([q], db)


def test_override_clears_ambiguity(small_db):
    rod = descriptor_of([0.4, 0.02, 0.02])
    board = descriptor_of([0.45, 0.4, 0.025], center=(0, 0, 0.23))
    q = make_query((2, 7), rod, board, Material.WOOD, Material.WOOD, [0, 0, 0.2])
    out = infer_joint_types([q], small_db, overrides={(2, 7): "lap"})[0]
    assert out.joint.kind == "lap"
    assert not out.joint.ambiguous


def test_vote_tie_marks_ambiguous(small_db):
    """k=2 over two equally scored kinds has tied votes."""
    rod = descriptor_of([0.4, 0.02, 0.02])
    board = descriptor_of([0.45, 0.4, 0.025], center=(0, 0, 0.23))
    q = make_query((0, 1), rod, board, Material.WOOD, Material.WOOD, [0, 0, 0.2])
    out = infer_joint_types([q], small_db, k=2)[0]
    votes_possible = {c.joint_kind for c in small_db.tagged_contacts()
                      if joint_category(small_db.part(c.u).material,
                                        small_db.part(c.v).material) == "wood-wood"}
    if out.joint.ambiguous:
        assert len(out.joint.candidates) >= 2
    else:
        assert out.joint.kind in votes_possible


# ---------------------------------------------------------------------------
# QP refinement of joints
# ---------------------------------------------------------------------------

def mt_assignment(edge, tenon, mortise):
    return JointAssignment(edge=edge,
                           joint=JointType("wood-wood", "mortise_tenon"),
                           tenon_part=tenon, mortise_part=mortise)


def half_along(box, direction):
    """Half extent of the box along a world direction."""
    k = int(np.argmax(np.abs(box.axes @ np.asarray(direction, float))))
    return float(box.half_extents[k]), k


def test_compatible_joint_unchanged():
    # rod already reaches 0.02 into the board (> 0.3 x 0.05 thickness)
    boxes = {0: aab([0, 0, 0.26], [0.01, 0.01, 0.26]),       # thin tenon rod
             1: aab([0, 0, 0.525], [0.2, 0.2, 0.025])}       # board above
    out = refine_part_dimensions([mt_assignment((0, 1), 0, 1)], boxes)
    assert not out.violations
    for pid in boxes:
        assert np.allclose(out.scales[pid], 1.0, atol=1e-9)


def test_oversized_tenon_shrinks_minimally():
    """2-variable oracle: tenon width w and mortise interior m couple through
    2w <= 2m_width - margin; grid search confirms minimal squared change.

    The rod already penetrates deep enough, so only the x cross-fit binds."""
    boxes = {0: aab([0, 0, 0.27], [0.010, 0.010, 0.27]),
             1: aab([0, 0, 0.52], [0.0075, 0.2, 0.02])}
    out = refine_part_dimensions([mt_assignment((0, 1), 0, 1)], boxes)
    assert not out.violations
    # constraint holds for both tenon cross axes (x and y here)
    tb = out.boxes[0]
    mb = out.boxes[1]
    for axis in ([1, 0, 0], [0, 1, 0]):
        t_half, _ = half_along(tb, axis)
        assert 2 * t_half <= mb.support_width(axis) - 0.004 + 1e-8
    # grid-search oracle over (tenon x half, mortise x half)
    t0, m0 = 0.010, 0.0075
    t_new, _ = half_along(tb, [1, 0, 0])
    m_new, _ = half_along(mb, [1, 0, 0])
    grid = np.linspace(0.001, 0.03, 2000)
    best = np.inf
    for tv in grid:
        mv = grid[2 * grid - 2 * tv >= 0.004 - 1e-12]  # feasibility 2t <= 2m - margin
        if len(mv):
            cost = (tv - t0) ** 2 + ((mv - m0) ** 2).min()
            best = min(best, cost)
    got = (t_new - t0) ** 2 + (m_new - m0) ** 2
    assert got <= best + 1e-6


def test_reach_constraint_extends_tenon():
    boxes = {0: aab([0, 0, 0.2], [0.01, 0.01, 0.18]),        # stops short
             1: aab([0, 0, 0.45], [0.2, 0.2, 0.025])}
    out = refine_part_dimensions([mt_assignment((0, 1), 0, 1)], boxes)
    assert not out.violations
    tb = out.boxes[0]
    mb = out.boxes[1]
    dom = tb.axes[0]  # z for this tall box
    gap = abs(float(dom @ (mb.center - tb.center)))
    width = mb.support_width(dom)
    assert tb.half_extents[0] + 0.2 * width >= gap - 1e-8


def test_chain_of_three_joints_kkt():
    boxes = {0: aab([0, 0, 0.2], [0.012, 0.012, 0.2]),
             1: aab([0, 0, 0.425], [0.009, 0.18, 0.02]),
             2: aab([0, 0.17, 0.6], [0.011, 0.011, 0.15])}
    assignments = [mt_assignment((0, 1), 0, 1), mt_assignment((1, 2), 2, 1)]
    out = refine_part_dimensions(assignments, boxes)
    assert not out.violations
    assert out.kkt_residual < 1e-8


def test_infeasible_reports_and_leaves_unscaled():
    # giant tenon into a tiny mortise: cross fit cannot hold within the
    # shrink trust region
    boxes = {0: aab([0, 0, 0], [0.3, 0.3, 0.3]),
             1: aab([0, 0, 0.35], [0.01, 0.01, 0.01])}
    out = refine_part_dimensions([mt_assignment((0, 1), 0, 1)], boxes)
    assert out.violations and out.violations[0]["edge"] == [0, 1]
    for pid in boxes:
        assert np.allclose(out.scales[pid], 1.0)


def test_violations_follow_joint_order():
    """Clusters are refined in the order of their first joint, so the
    violations list follows joint order, not part ids."""
    def infeasible(x):
        return (aab([x, 0, 0], [0.3, 0.3, 0.3]),
                aab([x, 0, 0.35], [0.01, 0.01, 0.01]))

    boxes = dict(enumerate(infeasible(0.0) + infeasible(5.0)))
    out = refine_part_dimensions([mt_assignment((2, 3), 2, 3),
                                  mt_assignment((0, 1), 0, 1)], boxes)
    assert [v["edge"] for v in out.violations] == [[2, 3], [0, 1]]


# ---------------------------------------------------------------------------
# joint forming and the voxel oracle
# ---------------------------------------------------------------------------

def voxelize(boxes, lo, hi, n=128):
    """Occupancy of a box union on an n^3 grid over [lo, hi]."""
    axes = np.stack([b.axes for b in boxes])
    centers = np.stack([b.center for b in boxes])
    halfs = np.stack([b.half_extents for b in boxes])
    ticks = [np.linspace(lo[k], hi[k], n, endpoint=False) + (hi[k] - lo[k]) / (2 * n)
             for k in range(3)]
    xx, yy, zz = np.meshgrid(*ticks, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    return kernels.points_in_boxes(pts, centers, axes, halfs).reshape(n, n, n)


def orthogonal_mortise_tenon():
    tenon = aab([0, 0, 0.2], [0.02, 0.02, 0.2])         # rod pointing +z
    mortise = aab([0, 0, 0.425], [0.2, 0.18, 0.025])    # board on top
    return mt_assignment((0, 1), 0, 1), {0: tenon, 1: mortise}


def test_tenon_prism_factors():
    assignment, boxes = orthogonal_mortise_tenon()
    geo = form_joint_geometry(assignment, boxes)
    prism = geo.prism
    # cross-section area = 0.25 x rod end-face area
    end_area = 4 * boxes[0].half_extents[1] * boxes[0].half_extents[2]
    cross_area = 4 * prism.half_extents[1] * prism.half_extents[2]
    assert cross_area == pytest.approx(0.25 * end_area, rel=1e-9)
    # depth = 0.3 x board thickness
    assert 2 * prism.half_extents[0] == pytest.approx(0.3 * 0.05, rel=1e-9)


def test_tenon_volume_equals_cavity():
    assignment, boxes = orthogonal_mortise_tenon()
    geo = form_joint_geometry(assignment, boxes)
    tenon_added = boxes_volume(geo.sculpted[0]) - boxes[0].volume
    cavity = boxes[1].volume - boxes_volume(geo.sculpted[1])
    assert tenon_added == pytest.approx(geo.prism.volume, abs=1e-12)
    assert cavity == pytest.approx(geo.prism.volume, abs=1e-9)


def test_voxel_oracle_iou_mortise_tenon():
    """Voxel-boolean oracle: proxy CSG boxes against voxel union/difference
    of the raw inputs."""
    assignment, boxes = orthogonal_mortise_tenon()
    geo = form_joint_geometry(assignment, boxes)
    lo = np.array([-0.25, -0.25, -0.05])
    hi = np.array([0.25, 0.25, 0.5])
    n = 128
    prism_vox = voxelize([geo.prism], lo, hi, n)
    tenon_vox = voxelize([boxes[0]], lo, hi, n)
    mortise_vox = voxelize([boxes[1]], lo, hi, n)
    union_oracle = tenon_vox | prism_vox
    diff_oracle = mortise_vox & ~prism_vox
    union_mine = voxelize(geo.sculpted[0], lo, hi, n)
    diff_mine = voxelize(geo.sculpted[1], lo, hi, n)
    iou_u = (union_oracle & union_mine).sum() / (union_oracle | union_mine).sum()
    iou_d = (diff_oracle & diff_mine).sum() / (diff_oracle | diff_mine).sum()
    assert iou_u >= 0.98
    assert iou_d >= 0.98


def test_weld_records_seam_only():
    a = aab([0, 0, 0], [0.2, 0.01, 0.01])
    b = aab([0.2, 0.1, 0], [0.01, 0.15, 0.01])
    assignment = JointAssignment(edge=(0, 1),
                                 joint=JointType("metal-metal", "weld"))
    geo = form_joint_geometry(assignment, {0: a, 1: b})
    assert geo.sculpted == {}
    assert geo.seam_point is not None


def test_lap_notches_half_thickness():
    a = aab([0, 0, 0.0], [0.3, 0.04, 0.02])
    b = aab([0, 0, 0.04], [0.04, 0.3, 0.02])
    assignment = JointAssignment(edge=(0, 1), joint=JointType("wood-wood", "lap"))
    geo = form_joint_geometry(assignment, {0: a, 1: b})
    removed_a = a.volume - boxes_volume(geo.sculpted[0])
    removed_b = b.volume - boxes_volume(geo.sculpted[1])
    overlap_footprint = 0.08 * 0.08
    assert removed_a == pytest.approx(overlap_footprint * 0.02, rel=1e-9)
    assert removed_b == pytest.approx(overlap_footprint * 0.02, rel=1e-9)
    # voxel oracle on the notch of part a
    lo = np.array([-0.35, -0.35, -0.05])
    hi = np.array([0.35, 0.35, 0.1])
    cut = aab([0, 0, 0.01], [0.04, 0.04, 0.01])
    oracle = voxelize([a], lo, hi) & ~voxelize([cut], lo, hi)
    mine = voxelize(geo.sculpted[0], lo, hi)
    iou = (oracle & mine).sum() / (oracle | mine).sum()
    assert iou >= 0.98


def test_separated_boxes_error():
    assignment, boxes = orthogonal_mortise_tenon()
    boxes[1] = aab([0, 0, 1.0], boxes[1].half_extents)
    with pytest.raises(ValueError, match="separated"):
        form_joint_geometry(assignment, boxes)


def test_sculpted_parts_watertight():
    assignment, boxes = orthogonal_mortise_tenon()
    geo = form_joint_geometry(assignment, boxes)
    for pid, blist in geo.sculpted.items():
        mesh = boxes_mesh(blist)
        edges = {}
        for f in mesh.faces:
            for k in range(3):
                e = (int(f[k]), int(f[(k + 1) % 3]))
                edges[e] = edges.get(e, 0) + 1
        for (p, q), count in edges.items():
            assert count == 1 and edges.get((q, p), 0) == 1


# ---------------------------------------------------------------------------
# spec export
# ---------------------------------------------------------------------------

def test_spec_roundtrip(tmp_path):
    assignment, boxes = orthogonal_mortise_tenon()
    geo = form_joint_geometry(assignment, boxes)
    ambiguous = JointAssignment(
        edge=(1, 2), joint=JointType("wood-wood", "dowel", ambiguous=True,
                                     candidates=["dowel", "lap"]))
    spec = FabricationSpec(
        parts=[PartSpec(0, Material.WOOD, boxes[0].extents),
               PartSpec(1, Material.WOOD, boxes[1].extents),
               PartSpec(2, Material.WOOD, np.array([0.4, 0.1, 0.1]))],
        joints=[assignment, ambiguous],
        geometry=[geo])
    path = export_spec(spec, tmp_path / "out")
    back = load_spec(path)
    assert len(back.parts) == 3
    assert {p.part_id for p in back.parts} == {0, 1, 2}
    assert back.joints[0].joint.kind == "mortise_tenon"
    assert back.joints[1].joint.ambiguous
    assert back.joints[1].joint.candidates == ["dowel", "lap"]
    assert back.geometry[0].kind == "mortise_tenon"
    assert np.allclose(back.geometry[0].prism.half_extents, geo.prism.half_extents)
    # sculpted parts got mesh files
    assert (tmp_path / "out" / "part_0.obj").exists()
    doc = json.loads((tmp_path / "out" / "spec.json").read_text())
    assert doc["version"] == 1


def test_spec_lists_every_part_and_contact_once(tmp_path):
    assignment, boxes = orthogonal_mortise_tenon()
    spec = FabricationSpec(
        parts=[PartSpec(k, Material.WOOD, boxes[k].extents) for k in boxes],
        joints=[assignment], geometry=[])
    path = export_spec(spec, tmp_path / "o")
    back = load_spec(path)
    part_ids = [p.part_id for p in back.parts]
    assert len(part_ids) == len(set(part_ids))
    edges = [tuple(a.edge) for a in back.joints]
    assert len(edges) == len(set(edges))


def test_joint_type_validation():
    with pytest.raises(ValueError):
        JointType("wood-wood", "weld")
    with pytest.raises(ValueError):
        JointAssignment(edge=(0, 1), joint=JointType("wood-wood", "mortise_tenon"))
    with pytest.raises(ValueError):
        JointAssignment(edge=(0, 1), joint=JointType("wood-wood", "lap"),
                        tenon_part=0, mortise_part=1)
