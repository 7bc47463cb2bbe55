"""Acceptance suite: one test per criterion, each printed as a PASS line
(run ``pytest tests/test_acceptance.py -v -s`` to see them).

Numbers in brackets are the pinned tolerances; fixtures are synthetic and
seeded, so every run is reproducible.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from meshreform import kernels
from meshreform.database import Database, _index_model, cluster_candidates
from meshreform.fabrication import (JointAssignment, JointType, QueryContact,
                                    form_joint_geometry,
                                    infer_joint_types, joint_category,
                                    refine_part_dimensions)
from meshreform.graphs import GROUND_ID
from meshreform.inference import build_material_factor_graph, exact_map
from meshreform.mesh import Material, Model, Part, TriangleMesh, sample_surface
from meshreform.obb import OrientedBox, pca_box
from meshreform.part_analysis import estimate_thickness, fit_obb
from meshreform.pipeline import (PipelineConfig, analyze_model, infer_joints,
                                 optimize_angles, place_and_restore,
                                 reform_assignment, reformed_state,
                                 resolve_targets, run_pipeline)
from meshreform.qp import kkt_residual, solve_min_change_qp
from meshreform.similarity import (orientation_angles, orientation_angle_similarity,
                                   contact_angle_similarity,
                                   obb_similarity, shape_similarity,
                                   spatial_similarity)
from meshreform.synthetic import (GeneratorConfig, generate_synthetic_database,
                                  wood_chair, metal_chair, metal_table)

from conftest import make_box_part, points_in_boxes, random_rotation
from test_assembly import (dense_lsq_oracle, objective as restore_objective,
                           random_restore_case, solve_restore_directly)
from test_config_opt import four_rail_fixture, rotation_fixture
from test_config_opt import state as part_state
from test_fabrication import boxes_volume
from test_inference import brute_force_map, random_graph, random_tree_edges
from test_thickness import plank

ACCEPT_CFG = PipelineConfig(contact_samples=3000, candidates_k=80)
E1 = math.exp(-1.0)


def report(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def merge_databases(dbs) -> Database:
    """Concatenate the per-model mini databases of a training fold.

    Part indices are offset, histograms are summed, and the candidate set is
    cleared; re-run :func:`cluster_candidates` if reform needs one.
    """
    out = Database()
    for db in dbs:
        offset = len(out.parts)
        for p in db.parts:
            out.parts.append(dataclasses.replace(p, index=p.index + offset,
                                                 cluster_id=None))
        for c in db.contacts:
            out.contacts.append(dataclasses.replace(c, u=c.u + offset,
                                                    v=c.v + offset))
        for key, h in db.histograms.items():
            out.histograms[key].bins = out.histograms[key].bins + h.bins
    return out


# ---------------------------------------------------------------------------
# shared corpus: 40 synthetic models, per-model analyses and mini databases
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    gen = GeneratorConfig(chairs=22, tables=8, beds=5, cabinets=5, scale=1.0)
    sources = generate_synthetic_database(gen, seed=11)
    assert len(sources) == 40
    analyses = {}
    minidbs = {}
    for src in sources:
        # each mini database is what build_database([src], ACCEPT_CFG) gives,
        # indexed from the analysis already made
        analyses[src.name] = analyze_model(src.model, ACCEPT_CFG)
        minidbs[src.name] = Database()
        _index_model(minidbs[src.name], analyses[src.name], src.name,
                     src.joint_tags)
    full = merge_databases(minidbs.values())
    full = cluster_candidates(full, k=80, seed=0)
    return {"sources": {s.name: s for s in sources}, "analyses": analyses,
            "minidbs": minidbs, "db": full}


# ---------------------------------------------------------------------------
# 1. MAP inference
# ---------------------------------------------------------------------------

def test_criterion_01_map_correctness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    graphs = []
    for _ in range(200):
        n = int(rng.integers(2, 7))
        graphs.append(random_graph(rng, n, int(rng.integers(2, 7)),
                                   random_tree_edges(rng, n)))
    for _ in range(100):
        n = int(rng.integers(4, 7))
        edges = random_tree_edges(rng, n) + [(0, n - 1)]
        g = random_graph(rng, n, int(rng.integers(2, 5)), edges)
        for u in g.unaries:
            u[rng.integers(len(u))] = 10.0 * u.max()
        graphs.append(g)
    for g in graphs:
        got = exact_map(g)
        bf = brute_force_map(g)
        assert got.indices == bf.indices, "MAP must equal brute force"
        assert abs(got.log_potential - bf.log_potential) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("01 map-correctness",
           f"300/300 graphs (200 trees, 100 with a cycle) equal brute force, "
           f"{elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 2. similarity kernels
# ---------------------------------------------------------------------------

def test_criterion_02_similarity_kernels():
    tol = 1e-12
    rng = np.random.default_rng(102)
    # e^-1 spot values
    assert abs(obb_similarity([0.5, 0.3, 0.1], [0.5, 0.3, 0.2]) - E1) < tol
    assert abs(spatial_similarity(0.1, 0.3) - E1) < tol
    assert abs(contact_angle_similarity(90.0, 80.0) - E1) < tol
    v = np.zeros(9)
    w = np.zeros(9)
    w[0] = 360.0
    assert abs(orientation_angle_similarity(v, w) - E1) < tol
    # N/A cases
    assert contact_angle_similarity(None, None) == 1.0
    assert contact_angle_similarity(90.0, None) == 0.0
    # symmetry / range / identity over random inputs
    checks = 0
    for _ in range(200):
        ea = np.sort(rng.uniform(0.01, 1.0, 3))[::-1]
        eb = np.sort(rng.uniform(0.01, 1.0, 3))[::-1]
        s = obb_similarity(ea, eb)
        assert abs(s - obb_similarity(eb, ea)) < tol and 0 < s <= 1
        assert abs(obb_similarity(ea, ea) - 1.0) < tol
        a1, a2 = rng.uniform(0, 90, 2)
        c = contact_angle_similarity(a1, a2)
        assert abs(c - contact_angle_similarity(a2, a1)) < tol and 0 <= c <= 1
        d1, d2 = rng.uniform(0, 1.5, 2)
        p = spatial_similarity(d1, d2)
        assert abs(p - spatial_similarity(d2, d1)) < tol and 0 < p <= 1
        va, vb = rng.uniform(0, 90, (2, 9))
        o = orientation_angle_similarity(va, vb)
        assert abs(o - orientation_angle_similarity(vb, va)) < tol and 0 < o <= 1
        checks += 1
    report("02 similarity-kernels",
           f"material table, e^-1 spots, N/A cases, {checks} random property checks at 1e-12")


# ---------------------------------------------------------------------------
# 3. OBB fitting
# ---------------------------------------------------------------------------

def test_criterion_03_obb():
    rng = np.random.default_rng(103)
    for _ in range(20):
        dims = np.sort(rng.uniform(0.1, 2.0, 3))[::-1]
        part = make_box_part(0, rng.normal(size=3), dims)
        box = fit_obb(part)
        assert np.allclose(box.extents, dims, atol=1e-6)
    n_rot = 0
    for _ in range(500):
        dims = np.sort(rng.uniform(0.1, 2.0, 3))[::-1]
        base = make_box_part(0, [0, 0, 0], dims)
        moved = Part(id=1, mesh=base.mesh.transformed(
            matrix=random_rotation(rng), translation=rng.normal(size=3)))
        box = fit_obb(moved)
        assert np.allclose(box.extents, dims, atol=1e-6)
        n_rot += 1
    n_parts = 0
    for _ in range(100):
        pts = rng.normal(size=(50, 3)) * rng.uniform(0.2, 1.5, 3)
        hull = ConvexHull(pts)
        part = Part(id=0, mesh=TriangleMesh(pts, hull.simplices))
        refined = fit_obb(part)
        baseline = pca_box(part.mesh.vertices)
        assert refined.volume <= baseline.volume + 1e-9
        n_parts += 1
    report("03 obb", f"axis-aligned 1e-6, {n_rot} rotations invariant at 1e-6, "
                     f"calipers <= PCA + 1e-9 on {n_parts} parts")


# ---------------------------------------------------------------------------
# 4. thickness
# ---------------------------------------------------------------------------

def test_criterion_04_thickness():
    rng = np.random.default_rng(104)
    thicknesses = [0.012, 0.024, 0.033, 0.047, 0.071]
    for t in thicknesses:
        part = plank(0, t)
        samples = sample_surface(part, 1000, seed=41)
        est = estimate_thickness(part, samples, bin_width=0.005)
        assert abs(est.value - t) <= 0.005
        moved = Part(id=1, mesh=part.mesh.transformed(
            matrix=random_rotation(rng), translation=rng.normal(size=3)))
        est2 = estimate_thickness(moved, sample_surface(moved, 1000, seed=41),
                                  bin_width=0.005)
        assert abs(est2.value - est.value) <= 0.005 + 1e-12
    report("04 thickness", f"{len(thicknesses)} planks in [0.01, 0.08] recovered "
                           "within one bin (0.005), rigid-transform invariant")


# ---------------------------------------------------------------------------
# 5. contact restoration
# ---------------------------------------------------------------------------

def test_criterion_05_contact_restoration():
    rng = np.random.default_rng(105)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        edges, foot, anchor = random_restore_case(rng, n, extra_edges=0)
        disp = solve_restore_directly(n, edges, foot, anchor)
        assert np.allclose(disp[anchor], 0.0)
        for e in edges:
            gap = (foot[e][0] + disp[e[0]]) - (foot[e][1] + disp[e[1]])
            assert float(gap @ gap) <= 1e-18   # residual norm <= 1e-9
    n_loopy = 0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        edges, foot, anchor = random_restore_case(rng, n,
                                                  extra_edges=int(rng.integers(1, 5)))
        disp = solve_restore_directly(n, edges, foot, anchor)
        oracle = dense_lsq_oracle(n, edges, foot, anchor)
        assert np.allclose(disp[anchor], 0.0)
        for p in disp:
            assert np.allclose(disp[p], oracle[p], atol=1e-8)
        zero = {p: np.zeros(3) for p in range(n)}
        assert restore_objective(edges, foot, disp) <= restore_objective(
            edges, foot, zero) + 1e-12
        n_loopy += 1
    report("05 contact-restoration",
           f"30 trees closed to 1e-9, fixed part pinned, {n_loopy} loopy cases "
           "match the least-squares oracle at 1e-8")


# ---------------------------------------------------------------------------
# 6. angle optimization
# ---------------------------------------------------------------------------

def test_criterion_06_angle_optimization(corpus):
    from meshreform.config_opt import (make_objective, optimize_configuration,
                                       select_best_configuration,
                                       enumerate_configurations,
                                       determine_fixed_parts, _segment_angle)
    # analytic 1-DoF rotation
    parts, graph, cons, cset = rotation_fixture(60.0, 90.0)
    config = optimize_configuration(cset, cons, parts, graph)
    ang = _segment_angle(config.segments[1], config.segments[0])
    assert abs(ang - 90.0) <= 0.1

    # gradient check on 50 random configurations (delegated test logic)
    from test_config_opt import test_gradients_match_finite_differences
    test_gradients_match_finite_differences()

    # four-rail scenario: a feasible configuration with >= 1 dropped contact
    parts, graph, cons = four_rail_fixture()
    fixed = determine_fixed_parts(parts, graph, cons)
    sets = enumerate_configurations(cons, graph, parts, fixed=fixed)
    configs = [optimize_configuration(s, cons, parts, graph) for s in sets]
    best = select_best_configuration(configs)
    assert best.no_hanging_ok
    assert len(best.dropped_edges) >= 1

    # feasibility / no-hanging invariants across synthetic reform cases
    gen = GeneratorConfig(scale=0.08)
    rng = np.random.default_rng(61)
    checked = 0
    for maker in (metal_chair, metal_table, metal_chair):
        src = maker(rng, gen).source("q")
        analysis = analyze_model(src.model, ACCEPT_CFG)
        targets = {pid: Material.WOOD for pid in analysis.descriptors}
        assignment = reform_assignment(analysis, targets, corpus["db"], ACCEPT_CFG)
        placed, rep = place_and_restore(analysis, assignment, corpus["db"], ACCEPT_CFG)
        state = reformed_state(analysis, placed, targets, corpus["db"], ACCEPT_CFG,
                               restore_report=rep)
        best, feasibility_report, _, _, _ = optimize_angles(state, corpus["db"],
                                                            ACCEPT_CFG)
        if best is None:
            continue
        assert best.no_hanging_ok
        for r in feasibility_report:
            if not r["kept"] or r["angle"] is None:
                continue
            ok = (r["feasibility"] is not None and r["feasibility"] >= 0.03) \
                or abs(r["angle"] - r["target"]) <= 2.0
            assert ok, f"edge {r['edge']}: angle {r['angle']}, feas {r['feasibility']}"
        checked += 1
    assert checked >= 2
    report("06 angle-optimization",
           "1-DoF rotation hit 90 +/- 0.1 deg, 50 gradient checks < 1e-4, "
           f"four-rail drop scenario reproduced, invariants hold on {checked} reforms")


# ---------------------------------------------------------------------------
# 7. material suggestion
# ---------------------------------------------------------------------------

def classify_fold(analysis, train_db):
    graph = build_material_factor_graph(analysis.descriptors,
                                        analysis.contact_graph,
                                        analysis.repetition_graph, train_db)
    return exact_map(graph).labels


def test_criterion_07_material_suggestion(corpus):
    names = list(corpus["analyses"])
    correct = 0
    total = 0
    for name in names:
        train = merge_databases([corpus["minidbs"][m] for m in names if m != name])
        labels = classify_fold(corpus["analyses"][name], train)
        truth = {p.id: p.material
                 for p in corpus["sources"][name].model.parts
                 if p.material != Material.OTHER}
        for pid, mat in truth.items():
            total += 1
            correct += labels[pid] == mat
    loo_acc = correct / total
    assert loo_acc >= 0.95, f"LOO per-part accuracy {loo_acc:.3f}"

    ratios = (0.2, 0.4, 0.6, 0.8)
    medians = []
    for ratio in ratios:
        accs = []
        for run in range(10):
            rng = np.random.default_rng(1000 + run)
            k = max(1, round(ratio * len(names)))
            train_names = list(rng.choice(names, size=k, replace=False))
            test_names = [n for n in names if n not in train_names]
            train = merge_databases([corpus["minidbs"][m] for m in train_names])
            c = t = 0
            for name in test_names:
                labels = classify_fold(corpus["analyses"][name], train)
                for p in corpus["sources"][name].model.parts:
                    t += 1
                    c += labels[p.id] == p.material
            accs.append(c / t)
        medians.append(float(np.median(accs)))
    for a, b in zip(medians, medians[1:]):
        assert b >= a - 1e-12, f"median accuracy decreased: {medians}"
    report("07 material-suggestion",
           f"LOO accuracy {loo_acc:.3f} >= 0.95; ratio medians "
           + " <= ".join(f"{m:.3f}" for m in medians))


# ---------------------------------------------------------------------------
# 8. joint inference
# ---------------------------------------------------------------------------

def test_criterion_08_joint_inference(corpus):
    names = list(corpus["minidbs"])
    kind_ok = 0
    cat_ok = 0
    total = 0
    for name in names:
        mine = corpus["minidbs"][name]
        train = merge_databases([corpus["minidbs"][m] for m in names if m != name])
        queries = []
        truth = []
        for c in mine.tagged_contacts():
            pu = mine.part(c.u)
            pv = mine.part(c.v)
            queries.append(QueryContact(
                edge=(c.u, c.v), materials=(pu.material, pv.material),
                descriptors=(pu.descriptor, pv.descriptor),
                barycenter_distance=c.barycenter_distance,
                orientation_vec=np.asarray(c.orientation_vec),
                contact_point=0.5 * (pu.descriptor.barycenter + pv.descriptor.barycenter)))
            truth.append(c.joint_kind)
        out = infer_joint_types(queries, train)
        for got, want, q in zip(out, truth, queries):
            total += 1
            kind_ok += got.joint.kind == want
            cat_ok += got.joint.category == joint_category(*q.materials)
    kind_acc = kind_ok / total
    cat_acc = cat_ok / total
    assert cat_acc == 1.0
    assert kind_acc >= 0.90, f"kind accuracy {kind_acc:.3f}"
    report("08 joint-inference",
           f"LOO over {total} contacts: kind accuracy {kind_acc:.3f} >= 0.90, "
           f"category accuracy {cat_acc:.0%}")


# ---------------------------------------------------------------------------
# 9. QP refinement
# ---------------------------------------------------------------------------

def random_mt_instance(rng):
    """Random orthogonal rod-into-rail instance. The mortise is a narrow
    rail, so both the cross-fit and the reach constraints are frequently
    active."""
    t_cross = rng.uniform(0.006, 0.022)
    t_half = rng.uniform(0.15, 0.3)
    m_thick = rng.uniform(0.012, 0.03)
    rail_w = rng.uniform(0.008, 0.022)
    gap = t_half + rng.uniform(-0.02, 2 * m_thick)
    boxes = {
        0: OrientedBox([0, 0, 0], np.array([[0.0, 0, 1], [1.0, 0, 0], [0, 1.0, 0]]),
                       [t_half, t_cross, t_cross * rng.uniform(0.8, 1.2)]),
        1: OrientedBox([0, 0, gap],
                       np.array([[0.0, 1.0, 0], [1.0, 0, 0], [0, 0, 1.0]]),
                       [rng.uniform(0.15, 0.3), rail_w, m_thick]),
    }
    # fix axes ordering invariants
    for pid, b in boxes.items():
        order = np.argsort(-b.half_extents, kind="stable")
        axes = b.axes[order]
        if np.linalg.det(axes) < 0:
            axes[2] = -axes[2]
        boxes[pid] = OrientedBox(b.center, axes, b.half_extents[order])
    assignment = JointAssignment(edge=(0, 1),
                                 joint=JointType("wood-wood", "mortise_tenon"),
                                 tenon_part=0, mortise_part=1)
    return assignment, boxes


def qp_rows(assignment, boxes, wall_margin=0.004, penetration=0.3,
            shrink=0.5, grow=2.0):
    """Re-derive the constraint rows for the oracle check."""
    tb = boxes[assignment.tenon_part]
    mb = boxes[assignment.mortise_part]
    x0 = np.concatenate([tb.half_extents, mb.half_extents])
    rows, rhs = [], []
    dom = tb.axes[0]
    for cross in (1, 2):
        u = tb.axes[cross]
        w = np.abs(mb.axes @ u)
        row = np.zeros(6)
        row[cross] = 2.0
        row[3:] -= 2.0 * w
        rows.append(row)
        rhs.append(-wall_margin)
    gap = abs(float(dom @ (mb.center - tb.center)))
    wd = np.abs(mb.axes @ dom)
    row = np.zeros(6)
    row[0] = -1.0
    row[3:] -= (1.0 - 2.0 * penetration) * wd
    rows.append(row)
    rhs.append(-gap)
    for k in range(6):
        row = np.zeros(6)
        row[k] = -1.0
        rows.append(row)
        rhs.append(-max(1e-4, shrink * x0[k]))
        row = np.zeros(6)
        row[k] = 1.0
        rows.append(row)
        rhs.append(grow * x0[k])
    return x0, np.vstack(rows), np.asarray(rhs)


def test_criterion_09_qp_refinement():
    rng = np.random.default_rng(109)
    solved = 0
    active_cases = 0
    while solved < 50:
        assignment, boxes = random_mt_instance(rng)
        x0, G, h = qp_rows(assignment, boxes)
        out = refine_part_dimensions([assignment], dict(boxes))
        if out.violations:
            continue
        x = np.concatenate([out.boxes[0].half_extents, out.boxes[1].half_extents])
        # constraints satisfied exactly
        assert (G @ x <= h + 1e-8).all()
        assert out.kkt_residual < 1e-8
        moved = np.flatnonzero(np.abs(x - x0) > 1e-12)
        if len(moved):
            active_cases += 1
            # grid-search oracle at 1e-3 resolution over the moved coordinates
            grids = [np.arange(x[k] - 0.02, x[k] + 0.02, 1e-3) for k in moved]
            mesh = np.meshgrid(*grids, indexing="ij")
            pts = np.tile(x0, (mesh[0].size, 1))
            for mi, k in enumerate(moved):
                pts[:, k] = mesh[mi].ravel()
            feas = (pts @ G.T <= h[None, :] + 1e-12).all(axis=1)
            if feas.any():
                best = ((pts[feas] - x0) ** 2).sum(axis=1).min()
                mine = ((x - x0) ** 2).sum()
                assert mine <= best + 1e-6
        solved += 1
    assert active_cases >= 15, "instances should often have active constraints"
    report("09 qp-refinement",
           f"50 instances: constraints exact, KKT < 1e-8, objective beats the "
           f"1e-3 grid oracle on {active_cases} active cases")


# ---------------------------------------------------------------------------
# 10. joint forming
# ---------------------------------------------------------------------------

def voxel_occupancy(box_list, lo, hi, n):
    """Chunked occupancy so a 256^3 grid stays in memory."""
    axes = np.stack([b.axes for b in box_list])
    centers = np.stack([b.center for b in box_list])
    halfs = np.stack([b.half_extents for b in box_list])
    ticks = [np.linspace(lo[k], hi[k], n, endpoint=False) + (hi[k] - lo[k]) / (2 * n)
             for k in range(3)]
    out = np.empty((n, n, n), dtype=bool)
    yy, zz = np.meshgrid(ticks[1], ticks[2], indexing="ij")
    flat = np.column_stack([np.zeros(yy.size), yy.ravel(), zz.ravel()])
    for ix, x in enumerate(ticks[0]):
        flat[:, 0] = x
        out[ix] = points_in_boxes(flat, centers, axes, halfs).reshape(n, n)
    return out


def forming_fixtures():
    def aab(center, half):
        half = np.asarray(half, float)
        order = np.argsort(-half, kind="stable")
        axes = np.eye(3)[order]
        if np.linalg.det(axes) < 0:
            axes[2] = -axes[2]
        return OrientedBox(np.asarray(center, float), axes, half[order])

    mt = (JointAssignment(edge=(0, 1), joint=JointType("wood-wood", "mortise_tenon"),
                          tenon_part=0, mortise_part=1),
          {0: aab([0, 0, 0.2], [0.02, 0.02, 0.2]),
           1: aab([0, 0, 0.425], [0.2, 0.18, 0.025])})
    mt2 = (JointAssignment(edge=(0, 1), joint=JointType("wood-wood", "mortise_tenon"),
                           tenon_part=0, mortise_part=1),
           {0: aab([0.1, -0.05, 0.15], [0.013, 0.015, 0.15]),
            1: aab([0.1, -0.05, 0.33], [0.15, 0.22, 0.03])})
    lap = (JointAssignment(edge=(0, 1), joint=JointType("wood-wood", "lap")),
           {0: aab([0, 0, 0.0], [0.3, 0.04, 0.02]),
            1: aab([0, 0, 0.04], [0.04, 0.3, 0.02])})
    return [mt, mt2, lap]


def test_criterion_10_joint_forming():
    n = 256
    checked = []
    for assignment, boxes in forming_fixtures():
        geo = form_joint_geometry(assignment, boxes)
        lo = np.minimum(boxes[0].corners().min(0), boxes[1].corners().min(0)) - 0.02
        hi = np.maximum(boxes[0].corners().max(0), boxes[1].corners().max(0)) + 0.02
        if assignment.joint.kind == "mortise_tenon":
            added = boxes_volume(geo.sculpted[0]) - boxes[0].volume
            cavity = boxes[1].volume - boxes_volume(geo.sculpted[1])
            assert abs(added - cavity) <= 1e-9
            oracle_union = (voxel_occupancy([boxes[0]], lo, hi, n)
                            | voxel_occupancy([geo.prism], lo, hi, n))
            oracle_diff = (voxel_occupancy([boxes[1]], lo, hi, n)
                           & ~voxel_occupancy([geo.prism], lo, hi, n))
            mine_union = voxel_occupancy(geo.sculpted[0], lo, hi, n)
            mine_diff = voxel_occupancy(geo.sculpted[1], lo, hi, n)
            for oracle, mine in ((oracle_union, mine_union), (oracle_diff, mine_diff)):
                iou = (oracle & mine).sum() / (oracle | mine).sum()
                assert iou >= 0.98
                checked.append(float(iou))
        else:
            cut0 = OrientedBox(
                boxes[0].center + [0, 0, boxes[0].half_extents.min() / 1e9], np.eye(3),
                boxes[0].half_extents)  # placeholder, real oracle below
            # lap oracle: each part minus the half-thickness overlap slab
            inter_lo = np.maximum(boxes[0].corners().min(0), boxes[1].corners().min(0))
            inter_hi = np.minimum(boxes[0].corners().max(0), boxes[1].corners().max(0))
            for pid, other in ((0, 1), (1, 0)):
                own = boxes[pid]
                c_lo = inter_lo.copy()
                c_hi = inter_hi.copy()
                # stacking axis z for this fixture: cut own half facing other
                if boxes[other].center[2] > own.center[2]:
                    c_lo[2] = own.center[2]
                    c_hi[2] = own.corners()[:, 2].max()
                else:
                    c_hi[2] = own.center[2]
                    c_lo[2] = own.corners()[:, 2].min()
                cut = OrientedBox(0.5 * (c_lo + c_hi), np.eye(3),
                                  np.maximum(0.5 * (c_hi - c_lo), 1e-12))
                order = np.argsort(-cut.half_extents, kind="stable")
                axes = np.eye(3)[order]
                if np.linalg.det(axes) < 0:
                    axes[2] = -axes[2]
                cut = OrientedBox(cut.center, axes, cut.half_extents[order])
                oracle = (voxel_occupancy([own], lo, hi, n)
                          & ~voxel_occupancy([cut], lo, hi, n))
                mine = voxel_occupancy(geo.sculpted[pid], lo, hi, n)
                iou = (oracle & mine).sum() / (oracle | mine).sum()
                assert iou >= 0.98
                checked.append(float(iou))
    report("10 joint-forming",
           f"prism volume == cavity volume (1e-9); voxel-boolean IoU at 256^3: "
           f"min {min(checked):.4f} >= 0.98 over {len(checked)} checks")


# ---------------------------------------------------------------------------
# 11. end-to-end performance
# ---------------------------------------------------------------------------

def test_criterion_11_performance(corpus, tmp_path):
    kernels.warmup()
    gen = GeneratorConfig()
    rng = np.random.default_rng(111)
    query = wood_chair(rng, gen, n_stretchers=4, n_slats=16).source("query27")
    assert len(query.model.parts) == 27
    db = corpus["db"]
    assert len(db.candidates) == 80

    t0 = time.perf_counter()
    analysis = analyze_model(query.model, ACCEPT_CFG)
    targets = {pid: Material.METAL for pid in analysis.descriptors}
    assignment = reform_assignment(analysis, targets, db, ACCEPT_CFG)
    placed, rep = place_and_restore(analysis, assignment, db, ACCEPT_CFG)
    reform_seconds = time.perf_counter() - t0
    assert reform_seconds <= 60.0

    t0 = time.perf_counter()
    suggestion = classify_fold(analysis, db)
    suggest_seconds = time.perf_counter() - t0
    assert suggest_seconds <= 20.0
    assert all(m == Material.WOOD for m in suggestion.values())

    dense = wood_chair(rng, gen, n_stretchers=4, n_slats=21).source("dense")
    dense_analysis = analyze_model(dense.model, ACCEPT_CFG)
    n_contacts = len(dense_analysis.contact_graph.part_edges())
    assert n_contacts >= 55
    targets = {pid: Material.WOOD for pid in dense_analysis.descriptors}
    assignment = reform_assignment(dense_analysis, targets, db, ACCEPT_CFG)
    placed, rep = place_and_restore(dense_analysis, assignment, db, ACCEPT_CFG)
    state = reformed_state(dense_analysis, placed, targets, db, ACCEPT_CFG,
                           restore_report=rep)
    t0 = time.perf_counter()
    joints = infer_joints(state, db, ACCEPT_CFG)
    joints_seconds = time.perf_counter() - t0
    assert len(joints) >= 55
    assert joints_seconds <= 15.0
    report("11 performance",
           f"reform 27 parts vs 80 candidates {reform_seconds:.1f}s <= 60s; "
           f"suggestion {suggest_seconds:.1f}s <= 20s; "
           f"{len(joints)} joints inferred in {joints_seconds:.1f}s <= 15s")
