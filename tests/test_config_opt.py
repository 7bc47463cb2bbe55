import math

import numpy as np
import pytest

from meshreform.config_opt import (AngleConstraint, Bind, ConstraintSet,
                                   PartState, all_rigid_configuration,
                                   assess_angle_feasibility,
                                   determine_fixed_parts,
                                   enumerate_configurations, make_objective,
                                   optimize_configuration,
                                   segment_distance,
                                   select_best_configuration, _segment_angle)
from meshreform.graphs import GROUND_ID, ContactEdge, ContactGraph
from meshreform.mesh import Material


def seg(a, b):
    return np.array([a, b], dtype=float)


def state(pid, a, b, thickness=0.02, material=Material.WOOD, ground=False):
    return PartState(id=pid, segment=seg(a, b), thickness=thickness,
                     material=material, has_ground=ground)


def edge(i, j, cp, angle=None):
    return ContactEdge(min(i, j), max(i, j), np.asarray(cp, dtype=float), angle)


# ---------------------------------------------------------------------------
# feasibility assessment
# ---------------------------------------------------------------------------

def test_assessment_against_synthetic_histograms(small_db):
    mats = {0: Material.WOOD, 1: Material.WOOD, 2: Material.WOOD,
            3: Material.WOOD, 4: Material.METAL}
    graph = ContactGraph(nodes=list(mats), edges=[
        edge(0, 1, [0, 0, 0], angle=90.0),     # feasible for wood
        edge(0, 2, [0, 0, 0], angle=40.0),     # infeasible, target near 90
        edge(0, 3, [0, 0, 0], angle=None),     # no angle -> skipped
        edge(0, 4, [0, 0, 0], angle=30.0),     # mixed materials -> skipped
    ])
    constraints = assess_angle_feasibility(graph, mats, small_db)
    assert [c.edge for c in constraints] == [(0, 2)]
    assert constraints[0].target >= 80.0
    assert constraints[0].feasibility < 0.03


def test_mixed_material_edges_never_constrained(small_db):
    mats = {0: Material.WOOD, 1: Material.METAL}
    graph = ContactGraph(nodes=[0, 1], edges=[edge(0, 1, [0, 0, 0], angle=17.0)])
    assert assess_angle_feasibility(graph, mats, small_db) == []


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def cross_fixture():
    """Vertical host with ground support, movable bar resting on it."""
    parts = {
        0: state(0, [0, 0, 0], [0, 0, 1], ground=True),          # host post
        1: state(1, [-0.5, 0.02, 0.5], [0.5, 0.02, 0.9]),        # slanted bar
        2: state(2, [0, -0.6, 0], [0, 0.6, 0]),                  # base rail
    }
    graph = ContactGraph(nodes=[0, 1, 2], edges=[
        edge(0, 1, [0, 0.01, 0.7], angle=55.0),
        edge(1, 2, [-0.5, 0.02, 0.5]),
        edge(0, 2, [0, 0, 0]),
        ContactEdge(0, GROUND_ID, np.zeros(3), None, True),
        ContactEdge(2, GROUND_ID, np.array([0, -0.6, 0.0]), None, True),
    ])
    constraints = [AngleConstraint(edge=(0, 1), angle=55.0, target=87.5,
                                   feasibility=0.0)]
    return parts, graph, constraints


def test_single_edge_enumeration_bounded():
    parts, graph, constraints = cross_fixture()
    sets = enumerate_configurations(constraints, graph, parts, fixed=set())
    assert 1 <= len(sets) <= 5
    options = {tuple(s.options.values()) for s in sets}
    assert ("rigid",) not in options


def test_fixed_parts_remove_options():
    parts, graph, constraints = cross_fixture()
    sets = enumerate_configurations(constraints, graph, parts, fixed={0, 1})
    assert sets == []


def test_free_end_rule_fixes_parts():
    parts, graph, constraints = cross_fixture()
    fixed = determine_fixed_parts(parts, graph, constraints)
    # the bar's top end touches nothing -> fixed; the post has contacts at
    # both ends (ground + bar near the top)
    assert 1 in fixed
    assert 0 not in fixed


def test_symmetric_partner_without_problem_fixes_part():
    """A part congruent to one with no angle problem stays fixed even when
    both of its ends have contacts."""
    from meshreform.graphs import RepetitionGraph
    parts = {
        0: state(0, [0, 0, 0], [0, 0, 1], ground=True),
        1: state(1, [1, 0, 0], [1, 0, 1], ground=True),
        2: state(2, [-0.5, 0, 1], [1.5, 0, 1]),
    }
    graph = ContactGraph(nodes=[0, 1, 2], edges=[
        edge(0, 2, [0, 0, 1], angle=55.0),
        edge(1, 2, [1, 0, 1], angle=90.0),
        ContactEdge(0, GROUND_ID, np.zeros(3), None, True),
        ContactEdge(1, GROUND_ID, np.array([1.0, 0, 0]), None, True),
    ])
    constraints = [AngleConstraint((0, 2), 55.0, 87.5, 0.0)]
    rep = RepetitionGraph(nodes=[0, 1, 2], edges=[(0, 1)])
    without = determine_fixed_parts(parts, graph, constraints)
    assert 0 not in without
    with_rep = determine_fixed_parts(parts, graph, constraints, repetition=rep)
    assert 0 in with_rep


def test_hosts_must_stay_static():
    parts, graph, constraints = cross_fixture()
    constraints = constraints + [AngleConstraint(edge=(0, 2), angle=90.0,
                                                 target=87.5, feasibility=0.0)]
    sets = enumerate_configurations(constraints, graph, parts, fixed=set())
    for s in sets:
        for b in s.binds:
            assert b.host not in s.moving


def test_two_ends_not_on_contacting_hosts():
    parts = {
        0: state(0, [-0.5, 0, 0.5], [0.5, 0, 0.5]),
        1: state(1, [-0.5, 0, 0], [-0.5, 0, 1], ground=True),
        2: state(2, [0.5, 0, 0], [0.5, 0, 1], ground=True),
    }
    graph = ContactGraph(nodes=[0, 1, 2], edges=[
        edge(0, 1, [-0.5, 0, 0.5], angle=50.0),
        edge(0, 2, [0.5, 0, 0.5], angle=50.0),
        edge(1, 2, [0, 0, 0]),      # hosts contact each other
    ])
    constraints = [AngleConstraint((0, 1), 50.0, 87.5, 0.0),
                   AngleConstraint((0, 2), 50.0, 87.5, 0.0)]
    sets = enumerate_configurations(constraints, graph, parts, fixed={1, 2})
    for s in sets:
        slides = {}
        for b in s.binds:
            if b.kind == "slide":
                slides.setdefault(b.part, set()).add(b.host)
        assert slides.get(0) != {1, 2}


def test_enumeration_cap():
    parts = {}
    graph_edges = []
    constraints = []
    for k in range(6):
        a, b = 2 * k, 2 * k + 1
        z = 0.1 * k
        parts[a] = state(a, [0, k, z], [1, k, z], ground=True)
        parts[b] = state(b, [0.5, k - 0.4, z], [0.5, k + 0.4, z], ground=True)
        graph_edges.append(edge(a, b, [0.5, k, z], angle=50.0))
        graph_edges.append(ContactEdge(a, GROUND_ID, np.array([0.0, k, z]), None, True))
        graph_edges.append(ContactEdge(b, GROUND_ID, np.array([0.5, k - 0.4, z]), None, True))
        constraints.append(AngleConstraint((a, b), 50.0, 87.5, 0.0))
    graph = ContactGraph(nodes=list(parts), edges=graph_edges)
    sets = enumerate_configurations(constraints, graph, parts, fixed=set(), cap=100)
    assert len(sets) == 100


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def rotation_fixture(theta0=60.0, target=90.0):
    """One bar pinned at the origin to a horizontal host, free to swing;
    the bar's elevation is exactly the contact angle."""
    th = math.radians(theta0)
    parts = {
        0: state(0, [-1, 0, 0], [1, 0, 0], ground=True),                 # host
        1: state(1, [0, 0, 0], [math.cos(th), 0, math.sin(th)]),         # bar
    }
    graph = ContactGraph(nodes=[0, 1], edges=[
        edge(0, 1, [0, 0, 0], angle=theta0),
        ContactEdge(0, GROUND_ID, np.array([-1, 0, 0.0]), None, True),
    ])
    constraints = [AngleConstraint((0, 1), theta0, target, 0.0)]
    cset = ConstraintSet(index=0, options={(0, 1): "rotate_j"},
                         binds=[Bind(part=1, end=0, kind="rotate", edge=(0, 1),
                                     host=0, pivot=np.zeros(3), pivot_param=0.0)],
                         moving={1}, fixed={0})
    return parts, graph, constraints, cset


def test_one_dof_rotation_reaches_target():
    parts, graph, constraints, cset = rotation_fixture(60.0, 90.0)
    config = optimize_configuration(cset, constraints, parts, graph)
    ang = _segment_angle(config.segments[1], config.segments[0])
    assert abs(ang - 90.0) <= 0.1
    length = np.linalg.norm(config.segments[1][1] - config.segments[1][0])
    assert abs(length - 1.0) <= 1e-6
    # pivot stays exactly at the contact point
    assert np.allclose(config.segments[1][0], 0.0, atol=1e-12)


def test_one_dof_rotation_to_intermediate_target():
    parts, graph, constraints, cset = rotation_fixture(30.0, 82.5)
    config = optimize_configuration(cset, constraints, parts, graph)
    ang = _segment_angle(config.segments[1], config.segments[0])
    assert abs(ang - 82.5) <= 0.1


def test_no_binds_means_unchanged():
    parts, graph, constraints, _ = rotation_fixture()
    cset = ConstraintSet(index=3, options={(0, 1): "rigid"}, binds=[],
                         moving=set(), fixed=set())
    config = optimize_configuration(cset, constraints, parts, graph)
    assert config.index == 3
    assert np.allclose(config.segments[1], parts[1].segment)
    assert config.objective == pytest.approx((60.0 - 90.0) ** 2, abs=1e-9)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(30)
    checked = 0
    trials = 0
    while checked < 50 and trials < 200:
        trials += 1
        parts = {}
        n_hosts = 3
        for h in range(n_hosts):
            a = rng.normal(size=3)
            b = a + rng.normal(size=3)
            parts[h] = state(h, a, b, ground=True)
        movers = []
        binds = []
        cons = []
        graph_edges = []
        for m in range(n_hosts, n_hosts + 2):
            a = rng.normal(size=3)
            b = a + rng.normal(size=3) * 1.5
            parts[m] = state(m, a, b)
            host = int(rng.integers(0, n_hosts))
            e = (min(m, host), max(m, host))
            cp = parts[m].segment[rng.integers(0, 2)].copy()
            graph_edges.append(edge(*e, cp, angle=50.0))
            cons.append(AngleConstraint(e, 50.0, 80.0, 0.0))
            if rng.random() < 0.5:
                s = float(rng.uniform(0.1, 0.9))
                binds.append(Bind(part=m, end=0, kind="rotate", edge=e, host=host,
                                  pivot=cp + rng.normal(scale=0.1, size=3),
                                  pivot_param=s))
            else:
                binds.append(Bind(part=m, end=int(rng.integers(0, 2)),
                                  kind="slide", edge=e, host=host))
            movers.append(m)
        cset = ConstraintSet(index=0, options={}, binds=binds,
                             moving=set(movers), fixed=set(range(n_hosts)))
        layout, fun = make_objective(cset, cons, parts)
        if len(layout.x0) == 0:
            continue
        x = layout.x0 + rng.normal(scale=0.05, size=len(layout.x0))
        x = np.clip(x, [b[0] if b[0] is not None else -np.inf for b in layout.bounds],
                    [b[1] if b[1] is not None else np.inf for b in layout.bounds])
        val, grad = fun(x)
        # skip configurations at the angle fold (non-differentiable measure zero)
        segs = layout.segments(x)
        skip = False
        for c in cons:
            u = segs[c.edge[0]][1] - segs[c.edge[0]][0]
            v = segs[c.edge[1]][1] - segs[c.edge[1]][0]
            cosang = abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
            if cosang < 0.05 or cosang > 0.95:
                skip = True
        if skip:
            continue
        fd = np.zeros_like(x)
        eps = 1e-6
        for k in range(len(x)):
            xp = x.copy()
            xm = x.copy()
            xp[k] += eps
            xm[k] -= eps
            fd[k] = (fun(xp)[0] - fun(xm)[0]) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-10)
        assert np.linalg.norm(grad - fd) / denom < 1e-4
        checked += 1
    assert checked == 50


def test_repulsion_keeps_sliders_apart():
    """Two rungs sliding on the same two rails; oracle is a dense grid over
    the two symmetric slide positions."""
    parts = {
        0: state(0, [0, 0, 0], [1, 0, 0], ground=True),     # rail u
        1: state(1, [0, 1, 0], [1, 1, 0], ground=True),     # rail v
        2: state(2, [0.48, 0, 0.02], [0.48, 1, 0.02]),      # rung m
        3: state(3, [0.52, 0, 0.02], [0.52, 1, 0.02]),      # rung n
    }
    graph = ContactGraph(nodes=[0, 1, 2, 3], edges=[
        edge(0, 2, [0.48, 0, 0.01], angle=90.0),
        edge(1, 2, [0.48, 1, 0.01], angle=90.0),
        edge(0, 3, [0.52, 0, 0.01], angle=90.0),
        edge(1, 3, [0.52, 1, 0.01], angle=90.0),
        ContactEdge(0, GROUND_ID, np.zeros(3), None, True),
        ContactEdge(1, GROUND_ID, np.array([0, 1, 0.0]), None, True),
    ])
    cons = [AngleConstraint((0, 2), 90.0, 87.5, 0.0),
            AngleConstraint((1, 2), 90.0, 87.5, 0.0),
            AngleConstraint((0, 3), 90.0, 87.5, 0.0),
            AngleConstraint((1, 3), 90.0, 87.5, 0.0)]
    binds = [Bind(part=2, end=0, kind="slide", edge=(0, 2), host=0),
             Bind(part=2, end=1, kind="slide", edge=(1, 2), host=1),
             Bind(part=3, end=0, kind="slide", edge=(0, 3), host=0),
             Bind(part=3, end=1, kind="slide", edge=(1, 3), host=1)]
    cset = ConstraintSet(index=0, options={}, binds=binds, moving={2, 3},
                         fixed={0, 1})
    config = optimize_configuration(cset, cons, parts, graph)
    assert config.opt_value < np.inf
    m_pos = config.segments[2][:, 0].mean()
    n_pos = config.segments[3][:, 0].mean()
    assert abs(m_pos - n_pos) > 0.04   # repulsion separated them

    # grid-search oracle over symmetric positions (t_m, t_n)
    layout, fun = make_objective(cset, cons, parts)
    best = np.inf
    for tm in np.linspace(0, 1, 101):
        for tn in np.linspace(0, 1, 101):
            val, _ = fun(np.array([tm, tm, tn, tn]))
            best = min(best, val)
    assert config.opt_value <= best + 1e-6


def test_select_best_rules():
    def conf(idx, obj, drops):
        from meshreform.config_opt import Configuration
        return Configuration(index=idx, segments={}, slide_params={},
                             objective=obj, opt_value=obj, converged=True,
                             dropped_edges=[(0, k) for k in range(drops)],
                             new_contacts=[], kept_edges=[],
                             feasibility_report=[], moved_parts=[],
                             no_hanging_ok=True)
    picked = select_best_configuration([conf(0, 3.0, 0), conf(1, 0.2, 0), conf(2, 1.1, 0)])
    assert picked.index == 1
    picked = select_best_configuration([conf(0, 0.5, 2), conf(1, 0.5, 1)])
    assert picked.index == 1
    only = conf(7, 9.0, 0)
    assert select_best_configuration([only]).index == 7
    hanging = conf(0, 0.0, 0)
    hanging.no_hanging_ok = False
    with pytest.raises(ValueError):
        select_best_configuration([hanging])


def test_segment_distance_cases():
    d, p, q = segment_distance(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
                               np.array([0.5, 1, 0]), np.array([0.5, 2, 0]))
    assert d == pytest.approx(1.0)
    assert np.allclose(p, [0.5, 0, 0])
    d, _, _ = segment_distance(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
                               np.array([0.25, 0, 0]), np.array([0.75, 0, 0]))
    assert d == pytest.approx(0.0)
    d, _, _ = segment_distance(np.array([0.0, 0, 0]), np.array([0.0, 0, 0]),
                               np.array([1.0, 0, 0]), np.array([1.0, 1, 0]))
    assert d == pytest.approx(1.0)


def four_rail_fixture():
    """A slanted bar crossing four horizontal rails of pairwise different
    directions. Orthogonality to all four forces the bar vertical, but the
    rails' plan-view lines share no common point, so no pose can keep every
    contact: some contact must be dropped via sliding."""
    bar_a = np.array([0.0, 0.0, 0.0])
    bar_b = np.array([0.9, 0.9, 0.9])
    u = (bar_b - bar_a) / np.linalg.norm(bar_b - bar_a)
    parts = {0: state(0, bar_a, bar_b, thickness=0.02)}
    graph_edges = []
    cons = []
    for k, (t, phi) in enumerate(zip((0.1, 0.35, 0.65, 0.9),
                                     (0.0, 25.0, -25.0, 50.0)), start=1):
        p = bar_a + t * (bar_b - bar_a)
        d = np.array([math.cos(math.radians(phi)), math.sin(math.radians(phi)), 0.0])
        parts[k] = state(k, p - 0.6 * d, p + 0.6 * d, thickness=0.02)
        ang = math.degrees(math.acos(abs(float(u @ d))))
        graph_edges.append(edge(0, k, p, angle=ang))
        cons.append(AngleConstraint((0, k), ang, 87.5, 0.0))
    graph = ContactGraph(nodes=list(parts), edges=graph_edges)
    return parts, graph, cons


def test_four_rail_drop_via_sliding():
    parts, graph, cons = four_rail_fixture()
    fixed = determine_fixed_parts(parts, graph, cons)
    assert fixed == {1, 2, 3, 4}      # rails have free ends
    sets = enumerate_configurations(cons, graph, parts, fixed=fixed)
    assert sets
    configs = [optimize_configuration(s, cons, parts, graph) for s in sets]
    best = select_best_configuration(configs)
    assert len(best.dropped_edges) >= 1
    assert best.no_hanging_ok
    # every kept constrained edge ended near its target
    for r in best.feasibility_report:
        if tuple(r["edge"]) in set(best.kept_edges) and r["angle"] is not None:
            assert abs(r["angle"] - r["target"]) < 2.0
