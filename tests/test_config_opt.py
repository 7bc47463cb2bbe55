import dataclasses
import itertools
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshreform import config_opt, synthetic
from meshreform.config_opt import (ANGLE_WEIGHT_LENGTH, ANGLE_WEIGHT_REPULSE,
                                   REPULSE_SIGMA, TIE_TOL, AngleConstraint, Bind,
                                   Configuration, ConstraintSet, PartState,
                                   all_rigid_configuration,
                                   assess_angle_feasibility,
                                   determine_fixed_parts,
                                   enumerate_configurations, make_objective,
                                   objective_lower_bound,
                                   optimize_configuration,
                                   segment_distance,
                                   select_best_configuration, _make_bind,
                                   _segment_angle)
from meshreform.database import AngleHistogram
from meshreform.graphs import GROUND_ID, ContactEdge, ContactGraph
from meshreform.mesh import Material, Model
from meshreform.obb import OrientedBox
from meshreform.pipeline import (PipelineConfig, ReformedState, analyze_model,
                                 optimize_angles, place_and_restore,
                                 reform_assignment, reformed_state)


def seg(a, b):
    return np.array([a, b], dtype=float)


def state(a, b, thickness=0.02, material=Material.WOOD):
    return PartState(segment=seg(a, b), thickness=thickness,
                     material=material)


def edge(i, j, cp, angle=None):
    return ContactEdge(min(i, j), max(i, j), np.asarray(cp, dtype=float), angle)


def linear_parts(materials):
    return {pid: state([0, 0, 0], [1, 0, 0], material=m)
            for pid, m in materials.items()}


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
    constraints = assess_angle_feasibility(graph, linear_parts(mats), small_db)
    assert [c.edge for c in constraints] == [(0, 2)]
    assert constraints[0].target >= 80.0
    assert constraints[0].feasibility < 0.03


def test_mixed_material_edges_never_constrained(small_db):
    mats = {0: Material.WOOD, 1: Material.METAL}
    graph = ContactGraph(nodes=[0, 1], edges=[edge(0, 1, [0, 0, 0], angle=17.0)])
    assert assess_angle_feasibility(graph, linear_parts(mats), small_db) == []


def test_curvilinear_edges_never_constrained(small_db):
    """The contact angle of a curvilinear part is a local leg, not its
    segment; such an edge stays unconstrained beside a linear one."""
    parts = linear_parts({0: Material.WOOD, 1: Material.WOOD, 2: Material.WOOD})
    parts[2].box = OrientedBox(np.zeros(3), np.eye(3), np.array([0.5, 0.3, 0.01]))
    graph = ContactGraph(nodes=[0, 1, 2], edges=[
        edge(0, 1, [0, 0, 0], angle=40.0),
        edge(0, 2, [1, 0, 0], angle=40.0),
    ])
    assert [c.edge for c in assess_angle_feasibility(graph, parts, small_db)] == [(0, 1)]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def cross_fixture():
    """Vertical host with ground support, movable bar resting on it."""
    parts = {
        0: state([0, 0, 0], [0, 0, 1]),                  # host post
        1: state([-0.5, 0.02, 0.5], [0.5, 0.02, 0.9]),   # slanted bar
        2: state([0, -0.6, 0], [0, 0.6, 0]),             # base rail
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
        0: state([0, 0, 0], [0, 0, 1]),
        1: state([1, 0, 0], [1, 0, 1]),
        2: state([-0.5, 0, 1], [1.5, 0, 1]),
    }
    graph = ContactGraph(nodes=[0, 1, 2], edges=[
        edge(0, 2, [0, 0, 1], angle=55.0),
        edge(1, 2, [1, 0, 1], angle=90.0),
        ContactEdge(0, GROUND_ID, np.zeros(3), None, True),
        ContactEdge(1, GROUND_ID, np.array([1.0, 0, 0]), None, True),
    ])
    constraints = [AngleConstraint((0, 2), 55.0, 87.5, 0.0)]
    rep = RepetitionGraph(classes=[[0, 1], [2]])
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
        0: state([-0.5, 0, 0.5], [0.5, 0, 0.5]),
        1: state([-0.5, 0, 0], [-0.5, 0, 1]),
        2: state([0.5, 0, 0], [0.5, 0, 1]),
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
        parts[a] = state([0, k, z], [1, k, z])
        parts[b] = state([0.5, k - 0.4, z], [0.5, k + 0.4, z])
        graph_edges.append(edge(a, b, [0.5, k, z], angle=50.0))
        graph_edges.append(ContactEdge(a, GROUND_ID, np.array([0.0, k, z]), None, True))
        graph_edges.append(ContactEdge(b, GROUND_ID, np.array([0.5, k - 0.4, z]), None, True))
        constraints.append(AngleConstraint((a, b), 50.0, 87.5, 0.0))
    graph = ContactGraph(nodes=list(parts), edges=graph_edges)
    sets = enumerate_configurations(constraints, graph, parts, fixed=set(), cap=100)
    assert len(sets) == 100


def test_truncation_warned_only_when_a_set_is_left_out(caplog):
    """Two grounded bars with one constrained contact have four sets (each
    bar slides or rotates); a cap of four keeps them all."""
    parts = {0: state([0, 0, 0], [1, 0, 0]), 1: state([0.5, 0, 0], [0.5, 0.5, 0.5])}
    graph = ContactGraph(nodes=[0, 1], edges=[
        edge(0, 1, [0.5, 0, 0], angle=45.0),
        ContactEdge(0, GROUND_ID, np.zeros(3), None, True),
        ContactEdge(1, GROUND_ID, np.array([0.5, 0, 0]), None, True),
    ])
    constraints = [AngleConstraint((0, 1), 45.0, 87.5, 0.0)]
    for cap, truncated in ((4, False), (3, True)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="meshreform.config_opt"):
            sets = enumerate_configurations(constraints, graph, parts, fixed=set(),
                                            cap=cap)
        assert len(sets) == cap
        assert ("truncated" in caplog.text) == truncated


def reference_enumeration(constraints, graph, parts, fixed, cap):
    """Every combination of per-edge options from the full product, each
    combination's binds rebuilt and then filtered by the validity rules."""
    edges = sorted(c.edge for c in constraints)
    per_edge = []
    for (i, j) in edges:
        opts = ["rigid"]
        if i not in fixed:
            opts += ["slide_i", "rotate_i"]
        if j not in fixed:
            opts += ["slide_j", "rotate_j"]
        per_edge.append(opts)

    contact_pairs = {(min(e.i, e.j), max(e.i, e.j)) for e in graph.part_edges()}
    degree = {pid: len(graph.edges_of(pid)) for pid in parts}

    out = []
    truncated = False
    for combo in itertools.product(*per_edge):
        if all(o == "rigid" for o in combo):
            continue
        binds = [_make_bind(o, e, parts, graph)
                 for o, e in zip(combo, edges) if o != "rigid"]
        moving = {b.part for b in binds}
        # one bind per part end; a rotating part owns both its ends
        slots = [(b.part, b.end) for b in binds]
        if len(slots) != len(set(slots)):
            continue
        rotators = {b.part for b in binds if b.kind == "rotate"}
        if any(b.part in rotators and b.kind != "rotate" for b in binds) or \
                any(sum(1 for b in binds if b.part == r) > 1 for r in rotators):
            continue
        # hosts must stay static
        if any(b.host in moving for b in binds):
            continue
        # two ends of one part must not slide on contacting hosts
        ok = True
        by_part = {}
        for b in binds:
            by_part.setdefault(b.part, []).append(b)
        for pid, bs in by_part.items():
            slides = [b for b in bs if b.kind == "slide"]
            if len(slides) == 2:
                hosts = (min(slides[0].host, slides[1].host),
                         max(slides[0].host, slides[1].host))
                if hosts in contact_pairs:
                    ok = False
                    break
            # a moving part needs two potential supports
            if degree[pid] < 2:
                ok = False
                break
        if not ok:
            continue
        if len(out) == cap:
            truncated = True
            break
        out.append(ConstraintSet(index=len(out), options=dict(zip(edges, combo)),
                                 binds=binds, moving=moving))
    return out, truncated


def random_constraint_graph(rng):
    """3-8 parts with random segments, random contacts near part ends or
    middles, random ground contacts, 1-6 constrained edges and a random
    fixed set."""
    n = int(rng.integers(3, 9))
    parts = {pid: state(a, a + rng.normal(size=3))
             for pid, a in enumerate(rng.normal(size=(n, 3)))}
    pairs = list(itertools.combinations(range(n), 2))
    picked = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)),
                        replace=False)
    edges = []
    for k in sorted(picked):
        i, j = pairs[k]
        cp = on_segment(parts[i], rng.choice([0.0, 0.5, 1.0]))
        edges.append(edge(i, j, cp + rng.normal(scale=0.01, size=3), angle=50.0))
    for pid in range(n):
        if rng.random() < 0.4:
            edges.append(ContactEdge(pid, GROUND_ID, parts[pid].segment[0], None, True))
    graph = ContactGraph(nodes=list(parts), edges=edges)
    n_cons = min(int(rng.integers(1, 7)), len(picked))
    constrained = rng.choice(len(picked), size=n_cons, replace=False)
    part_edges = graph.part_edges()
    constraints = [AngleConstraint(part_edges[k].key(), 50.0, 87.5, 0.0)
                   for k in constrained]
    fixed = {pid for pid in parts if rng.random() < 0.3}
    return constraints, graph, parts, fixed


def bind_key(b):
    return (b.part, b.end, b.kind, b.edge, b.host,
            None if b.pivot is None else tuple(b.pivot), b.pivot_param)


def test_pruned_enumeration_matches_product_oracle(caplog):
    rng = np.random.default_rng(14)
    truncations = {5: 0, 50: 0, 4096: 0}
    sizes = []
    for _ in range(210):
        constraints, graph, parts, fixed = random_constraint_graph(rng)
        for cap in truncations:
            ref, truncated = reference_enumeration(constraints, graph, parts, fixed, cap)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="meshreform.config_opt"):
                got = enumerate_configurations(constraints, graph, parts, fixed=fixed,
                                               cap=cap)
            assert ("truncated" in caplog.text) == truncated
            truncations[cap] += truncated
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert g.index == r.index
                assert g.options == r.options
                assert g.moving == r.moving
                assert [bind_key(b) for b in g.binds] == [bind_key(b) for b in r.binds]
        sizes.append(len(ref))
    # the draws reach every cap and include empty and large enumerations
    assert truncations[5] >= 20 and truncations[50] >= 5, truncations
    assert min(sizes) == 0 and max(sizes) >= 200, (min(sizes), max(sizes))


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def rotation_fixture(theta0=60.0, target=90.0):
    """One bar pinned at the origin to a horizontal host, free to swing;
    the bar's elevation is exactly the contact angle."""
    th = math.radians(theta0)
    parts = {
        0: state([-1, 0, 0], [1, 0, 0]),                         # host
        1: state([0, 0, 0], [math.cos(th), 0, math.sin(th)]),    # bar
    }
    graph = ContactGraph(nodes=[0, 1], edges=[
        edge(0, 1, [0, 0, 0], angle=theta0),
        ContactEdge(0, GROUND_ID, np.array([-1, 0, 0.0]), None, True),
    ])
    constraints = [AngleConstraint((0, 1), theta0, target, 0.0)]
    cset = ConstraintSet(index=0, options={(0, 1): "rotate_j"},
                         binds=[Bind(part=1, end=0, kind="rotate", edge=(0, 1),
                                     host=0, pivot=np.zeros(3), pivot_param=0.0)],
                         moving={1})
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


def on_segment(part, t):
    return part.segment[0] + t * (part.segment[1] - part.segment[0])


def test_gradients_match_finite_differences():
    """Analytic gradients against central differences on random sets. About
    half of the draws come from ``random_objective_case``; those carry
    the repulsion twins more often than not, and their targets sit half a
    degree off the angles at the evaluation point so that repulsion carries
    a visible share of the gradient."""
    rng = np.random.default_rng(30)
    checked = 0
    checked_repulsion = 0
    trials = 0
    while checked < 50 and trials < 200:
        trials += 1
        drawn = rng.random() < 0.5
        if drawn:
            cset, cons, parts = random_objective_case(rng, False, False)
        else:
            parts = {}
            n_hosts = 3
            for h in range(n_hosts):
                a = rng.normal(size=3)
                b = a + rng.normal(size=3)
                parts[h] = state(a, b)
            movers = [n_hosts, n_hosts + 1]
            binds = []
            cons = []
            for m in movers:
                a = rng.normal(size=3)
                b = a + rng.normal(size=3) * 1.5
                parts[m] = state(a, b)
                host = int(rng.integers(0, n_hosts))
                e = (min(m, host), max(m, host))
                cp = parts[m].segment[rng.integers(0, 2)].copy()
                cons.append(AngleConstraint(e, 50.0, 80.0, 0.0))
                if rng.random() < 0.5:
                    s = float(rng.uniform(0.1, 0.9))
                    binds.append(Bind(part=m, end=0, kind="rotate", edge=e, host=host,
                                      pivot=cp + rng.normal(scale=0.1, size=3),
                                      pivot_param=s))
                else:
                    binds.append(Bind(part=m, end=int(rng.integers(0, 2)),
                                      kind="slide", edge=e, host=host))
            cset = ConstraintSet(index=0, options={}, binds=binds, moving=set(movers))
        layout, fun = make_objective(cset, cons, parts)
        x = layout.x0 + rng.normal(scale=0.01 if drawn else 0.05, size=len(layout.x0))
        x = np.clip(x, [b[0] if b[0] is not None else -np.inf for b in layout.bounds],
                    [b[1] if b[1] is not None else np.inf for b in layout.bounds])
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
        if drawn:
            cons = [AngleConstraint(c.edge, c.angle,
                                    _segment_angle(segs[c.edge[0]], segs[c.edge[1]]) + 0.5,
                                    0.0) for c in cons]
            layout, fun = make_objective(cset, cons, parts)
        val, grad = fun(x)
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
        checked_repulsion += 5 in cset.moving
    assert checked == 50
    assert checked_repulsion >= 5


# ---------------------------------------------------------------------------
# reference objective: the same terms, one edge and one endpoint at a time
# ---------------------------------------------------------------------------

def reference_objective(cset, constraints, parts):
    """fun(x) -> (value, gradient) in the per-edge form: each endpoint is
    dispatched on its kind (rotate, slide, free or static), each angle term
    is evaluated on its four endpoints, and every endpoint gradient is
    scattered back into the variables. Variables are laid out as in
    ``make_objective``: moving parts in id order, three for a rotating part,
    then per end one slide parameter or three free coordinates."""
    ends = {}                    # (part, end) -> (kind, first variable, data)
    bind_of = {(b.part, b.end): b for b in cset.binds}
    rotate_of = {b.part: b for b in cset.binds if b.kind == "rotate"}
    n = 0
    for pid in sorted(cset.moving):
        if pid in rotate_of:
            b = rotate_of[pid]
            ends[(pid, 0)] = ("rotate", n, (b.pivot, -b.pivot_param))
            ends[(pid, 1)] = ("rotate", n, (b.pivot, 1.0 - b.pivot_param))
            n += 3
            continue
        for end in (0, 1):
            b = bind_of.get((pid, end))
            if b is None:
                ends[(pid, end)] = ("free", n, None)
                n += 3
            else:
                ends[(pid, end)] = ("slide", n, parts[b.host].segment)
                n += 1

    def endpoint(x, pid, end):
        kind, slot, data = ends.get((pid, end), ("static", 0, None))
        if kind == "rotate":
            return data[0] + data[1] * x[slot:slot + 3]
        if kind == "slide":
            return x[slot] * data[0] + (1.0 - x[slot]) * data[1]
        if kind == "free":
            return x[slot:slot + 3]
        return parts[pid].segment[end]

    def add_grad(grad, pid, end, g):
        kind, slot, data = ends.get((pid, end), ("static", 0, None))
        if kind == "rotate":
            grad[slot:slot + 3] += data[1] * g
        elif kind == "slide":
            grad[slot] += float(g @ (data[0] - data[1]))
        elif kind == "free":
            grad[slot:slot + 3] += g

    def angle_term(a_i, b_i, a_j, b_j, target):
        di, dj = b_i - a_i, b_j - a_j
        li, lj = np.linalg.norm(di), np.linalg.norm(dj)
        if li < 1e-12 or lj < 1e-12:
            return 0.0, [np.zeros(3)] * 4
        ui, uj = di / li, dj / lj
        c = float(ui @ uj)
        diff = np.degrees(np.arccos(min(abs(c), 1.0))) - target
        s2 = 1.0 - c * c
        if s2 < 1e-18:
            return diff * diff, [np.zeros(3)] * 4
        coef = 2.0 * diff * -(180.0 / np.pi) * np.sign(c) / np.sqrt(s2)
        g_bi = coef * (uj - c * ui) / li
        g_bj = coef * (ui - c * uj) / lj
        return diff * diff, [-g_bi, g_bi, -g_bj, g_bj]

    targets = {c.edge: c.target for c in constraints}
    rotating = sorted({b.part for b in cset.binds if b.kind == "rotate"})
    slide_hosts = {}
    for b in cset.binds:
        if b.kind == "slide":
            slide_hosts.setdefault(b.part, {})[b.host] = b.end
    sliders = {pid: hosts for pid, hosts in slide_hosts.items() if len(hosts) == 2}
    rep_pairs = [(m, n, [(sliders[m][h], sliders[n][h]) for h in sorted(sliders[m])])
                 for m, n in itertools.combinations(sorted(sliders), 2)
                 if set(sliders[m]) == set(sliders[n])]

    def fun(x):
        val = 0.0
        grad = np.zeros_like(x)
        for (i, j), target in targets.items():
            v, gs = angle_term(endpoint(x, i, 0), endpoint(x, i, 1),
                               endpoint(x, j, 0), endpoint(x, j, 1), target)
            val += v
            for (pid, end), g in zip(((i, 0), (i, 1), (j, 0), (j, 1)), gs):
                add_grad(grad, pid, end, g)
        for pid in rotating:
            d = endpoint(x, pid, 1) - endpoint(x, pid, 0)
            ref = parts[pid].segment[1] - parts[pid].segment[0]
            diff = float(d @ d) - float(ref @ ref)
            val += ANGLE_WEIGHT_LENGTH * diff * diff
            add_grad(grad, pid, 1, ANGLE_WEIGHT_LENGTH * 4.0 * diff * d)
            add_grad(grad, pid, 0, -ANGLE_WEIGHT_LENGTH * 4.0 * diff * d)
        for m, n, pairing in rep_pairs:
            gaps = [endpoint(x, m, em) - endpoint(x, n, en) for em, en in pairing]
            w = ANGLE_WEIGHT_REPULSE * np.prod([np.exp(-float(d @ d) / REPULSE_SIGMA ** 2)
                                                for d in gaps])
            val += w
            for (em, en), d in zip(pairing, gaps):
                g = w * (-2.0 / REPULSE_SIGMA ** 2) * d
                add_grad(grad, m, em, g)
                add_grad(grad, n, en, -g)
        return val, grad

    return fun


def random_objective_case(rng, parallel, zero_length):
    """Three static hosts and up to three kinds of movers: a part rotating
    about a pivot on itself, bound to host 0 (id 3); a part sliding one end
    on host 1 with the other end free (id 4); and twin parts sliding both
    ends onto hosts 0 and 1 (ids 5, 6: a repulsion pair). With ``parallel``
    host 0 runs along z and the caller turns the rotating part onto z; with
    ``zero_length`` host 2 is a point and is constrained against a mover."""
    parts = {h: state(p, p + rng.normal(size=3))
             for h, p in enumerate(rng.normal(size=(3, 3)))}
    if parallel:
        parts[0] = state([0, 0, 0], [0, 0, 1.5])
    if zero_length:
        parts[2] = state(parts[2].segment[0], parts[2].segment[0])
    binds, cons = [], []

    def constrain(host, m):
        cons.append(AngleConstraint((host, m), 50.0, float(rng.uniform(60, 90)), 0.0))

    present = rng.random(3) < 0.6
    present[0] |= parallel
    if not present.any():
        present[1] = True
    if present[0]:
        a = rng.normal(size=3)
        parts[3] = state(a, a + rng.normal(size=3))
        s0 = float(rng.uniform(0.1, 0.9))
        binds.append(Bind(part=3, end=0, kind="rotate", edge=(0, 3), host=0,
                          pivot=on_segment(parts[3], s0), pivot_param=s0))
        constrain(0, 3)
        constrain(1, 3)
    if present[1]:
        a = on_segment(parts[1], rng.uniform(0.2, 0.8))
        parts[4] = state(a, a + rng.normal(size=3))
        binds.append(Bind(part=4, end=0, kind="slide", edge=(1, 4), host=1))
        constrain(1, 4)
    if present[2]:
        at = rng.uniform(0.2, 0.8, size=2)
        for m in (5, 6):
            t = at + rng.normal(scale=0.02, size=2)
            parts[m] = state(on_segment(parts[0], t[0]), on_segment(parts[1], t[1]))
            for end, host in ((0, 0), (1, 1)):
                binds.append(Bind(part=m, end=end, kind="slide", edge=(host, m),
                                  host=host))
                constrain(host, m)
    movers = {b.part for b in binds}
    constrain(2, min(movers))
    cons.append(AngleConstraint((0, 1), 50.0, 80.0, 0.0))    # two static parts
    cset = ConstraintSet(index=0, options={}, binds=binds, moving=movers)
    return cset, cons, parts


def test_objective_matches_per_edge_reference():
    rng = np.random.default_rng(8)
    seen = {"rotate": 0, "slide": 0, "free": 0, "repulsion": 0,
            "zero_length": 0, "parallel": 0}
    for _ in range(60):
        parallel, zero_length = rng.random(2) < 0.3
        cset, cons, parts = random_objective_case(rng, parallel, zero_length)
        layout, fun = make_objective(cset, cons, parts)
        reference = reference_objective(cset, cons, parts)
        lo = [b[0] if b[0] is not None else -np.inf for b in layout.bounds]
        hi = [b[1] if b[1] is not None else np.inf for b in layout.bounds]
        for _ in range(3):
            x = np.clip(layout.x0 + rng.normal(scale=0.02, size=len(layout.x0)), lo, hi)
            if parallel:        # the rotating part's direction, along host 0
                x[0:3] = [0.0, 0.0, rng.uniform(0.5, 2.0)]
            val, grad = fun(x)
            ref_val, ref_grad = reference(x)
            assert abs(val - ref_val) <= 1e-12 * max(abs(ref_val), 1.0)
            assert np.linalg.norm(grad - ref_grad) <= 1e-12 * max(np.linalg.norm(ref_grad), 1.0)
        kinds = {b.kind for b in cset.binds}
        seen["rotate"] += "rotate" in kinds
        seen["slide"] += "slide" in kinds
        seen["free"] += 4 in cset.moving
        seen["repulsion"] += 5 in cset.moving
        seen["zero_length"] += bool(zero_length)
        seen["parallel"] += bool(parallel)
    assert min(seen.values()) >= 5, seen


def test_repulsion_keeps_sliders_apart():
    """Two rungs sliding on the same two rails; oracle is a dense grid over
    the two symmetric slide positions."""
    parts = {
        0: state([0, 0, 0], [1, 0, 0]),                  # rail u
        1: state([0, 1, 0], [1, 1, 0]),                  # rail v
        2: state([0.48, 0, 0.02], [0.48, 1, 0.02]),      # rung m
        3: state([0.52, 0, 0.02], [0.52, 1, 0.02]),      # rung n
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
    cset = ConstraintSet(index=0, options={}, binds=binds, moving={2, 3})
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
        return Configuration(index=idx, segments={}, errors={},
                             objective=obj, opt_value=obj, converged=True,
                             dropped_edges=[(0, k) for k in range(drops)],
                             new_contacts=[], moved_parts=[],
                             no_hanging_ok=True)
    picked = select_best_configuration([conf(0, 3.0, 0), conf(1, 0.2, 0), conf(2, 1.1, 0)])
    assert picked.index == 1
    picked = select_best_configuration([conf(0, 0.5, 2), conf(1, 0.5, 1)])
    assert picked.index == 1
    only = conf(7, 9.0, 0)
    assert select_best_configuration([only]).index == 7
    hanging = conf(0, 0.0, 0)
    hanging.no_hanging_ok = False
    assert select_best_configuration([hanging, conf(-1, 9.0, 0)]).index == -1
    # the unmoved configuration (index -1) wins a tie
    assert select_best_configuration([conf(-1, 0.5, 0), conf(0, 0.5, 0)]).index == -1


def grounded_bar_state():
    """A linear bar at 40 degrees to a grounded linear rail, both wood; the
    wood histogram finds 40 degrees infeasible."""
    th = math.radians(40.0)
    segments = {0: seg([-1, 0, 0], [1, 0, 0]),
                1: seg([0, 0, 0], [math.cos(th), 0, math.sin(th)])}
    descriptors = {pid: SimpleNamespace(segment=s, thickness=0.02, is_linear=True,
                                        obb=None)
                   for pid, s in segments.items()}
    graph = ContactGraph(nodes=[0, 1], edges=[
        edge(0, 1, [0, 0, 0], angle=40.0),
        ContactEdge(0, GROUND_ID, np.array([-1, 0, 0.0]), None, True),
    ])
    return ReformedState(placed={}, descriptors=descriptors, graph=graph,
                         materials={0: Material.WOOD, 1: Material.WOOD})


@pytest.mark.parametrize("solved", ["worse", "tied", "unsupported", "none"])
def test_unmoved_model_competes(solved, small_db, monkeypatch):
    """optimize_angles keeps the model unmoved when every solved set scores
    above it or ties it, when none is supported, and when none is
    enumerated."""
    cset = ConstraintSet(index=0, options={(0, 1): "rotate_j"}, binds=[], moving={1})
    sets = [] if solved == "none" else [cset, dataclasses.replace(cset, index=1)]
    monkeypatch.setattr(config_opt, "enumerate_configurations", lambda *a, **k: sets)

    def solve(s, constraints, parts, graph, **kwargs):
        unmoved = all_rigid_configuration(constraints, parts)
        return dataclasses.replace(
            unmoved, index=s.index, moved_parts=[1],
            objective=unmoved.objective + (solved == "worse"),
            no_hanging_ok=solved != "unsupported")

    monkeypatch.setattr(config_opt, "optimize_configuration", solve)
    best, _, constraints, configs, n_sets = optimize_angles(grounded_bar_state(),
                                                            small_db, PipelineConfig())
    assert [c.edge for c in constraints] == [(0, 1)]
    assert len(configs) == n_sets == len(sets)
    assert best.index == -1 and best.moved_parts == []
    assert best.objective == pytest.approx((40.0 - constraints[0].target) ** 2)


# ---------------------------------------------------------------------------
# branch and bound over the constraint sets
# ---------------------------------------------------------------------------

# synthetic models reformed to wood against small_db: a mixed table and a
# metal bed as in the benchmark's rounds, and a chair with 4 constraints
BOUND_CASES = {"mixed_table": 1, "metal_bed": 3, "mixed_chair": 0}


def reformed_to_wood(name, seed, db, cfg):
    """Generator ``name``'s model for ``seed``, reformed to wood up to the
    angle stage."""
    parts = getattr(synthetic, name)(np.random.default_rng(seed),
                                     synthetic.GeneratorConfig()).parts
    analysis = analyze_model(Model(parts=parts), cfg)
    targets = {pid: Material.WOOD for pid in analysis.descriptors}
    assignment = reform_assignment(analysis, targets, db, cfg)
    placed, report = place_and_restore(analysis, assignment, db, cfg)
    return reformed_state(analysis, placed, targets, db, cfg, restore_report=report)


@pytest.fixture(scope="module")
def bound_runs(small_db):
    """Per case, optimize_angles' pruned result next to the oracle: every
    enumerated set solved from the same inputs and the selection among
    them and the unmoved model. Each run also counts its calls of
    ``AngleHistogram.feasibility``."""
    cfg = PipelineConfig(contact_samples=3000)
    runs = {}
    for name, seed in BOUND_CASES.items():
        seen = {}
        pruned = config_opt.solve_in_bound_order
        feasibility = AngleHistogram.feasibility
        calls = []

        def spy(sets, constraints, parts, graph, unmoved, **kwargs):
            seen.update(sets=sets, inputs=(constraints, parts, graph),
                        unmoved=unmoved, kwargs=kwargs)
            return pruned(sets, constraints, parts, graph, unmoved, **kwargs)

        def counted(hist, angle):
            calls.append(angle)
            return feasibility(hist, angle)

        state = reformed_to_wood(name, seed, small_db, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(config_opt, "solve_in_bound_order", spy)
            mp.setattr(AngleHistogram, "feasibility", counted)
            best, report, constraints, solved, n_sets = optimize_angles(
                state, small_db, cfg)
        full = [optimize_configuration(s, *seen["inputs"], **seen["kwargs"])
                for s in seen["sets"]]
        runs[name] = SimpleNamespace(
            state=state, best=best, report=report, feasibility_calls=len(calls),
            constraints=constraints, solved=solved, n_sets=n_sets,
            sets=seen["sets"], unmoved=seen["unmoved"], full=full,
            oracle=select_best_configuration([seen["unmoved"]] + full))
    return runs


def drops(c):
    return len(c.dropped_edges) + len(c.dropped_ground)


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_bound_order_selects_as_full_solve(bound_runs, case):
    run = bound_runs[case]
    assert run.n_sets == len(run.sets) == len(run.full) > 0
    if case == "mixed_chair":
        assert len(run.constraints) == 4
    got, want = run.best, run.oracle
    assert (got.index, got.objective, got.opt_value) == \
        (want.index, want.objective, want.opt_value)
    assert got.moved_parts == want.moved_parts
    assert got.dropped_edges == want.dropped_edges
    assert got.dropped_ground == want.dropped_ground
    assert got.segments.keys() == want.segments.keys()
    assert all(np.array_equal(got.segments[p], want.segments[p]) for p in want.segments)
    # every selection tie of the full solve left unsolved loses the
    # tie-break to the selection: more dropped contacts, or as many and a
    # larger index
    supported = [c for c in [run.unmoved] + run.full if c.no_hanging_ok]
    low = min(c.objective for c in supported)
    tol = low + TIE_TOL * max(1.0, abs(low))
    solved = {c.index: c for c in run.solved}
    for c in supported:
        if c.objective <= tol and c.index not in solved and c.index != -1:
            assert (drops(c), c.index) > (drops(want), want.index)
    for k, c in solved.items():
        assert (c.objective, c.opt_value, c.no_hanging_ok) == \
            (run.full[k].objective, run.full[k].opt_value, run.full[k].no_hanging_ok)


def test_lower_bound_never_exceeds_objective(bound_runs):
    checked = 0
    for run in bound_runs.values():
        for cset, config in zip(run.sets, run.full):
            assert objective_lower_bound(cset, run.unmoved) <= config.objective
            checked += 1
    assert checked == sum(run.n_sets for run in bound_runs.values())


def test_bound_order_skips_sets_on_mixed_table(bound_runs):
    """A silent fall-back to solving every set fails here, and so does one
    to the walk that stops at the bound alone."""
    run = bound_runs["mixed_table"]
    assert 0 < len(run.solved) < run.n_sets
    assert [c.index for c in run.solved] == sorted(c.index for c in run.solved)
    best, bound_only = run.unmoved.objective, 0
    for bound, cset in sorted(((objective_lower_bound(s, run.unmoved), s) for s in run.sets),
                              key=lambda pair: (pair[0], pair[1].index)):
        if bound > best + TIE_TOL * max(1.0, abs(best)):
            break
        bound_only += 1
        if run.full[cset.index].no_hanging_ok:
            best = min(best, run.full[cset.index].objective)
    assert len(run.solved) < bound_only


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_one_feasibility_report_per_request(bound_runs, case):
    """The histogram is read once per assessed edge and once per constrained
    edge of the selection, however many sets were solved; the report keeps
    what the selection keeps, and the selection's objective is the sum of
    its kept errors."""
    run = bound_runs[case]
    mats = run.state.materials
    assessed = sum(e.angle is not None and mats[e.i] == mats[e.j]
                   and mats[e.i] in (Material.WOOD, Material.METAL)
                   for e in run.state.graph.part_edges())
    assert run.solved
    assert [tuple(r["edge"]) for r in run.report] == sorted(c.edge for c in run.constraints)
    assert run.feasibility_calls == assessed + sum(r["angle"] is not None
                                                   for r in run.report)
    assert [r["kept"] for r in run.report] == \
        [tuple(r["edge"]) not in run.best.dropped_edges for r in run.report]
    assert run.best.objective == sum(r["error_sq"] for r in run.report if r["kept"])


@st.composite
def drawn_walks(draw):
    """An unmoved objective and per set (bound, objective, dropped edges and
    ground contacts, supported). Values lie on a grid of half tie windows
    above a drawn base, so many sit inside, exactly at the edge of, or just
    past each other's tie window; the unmoved objective is on the grid or
    well above it."""
    base = draw(st.sampled_from([0.0, 1.0, 1e3]))
    half = TIE_TOL * max(1.0, base) / 2
    value = st.integers(0, 4).map(lambda k: base + k * half)
    unmoved = draw(st.one_of(value, st.just(base + 1.0)))
    sets = draw(st.lists(st.tuples(
        value, value, st.sampled_from([(0, 0), (0, 0), (1, 0), (0, 1), (2, 0)]),
        st.sampled_from([True, True, True, False])), min_size=1, max_size=12))
    return unmoved, [(min(a, b), max(a, b), dropped, supported)
                     for a, b, dropped, supported in sets]


def drawn_configuration(index, objective, dropped, supported):
    n_edges, n_ground = dropped
    return Configuration(index=index, segments={}, errors={}, objective=objective,
                         opt_value=objective, converged=True,
                         dropped_edges=[(0, k) for k in range(n_edges)],
                         new_contacts=[], moved_parts=[], no_hanging_ok=supported,
                         dropped_ground=list(range(n_ground)))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(walk=drawn_walks())
def test_bound_order_selection_on_drawn_objectives(walk):
    """With drawn bounds, objectives (each at least its bound), dropped
    counts and support, the walk selects what solving every set selects."""
    unmoved_objective, drawn = walk
    unmoved = drawn_configuration(-1, unmoved_objective, (0, 0), True)
    sets = [ConstraintSet(index=k, options={}, binds=[], moving=set())
            for k in range(len(drawn))]
    bounds = {k: bound for k, (bound, *_) in enumerate(drawn)}
    full = [drawn_configuration(k, objective, dropped, supported)
            for k, (_, objective, dropped, supported) in enumerate(drawn)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config_opt, "objective_lower_bound",
                   lambda cset, unmoved: bounds[cset.index])
        mp.setattr(config_opt, "optimize_configuration",
                   lambda cset, *args, **kwargs: full[cset.index])
        solved = config_opt.solve_in_bound_order(sets, [], {}, None, unmoved)
    assert [c.index for c in solved] == sorted({c.index for c in solved})
    assert select_best_configuration([unmoved] + solved) is \
        select_best_configuration([unmoved] + full)


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
    parts = {0: state(bar_a, bar_b, thickness=0.02)}
    graph_edges = []
    cons = []
    for k, (t, phi) in enumerate(zip((0.1, 0.35, 0.65, 0.9),
                                     (0.0, 25.0, -25.0, 50.0)), start=1):
        p = bar_a + t * (bar_b - bar_a)
        d = np.array([math.cos(math.radians(phi)), math.sin(math.radians(phi)), 0.0])
        parts[k] = state(p - 0.6 * d, p + 0.6 * d, thickness=0.02)
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
    # every kept constrained edge ended within 2 degrees of its target
    assert all(error < 2.0 ** 2 for edge, error in best.errors.items()
               if edge not in best.dropped_edges)
