"""Material-aware configuration optimization.

Parts are abstracted to line segments. Contacts whose angle is implausible
for the material (low histogram feasibility) get a target angle; every
slide/rotate choice for those edges is enumerated, each choice is solved by
gradient-based minimization of the angle/length/repulsion objective, and the
configuration with the smallest post-solve angle error over surviving
contacts wins. Contacts a moving part slides away from are dropped
(topology change); moved parts must retain at least two distinct contact
points, counting the ground.
"""

import itertools
import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .database import FEASIBILITY_THRESHOLD, AngleHistogram
from .graphs import ContactGraph, fold_angle_deg
from .mesh import Material

logger = logging.getLogger(__name__)

ANGLE_WEIGHT_LENGTH = 1.0     # w_l
ANGLE_WEIGHT_REPULSE = 0.1    # w_r
REPULSE_SIGMA = 0.05
ENUMERATION_CAP = 4096
KEEP_SLACK = 0.01
NEW_CONTACT_FACTOR = 1.5
END_ZONE = 0.35               # fraction of length counting as "at an end"

EDGE_OPTIONS = ("rigid", "slide_i", "slide_j", "rotate_i", "rotate_j")


@dataclass
class PartState:
    """Line abstraction of a part for this stage. ``box`` (when given) makes
    contact bookkeeping for non-elongated parts use the box surface instead
    of the degenerate centerline."""

    id: int
    segment: np.ndarray          # (2, 3)
    thickness: float
    material: Material
    has_ground: bool = False
    box: object = None           # optional OrientedBox

    def length(self):
        return float(np.linalg.norm(self.segment[1] - self.segment[0]))


@dataclass
class AngleConstraint:
    edge: tuple                  # (i, j), i < j
    angle: float
    target: float
    feasibility: float
    active: bool = True


@dataclass
class Bind:
    part: int
    end: int                     # 0 or 1
    kind: str                    # "slide" | "rotate"
    edge: tuple
    host: int
    pivot: Optional[np.ndarray] = None   # rotate: pinned contact point
    pivot_param: float = 0.0             # rotate: pivot position along the segment


@dataclass
class ConstraintSet:
    index: int
    options: dict                # edge -> option string
    binds: list
    moving: set
    fixed: set


@dataclass
class Configuration:
    index: int
    segments: dict               # part id -> (2, 3) final segment
    slide_params: dict           # (edge, part) -> t
    objective: float             # selection objective: sum of kept-edge angle errors^2
    opt_value: float             # optimizer objective at the solution
    converged: bool
    dropped_edges: list
    new_contacts: list
    kept_edges: list
    feasibility_report: list     # dicts: edge, angle, target, feasibility
    moved_parts: list
    no_hanging_ok: bool
    dropped_ground: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# feasibility assessment
# ---------------------------------------------------------------------------

def assess_angle_feasibility(graph: ContactGraph, materials: dict, db,
                             threshold=FEASIBILITY_THRESHOLD) -> list:
    """Constraints for same-material angled edges whose histogram
    feasibility falls below ``threshold``; the target is the center of the
    nearest feasible bin (ties toward the larger angle)."""
    constraints = []
    for e in graph.part_edges():
        if e.angle is None:
            continue
        mi, mj = materials[e.i], materials[e.j]
        if mi != mj or mi not in (Material.WOOD, Material.METAL):
            continue
        hist = db.histograms.get(mi.value)
        if hist is None or hist.total == 0:
            raise ValueError(f"empty angle histogram for {mi.value}")
        feas = hist.feasibility(e.angle)
        if feas >= threshold:
            continue
        freqs = hist.smoothed_frequencies()
        centers = np.array([AngleHistogram.bin_center(k) for k in range(len(freqs))])
        ok = np.flatnonzero(freqs >= threshold)
        if len(ok) == 0:
            logger.warning("edge %s: no feasible angle bin at all; skipped", e.key())
            continue
        # nearest feasible center; on distance ties prefer the larger angle
        dist = np.abs(centers[ok] - e.angle)
        best = ok[np.lexsort((-centers[ok], dist))[0]]
        constraints.append(AngleConstraint(
            edge=(min(e.i, e.j), max(e.i, e.j)), angle=float(e.angle),
            target=float(centers[best]), feasibility=float(feas)))
    return constraints


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _end_of(part: PartState, point):
    d0 = np.linalg.norm(part.segment[0] - point)
    d1 = np.linalg.norm(part.segment[1] - point)
    return 0 if d0 <= d1 else 1


def determine_fixed_parts(parts: dict, graph: ContactGraph, constraints,
                          repetition=None, end_zone=END_ZONE) -> set:
    """Initialization rule: fix parts with a contact-free end, and parts
    congruent to a part with no angle problem."""
    constrained_parts = {p for c in constraints for p in c.edge}
    fixed = set()
    for pid, st in parts.items():
        length = st.length()
        ends_hit = [False, False]
        for e in graph.edges_of(pid):
            cp = np.asarray(e.contact_point)
            k = _end_of(st, cp)
            if np.linalg.norm(st.segment[k] - cp) <= end_zone * max(length, 1e-12):
                ends_hit[k] = True
        if not (ends_hit[0] and ends_hit[1]):
            fixed.add(pid)
            continue
        if repetition is not None:
            for partner in repetition.partners(pid):
                if partner not in constrained_parts:
                    fixed.add(pid)
                    break
    return fixed


def _make_bind(option, edge, parts, graph):
    i, j = edge
    cp = np.asarray(graph.find_edge(i, j).contact_point, dtype=float)
    if option in ("slide_i", "rotate_i"):
        mover, host = i, j
    else:
        mover, host = j, i
    end = _end_of(parts[mover], cp)
    kind = "slide" if option.startswith("slide") else "rotate"
    pivot = None
    pivot_param = 0.0
    if kind == "rotate":
        seg = parts[mover].segment
        d = seg[1] - seg[0]
        den = float(d @ d)
        pivot_param = float(np.clip((cp - seg[0]) @ d / den, 0.0, 1.0)) if den > 0 else 0.0
        pivot = cp
    return Bind(part=mover, end=end, kind=kind, edge=edge, host=host,
                pivot=pivot, pivot_param=pivot_param)


def enumerate_configurations(constraints, graph: ContactGraph, parts: dict,
                             fixed: Optional[set] = None,
                             cap=ENUMERATION_CAP) -> list:
    """All valid slide/rotate assignments over the constrained edges.

    Per edge the options are rigid / i slides on j / j slides on i /
    i rotates pinned / j rotates pinned, filtered by the fixed set. A set is
    valid when no (part, end) is bound twice, every bind host stays static,
    a part's two ends never slide on mutually contacting hosts, every moving
    part has at least two potential supports, and at least one bind exists.
    Enumeration walks edges in sorted order and stops at ``cap`` valid sets.
    """
    if not constraints:
        raise ValueError("no constraints to enumerate")
    if fixed is None:
        fixed = determine_fixed_parts(parts, graph, constraints)

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
    degree = {pid: graph.degree(pid) for pid in parts}

    out = []
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
            # pre-prune no-hanging: a moving part needs two potential supports
            if degree[pid] < 2:
                ok = False
                break
        if not ok:
            continue
        out.append(ConstraintSet(index=len(out), options=dict(zip(edges, combo)),
                                 binds=binds, moving=moving, fixed=set(fixed)))
        if len(out) >= cap:
            logger.warning("enumeration truncated at %d sets", cap)
            break
    return out


# ---------------------------------------------------------------------------
# objective with analytic gradient
# ---------------------------------------------------------------------------

class _Layout:
    """Maps the flat variable vector to moving part endpoints.

    End parameterizations:

    * free: three coordinates.
    * slide: one scalar t in [0, 1], endpoint lerped along the host segment.
    * rotate: the whole part is one direction vector d about the pivot,
      endpoints at ``pivot - s0 d`` and ``pivot + (1 - s0) d`` where s0 is
      the pivot's original parameter along the segment (so the contact point
      stays on the part while it swings).
    """

    def __init__(self, cset: ConstraintSet, parts: dict):
        self.parts = parts
        self.ends = {}       # (part, end) -> descriptor tuple
        self.x0 = []
        self.bounds = []
        bind_of = {(b.part, b.end): b for b in cset.binds}
        rotate_of = {b.part: b for b in cset.binds if b.kind == "rotate"}
        for pid in sorted(cset.moving):
            st = parts[pid]
            if pid in rotate_of:
                b = rotate_of[pid]
                pivot = np.asarray(b.pivot, dtype=float)
                s0 = b.pivot_param
                slot = len(self.x0)
                d0 = st.segment[1] - st.segment[0]
                self.x0.extend(d0.tolist())
                self.bounds.extend([(None, None)] * 3)
                self.ends[(pid, 0)] = ("rotate", pivot, -s0, slot)
                self.ends[(pid, 1)] = ("rotate", pivot, 1.0 - s0, slot)
                continue
            for end in (0, 1):
                b = bind_of.get((pid, end))
                if b is None:
                    slot = len(self.x0)
                    self.x0.extend(st.segment[end].tolist())
                    self.bounds.extend([(None, None)] * 3)
                    self.ends[(pid, end)] = ("free", slot)
                else:
                    host = parts[b.host].segment
                    h0, h1 = host[0], host[1]
                    d = h0 - h1
                    denom = float(d @ d)
                    t0 = float((st.segment[end] - h1) @ d) / denom if denom > 0 else 0.5
                    slot = len(self.x0)
                    self.x0.append(min(max(t0, 0.0), 1.0))
                    self.bounds.append((0.0, 1.0))
                    self.ends[(pid, end)] = ("slide", (h0, h1), slot)
        self.x0 = np.asarray(self.x0, dtype=float)

    def endpoint(self, x, pid, end):
        key = (pid, end)
        if key not in self.ends:
            return self.parts[pid].segment[end]
        kind = self.ends[key]
        if kind[0] == "rotate":
            _, pivot, coef, slot = kind
            return pivot + coef * x[slot:slot + 3]
        if kind[0] == "slide":
            (h0, h1), slot = kind[1], kind[2]
            t = x[slot]
            return t * h0 + (1.0 - t) * h1
        return x[kind[1]:kind[1] + 3]

    def segments(self, x):
        segs = {pid: st.segment.copy() for pid, st in self.parts.items()}
        for (pid, end) in self.ends:
            segs[pid][end] = self.endpoint(x, pid, end)
        return segs

    def add_grad(self, grad, x, pid, end, g_world):
        key = (pid, end)
        if key not in self.ends:
            return
        kind = self.ends[key]
        if kind[0] == "rotate":
            _, _, coef, slot = kind
            grad[slot:slot + 3] += coef * g_world
        elif kind[0] == "slide":
            (h0, h1), slot = kind[1], kind[2]
            grad[slot] += float(g_world @ (h0 - h1))
        else:
            slot = kind[1]
            grad[slot:slot + 3] += g_world

    def slide_params(self, x):
        out = {}
        for (pid, end), kind in self.ends.items():
            if kind[0] == "slide":
                out[(pid, end)] = float(x[kind[2]])
        return out


def _angle_term(a_i, b_i, a_j, b_j, target):
    """(theta - target)^2 in degrees^2 plus gradients wrt the 4 endpoints."""
    di = b_i - a_i
    dj = b_j - a_j
    li = np.linalg.norm(di)
    lj = np.linalg.norm(dj)
    if li < 1e-12 or lj < 1e-12:
        return 0.0, [np.zeros(3)] * 4
    ui = di / li
    uj = dj / lj
    c = float(ui @ uj)
    cc = min(abs(c), 1.0)
    theta = np.degrees(np.arccos(cc))
    diff = theta - target
    val = diff * diff
    s2 = 1.0 - c * c
    if s2 < 1e-18:
        return val, [np.zeros(3)] * 4
    dtheta_dc = -(180.0 / np.pi) * np.sign(c) / np.sqrt(s2)
    coef = 2.0 * diff * dtheta_dc
    g_bi = coef * (uj - c * ui) / li
    g_bj = coef * (ui - c * uj) / lj
    return val, [-g_bi, g_bi, -g_bj, g_bj]   # a_i, b_i, a_j, b_j


def make_objective(cset: ConstraintSet, constraints, parts: dict,
                   w_l=ANGLE_WEIGHT_LENGTH, w_r=ANGLE_WEIGHT_REPULSE,
                   sigma=REPULSE_SIGMA):
    """Returns (layout, fun) with fun(x) -> (value, gradient).

    Terms: squared target-angle error for every constrained edge, length
    preservation for rotating parts, and repulsion between parts sliding on
    the same two hosts (endpoints paired by host).
    """
    layout = _Layout(cset, parts)
    targets = {c.edge: c.target for c in constraints}
    rotating = sorted({b.part for b in cset.binds if b.kind == "rotate"})
    ref_len2 = {pid: float(((parts[pid].segment[1] - parts[pid].segment[0]) ** 2).sum())
                for pid in rotating}

    # repulsion pairs: parts with two slide binds onto the same host pair
    slide_hosts = {}
    for b in cset.binds:
        if b.kind == "slide":
            slide_hosts.setdefault(b.part, {})[b.host] = b.end
    sliders = {pid: hosts for pid, hosts in slide_hosts.items() if len(hosts) == 2}
    rep_pairs = []
    for m, n in itertools.combinations(sorted(sliders), 2):
        if set(sliders[m]) == set(sliders[n]):
            pairing = [(sliders[m][h], sliders[n][h]) for h in sorted(sliders[m])]
            rep_pairs.append((m, n, pairing))

    def fun(x):
        val = 0.0
        grad = np.zeros_like(x)
        ends = {}

        def endpoint(pid, end):
            if (pid, end) not in ends:
                ends[(pid, end)] = np.asarray(layout.endpoint(x, pid, end), dtype=float)
            return ends[(pid, end)]

        for (i, j), target in targets.items():
            a_i, b_i = endpoint(i, 0), endpoint(i, 1)
            a_j, b_j = endpoint(j, 0), endpoint(j, 1)
            v, gs = _angle_term(a_i, b_i, a_j, b_j, target)
            val += v
            for (pid, end), g in zip(((i, 0), (i, 1), (j, 0), (j, 1)), gs):
                layout.add_grad(grad, x, pid, end, g)

        for pid in rotating:
            d = endpoint(pid, 1) - endpoint(pid, 0)
            l2 = float(d @ d)
            diff = l2 - ref_len2[pid]
            val += w_l * diff * diff
            g = w_l * 4.0 * diff * d
            layout.add_grad(grad, x, pid, 1, g)
            layout.add_grad(grad, x, pid, 0, -g)

        for m, n, pairing in rep_pairs:
            e_m = [endpoint(m, em) for em, _ in pairing]
            e_n = [endpoint(n, en) for _, en in pairing]
            diffs = [e_m[k] - e_n[k] for k in range(2)]
            exps = [np.exp(-float(d @ d) / sigma ** 2) for d in diffs]
            val += w_r * exps[0] * exps[1]
            for k in range(2):
                g = w_r * exps[0] * exps[1] * (-2.0 / sigma ** 2) * diffs[k]
                layout.add_grad(grad, x, m, pairing[k][0], g)
                layout.add_grad(grad, x, n, pairing[k][1], -g)
        return val, grad

    return layout, fun


# ---------------------------------------------------------------------------
# geometric bookkeeping after a solve
# ---------------------------------------------------------------------------

def segment_distance(p0, p1, q0, q1):
    """Distance between segments plus the closest points."""
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    if a <= 1e-18 and e <= 1e-18:
        return float(np.linalg.norm(r)), p0.copy(), q0.copy()
    if a <= 1e-18:
        t = np.clip(f / e, 0.0, 1.0)
        s = 0.0
    else:
        c = float(d1 @ r)
        if e <= 1e-18:
            t = 0.0
            s = np.clip(-c / a, 0.0, 1.0)
        else:
            b = float(d1 @ d2)
            den = a * e - b * b
            s = np.clip((b * f - c * e) / den, 0.0, 1.0) if den > 1e-18 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t = 1.0
                s = np.clip((b - c) / a, 0.0, 1.0)
    cp = p0 + s * d1
    cq = q0 + t * d2
    return float(np.linalg.norm(cp - cq)), cp, cq


def _point_box_distance(points, box):
    local = np.abs(box.to_local(points)) - box.half_extents
    outside = np.maximum(local, 0.0)
    return np.sqrt((outside * outside).sum(axis=1))


def _pair_distance(parts, segments, i, j, moving, samples=17):
    """Distance between two parts' stand-ins plus a contact location.

    Moving parts are their (current) segments; static parts use their box
    surface when one is attached, which keeps rod-to-board contacts honest.
    Returns (distance, contact_point, radius_sum) where radius_sum is the
    surface allowance for the segment-only sides.
    """
    use_box_i = parts[i].box is not None and i not in moving
    use_box_j = parts[j].box is not None and j not in moving
    si, sj = segments[i], segments[j]
    if use_box_i and not use_box_j:
        ts = np.linspace(0.0, 1.0, samples)
        pts = sj[0][None, :] + ts[:, None] * (sj[1] - sj[0])[None, :]
        d = _point_box_distance(pts, parts[i].box)
        k = int(np.argmin(d))
        return float(d[k]), pts[k], 0.5 * parts[j].thickness
    if use_box_j and not use_box_i:
        d, cp, radius = _pair_distance(parts, segments, j, i, moving, samples)
        return d, cp, radius
    if use_box_i and use_box_j:
        # both static boxes: contact state cannot have changed
        d, cp, cq = segment_distance(si[0], si[1], sj[0], sj[1])
        return d, 0.5 * (cp + cq), 0.0
    d, cp, cq = segment_distance(si[0], si[1], sj[0], sj[1])
    return d, 0.5 * (cp + cq), 0.5 * (parts[i].thickness + parts[j].thickness)


def _survival(cset, segments, parts, graph, d_c, keep_slack=KEEP_SLACK):
    """Classify contacts after a solve: kept / dropped / new, plus support
    points for the no-hanging check."""
    bound = {b.edge for b in cset.binds}
    before = {pid: st.segment for pid, st in parts.items()}
    z_ground = min(min(s[0][2], s[1][2]) for s in before.values())
    moving = cset.moving

    kept, dropped, new = [], [], []
    supports = {pid: [] for pid in parts}

    part_edge_keys = set()
    for e in graph.part_edges():
        i, j = e.key()
        part_edge_keys.add((i, j))
        if i not in parts or j not in parts:
            continue
        if i not in moving and j not in moving:
            kept.append((i, j))
            supports[i].append(np.asarray(e.contact_point))
            supports[j].append(np.asarray(e.contact_point))
            continue
        if (i, j) in bound:
            kept.append((i, j))
            for b in cset.binds:
                if b.edge == (i, j):
                    pos = b.pivot if b.kind == "rotate" else segments[b.part][b.end]
                    supports[b.part].append(np.asarray(pos))
                    supports[b.host].append(np.asarray(pos))
            continue
        d_before, _, _ = _pair_distance(parts, before, i, j, moving)
        d_after, cp, _ = _pair_distance(parts, segments, i, j, moving)
        if d_after <= d_before + keep_slack:
            kept.append((i, j))
            supports[i].append(cp)
            supports[j].append(cp)
        else:
            dropped.append((i, j))

    # ground contacts
    dropped_ground = []
    for e in graph.ground_edges():
        pid = e.i
        if pid not in parts:
            continue
        zb = min(before[pid][0][2], before[pid][1][2]) - z_ground
        za = min(segments[pid][0][2], segments[pid][1][2]) - z_ground
        if pid not in moving or za <= zb + keep_slack:
            low = segments[pid][int(segments[pid][1][2] < segments[pid][0][2])]
            supports[pid].append(np.array([low[0], low[1], z_ground]))
        else:
            dropped_ground.append(pid)

    # new contacts between a moving part and anything else
    for i, j in itertools.combinations(sorted(parts), 2):
        if (i, j) in part_edge_keys:
            continue
        if i not in moving and j not in moving:
            continue
        d_after, cp, radius = _pair_distance(parts, segments, i, j, moving)
        if d_after <= NEW_CONTACT_FACTOR * radius + d_c:
            new.append((i, j))
            supports[i].append(cp)
            supports[j].append(cp)

    no_hanging = True
    for pid in moving:
        pts = supports[pid]
        distinct = []
        for p in pts:
            if all(np.linalg.norm(p - q) > 1e-6 for q in distinct):
                distinct.append(p)
        if len(distinct) < 2:
            no_hanging = False
            break
    return kept, dropped, new, dropped_ground, no_hanging


def optimize_configuration(cset: ConstraintSet, constraints, parts: dict,
                           graph: ContactGraph, db=None, materials=None,
                           d_c=0.01, max_iters=500, gtol=1e-8) -> Configuration:
    """Solve one constraint set by projected gradient (L-BFGS-B with box
    bounds on the slide parameters) from the current configuration."""
    targets = {c.edge: c.target for c in constraints}
    if not cset.binds:
        return replace(all_rigid_configuration(constraints, parts, db, materials),
                       index=cset.index)

    layout, fun = make_objective(cset, constraints, parts)
    if len(layout.x0) == 0:
        # every moving endpoint is pinned: nothing to optimize
        x = layout.x0
        opt_value, _ = fun(x)
        converged = True
    else:
        res = minimize(fun, layout.x0, jac=True, method="L-BFGS-B",
                       bounds=layout.bounds,
                       options={"maxiter": max_iters, "gtol": gtol, "ftol": 1e-18})
        if not res.success and "ITERATIONS" not in str(res.message).upper():
            logger.warning("configuration %d: optimizer stopped: %s",
                           cset.index, res.message)
        x = res.x
        opt_value = float(res.fun)
        converged = bool(res.success)

    segments = layout.segments(x)
    kept, dropped, new, dropped_ground, no_hanging = _survival(
        cset, segments, parts, graph, d_c)
    kept_set = set(kept)
    report = _feasibility_report(segments, targets, parts, materials, db,
                                 restrict=kept_set)
    objective = sum(r["error_sq"] for r in report if tuple(r["edge"]) in kept_set)
    return Configuration(
        index=cset.index, segments=segments,
        slide_params=layout.slide_params(x),
        objective=float(objective), opt_value=opt_value,
        converged=converged, dropped_edges=dropped, new_contacts=new,
        kept_edges=kept, feasibility_report=report,
        moved_parts=sorted(cset.moving), no_hanging_ok=no_hanging,
        dropped_ground=dropped_ground)


def _segment_angle(seg_i, seg_j):
    u = seg_i[1] - seg_i[0]
    v = seg_j[1] - seg_j[0]
    if np.linalg.norm(u) < 1e-12 or np.linalg.norm(v) < 1e-12:
        return None
    return fold_angle_deg(u, v)


def _feasibility_report(segments, targets, parts, materials, db, restrict=None):
    out = []
    for edge, target in sorted(targets.items()):
        i, j = edge
        ang = _segment_angle(segments[i], segments[j])
        err = (ang - target) ** 2 if ang is not None else 0.0
        feas = None
        if db is not None and materials is not None and ang is not None:
            mat = materials[i]
            if mat == materials[j] and mat.value in db.histograms:
                feas = db.histograms[mat.value].feasibility(ang)
        out.append({"edge": list(edge), "angle": ang, "target": target,
                    "error_sq": float(err), "feasibility": feas,
                    "kept": restrict is None or edge in restrict})
    return out


def select_best_configuration(configs: list, tie_tol=1e-9) -> Configuration:
    """Minimum objective among no-hanging configurations; ties go to fewer
    dropped contacts, then the smaller enumeration index."""
    if not configs:
        raise ValueError("no configurations")
    valid = [c for c in configs if c.no_hanging_ok]
    if not valid:
        raise ValueError("no configuration satisfies the support rule")
    best_obj = min(c.objective for c in valid)
    tied = [c for c in valid if c.objective <= best_obj + tie_tol * max(1.0, abs(best_obj))]
    tied.sort(key=lambda c: (len(c.dropped_edges) + len(c.dropped_ground), c.index))
    return tied[0]


def all_rigid_configuration(constraints, parts: dict, db=None, materials=None) -> Configuration:
    """Unchanged-geometry fallback when enumeration yields nothing."""
    segments = {pid: st.segment.copy() for pid, st in parts.items()}
    targets = {c.edge: c.target for c in constraints}
    report = _feasibility_report(segments, targets, parts, materials, db)
    obj = sum(r["error_sq"] for r in report)
    return Configuration(index=-1, segments=segments, slide_params={},
                         objective=float(obj), opt_value=float(obj), converged=True,
                         dropped_edges=[], new_contacts=[],
                         kept_edges=[c.edge for c in constraints],
                         feasibility_report=report, moved_parts=[],
                         no_hanging_ok=True)
