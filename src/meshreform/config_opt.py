"""Material-aware configuration optimization.

Parts are abstracted to line segments. Contacts between two linear parts
whose angle is implausible for the material (low histogram feasibility) get
a target angle; every valid slide/rotate choice for those edges is
enumerated, and the configuration with the smallest post-solve angle error
over surviving contacts wins, the unmoved model included. Contacts a moving
part slides away from are dropped (topology change); moved parts must retain
at least two distinct contact points, counting the ground.

Choices are solved by gradient-based minimization of the
angle/length/repulsion objective in order of a lower bound on their
selection objective, the unmoved model's angle error over the constrained
edges with no moving endpoint (branch and bound). The walk stops at the
first bound above the best supported objective's tie threshold, or once the
selection so far drops no contact, ties the smaller of that objective and
the next bound, and has a smaller index than every set left that could
tie: under the tie-break "fewest dropped, then index" no set left can then
change the selection. A change to the tie-break must re-prove the second
stop or remove it. On the benchmark's reform-to-wood requests (seeds 1-2,
rounds 0-11) the walk solves 1023 of the 5094 enumerated sets (2070 with
the first stop alone).

Each configuration keeps its squared angle error per constrained edge;
``_score`` sums them into the objective and the bound, and proves the
bound. The feasibility report is built once, for the selection only.
"""

import itertools
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .database import FEASIBILITY_THRESHOLD, AngleHistogram
from .graphs import DEFAULT_CONTACT_DISTANCE, ContactGraph, fold_angle_deg
from .mesh import Material

logger = logging.getLogger(__name__)

ANGLE_WEIGHT_LENGTH = 1.0     # w_l
ANGLE_WEIGHT_REPULSE = 0.1    # w_r
REPULSE_SIGMA = 0.05
ENUMERATION_CAP = 4096
KEEP_SLACK = 0.01
NEW_CONTACT_FACTOR = 1.5
END_ZONE = 0.35               # fraction of length counting as "at an end"
SOLVER_MAX_ITERS = 500
SOLVER_GTOL = 1e-8
TIE_TOL = 1e-9                # relative objective tolerance of a selection tie
BOX_CONTACT_SAMPLES = 17      # segment samples against a static part's box


@dataclass
class PartState:
    """Line abstraction of a part for this stage. ``box`` (when given) makes
    contact bookkeeping for non-elongated parts use the box surface instead
    of the degenerate centerline."""

    segment: np.ndarray          # (2, 3)
    thickness: float
    material: Material
    box: object = None           # optional OrientedBox

    def length(self):
        return float(np.linalg.norm(self.segment[1] - self.segment[0]))


@dataclass
class AngleConstraint:
    edge: tuple                  # (i, j), i < j
    angle: float
    target: float
    feasibility: float


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


@dataclass
class Configuration:
    index: int
    segments: dict               # part id -> (2, 3) final segment
    errors: dict                 # constrained edge -> squared angle error, sorted edges
    objective: float             # selection objective: _score(errors, dropped_edges)
    opt_value: float             # optimizer objective at the solution
    converged: bool
    dropped_edges: list
    new_contacts: list
    moved_parts: list
    no_hanging_ok: bool
    dropped_ground: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# feasibility assessment
# ---------------------------------------------------------------------------

def assess_angle_feasibility(graph: ContactGraph, parts: dict, db) -> list:
    """Constraints for same-material angled edges whose histogram
    feasibility falls below ``FEASIBILITY_THRESHOLD``; the target is the
    center of the nearest feasible bin (ties toward the larger angle).

    Only edges between two linear parts (``PartState.box is None``) are
    constrained: there the contact angle is the segment angle that the
    solve and the selection score. An infeasible edge with a curvilinear
    side is logged and left unconstrained."""
    constraints = []
    for e in graph.part_edges():
        if e.angle is None:
            continue
        mi, mj = parts[e.i].material, parts[e.j].material
        if mi != mj or mi not in (Material.WOOD, Material.METAL):
            continue
        hist = db.histograms.get(mi.value)
        if hist is None or hist.total == 0:
            raise ValueError(f"empty angle histogram for {mi.value}")
        feas = hist.feasibility(e.angle)
        if feas >= FEASIBILITY_THRESHOLD:
            continue
        if parts[e.i].box is not None or parts[e.j].box is not None:
            logger.warning("edge %s: curvilinear side; angle left unconstrained",
                           e.key())
            continue
        freqs = hist.smoothed_frequencies()
        centers = np.array([AngleHistogram.bin_center(k) for k in range(len(freqs))])
        ok = np.flatnonzero(freqs >= FEASIBILITY_THRESHOLD)
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
                          repetition=None) -> set:
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
            if np.linalg.norm(st.segment[k] - cp) <= END_ZONE * max(length, 1e-12):
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


def _clashes(b: Bind, chosen, contact_pairs) -> bool:
    """True when bind ``b`` breaks a rule together with one of ``chosen``."""
    for a in chosen:
        if a.part == b.part:
            # one bind per part end, a rotating part owns both its ends, and
            # the two ends do not slide on mutually contacting hosts
            if a.end == b.end or "rotate" in (a.kind, b.kind) or \
                    (min(a.host, b.host), max(a.host, b.host)) in contact_pairs:
                return True
        elif a.host == b.part or b.host == a.part:    # hosts stay static
            return True
    return False


def enumerate_configurations(constraints, graph: ContactGraph, parts: dict,
                             fixed: set, cap=ENUMERATION_CAP) -> list:
    """All valid slide/rotate assignments over the constrained edges.

    Per edge the options are rigid / i slides on j / i rotates pinned /
    j slides on i / j rotates pinned, filtered by the fixed set. A set is
    valid when no (part, end) is bound twice, a rotating part has no second
    bind, every bind host stays static, a part's two ends never slide on
    mutually contacting hosts, every moving part has at least two potential
    supports, and at least one bind exists. A set that breaks a rule breaks
    it in every superset, so the depth-first walk over the edges in sorted
    order drops a bind as soon as it clashes with one already chosen; sets
    come out in the order of the full product of options, up to ``cap``;
    a warning says when a valid set beyond ``cap`` was left out.
    """
    if not constraints:
        raise ValueError("no constraints to enumerate")
    edges = sorted(c.edge for c in constraints)
    per_edge = []
    for (i, j) in edges:
        opts = [("rigid", None)]
        for option, mover in (("slide_i", i), ("rotate_i", i),
                              ("slide_j", j), ("rotate_j", j)):
            if mover not in fixed and graph.degree(mover) >= 2:
                opts.append((option, _make_bind(option, (i, j), parts, graph)))
        per_edge.append(opts)
    contact_pairs = {(min(e.i, e.j), max(e.i, e.j)) for e in graph.part_edges()}
    out = []

    def extend(chosen):
        """Append the valid completions of ``chosen``, an (option, bind or
        None) pair per edge so far; False once a valid set beyond ``cap``
        turns up."""
        binds = [b for _, b in chosen if b is not None]
        if len(chosen) == len(edges):
            if binds:
                if len(out) == cap:         # a (cap + 1)-th valid set exists
                    return False
                out.append(ConstraintSet(index=len(out),
                                         options=dict(zip(edges, (o for o, _ in chosen))),
                                         binds=binds, moving={b.part for b in binds}))
            return True
        return all(extend(chosen + [(option, b)])
                   for option, b in per_edge[len(chosen)]
                   if b is None or not _clashes(b, binds, contact_pairs))

    if not extend([]):
        logger.warning("enumeration truncated at %d sets", cap)
    return out


# ---------------------------------------------------------------------------
# objective with analytic gradient
# ---------------------------------------------------------------------------

class _Layout:
    """The affine map ``E = M x + c`` from the variable vector to every
    part's endpoints (``M`` is (parts, 2, 3, variables), ``c`` is
    (parts, 2, 3)).

    * free end: three coordinates ``x[s:s+3]``.
    * slide end: one scalar t in [0, 1], the endpoint ``h1 + t (h0 - h1)``
      on the host segment.
    * rotate: the whole part is one direction vector d about the pivot,
      endpoints at ``pivot - s0 d`` and ``pivot + (1 - s0) d`` where s0 is
      the pivot's original parameter along the segment (so the contact point
      stays on the part while it swings).
    * static end: a constant.
    """

    def __init__(self, cset: ConstraintSet, parts: dict):
        self.row = {pid: k for k, pid in enumerate(parts)}
        self.c = np.array([st.segment for st in parts.values()], dtype=float)
        self.x0 = []
        self.bounds = []
        blocks = []          # (row, end, first variable, (3, width) block of M)
        bind_of = {(b.part, b.end): b for b in cset.binds}
        rotate_of = {b.part: b for b in cset.binds if b.kind == "rotate"}
        for pid in sorted(cset.moving):
            k = self.row[pid]
            seg = parts[pid].segment
            if pid in rotate_of:
                b = rotate_of[pid]
                slot = len(self.x0)
                s0 = b.pivot_param
                self.x0.extend((seg[1] - seg[0]).tolist())
                self.bounds.extend([(None, None)] * 3)
                self.c[k] = b.pivot
                blocks += [(k, 0, slot, -s0 * np.eye(3)),
                           (k, 1, slot, (1.0 - s0) * np.eye(3))]
                continue
            for end in (0, 1):
                b = bind_of.get((pid, end))
                slot = len(self.x0)
                if b is None:
                    self.x0.extend(seg[end].tolist())
                    self.bounds.extend([(None, None)] * 3)
                    self.c[k, end] = 0.0
                    blocks.append((k, end, slot, np.eye(3)))
                else:
                    h0, h1 = parts[b.host].segment
                    d = h0 - h1
                    denom = float(d @ d)
                    t0 = float((seg[end] - h1) @ d) / denom if denom > 0 else 0.5
                    self.x0.append(min(max(t0, 0.0), 1.0))
                    self.bounds.append((0.0, 1.0))
                    self.c[k, end] = h1
                    blocks.append((k, end, slot, d[:, None]))
        self.x0 = np.asarray(self.x0, dtype=float)
        self.M = np.zeros(self.c.shape + (len(self.x0),))
        for k, end, slot, block in blocks:
            self.M[k, end, :, slot:slot + block.shape[1]] = block

    def segments(self, x):
        ends = self.M @ x + self.c
        return {pid: ends[k] for pid, k in self.row.items()}


def make_objective(cset: ConstraintSet, constraints, parts: dict):
    """Returns (layout, fun) with fun(x) -> (value, gradient).

    Terms: squared target-angle error for every constrained edge, length
    preservation for rotating parts, and repulsion between parts sliding on
    the same two hosts (endpoints paired by host). Each term reads
    differences of two endpoints: segment directions for the angle and
    length terms, the gaps between paired endpoints for repulsion. These
    rows are affine in x too, ``y = L x + offset`` with ``L`` taken from the
    layout's ``M``, so the gradient is ``L^T G`` for the rows' gradients G.
    """
    layout = _Layout(cset, parts)
    targets = {c.edge: c.target for c in constraints}
    rotating = sorted({b.part for b in cset.binds if b.kind == "rotate"})
    ref_len2 = np.array([((parts[pid].segment[1] - parts[pid].segment[0]) ** 2).sum()
                         for pid in rotating])

    # repulsion pairs: parts with two slide binds onto the same host pair
    slide_hosts = {}
    for b in cset.binds:
        if b.kind == "slide":
            slide_hosts.setdefault(b.part, {})[b.host] = b.end
    sliders = {pid: hosts for pid, hosts in slide_hosts.items() if len(hosts) == 2}
    gaps = []            # ((m, end), (n, end)) for every paired endpoint
    for m, n in itertools.combinations(sorted(sliders), 2):
        if set(sliders[m]) == set(sliders[n]):
            gaps += [((m, sliders[m][h]), (n, sliders[n][h])) for h in sorted(sliders[m])]

    # rows of y: directions of both sides of every constrained edge, then of
    # the rotating parts, then the repulsion gaps; each row is E[plus] - E[minus]
    directions = [i for i, _ in targets] + [j for _, j in targets] + rotating
    rows = [((pid, 1), (pid, 0)) for pid in directions] + gaps
    flat = [(2 * layout.row[p] + e, 2 * layout.row[q] + f) for (p, e), (q, f) in rows]
    plus, minus = np.array(flat, dtype=int).reshape(-1, 2).T
    n_x = len(layout.x0)
    M = layout.M.reshape(-1, 3, n_x)
    c = layout.c.reshape(-1, 3)
    L = (M[plus] - M[minus]).reshape(-1, n_x)
    offset = (c[plus] - c[minus]).ravel()
    target = np.array(list(targets.values()), dtype=float)
    n_e = len(targets)
    lengths = slice(2 * n_e, 2 * n_e + len(rotating))
    repulse = slice(lengths.stop, None)
    inv_s2 = 1.0 / REPULSE_SIGMA ** 2

    def fun(x):
        y = (L @ x + offset).reshape(-1, 3)
        g = np.zeros_like(y)

        # angle terms, the two sides of edge k in d[0, k] and d[1, k]; a term
        # with a segment shorter than 1e-12 is left out, and parallel
        # segments (1 - c^2 < 1e-18) add their value but no gradient
        d = y[:2 * n_e].reshape(2, n_e, 3)
        length = np.sqrt(np.einsum("sij,sij->si", d, d))
        ok = (length >= 1e-12).all(axis=0)
        length = np.where(ok, length, 1.0)[..., None]
        u = d / length
        cos = np.einsum("ij,ij->i", u[0], u[1])
        theta = np.degrees(np.arccos(np.minimum(np.abs(cos), 1.0)))
        diff = np.where(ok, theta - target, 0.0)
        val = float(diff @ diff)
        s2 = 1.0 - cos * cos
        live = s2 >= 1e-18
        dtheta_dc = -(180.0 / np.pi) * np.sign(cos) / np.sqrt(np.where(live, s2, 1.0))
        coef = np.where(live, 2.0 * diff * dtheta_dc, 0.0)[:, None]
        g[:2 * n_e] = (coef * (u[::-1] - cos[:, None] * u) / length).reshape(-1, 3)

        if rotating:        # length preservation
            dr = y[lengths]
            dl = np.einsum("ij,ij->i", dr, dr) - ref_len2
            val += ANGLE_WEIGHT_LENGTH * float(dl @ dl)
            g[lengths] = (4.0 * ANGLE_WEIGHT_LENGTH) * dl[:, None] * dr

        if gaps:            # w_r exp(-(|gap_0|^2 + |gap_1|^2) / sigma^2) per pair
            gap = y[repulse].reshape(-1, 2, 3)
            rep = ANGLE_WEIGHT_REPULSE * np.exp(-np.einsum("kij,kij->k", gap, gap) * inv_s2)
            val += float(rep.sum())
            g[repulse] = ((-2.0 * inv_s2) * rep[:, None, None] * gap).reshape(-1, 3)
        return val, L.T @ g.ravel()

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


def _pair_distance(parts, segments, i, j):
    """Distance between two parts' stand-ins plus a contact location, for a
    pair of which at least one part moves.

    Parts are their (current) segments; a part with a box (never a mover:
    only edges between two box-less parts are constrained) uses the box
    surface, which keeps rod-to-board contacts honest. Returns (distance,
    contact_point, radius_sum) where radius_sum is the surface allowance for
    the segment-only sides.
    """
    use_box_i = parts[i].box is not None
    use_box_j = parts[j].box is not None
    si, sj = segments[i], segments[j]
    if use_box_i and not use_box_j:
        ts = np.linspace(0.0, 1.0, BOX_CONTACT_SAMPLES)
        pts = sj[0][None, :] + ts[:, None] * (sj[1] - sj[0])[None, :]
        d = _point_box_distance(pts, parts[i].box)
        k = int(np.argmin(d))
        return float(d[k]), pts[k], 0.5 * parts[j].thickness
    if use_box_j and not use_box_i:
        return _pair_distance(parts, segments, j, i)
    d, cp, cq = segment_distance(si[0], si[1], sj[0], sj[1])
    return d, 0.5 * (cp + cq), 0.5 * (parts[i].thickness + parts[j].thickness)


def _survival(cset, segments, parts, graph, d_c):
    """Classify contacts after a solve: dropped / new, plus support points
    for the no-hanging check."""
    bound = {b.edge for b in cset.binds}
    before = {pid: st.segment for pid, st in parts.items()}
    z_ground = min(min(s[0][2], s[1][2]) for s in before.values())
    moving = cset.moving

    dropped, new = [], []
    supports = {pid: [] for pid in parts}

    part_edge_keys = set()
    for e in graph.part_edges():
        i, j = e.key()
        part_edge_keys.add((i, j))
        if i not in parts or j not in parts:
            continue
        if i not in moving and j not in moving:
            supports[i].append(np.asarray(e.contact_point))
            supports[j].append(np.asarray(e.contact_point))
            continue
        if (i, j) in bound:
            for b in cset.binds:
                if b.edge == (i, j):
                    pos = b.pivot if b.kind == "rotate" else segments[b.part][b.end]
                    supports[b.part].append(np.asarray(pos))
                    supports[b.host].append(np.asarray(pos))
            continue
        d_before, _, _ = _pair_distance(parts, before, i, j)
        d_after, cp, _ = _pair_distance(parts, segments, i, j)
        if d_after <= d_before + KEEP_SLACK:
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
        if pid not in moving or za <= zb + KEEP_SLACK:
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
        d_after, cp, radius = _pair_distance(parts, segments, i, j)
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
    return dropped, new, dropped_ground, no_hanging


def optimize_configuration(cset: ConstraintSet, constraints, parts: dict,
                           graph: ContactGraph,
                           d_c=DEFAULT_CONTACT_DISTANCE) -> Configuration:
    """Solve one constraint set from the current configuration by L-BFGS-B
    over the affine endpoint map, with box bounds [0, 1] on the slide
    parameters."""
    layout, fun = make_objective(cset, constraints, parts)
    res = minimize(fun, layout.x0, jac=True, method="L-BFGS-B", bounds=layout.bounds,
                   options={"maxiter": SOLVER_MAX_ITERS, "gtol": SOLVER_GTOL,
                            "ftol": 1e-18})
    if not res.success and "ITERATIONS" not in str(res.message).upper():
        logger.warning("configuration %d: optimizer stopped: %s",
                       cset.index, res.message)

    segments = layout.segments(res.x)
    dropped, new, dropped_ground, no_hanging = _survival(
        cset, segments, parts, graph, d_c)
    errors = _angle_errors(segments, constraints)
    return Configuration(
        index=cset.index, segments=segments, errors=errors,
        objective=_score(errors, dropped), opt_value=float(res.fun),
        converged=bool(res.success), dropped_edges=dropped, new_contacts=new,
        moved_parts=sorted(cset.moving), no_hanging_ok=no_hanging,
        dropped_ground=dropped_ground)


def _segment_angle(seg_i, seg_j):
    u = seg_i[1] - seg_i[0]
    v = seg_j[1] - seg_j[0]
    if np.linalg.norm(u) < 1e-12 or np.linalg.norm(v) < 1e-12:
        return None
    return fold_angle_deg(u, v)


def _angle_errors(segments, constraints) -> dict:
    """Squared angle error per constrained edge on ``segments``, keyed in
    sorted edge order; 0.0 where a segment degenerates."""
    errors = {}
    for edge, target in sorted({c.edge: c.target for c in constraints}.items()):
        ang = _segment_angle(segments[edge[0]], segments[edge[1]])
        errors[edge] = 0.0 if ang is None else float((ang - target) ** 2)
    return errors


def _score(errors, left_out=()) -> float:
    """The squared angle errors of the constrained edges not in
    ``left_out``, summed in sorted edge order. A configuration's objective
    leaves out its dropped edges; ``objective_lower_bound`` leaves out of
    the unmoved model's score every edge with a moving endpoint. A set keeps
    those other edges with their original segments, so the bound sums a
    subset of its objective's nonnegative terms in the same order, and
    adding such terms never lowers a rounded sum. A new score must keep
    these properties, or the bound no longer holds."""
    return float(sum(err for edge, err in errors.items() if edge not in left_out))


def _feasibility_report(config: Configuration, constraints, parts: dict, db) -> list:
    """Per constrained edge of ``config``, in sorted order: angle, target,
    squared error, the histogram feasibility of the angle in the material
    both sides share (``assess_angle_feasibility`` checked it), and kept."""
    targets = {c.edge: c.target for c in constraints}
    report = []
    for edge, error in config.errors.items():
        i, j = edge
        ang = _segment_angle(config.segments[i], config.segments[j])
        feas = None if ang is None else \
            db.histograms[parts[i].material.value].feasibility(ang)
        report.append({"edge": list(edge), "angle": ang, "target": targets[edge],
                       "error_sq": error, "feasibility": feas,
                       "kept": edge not in config.dropped_edges})
    return report


def objective_lower_bound(cset: ConstraintSet, unmoved: Configuration) -> float:
    """A lower bound on ``cset``'s selection objective: the ``unmoved``
    configuration's score without the constrained edges that touch
    ``cset.moving`` (see ``_score``)."""
    return _score(unmoved.errors,
                  [edge for edge in unmoved.errors if not cset.moving.isdisjoint(edge)])


def _tie_threshold(objective):
    """The largest objective that ties ``objective`` in the selection."""
    return objective + TIE_TOL * max(1.0, abs(objective))


def solve_in_bound_order(sets, constraints, parts: dict, graph: ContactGraph,
                         unmoved: Configuration,
                         d_c=DEFAULT_CONTACT_DISTANCE) -> list:
    """Solve the sets that can still change the selection, in order of
    (``objective_lower_bound``, index), and return them in index order.

    ``best`` is the smallest objective of any supported configuration so
    far, starting from ``unmoved``; the leader is the selection among
    ``unmoved`` and the sets solved so far. Every remaining objective is at
    least the next set's bound, since bounds only grow along the order. The
    walk stops before the next set when no remaining set can change the
    selection, that is when
    * its bound exceeds ``best``'s tie threshold: no remaining set can be
      selected or tie with the selection, whose objective is at most
      ``best``; or
    * the leader drops nothing, its objective ties the smaller of ``best``
      and the bound, so it stays in the final tie set whatever the
      remaining sets score, and its index is below that of every remaining
      set whose bound ties ``best``, so none of them can precede it under
      "fewest dropped, then index".
    The second stop rests on that tie-break: a key known only after a solve
    (least motion, say) must re-prove it or remove it. Neither is a per-set
    skip: the tie window is not transitive, so an unsolved set with a lower
    objective could push solved sets out of the tie set. Solves share no
    state, so their order does not change their results."""
    best = unmoved.objective
    solved = []
    order = sorted(((objective_lower_bound(s, unmoved), s) for s in sets),
                   key=lambda pair: (pair[0], pair[1].index))
    for k, (bound, cset) in enumerate(order):
        threshold = _tie_threshold(best)
        leader = select_best_configuration([unmoved] + solved)
        if bound > threshold or (
                not (leader.dropped_edges or leader.dropped_ground)
                and leader.objective <= _tie_threshold(min(best, bound))
                and all(leader.index < rest.index for _, rest in
                        itertools.takewhile(lambda pair: pair[0] <= threshold, order[k:]))):
            break
        config = optimize_configuration(cset, constraints, parts, graph, d_c=d_c)
        if config.no_hanging_ok:
            best = min(best, config.objective)
        solved.append(config)
    return sorted(solved, key=lambda c: c.index)


def select_best_configuration(configs: list) -> Configuration:
    """Minimum objective among no-hanging configurations; ties go to fewer
    dropped contacts, then the smaller enumeration index. The caller passes
    the unmoved configuration too: it is always supported, and it wins its
    ties (index -1, no dropped contacts), so the selection is never worse
    than leaving the model unmoved."""
    valid = [c for c in configs if c.no_hanging_ok]
    threshold = _tie_threshold(min(c.objective for c in valid))
    tied = [c for c in valid if c.objective <= threshold]
    tied.sort(key=lambda c: (len(c.dropped_edges) + len(c.dropped_ground), c.index))
    return tied[0]


def all_rigid_configuration(constraints, parts: dict) -> Configuration:
    """The unmoved model as a candidate configuration (index -1)."""
    segments = {pid: st.segment.copy() for pid, st in parts.items()}
    errors = _angle_errors(segments, constraints)
    objective = _score(errors)
    return Configuration(index=-1, segments=segments, errors=errors,
                         objective=objective, opt_value=objective, converged=True,
                         dropped_edges=[], new_contacts=[], moved_parts=[],
                         no_hanging_ok=True)
