"""Factor graphs and loopy belief propagation for part replacement and
material suggestion.

Pairwise potentials carry an exponent weight (``CONTACT_WEIGHT`` for
contact factors, ``REPETITION_WEIGHT`` for repetition factors) applied in
log space before message passing. Messages are max-product, so the beliefs
are max-marginals; decoding takes the per-variable argmax, which is the
exact MAP on trees.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .mesh import Material
from .similarity import (contact_angle_similarity, shape_matrix,
                         spatial_similarity)

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-300
CONTACT_WEIGHT = 0.1
REPETITION_WEIGHT = 20.0
BP_MAX_ITERS = 100
BP_DAMPING = 0.5
BP_TOL = 1e-6


class InferenceError(ValueError):
    pass


@dataclass
class PairwiseFactor:
    a: int                # variable index
    b: int
    table: np.ndarray     # (La, Lb), non-negative
    weight: float = 1.0
    kind: str = "contact"


@dataclass
class FactorGraph:
    """Multi-label MRF: one variable per part, unary tables in linear space,
    pairwise factors with exponent weights."""

    keys: list                       # variable names (part ids)
    domains: list                    # per-variable label arrays
    unaries: list                    # per-variable (L,) tables
    pairwise: list = field(default_factory=list)

    def __post_init__(self):
        for i, (dom, un) in enumerate(zip(self.domains, self.unaries)):
            if len(dom) != len(un):
                raise ValueError(f"variable {i}: domain/unary size mismatch")
            if len(dom) == 0:
                raise InferenceError(f"variable {self.keys[i]} has empty domain")
            if not np.isfinite(un).all() or (np.asarray(un) < 0).any():
                raise ValueError(f"variable {i}: unary must be finite and >= 0")
        for f in self.pairwise:
            if f.a >= len(self.keys) or f.b >= len(self.keys):
                raise ValueError("factor references missing variable")
            if f.table.shape != (len(self.domains[f.a]), len(self.domains[f.b])):
                raise ValueError("factor table shape mismatch")
            if not np.isfinite(f.table).all() or (f.table < 0).any():
                raise ValueError("factor table must be finite and >= 0")

    @property
    def n_vars(self):
        return len(self.keys)

    def log_unaries(self):
        return [np.log(np.maximum(np.asarray(u, dtype=float), LOG_FLOOR))
                for u in self.unaries]

    def log_tables(self):
        return [f.weight * np.log(np.maximum(f.table, LOG_FLOOR)) for f in self.pairwise]

    def log_potential(self, indices):
        """Total weighted log potential of a label-index assignment."""
        total = 0.0
        for lu, idx in zip(self.log_unaries(), indices):
            total += lu[idx]
        for f, lt in zip(self.pairwise, self.log_tables()):
            total += lt[indices[f.a], indices[f.b]]
        return float(total)


@dataclass
class Assignment:
    labels: dict                 # key -> label value
    indices: dict                # key -> label index
    log_potential: float
    converged: bool = True
    iterations: int = 0


# ---------------------------------------------------------------------------
# message passing
# ---------------------------------------------------------------------------

def _normalize_log(v):
    m = v.max()
    return v - (m + np.log(np.exp(v - m).sum()))


def run_loopy_bp(graph: FactorGraph) -> Assignment:
    """Synchronous damped max-product message passing; beliefs decoded by
    per-variable argmax with smallest-index tie break.

    Messages are damped by ``BP_DAMPING`` and kept normalized to
    log-sum-exp zero; passing stops once no message moves by ``BP_TOL`` or
    after ``BP_MAX_ITERS`` rounds.
    """
    log_un = graph.log_unaries()
    log_tab = graph.log_tables()
    nv = graph.n_vars

    # factor -> variable messages, one per (factor, side)
    fac_msgs = [[np.zeros(len(graph.domains[f.a])), np.zeros(len(graph.domains[f.b]))]
                for f in graph.pairwise]
    incident = [[] for _ in range(nv)]
    for fi, f in enumerate(graph.pairwise):
        incident[f.a].append((fi, 0))
        incident[f.b].append((fi, 1))

    converged = False
    it = 0
    for it in range(1, BP_MAX_ITERS + 1):
        # variable -> factor from previous factor -> variable
        var_sums = [log_un[v] + sum((fac_msgs[fi][side] for fi, side in incident[v]),
                                    np.zeros(len(graph.domains[v])))
                    for v in range(nv)]
        delta = 0.0
        new_msgs = []
        for fi, f in enumerate(graph.pairwise):
            to_a = var_sums[f.a] - fac_msgs[fi][0]
            to_b = var_sums[f.b] - fac_msgs[fi][1]
            msg_a = (log_tab[fi] + to_b[None, :]).max(axis=1)
            msg_b = (log_tab[fi].T + to_a[None, :]).max(axis=1)
            msg_a = _normalize_log(BP_DAMPING * fac_msgs[fi][0]
                                   + (1 - BP_DAMPING) * _normalize_log(msg_a))
            msg_b = _normalize_log(BP_DAMPING * fac_msgs[fi][1]
                                   + (1 - BP_DAMPING) * _normalize_log(msg_b))
            delta = max(delta,
                        float(np.abs(msg_a - fac_msgs[fi][0]).max(initial=0.0)),
                        float(np.abs(msg_b - fac_msgs[fi][1]).max(initial=0.0)))
            new_msgs.append([msg_a, msg_b])
        fac_msgs = new_msgs
        if delta < BP_TOL:
            converged = True
            break
    if not converged and graph.pairwise:
        logger.warning("loopy BP did not converge in %d iterations (delta %.2e)",
                       BP_MAX_ITERS, delta)
    if not graph.pairwise:
        converged = True

    indices = {}
    labels = {}
    for v in range(nv):
        belief = log_un[v] + sum((fac_msgs[fi][side] for fi, side in incident[v]),
                                 np.zeros(len(graph.domains[v])))
        idx = int(np.argmax(belief))   # first max: smallest label index on ties
        indices[graph.keys[v]] = idx
        labels[graph.keys[v]] = graph.domains[v][idx]
    order = [indices[k] for k in graph.keys]
    return Assignment(labels=labels, indices=indices,
                      log_potential=graph.log_potential(order),
                      converged=converged, iterations=it)


def brute_force_map(graph: FactorGraph, max_space=1_000_000) -> Assignment:
    """Exhaustive maximization of the weighted potential; ties resolve to the
    lexicographically first assignment."""
    sizes = [len(d) for d in graph.domains]
    space = int(np.prod(sizes, dtype=np.int64)) if sizes else 0
    if space > max_space:
        raise InferenceError(f"label space {space} exceeds {max_space}")
    total = np.zeros(sizes)
    for v, lu in enumerate(graph.log_unaries()):
        shape = [1] * len(sizes)
        shape[v] = sizes[v]
        total = total + lu.reshape(shape)
    for f, lt in zip(graph.pairwise, graph.log_tables()):
        shape = [1] * len(sizes)
        shape[f.a] = sizes[f.a]
        shape[f.b] = sizes[f.b]
        if f.a < f.b:
            total = total + lt.reshape(shape)
        else:
            total = total + lt.T.reshape(shape)
    flat = int(np.argmax(total))   # first max in C order = lexicographic
    idx = np.unravel_index(flat, sizes)
    indices = {k: int(i) for k, i in zip(graph.keys, idx)}
    labels = {k: graph.domains[v][indices[k]] for v, k in enumerate(graph.keys)}
    return Assignment(labels=labels, indices=indices,
                      log_potential=float(total[idx]), converged=True)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def build_reform_factor_graph(descriptors: dict, contact_graph, repetition_graph,
                              targets: dict, db, compact=()) -> FactorGraph:
    """Replacement MRF: one variable per part over the database candidates.

    Unaries gate candidates by target material and score OBB similarity
    (plus area ratio for parts listed in ``compact``); contact factors sum
    candidate-pair affinity over every contacting exemplar pair; repetition
    factors are identity indicators.
    """
    if not db.candidates:
        raise InferenceError("database has no candidate set (run cluster_candidates)")
    part_ids = sorted(descriptors)
    cand = list(db.candidates)
    cand_desc = [db.part(c).descriptor for c in cand]
    cand_mat = [db.part(c).material for c in cand]

    keys = []
    domains = []
    unaries = []
    modes = {}
    query_descs = [descriptors[pid] for pid in part_ids]
    query_shape = {}
    for mode in ("obb_only", "obb_plus_area"):
        if mode == "obb_plus_area" and not compact:
            continue
        query_shape[mode] = shape_matrix(query_descs, cand_desc, mode=mode)
    cand_match = {Material.WOOD: np.array([m == Material.WOOD for m in cand_mat]),
                  Material.METAL: np.array([m == Material.METAL for m in cand_mat])}
    for row, pid in enumerate(part_ids):
        target = targets[pid]
        if target not in cand_match:
            raise InferenceError(
                f"part {pid}: target material must be wood or metal, got {target}")
        mode = "obb_plus_area" if pid in compact else "obb_only"
        modes[pid] = mode
        scores = query_shape[mode][row] * cand_match[target]
        keep = np.flatnonzero(scores > 0)
        if len(keep) == 0:
            raise InferenceError(
                f"part {pid}: no candidate matches target material {target.value}")
        keys.append(pid)
        domains.append(np.array([cand[c] for c in keep]))
        unaries.append(scores[keep])

    var_of = {pid: v for v, pid in enumerate(keys)}
    # candidate-to-database-part shape similarity, per mode actually used
    db_descs = [p.descriptor for p in db.parts]
    shape_mat = {}
    for mode in set(modes.values()):
        shape_mat[mode] = shape_matrix(cand_desc, db_descs, mode=mode)

    mat_of = np.array([p.material == Material.WOOD for p in db.parts])
    u_idx = np.array([c.u for c in db.contacts], dtype=int)
    v_idx = np.array([c.v for c in db.contacts], dtype=int)

    def material_mask(target):
        is_wood = mat_of
        return is_wood if target == Material.WOOD else ~is_wood

    pairwise = []
    table_cache = {}
    for e in contact_graph.part_edges():
        if e.i not in var_of or e.j not in var_of:
            continue
        ck = (modes[e.i], modes[e.j], targets[e.i], targets[e.j])
        if ck not in table_cache:
            si = shape_mat[modes[e.i]]
            sj = shape_mat[modes[e.j]]
            mi = material_mask(targets[e.i])
            mj = material_mask(targets[e.j])
            # both orientations of each stored contact pair
            wa = (mi[u_idx] & mj[v_idx]).astype(float)
            wb = (mi[v_idx] & mj[u_idx]).astype(float)
            table = (si[:, u_idx] * wa) @ sj[:, v_idx].T + (si[:, v_idx] * wb) @ sj[:, u_idx].T
            table_cache[ck] = table
        full = table_cache[ck]
        a, b = var_of[e.i], var_of[e.j]
        sel_a = np.searchsorted(cand, domains[a])
        sel_b = np.searchsorted(cand, domains[b])
        pairwise.append(PairwiseFactor(a, b, full[np.ix_(sel_a, sel_b)],
                                       weight=CONTACT_WEIGHT, kind="contact"))

    for i, j in repetition_graph.edges:
        if i not in var_of or j not in var_of:
            continue
        a, b = var_of[i], var_of[j]
        table = (domains[a][:, None] == domains[b][None, :]).astype(float)
        pairwise.append(PairwiseFactor(a, b, table,
                                       weight=REPETITION_WEIGHT, kind="repetition"))

    return FactorGraph(keys=keys, domains=domains, unaries=unaries, pairwise=pairwise)


def build_material_factor_graph(descriptors: dict, contact_graph, repetition_graph,
                                db) -> FactorGraph:
    """Material-suggestion MRF over {wood, metal} with full shape kernels,
    spatial and contact-angle pairwise terms, and identity repetition."""
    if not db.parts:
        raise InferenceError("empty database")
    part_ids = sorted(descriptors)
    labels = [Material.WOOD, Material.METAL]

    shp = shape_matrix([descriptors[pid] for pid in part_ids],
                       [p.descriptor for p in db.parts], mode="full")
    is_wood = np.array([p.material == Material.WOOD for p in db.parts])
    row = {pid: r for r, pid in enumerate(part_ids)}

    unaries = []
    for pid in part_ids:
        s = shp[row[pid]]
        unaries.append(np.array([s[is_wood].sum(), s[~is_wood].sum()]))

    dist = {pid: descriptors[pid].barycenter for pid in part_ids}
    u_idx = np.array([c.u for c in db.contacts], dtype=int)
    v_idx = np.array([c.v for c in db.contacts], dtype=int)
    d_uv = np.array([c.barycenter_distance for c in db.contacts])
    ang_uv = np.array([c.angle for c in db.contacts], dtype=float)
    wood_u = is_wood[u_idx]
    wood_v = is_wood[v_idx]

    pairwise = []
    var_of = {pid: v for v, pid in enumerate(part_ids)}
    for e in contact_graph.part_edges():
        if e.i not in var_of or e.j not in var_of:
            continue
        d_ij = float(np.linalg.norm(dist[e.i] - dist[e.j]))
        pr = spatial_similarity(d_ij, d_uv)
        ca = contact_angle_similarity(e.angle, ang_uv)
        si = shp[row[e.i]]
        sj = shp[row[e.j]]
        base_a = si[u_idx] * sj[v_idx] * pr * ca
        base_b = si[v_idx] * sj[u_idx] * pr * ca
        table = np.empty((2, 2))
        for xi, wi in enumerate((True, False)):       # wood, metal
            for xj, wj in enumerate((True, False)):
                ma = (wood_u == wi) & (wood_v == wj)
                mb = (wood_v == wi) & (wood_u == wj)
                table[xi, xj] = base_a[ma].sum() + base_b[mb].sum()
        pairwise.append(PairwiseFactor(var_of[e.i], var_of[e.j], table,
                                       weight=CONTACT_WEIGHT, kind="contact"))

    for i, j in repetition_graph.edges:
        if i not in var_of or j not in var_of:
            continue
        pairwise.append(PairwiseFactor(var_of[i], var_of[j], np.eye(2),
                                       weight=REPETITION_WEIGHT, kind="repetition"))

    return FactorGraph(keys=part_ids, domains=[labels] * len(part_ids),
                       unaries=unaries, pairwise=pairwise)
