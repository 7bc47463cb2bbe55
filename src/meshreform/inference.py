"""Factor graphs and exact MAP inference for part replacement and material
suggestion.

A contact factor's table carries an exponent weight (``CONTACT_WEIGHT``)
applied in log space. Repetition is a hard equality: the graph's
``classes`` list the variables of each congruence class, which take one
label.

``exact_map`` collapses each class into one variable and runs
max-sum variable elimination (bucket elimination; Dechter, Artif. Intell.
1999) on the classes, then decodes forward with the first argmax, so exact
ties go to the lexicographically first assignment.
"""

from dataclasses import dataclass, field

import numpy as np

from .mesh import Material
from .similarity import (contact_angle_similarity, shape_matrix,
                         spatial_similarity)

LOG_FLOOR = 1e-300
CONTACT_WEIGHT = 0.1


class InferenceError(ValueError):
    pass


@dataclass
class PairwiseFactor:
    a: int                # variable index
    b: int
    table: np.ndarray     # (La, Lb), non-negative
    weight: float = 1.0


@dataclass
class FactorGraph:
    """Multi-label MRF: one variable per part, unary tables in linear space,
    contact factors with exponent weights and classes of variables held
    equal (disjoint; a variable in no class is free)."""

    keys: list                       # variable names (part ids)
    domains: list                    # per-variable label arrays
    unaries: list                    # per-variable (L,) tables
    pairwise: list = field(default_factory=list)
    classes: list = field(default_factory=list)   # lists of variable indices

    def __post_init__(self):
        for i, (dom, un) in enumerate(zip(self.domains, self.unaries)):
            if len(dom) != len(un):
                raise ValueError(f"variable {i}: domain/unary size mismatch")
            if len(dom) == 0:
                raise InferenceError(f"variable {self.keys[i]} has empty domain")
            if not np.isfinite(un).all() or (np.asarray(un) < 0).any():
                raise ValueError(f"variable {i}: unary must be finite and >= 0")
        for k, f in enumerate(self.pairwise):
            name = f"factor {k} ({f.a}, {f.b})"
            if not (0 <= f.a < len(self.keys) and 0 <= f.b < len(self.keys)):
                raise ValueError(f"{name} references a missing variable")
            if f.a == f.b:
                raise ValueError(f"{name} joins a variable to itself")
            if f.table.shape != (len(self.domains[f.a]), len(self.domains[f.b])):
                raise ValueError(f"{name}: table shape mismatch")
            if not np.isfinite(f.table).all() or (f.table < 0).any():
                raise ValueError(f"{name}: table must be finite and >= 0")
        for k, members in enumerate(self.classes):
            if not members or not all(0 <= v < len(self.keys) for v in members):
                raise ValueError(f"class {k} {members} must name existing variables")
        named = [v for members in self.classes for v in members]
        if len(set(named)) != len(named):
            raise ValueError("classes must be disjoint")

    @property
    def n_vars(self):
        return len(self.keys)

    def log_unaries(self):
        return [np.log(np.maximum(np.asarray(u, dtype=float), LOG_FLOOR))
                for u in self.unaries]

    def log_tables(self):
        return [f.weight * np.log(np.maximum(f.table, LOG_FLOOR))
                for f in self.pairwise]

    def log_potential(self, indices):
        """Total weighted log potential of a label-index assignment; -inf
        when it gives the members of a class different labels."""
        for members in self.classes:
            if len({self.domains[v][indices[v]] for v in members}) > 1:
                return -np.inf
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
    variables: int               # repetition classes the solver eliminated
    largest_table: int           # entries of the largest elimination table


# ---------------------------------------------------------------------------
# exact MAP
# ---------------------------------------------------------------------------

def _collapse(graph, log_un):
    """The graph's classes, each sorted, plus one singleton per variable in
    none, ordered by smallest member; each member's label index per class
    label; and one log unary per class. A class's labels are the values every
    member's domain holds, in its first member's order."""
    named = {v for members in graph.classes for v in members}
    classes = sorted([sorted(members) for members in graph.classes]
                     + [[v] for v in range(graph.n_vars) if v not in named],
                     key=min)
    picks, unary = [], []
    for members in classes:
        where = [{val: i for i, val in enumerate(graph.domains[v])} for v in members]
        shared = [val for val in graph.domains[members[0]]
                  if all(val in w for w in where)]
        if not shared:
            raise InferenceError(
                f"repetition class {[graph.keys[v] for v in members]} shares no label")
        pick = {v: np.array([w[val] for val in shared]) for v, w in zip(members, where)}
        picks.append(pick)
        unary.append(sum(log_un[v][pick[v]] for v in members))
    return classes, picks, unary


def exact_map(graph: FactorGraph) -> Assignment:
    """MAP of the weighted potential, repetition classes held equal.

    Classes are eliminated from the last (by smallest member) to the first;
    a class's bucket holds every factor whose last class it is, so its
    table, indexed by the classes decoded before it, scores each of its
    labels by the best completion. Decoding takes the first argmax class by
    class, which gives the lexicographically first optimal assignment.
    """
    classes, picks, unary = _collapse(graph, graph.log_unaries())
    cls_of = {v: c for c, members in enumerate(classes) for v in members}
    sizes = [len(u) for u in unary]
    # each factor is (sorted class scope, table with one axis per scope entry)
    factors = [((c,), u) for c, u in enumerate(unary)]
    for f, lt in zip(graph.pairwise, graph.log_tables()):
        ca, cb = cls_of[f.a], cls_of[f.b]
        if ca == cb:
            factors.append(((ca,), lt[picks[ca][f.a], picks[ca][f.b]]))
        else:
            table = lt[np.ix_(picks[ca][f.a], picks[cb][f.b])]
            factors.append(((ca, cb), table) if ca < cb else ((cb, ca), table.T))

    buckets = [None] * len(classes)
    largest = 0
    for c in reversed(range(len(classes))):
        mine = [f for f in factors if f[0][-1] == c]
        factors = [f for f in factors if f[0][-1] != c]
        scope = tuple(sorted({x for s, _ in mine for x in s}))
        total = np.zeros([sizes[x] for x in scope])
        for s, t in mine:
            total = total + t.reshape([sizes[x] if x in s else 1 for x in scope])
        buckets[c] = (scope, total)
        largest = max(largest, total.size)
        if len(scope) > 1:
            factors.append((scope[:-1], total.max(axis=-1)))

    decoded = []
    for scope, total in buckets:
        decoded.append(int(np.argmax(total[tuple(decoded[x] for x in scope[:-1])])))
    indices, labels = {}, {}
    for c, members in enumerate(classes):
        for v in members:
            idx = int(picks[c][v][decoded[c]])
            indices[graph.keys[v]] = idx
            labels[graph.keys[v]] = graph.domains[v][idx]
    return Assignment(labels=labels, indices=indices,
                      log_potential=graph.log_potential(
                          [indices[k] for k in graph.keys]),
                      variables=len(classes), largest_table=largest)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def build_reform_factor_graph(descriptors: dict, contact_graph, repetition_graph,
                              targets: dict, db, compact=()) -> FactorGraph:
    """Replacement MRF: one variable per part over the database candidates.

    Unaries gate candidates by target material and score OBB similarity
    (plus area ratio for parts listed in ``compact``); contact factors sum
    candidate-pair affinity over every contacting exemplar pair; each
    congruence class is split by target material into classes held equal
    (parts with different targets share no candidate).
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
                                       weight=CONTACT_WEIGHT))

    # each class split by target, the targets in member order (not a set)
    classes = [[var_of[pid] for pid in members if targets[pid] == target]
               for members in repetition_graph.classes
               for target in dict.fromkeys(targets[pid] for pid in members)]
    return FactorGraph(keys=keys, domains=domains, unaries=unaries,
                       pairwise=pairwise, classes=classes)


def build_material_factor_graph(descriptors: dict, contact_graph, repetition_graph,
                                db) -> FactorGraph:
    """Material-suggestion MRF over {wood, metal} with full shape kernels,
    spatial and contact-angle pairwise terms, and congruence classes held
    equal.

    Contacts inside a repetition class get no factor: such a factor only
    weighs wood-wood against metal-metal for a part touching copies of
    itself (side-by-side slats), which the corpus rarely has an exemplar
    pair for, and its near-zero entries would outvote the unaries.
    """
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
    class_of = {pid: c for c, members in enumerate(repetition_graph.classes)
                for pid in members}
    for e in contact_graph.part_edges():
        if e.i not in var_of or e.j not in var_of:
            continue
        if class_of[e.i] == class_of[e.j]:
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
                                       weight=CONTACT_WEIGHT))

    return FactorGraph(keys=part_ids, domains=[labels] * len(part_ids),
                       unaries=unaries, pairwise=pairwise,
                       classes=[[var_of[pid] for pid in members]
                                for members in repetition_graph.classes])
