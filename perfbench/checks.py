"""Output checks that do not rely on the program's own computations.

Each check raises ``CheckError`` naming what is wrong. They read the
artifacts a request wrote (or the database it built) and recompute what
they test with their own numpy code; the only program function used is
``load_spec``, to show that ``spec.json`` loads.
"""

import json
import os
from dataclasses import fields, is_dataclass
from enum import Enum

import numpy as np

# the paper's joint table: material category -> joint kinds
JOINT_KINDS = {
    "wood-wood": {"mortise_tenon", "lap", "dowel"},
    "wood-metal": {"screw", "bracket"},
    "metal-metal": {"weld", "bolt"},
}
SIZE_TOL = 1e-6
THICKNESS_BIN = 0.005
PRISM_SAMPLES = 2000


class CheckError(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _load_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# build-db
# ---------------------------------------------------------------------------

def box_edge_lengths(vertices, faces):
    """The three edge lengths of a box mesh (8 vertices, 12 triangles), read
    from the legs of each face's right angle, largest first; None when the
    mesh is not such a box."""
    if len(vertices) != 8 or len(faces) != 12:
        return None
    legs = []
    for tri in faces:
        p = vertices[tri]
        for k in range(3):
            a = p[(k + 1) % 3] - p[k]
            b = p[(k + 2) % 3] - p[k]
            la, lb = np.linalg.norm(a), np.linalg.norm(b)
            if abs(float(a @ b)) <= 1e-9 * la * lb:
                legs += [la, lb]
                break
        else:
            return None
    # every edge length is a leg of 8 of the 24 legs (4 triangles on each of
    # the 2 face pairs that contain it)
    legs = np.sort(np.asarray(legs))[::-1]
    edges = []
    start = 0
    for k in range(1, len(legs) + 1):
        if k == len(legs) or legs[start] - legs[k] > 1e-9 * max(1.0, legs[start]):
            count = k - start
            if count % 8:
                return None
            edges += [float(np.mean(legs[start:k]))] * (count // 8)
            start = k
    return np.asarray(edges) if len(edges) == 3 else None


def check_box_parts(db):
    """Box parts: descriptor extents equal the box edges; thickness within
    one bin of the shortest edge. Returns the number of parts checked."""
    checked = 0
    for part in db.parts:
        if part.mesh is None:
            continue
        edges = box_edge_lengths(np.asarray(part.mesh.vertices, dtype=float),
                                 np.asarray(part.mesh.faces))
        if edges is None:
            continue
        size = np.asarray(part.descriptor.size_vec, dtype=float)
        _require(np.abs(size - edges).max() <= SIZE_TOL,
                 f"part {part.index}: size_vec {size.tolist()} != box edges "
                 f"{edges.tolist()}")
        _require(abs(part.descriptor.thickness - edges[-1]) <= THICKNESS_BIN + 1e-12,
                 f"part {part.index}: thickness {part.descriptor.thickness} not "
                 f"within {THICKNESS_BIN} of shortest edge {edges[-1]}")
        checked += 1
    _require(checked > 0, "no box-shaped part in the database")
    return checked


def check_histograms(db):
    """Each histogram counts exactly the same-material contacts with an
    angle."""
    mats = [p.material.value for p in db.parts]
    for key, hist in db.histograms.items():
        expected = sum(1 for c in db.contacts
                       if c.angle is not None and mats[c.u] == mats[c.v] == key)
        total = float(np.sum(hist.bins))
        _require(total == expected,
                 f"{key} histogram holds {total} angles, database has "
                 f"{expected} same-material contacts with an angle")


def canonical(obj):
    """Plain JSON-like value of a database object, for equality."""
    if is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def check_roundtrip(saved, loaded):
    """The database read back equals the one that was written."""
    a, b = canonical(saved), canonical(loaded)
    if a != b:
        for key in a:
            _require(a[key] == b.get(key),
                     f"loaded database differs from the saved one in {key!r}")
        raise CheckError("loaded database differs from the saved one")


def check_database(saved, loaded):
    check_histograms(loaded)
    check_roundtrip(saved, loaded)
    return check_box_parts(loaded)


# ---------------------------------------------------------------------------
# reform requests
# ---------------------------------------------------------------------------

def obj_group_count(path):
    """Number of parts (``g`` groups) in a polygon file."""
    with open(path) as fh:
        return sum(1 for line in fh if line.startswith("g "))


def joint_category(mat_a, mat_b):
    pair = sorted((mat_a, mat_b), reverse=True)   # wood before metal
    return f"{pair[0]}-{pair[1]}"


def box_corners(box):
    center = np.asarray(box["center"], dtype=float)
    axes = np.asarray(box["axes"], dtype=float)
    half = np.asarray(box["half_extents"], dtype=float)
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                      for sz in (-1, 1)], dtype=float)
    return center + (signs * half) @ axes


def inside_box(points, box, margin):
    """Points strictly inside the box shrunk by ``margin``."""
    center = np.asarray(box["center"], dtype=float)
    axes = np.asarray(box["axes"], dtype=float)
    half = np.asarray(box["half_extents"], dtype=float)
    local = (points - center) @ axes.T
    return (np.abs(local) < half - margin).all(axis=1)


def sample_box(box, n, rng):
    center = np.asarray(box["center"], dtype=float)
    axes = np.asarray(box["axes"], dtype=float)
    half = np.asarray(box["half_extents"], dtype=float)
    local = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
    return center + local @ axes


def read_obj_vertices(path):
    with open(path) as fh:
        rows = [line.split()[1:4] for line in fh if line.startswith("v ")]
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def check_spec(out_dir, n_parts, material):
    """spec.json loads; parts, materials, joint categories and roles."""
    from meshreform.fabrication import load_spec

    load_spec(os.path.join(out_dir, "spec.json"))
    spec = _load_json(out_dir, "spec.json")
    ids = sorted(p["part_id"] for p in spec["parts"])
    _require(ids == list(range(n_parts)),
             f"spec part ids {ids} != query part ids 0..{n_parts - 1}")
    mats = {p["part_id"]: p["material"] for p in spec["parts"]}
    for pid, mat in mats.items():
        _require(mat == material, f"part {pid} is {mat}, requested {material}")
    for j in spec["joints"]:
        a, b = j["edge"]
        cat = joint_category(mats[a], mats[b])
        kind = j["joint"]["kind"]
        _require(j["joint"]["category"] == cat,
                 f"joint {a}-{b}: category {j['joint']['category']} != {cat}")
        _require(kind in JOINT_KINDS[cat],
                 f"joint {a}-{b}: kind {kind} not in {cat}")
        if kind == "mortise_tenon":
            roles = (j["tenon_part"], j["mortise_part"])
            _require(None not in roles and roles[0] != roles[1]
                     and set(roles) == {a, b},
                     f"joint {a}-{b}: tenon/mortise roles {roles}")
    return spec


def check_joint_edges(out_dir, spec):
    """Joint edges = analysed part-part contacts minus the dropped ones."""
    analysis = _load_json(out_dir, "01_analysis.json")
    contacts = {tuple(sorted((e["i"], e["j"])))
                for e in analysis["contact_graph"]["edges"] if not e["is_ground"]}
    selected = _load_json(out_dir, "05_configuration.json")["selected"]
    dropped = set()
    if selected is not None:
        dropped = {tuple(sorted(e)) for e in selected["dropped_edges"]}
    joints = {tuple(sorted(j["edge"])) for j in spec["joints"]}
    _require(joints == contacts - dropped,
             f"joint edges {sorted(joints)} != contacts minus dropped "
             f"{sorted(contacts - dropped)}")


def check_restore_and_angles(out_dir):
    restore = _load_json(out_dir, "04_restore.json")
    before, after = restore["objective_before"], restore["objective_after"]
    _require(after <= before + 1e-12 * max(1.0, abs(before)),
             f"restoration raised the gap objective: {before} -> {after}")
    conf = _load_json(out_dir, "05_configuration.json")
    if conf["selected"] is None:
        return
    rigid = sum((c["angle"] - c["target"]) ** 2 for c in conf["constraints"])
    objective = conf["selected"]["objective"]
    _require(objective <= rigid + 1e-9 * max(1.0, rigid),
             f"selected configuration objective {objective} exceeds the "
             f"unmoved angle error {rigid}")


def check_joint_geometry(spec, rng):
    """No point inside a tenon prism lies inside the mortise's pieces."""
    mortise = {tuple(j["edge"]): j["mortise_part"] for j in spec["joints"]
               if j["joint"]["kind"] == "mortise_tenon"}
    for g in spec["geometry"]:
        if g["kind"] != "mortise_tenon" or g["prism"] is None:
            continue
        pieces = g["sculpted"].get(str(mortise[tuple(g["edge"])]), [])
        pts = sample_box(g["prism"], PRISM_SAMPLES, rng)
        for piece in pieces:
            scale = float(np.max(piece["half_extents"]))
            hit = inside_box(pts, piece, 1e-9 * max(1.0, scale))
            _require(not hit.any(),
                     f"joint {g['edge']}: {int(hit.sum())} tenon points inside "
                     f"the mortise part")


def dropped_cuts(out_dir, spec):
    """(part, joint) cuts recorded in spec.json whose boxes are missing from
    the part's exported polygon file."""
    files = {p["part_id"]: p["mesh_file"] for p in spec["parts"]}
    cache = {}
    missing = 0
    for g in spec["geometry"]:
        for pid, boxes in g["sculpted"].items():
            fname = files.get(int(pid))
            if fname is None:
                missing += 1
                continue
            if fname not in cache:
                cache[fname] = read_obj_vertices(os.path.join(out_dir, fname))
            verts = cache[fname]
            for box in boxes:
                corners = box_corners(box)
                d2 = ((corners[:, None, :] - verts[None, :, :]) ** 2).sum(axis=2)
                scale = max(1.0, float(np.abs(corners).max()))
                if (d2.min(axis=1) > (1e-9 * scale) ** 2).any():
                    missing += 1
                    break
    return missing


def check_reform(out_dir, n_parts, material, rng):
    """All reform checks; returns the number of dropped cuts found."""
    spec = check_spec(out_dir, n_parts, material)
    check_joint_edges(out_dir, spec)
    check_restore_and_angles(out_dir)
    check_joint_geometry(spec, rng)
    return dropped_cuts(out_dir, spec)


# a traced stage may differ from summary.json's by the span and timer
# bookkeeping between the two clocks: 5 ms plus 2 % of the stage
STAGE_TOL_ABS_S = 0.005
STAGE_TOL_REL = 0.02


def check_stage_times(stage_spans, summary):
    """Traced stage intervals agree with the stage seconds in summary.json.
    Returns the largest disagreement in seconds."""
    worst = 0.0
    for stage, seconds in stage_spans.items():
        reported = summary["stages"][stage]["seconds"]
        gap = abs(seconds - reported)
        _require(gap <= STAGE_TOL_ABS_S + STAGE_TOL_REL * reported,
                 f"stage {stage}: traced {seconds:.6f} s, summary {reported:.6f} s")
        worst = max(worst, gap)
    _require(set(stage_spans) == set(summary["stages"]) - {"load"},
             f"traced stages {sorted(stage_spans)} != summary stages "
             f"{sorted(summary['stages'])}")
    return worst

