"""Procedural furniture generator for training databases and test fixtures.

Builds parametric chairs, tables, beds, and cabinets in wood and metal
variants. Wood parts are thick (normalized thickness 0.015-0.04), straight,
and meet at right angles with a few degrees of jitter; metal parts are thin
(0.003-0.01), straight or arc profiles, and meet at broadly distributed
angles. Every touching pair carries a joint-kind tag from a fixed geometric
rulebook:

* wood-wood: rod-board -> mortise_tenon, rod-rod -> dowel, board-board -> lap
* wood-metal: wood board -> bracket, wood rod -> screw
* metal-metal: tube-tube -> weld, sheet involved -> bolt

Output is deterministic per seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .database import DatabaseSource
from .mesh import Material, Model, Part, TriangleMesh
from .obb import OrientedBox, box_mesh


def box_part(center, dims) -> TriangleMesh:
    return box_mesh(OrientedBox(center, np.eye(3), 0.5 * np.asarray(dims, dtype=float)))


def rod_part(p0, p1, width, height=None, up=(0.0, 0.0, 1.0)) -> TriangleMesh:
    """Box swept from p0 to p1 with a width x height cross-section."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    height = width if height is None else height
    axis = p1 - p0
    length = np.linalg.norm(axis)
    axis = axis / length
    up = np.asarray(up, dtype=float)
    if abs(float(axis @ up)) > 0.95:
        up = np.array([1.0, 0.0, 0.0])
    side = np.cross(axis, up)
    side /= np.linalg.norm(side)
    up2 = np.cross(side, axis)
    frame = np.stack([axis, side, up2])
    return box_mesh(OrientedBox(0.5 * (p0 + p1), frame,
                                0.5 * np.array([length, width, height])))


def arc_tube(center, radius, theta0, theta1, cross, segments=12,
             e1=(1.0, 0.0, 0.0), e2=(0.0, 0.0, 1.0)) -> TriangleMesh:
    """Watertight square-section tube swept along a circular arc."""
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    e3 = np.cross(e1, e2)
    thetas = np.linspace(theta0, theta1, segments + 1)
    rings = []
    for th in thetas:
        radial = math.cos(th) * e1 + math.sin(th) * e2
        p = np.asarray(center) + radius * radial
        h = 0.5 * cross
        rings.append([p - h * radial - h * e3, p + h * radial - h * e3,
                      p + h * radial + h * e3, p - h * radial + h * e3])
    verts = np.asarray(rings, dtype=float).reshape(-1, 3)
    faces = []
    for s in range(segments):
        a = 4 * s
        b = 4 * (s + 1)
        for k in range(4):
            k2 = (k + 1) % 4
            faces.append([a + k, a + k2, b + k2])
            faces.append([a + k, b + k2, b + k])
    faces.append([0, 2, 1])
    faces.append([0, 3, 2])
    last = 4 * segments
    faces.append([last, last + 1, last + 2])
    faces.append([last, last + 2, last + 3])
    return TriangleMesh(verts, np.asarray(faces, dtype=np.int64))


@dataclass
class GeneratorConfig:
    """Category mix mirrors the training corpus proportions; ``scale``
    multiplies each count (rounded up)."""

    chairs: int = 83
    tables: int = 32
    beds: int = 19
    cabinets: int = 18
    scale: float = 1.0
    wood_thickness: tuple = (0.024, 0.038)   # normalized units
    metal_thickness: tuple = (0.0035, 0.0075)
    wood_jitter_deg: float = 3.0
    metal_angle_range: tuple = (30.0, 88.0)

    def counts(self):
        return {cat: math.ceil(self.scale * n) for cat, n in
                (("chair", self.chairs), ("table", self.tables),
                 ("bed", self.beds), ("cabinet", self.cabinets))}


class _Builder:
    """Accumulates parts and joint tags for one model."""

    def __init__(self):
        self.parts = []
        self.tags = {}
        self.kinds = {}   # name -> "rod" | "board" | "tube" | "sheet"

    def add(self, name, mesh, material, kind):
        self.parts.append(Part(id=len(self.parts), mesh=mesh,
                               material=material, name=name))
        self.kinds[name] = kind
        return name

    def join(self, a, b):
        mat_a = next(p.material for p in self.parts if p.name == a)
        mat_b = next(p.material for p in self.parts if p.name == b)
        self.tags[frozenset((a, b))] = rule_joint_kind(
            self.kinds[a], mat_a, self.kinds[b], mat_b)

    def source(self, name):
        return DatabaseSource(model=Model(parts=self.parts), name=name,
                              joint_tags=self.tags)


def rule_joint_kind(kind_a, mat_a, kind_b, mat_b):
    """The fixed geometric rulebook shared by the generator and the tests."""
    linear = {"rod", "tube"}
    if mat_a == Material.WOOD and mat_b == Material.WOOD:
        la, lb = kind_a in linear, kind_b in linear
        if la and lb:
            return "dowel"
        if la or lb:
            return "mortise_tenon"
        return "lap"
    if mat_a == Material.METAL and mat_b == Material.METAL:
        if kind_a in linear and kind_b in linear:
            return "weld"
        return "bolt"
    wood_kind = kind_a if mat_a == Material.WOOD else kind_b
    return "screw" if wood_kind in linear else "bracket"


def _jitter_angle(rng, jitter_deg):
    """Deviation (radians) from a right angle, clipped to the jitter."""
    return math.radians(float(np.clip(rng.normal(0.0, jitter_deg / 2.0),
                                      -jitter_deg, jitter_deg)))


# ---------------------------------------------------------------------------
# wood furniture
# ---------------------------------------------------------------------------

def wood_chair(rng, cfg: GeneratorConfig, n_stretchers=2, n_slats=2) -> _Builder:
    b = _Builder()
    w = 0.40 + 0.10 * rng.random()
    d = 0.38 + 0.08 * rng.random()
    seat_z = 0.40 + 0.06 * rng.random()
    back_h = 0.35 + 0.10 * rng.random()
    diag = math.sqrt(w * w + d * d + (seat_z + back_h) ** 2)
    t = diag * rng.uniform(*cfg.wood_thickness)
    ts = diag * rng.uniform(*cfg.wood_thickness)

    legs = []
    inset = t / 2
    for k, (sx, sy) in enumerate([(-1, -1), (1, -1), (-1, 1), (1, 1)]):
        x = sx * (w / 2 - inset)
        y = sy * (d / 2 - inset)
        legs.append(b.add(f"leg_{k}", rod_part([x, y, 0], [x, y, seat_z], t),
                          Material.WOOD, "rod"))
    seat = b.add("seat", box_part([0, 0, seat_z + ts / 2], [w, d, ts]),
                 Material.WOOD, "board")
    for leg in legs:
        b.join(leg, seat)

    posts = []
    for k, sx in enumerate((-1, 1)):
        x = sx * (w / 2 - inset)
        y = d / 2 - inset
        posts.append(b.add(f"post_{k}",
                           rod_part([x, y, seat_z + ts], [x, y, seat_z + ts + back_h], t),
                           Material.WOOD, "rod"))
        b.join(posts[-1], seat)

    x0 = -(w / 2 - inset) + t / 2
    x1 = (w / 2 - inset) - t / 2
    for k in range(n_slats):
        z = seat_z + ts + back_h * (0.35 + 0.5 * (k + 1) / (n_slats + 1))
        dev = _jitter_angle(rng, cfg.wood_jitter_deg)
        dz = (x1 - x0) * math.tan(dev)
        name = b.add(f"slat_{k}", rod_part([x0, d / 2 - inset, z - dz / 2],
                                           [x1, d / 2 - inset, z + dz / 2], t * 0.85),
                     Material.WOOD, "rod")
        b.join(name, posts[0])
        b.join(name, posts[1])

    pairs = [(0, 1), (2, 3), (0, 2), (1, 3)]
    for k in range(min(n_stretchers, 4)):
        a, c = pairs[k]
        pa = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]][a], dtype=float)
        pc = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]][c], dtype=float)
        start = np.array([pa[0] * (w / 2 - inset), pa[1] * (d / 2 - inset), 0.0])
        end = np.array([pc[0] * (w / 2 - inset), pc[1] * (d / 2 - inset), 0.0])
        z = seat_z * (0.25 + 0.1 * rng.random())
        dev = _jitter_angle(rng, cfg.wood_jitter_deg)
        span = np.linalg.norm(end - start)
        dz = span * math.tan(dev)
        name = b.add(f"stretcher_{k}",
                     rod_part(start + [0, 0, z - dz / 2], end + [0, 0, z + dz / 2], t * 0.85),
                     Material.WOOD, "rod")
        b.join(name, legs[a])
        b.join(name, legs[c])
    return b


def wood_table(rng, cfg: GeneratorConfig) -> _Builder:
    b = _Builder()
    w = 0.78 + 0.2 * rng.random()
    d = 0.52 + 0.15 * rng.random()
    h = 0.45 + 0.1 * rng.random()
    diag = math.sqrt(w * w + d * d + h * h)
    t = diag * rng.uniform(*cfg.wood_thickness)
    tt = diag * rng.uniform(*cfg.wood_thickness)

    legs = []
    inset = t / 2
    corners = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    for k, (sx, sy) in enumerate(corners):
        x = sx * (w / 2 - inset)
        y = sy * (d / 2 - inset)
        legs.append(b.add(f"leg_{k}", rod_part([x, y, 0], [x, y, h], t),
                          Material.WOOD, "rod"))
    top = b.add("top", box_part([0, 0, h + tt / 2], [w, d, tt]), Material.WOOD, "board")
    for leg in legs:
        b.join(leg, top)

    apron_pairs = [(0, 1), (2, 3), (0, 2), (1, 3)]
    for k, (a, c) in enumerate(apron_pairs):
        pa = np.array(corners[a], dtype=float)
        pc = np.array(corners[c], dtype=float)
        z = h * (0.82 + 0.05 * rng.random())
        dev = _jitter_angle(rng, cfg.wood_jitter_deg)
        start = np.array([pa[0] * (w / 2 - inset), pa[1] * (d / 2 - inset), 0.0])
        end = np.array([pc[0] * (w / 2 - inset), pc[1] * (d / 2 - inset), 0.0])
        span = np.linalg.norm(end - start)
        dz = span * math.tan(dev)
        name = b.add(f"apron_{k}",
                     rod_part(start + [0, 0, z - dz / 2], end + [0, 0, z + dz / 2], t * 0.9),
                     Material.WOOD, "rod")
        b.join(name, legs[a])
        b.join(name, legs[c])
    return b


def wood_bed(rng, cfg: GeneratorConfig, n_slats=3) -> _Builder:
    b = _Builder()
    length = 1.0 + 0.3 * rng.random()
    width = 0.5 + 0.2 * rng.random()
    h = 0.25 + 0.1 * rng.random()
    head_h = 0.25 + 0.1 * rng.random()
    diag = math.sqrt(length ** 2 + width ** 2 + (h + head_h) ** 2)
    t = diag * rng.uniform(*cfg.wood_thickness)

    posts = []
    for k, (sx, sy) in enumerate([(-1, -1), (1, -1), (-1, 1), (1, 1)]):
        x = sx * (length / 2 - t / 2)
        y = sy * (width / 2 - t / 2)
        top = h + (head_h if sx < 0 else 0.0)
        posts.append(b.add(f"post_{k}", rod_part([x, y, 0], [x, y, top], t),
                           Material.WOOD, "rod"))
    rails = []
    for k, sy in enumerate((-1, 1)):
        y = sy * (width / 2 - t / 2)
        dev = _jitter_angle(rng, cfg.wood_jitter_deg)
        dz = (length - t) * math.tan(dev)
        rails.append(b.add(f"rail_{k}",
                           rod_part([-(length / 2 - t), y, h - dz / 2],
                                    [length / 2 - t, y, h + dz / 2], t * 0.95),
                           Material.WOOD, "rod"))
        b.join(rails[-1], posts[0 if sy < 0 else 2])
        b.join(rails[-1], posts[1 if sy < 0 else 3])
    for k in range(n_slats):
        x = -length / 2 + (k + 1) * length / (n_slats + 1)
        dev = _jitter_angle(rng, cfg.wood_jitter_deg)
        dz = (width - t) * math.tan(dev)
        name = b.add(f"slat_{k}",
                     rod_part([x, -(width / 2 - t / 2), h + t * 0.85 - dz / 2],
                              [x, width / 2 - t / 2, h + t * 0.85 + dz / 2], t * 0.85),
                     Material.WOOD, "rod")
        b.join(name, rails[0])
        b.join(name, rails[1])
    head = b.add("headboard", box_part([-(length / 2 - t / 2), 0, h + head_h / 2],
                                       [t, width, head_h]), Material.WOOD, "board")
    b.join(head, posts[0])
    b.join(head, posts[2])
    return b


def wood_cabinet(rng, cfg: GeneratorConfig) -> _Builder:
    b = _Builder()
    w = 0.55 + 0.2 * rng.random()
    d = 0.33 + 0.1 * rng.random()
    h = 0.65 + 0.15 * rng.random()
    diag = math.sqrt(w * w + d * d + h * h)
    t = diag * rng.uniform(*cfg.wood_thickness)

    left = b.add("left", box_part([-(w - t) / 2, 0, h / 2], [t, d, h]), Material.WOOD, "board")
    right = b.add("right", box_part([(w - t) / 2, 0, h / 2], [t, d, h]), Material.WOOD, "board")
    top = b.add("top", box_part([0, 0, h - t / 2], [w - 2 * t, d, t]), Material.WOOD, "board")
    bottom = b.add("bottom", box_part([0, 0, t / 2], [w - 2 * t, d, t]), Material.WOOD, "board")
    back = b.add("back", box_part([0, (d - t) / 2, h / 2], [w - 2 * t, t, h - 2 * t]),
                 Material.WOOD, "board")
    shelf = b.add("shelf", box_part([0, 0, h * (0.4 + 0.2 * rng.random())],
                                    [w - 2 * t, d - t, t]), Material.WOOD, "board")
    for a, c in [(left, top), (left, bottom), (right, top), (right, bottom),
                 (back, left), (back, right), (shelf, left), (shelf, right)]:
        b.join(a, c)
    return b


# ---------------------------------------------------------------------------
# metal furniture
# ---------------------------------------------------------------------------

def _metal_angle(rng, cfg: GeneratorConfig):
    lo, hi = cfg.metal_angle_range
    return math.radians(rng.uniform(lo, hi))


def metal_chair(rng, cfg: GeneratorConfig) -> _Builder:
    b = _Builder()
    w = 0.40 + 0.08 * rng.random()
    d = 0.40 + 0.08 * rng.random()
    seat_z = 0.42 + 0.05 * rng.random()
    diag = math.sqrt(w * w + d * d + (seat_z + 0.35) ** 2)
    c = diag * rng.uniform(*cfg.metal_thickness)
    sheet_t = diag * rng.uniform(*cfg.metal_thickness)

    # splayed tube legs: contact angle with the seat sheet stays N/A, but
    # leg-brace angles are broad
    legs = []
    ang = _metal_angle(rng, cfg)
    spread = seat_z / math.tan(ang)
    for k, (sx, sy) in enumerate([(-1, -1), (1, -1), (-1, 1), (1, 1)]):
        top = np.array([sx * (w / 2 - c), sy * (d / 2 - c), seat_z])
        foot = top + np.array([sx * spread, sy * spread, -seat_z])
        legs.append(b.add(f"leg_{k}", rod_part(foot, top, c), Material.METAL, "tube"))
    seat = b.add("seat", box_part([0, 0, seat_z + sheet_t / 2], [w, d, sheet_t]),
                 Material.METAL, "sheet")
    for leg in legs:
        b.join(leg, seat)

    # braces between front/back leg pairs at a varied angle
    for k, (a, cidx) in enumerate([(0, 1), (2, 3)]):
        za = seat_z * rng.uniform(0.25, 0.6)
        zc = seat_z * rng.uniform(0.25, 0.6)
        pa = _point_on_leg(w, d, seat_z, spread, a, za, c)
        pc = _point_on_leg(w, d, seat_z, spread, cidx, zc, c)
        name = b.add(f"brace_{k}", rod_part(pa, pc, c), Material.METAL, "tube")
        b.join(name, legs[a])
        b.join(name, legs[cidx])

    # arc backrest tube standing on the seat
    r = 0.42 * w
    back = b.add("backrest",
                 arc_tube([0, d / 2 - c, seat_z + sheet_t], r,
                          0.0, math.pi, c * 1.2,
                          e1=(1.0, 0.0, 0.0), e2=(0.0, 0.0, 1.0)),
                 Material.METAL, "tube")
    b.join(back, seat)
    return b


def _point_on_leg(w, d, seat_z, spread, idx, z, c):
    sx, sy = [(-1, -1), (1, -1), (-1, 1), (1, 1)][idx]
    top = np.array([sx * (w / 2 - c), sy * (d / 2 - c), seat_z])
    foot = top + np.array([sx * spread, sy * spread, -seat_z])
    lam = z / seat_z
    return foot + lam * (top - foot)


def metal_table(rng, cfg: GeneratorConfig) -> _Builder:
    b = _Builder()
    w = 0.75 + 0.2 * rng.random()
    d = 0.5 + 0.15 * rng.random()
    h = 0.45 + 0.1 * rng.random()
    diag = math.sqrt(w * w + d * d + h * h)
    c = diag * rng.uniform(*cfg.metal_thickness)
    sheet_t = diag * rng.uniform(*cfg.metal_thickness)

    ang = _metal_angle(rng, cfg)
    spread = h / math.tan(ang)
    legs = []
    for k, (sx, sy) in enumerate([(-1, -1), (1, -1), (-1, 1), (1, 1)]):
        top = np.array([sx * (w / 2 - c), sy * (d / 2 - c), h])
        foot = top + np.array([sx * spread, sy * spread, -h])
        legs.append(b.add(f"leg_{k}", rod_part(foot, top, c), Material.METAL, "tube"))
    top_sheet = b.add("top", box_part([0, 0, h + sheet_t / 2], [w, d, sheet_t]),
                      Material.METAL, "sheet")
    for leg in legs:
        b.join(leg, top_sheet)
    # X brace between diagonal legs
    for k, (a, cidx) in enumerate([(0, 3), (1, 2)]):
        pa = _point_on_leg(w, d, h, spread, a, h * rng.uniform(0.2, 0.5), c)
        pc = _point_on_leg(w, d, h, spread, cidx, h * rng.uniform(0.5, 0.9), c)
        name = b.add(f"brace_{k}", rod_part(pa, pc, c), Material.METAL, "tube")
        b.join(name, legs[a])
        b.join(name, legs[cidx])
    return b


def metal_bed(rng, cfg: GeneratorConfig) -> _Builder:
    b = _Builder()
    length = 1.0 + 0.3 * rng.random()
    width = 0.5 + 0.2 * rng.random()
    h = 0.25 + 0.08 * rng.random()
    head_h = 0.25 + 0.1 * rng.random()
    diag = math.sqrt(length ** 2 + width ** 2 + (h + head_h) ** 2)
    c = diag * rng.uniform(*cfg.metal_thickness)

    posts = []
    for k, (sx, sy) in enumerate([(-1, -1), (1, -1), (-1, 1), (1, 1)]):
        x = sx * (length / 2 - c)
        y = sy * (width / 2 - c)
        posts.append(b.add(f"post_{k}", rod_part([x, y, 0], [x, y, h], c),
                           Material.METAL, "tube"))
    rails = []
    for k, sy in enumerate((-1, 1)):
        y = sy * (width / 2 - c)
        rails.append(b.add(f"rail_{k}",
                           rod_part([-(length / 2 - c), y, h], [length / 2 - c, y, h], c),
                           Material.METAL, "tube"))
        b.join(rails[-1], posts[0 if sy < 0 else 2])
        b.join(rails[-1], posts[1 if sy < 0 else 3])
    # slanted diagonal braces, varied angle
    for k, sy in enumerate((-1, 1)):
        y = sy * (width / 2 - c)
        ang = _metal_angle(rng, cfg)
        reach = min(h / math.tan(ang), length * 0.8)
        name = b.add(f"brace_{k}",
                     rod_part([-(length / 2 - c), y, 0],
                              [-(length / 2 - c) + reach, y, h], c),
                     Material.METAL, "tube")
        b.join(name, posts[0 if sy < 0 else 2])
        b.join(name, rails[k])
    head = b.add("headboard",
                 arc_tube([-(length / 2 - c), 0, h], width / 2 - c, 0.0, math.pi,
                          c * 1.2, e1=(0.0, 1.0, 0.0), e2=(0.0, 0.0, 1.0)),
                 Material.METAL, "tube")
    b.join(head, posts[0])
    b.join(head, posts[2])
    return b


def mixed_chair(rng, cfg: GeneratorConfig) -> _Builder:
    """Metal splayed frame with a wooden seat and back: covers the
    wood-metal joint kinds (bracket for the seat, screw for the rod-tube
    crossbar) alongside welds and wood-wood joints."""
    b = _Builder()
    w = 0.40 + 0.08 * rng.random()
    d = 0.40 + 0.08 * rng.random()
    seat_z = 0.42 + 0.05 * rng.random()
    back_h = 0.30 + 0.08 * rng.random()
    diag = math.sqrt(w * w + d * d + (seat_z + back_h) ** 2)
    c = diag * rng.uniform(*cfg.metal_thickness)
    tw = diag * rng.uniform(*cfg.wood_thickness)

    ang = _metal_angle(rng, cfg)
    spread = seat_z / math.tan(ang)
    legs = []
    for k, (sx, sy) in enumerate([(-1, -1), (1, -1), (-1, 1), (1, 1)]):
        top = np.array([sx * (w / 2 - c), sy * (d / 2 - c), seat_z])
        foot = top + np.array([sx * spread, sy * spread, -seat_z])
        legs.append(b.add(f"leg_{k}", rod_part(foot, top, c), Material.METAL, "tube"))
    seat = b.add("seat", box_part([0, 0, seat_z + tw / 2], [w, d, tw]),
                 Material.WOOD, "board")
    for leg in legs:
        b.join(leg, seat)
    for k, (a, cidx) in enumerate([(0, 1), (2, 3)]):
        pa = _point_on_leg(w, d, seat_z, spread, a, seat_z * rng.uniform(0.3, 0.6), c)
        pc = _point_on_leg(w, d, seat_z, spread, cidx, seat_z * rng.uniform(0.3, 0.6), c)
        name = b.add(f"brace_{k}", rod_part(pa, pc, c), Material.METAL, "tube")
        b.join(name, legs[a])
        b.join(name, legs[cidx])

    posts = []
    for k, sx in enumerate((-1, 1)):
        x = sx * (w / 2 - tw)
        y = d / 2 - tw
        posts.append(b.add(f"post_{k}",
                           rod_part([x, y, seat_z + tw], [x, y, seat_z + tw + back_h], tw),
                           Material.WOOD, "rod"))
        b.join(posts[-1], seat)
    dev = _jitter_angle(rng, cfg.wood_jitter_deg)
    x0 = -(w / 2 - tw) + tw / 2
    x1 = (w / 2 - tw) - tw / 2
    dz = (x1 - x0) * math.tan(dev)
    slat = b.add("slat_0", rod_part([x0, d / 2 - tw, seat_z + tw + 0.7 * back_h - dz / 2],
                                    [x1, d / 2 - tw, seat_z + tw + 0.7 * back_h + dz / 2],
                                    tw * 0.85), Material.WOOD, "rod")
    b.join(slat, posts[0])
    b.join(slat, posts[1])
    # metal crossbar through the wooden posts: the screw exemplar
    bar = b.add("crossbar", rod_part([x0, d / 2 - tw, seat_z + tw + 0.4 * back_h],
                                     [x1, d / 2 - tw, seat_z + tw + 0.4 * back_h], c),
                Material.METAL, "tube")
    b.join(bar, posts[0])
    b.join(bar, posts[1])
    return b


def mixed_table(rng, cfg: GeneratorConfig) -> _Builder:
    """Metal slanted legs, wooden top board, wooden aprons."""
    b = _Builder()
    w = 0.75 + 0.2 * rng.random()
    d = 0.5 + 0.15 * rng.random()
    h = 0.45 + 0.1 * rng.random()
    diag = math.sqrt(w * w + d * d + h * h)
    c = diag * rng.uniform(*cfg.metal_thickness)
    tw = diag * rng.uniform(*cfg.wood_thickness)

    ang = _metal_angle(rng, cfg)
    spread = h / math.tan(ang)
    legs = []
    for k, (sx, sy) in enumerate([(-1, -1), (1, -1), (-1, 1), (1, 1)]):
        top = np.array([sx * (w / 2 - c), sy * (d / 2 - c), h])
        foot = top + np.array([sx * spread, sy * spread, -h])
        legs.append(b.add(f"leg_{k}", rod_part(foot, top, c), Material.METAL, "tube"))
    top_board = b.add("top", box_part([0, 0, h + tw / 2], [w, d, tw]),
                      Material.WOOD, "board")
    for leg in legs:
        b.join(leg, top_board)
    # wooden aprons clamped at the leg tops: screw exemplars
    for k, (a, cidx) in enumerate([(0, 1), (2, 3)]):
        pa = _point_on_leg(w, d, h, spread, a, h * 0.96, c)
        pc = _point_on_leg(w, d, h, spread, cidx, h * 0.96, c)
        name = b.add(f"apron_{k}", rod_part(pa, pc, tw * 0.9), Material.WOOD, "rod")
        b.join(name, legs[a])
        b.join(name, legs[cidx])
    return b


def metal_cabinet(rng, cfg: GeneratorConfig) -> _Builder:
    """Tall narrow locker proportions, unlike the squat wooden cabinets."""
    b = _Builder()
    w = 0.3 + 0.1 * rng.random()
    d = 0.25 + 0.1 * rng.random()
    h = 0.95 + 0.2 * rng.random()
    diag = math.sqrt(w * w + d * d + h * h)
    t = diag * rng.uniform(*cfg.metal_thickness)

    left = b.add("left", box_part([-(w - t) / 2, 0, h / 2], [t, d, h]), Material.METAL, "sheet")
    right = b.add("right", box_part([(w - t) / 2, 0, h / 2], [t, d, h]), Material.METAL, "sheet")
    top = b.add("top", box_part([0, 0, h - t / 2], [w - 2 * t, d, t]), Material.METAL, "sheet")
    bottom = b.add("bottom", box_part([0, 0, t / 2], [w - 2 * t, d, t]), Material.METAL, "sheet")
    back = b.add("back", box_part([0, (d - t) / 2, h / 2], [w - 2 * t, t, h - 2 * t]),
                 Material.METAL, "sheet")
    for a, c in [(left, top), (left, bottom), (right, top), (right, bottom),
                 (back, left), (back, right)]:
        b.join(a, c)
    return b


_VARIANTS = {
    "chair": (wood_chair, metal_chair, mixed_chair),
    "table": (wood_table, metal_table, mixed_table),
    "bed": (wood_bed, metal_bed),
    "cabinet": (wood_cabinet, metal_cabinet),
}
_VARIANT_NAMES = {
    "chair": ("wood", "metal", "mixed"),
    "table": ("wood", "metal", "mixed"),
    "bed": ("wood", "metal"),
    "cabinet": ("wood", "metal"),
}


def generate_synthetic_database(config: GeneratorConfig, seed=0) -> list:
    """Deterministic list of tagged DatabaseSources per the category mix;
    wood, metal (and mixed, for chairs and tables) variants rotate within
    each category."""
    rng = np.random.default_rng(seed)
    sources = []
    for cat, count in config.counts().items():
        if count < 1:
            raise ValueError(f"category {cat} needs at least one model")
        variants = _VARIANTS[cat]
        names = _VARIANT_NAMES[cat]
        for k in range(count):
            builder = variants[k % len(variants)](rng, config)
            sources.append(builder.source(f"{cat}_{k:03d}_{names[k % len(names)]}"))
    return sources
