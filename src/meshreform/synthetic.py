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

Each generator composes one private helper per furniture idiom:
``_corner_posts`` (four upright rods), ``_splayed_legs`` (four metal legs at
one drawn angle), ``_top`` (a board on the legs), ``_rails`` (a rod between
each pair of legs), ``_back`` (a chair back of two posts and slats),
``_carcass`` (a cabinet's five panels) and ``_wood_tilt`` (the jitter that
tilts a wood rail, slat, stretcher or apron off level). The benchmark draws
all ten generators through ``generate_synthetic_database`` for build-db and
for the reform database, and ``mixed_table``, ``metal_bed`` and
``metal_cabinet`` as reform-to-wood queries.

``rod_part`` and ``arc_tube`` are wound inside out (their face normals point
into the part), so inward-ray thickness voting misses on them and their
thickness is the OBB fallback; ``box_part`` is wound outwards.

Output is deterministic per seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .database import DatabaseSource
from .mesh import Material, Model, Part, TriangleMesh
from .obb import OrientedBox, box_mesh

# a rod's cross-section is oriented by this direction, or by +x when the
# rod is within about 18 degrees of it
_ROD_UP = np.array([0.0, 0.0, 1.0])


def box_part(center, dims) -> TriangleMesh:
    return box_mesh(OrientedBox(center, np.eye(3), 0.5 * np.asarray(dims, dtype=float)))


def rod_part(p0, p1, width, height=None) -> TriangleMesh:
    """Box swept from p0 to p1 with a width x height cross-section."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    height = width if height is None else height
    axis = p1 - p0
    length = np.linalg.norm(axis)
    axis = axis / length
    up = _ROD_UP
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


# a part's kind fixes its material
_MATERIAL = {"rod": Material.WOOD, "board": Material.WOOD,
             "tube": Material.METAL, "sheet": Material.METAL}


class _Builder:
    """Accumulates parts and joint tags for one model."""

    def __init__(self):
        self.parts = []
        self.tags = {}
        self.kinds = {}   # name -> "rod" | "board" | "tube" | "sheet"

    def add(self, name, mesh, kind):
        self.parts.append(Part(id=len(self.parts), mesh=mesh,
                               material=_MATERIAL[kind], name=name))
        self.kinds[name] = kind
        return name

    def join(self, a, *others):
        """Tag the joint between part ``a`` and each of ``others``."""
        for o in others:
            ka, ko = self.kinds[a], self.kinds[o]
            self.tags[frozenset((a, o))] = rule_joint_kind(
                ka, _MATERIAL[ka], ko, _MATERIAL[ko])

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


# ---------------------------------------------------------------------------
# furniture idioms
# ---------------------------------------------------------------------------

_CORNERS = ((-1, -1), (1, -1), (-1, 1), (1, 1))
_SIDES = ((0, 1), (2, 3), (0, 2), (1, 3))   # corner pairs along x, then y


def _corner_at(half_x, half_y):
    """``at(k, z)``: the point at height z over corner k of the rectangle
    with half sides half_x, half_y."""
    return lambda k, z: np.array([_CORNERS[k][0] * half_x, _CORNERS[k][1] * half_y, z])


def _corner_posts(b, name, half_x, half_y, tops, width, kind):
    """Four upright rods at the rectangle's corners, rod k from the floor to
    ``tops[k]``; returns their names and the corners' ``at``."""
    at = _corner_at(half_x, half_y)
    return [b.add(f"{name}_{k}", rod_part(at(k, 0), at(k, top), width), kind)
            for k, top in enumerate(tops)], at


def _splayed_legs(b, rng, cfg, w, d, h, c):
    """Four metal tubes of width c from the corners of a w x d top at height
    h, splayed outwards at one angle to the floor drawn from
    ``cfg.metal_angle_range``; returns their names and ``at(k, z)``, the
    point of leg k at height z."""
    spread = h / math.tan(math.radians(rng.uniform(*cfg.metal_angle_range)))
    ends = []
    for sx, sy in _CORNERS:
        top = np.array([sx * (w / 2 - c), sy * (d / 2 - c), h])
        ends.append((top + np.array([sx * spread, sy * spread, -h]), top))
    legs = [b.add(f"leg_{k}", rod_part(foot, top, c), "tube")
            for k, (foot, top) in enumerate(ends)]
    return legs, lambda k, z: ends[k][0] + z / h * (ends[k][1] - ends[k][0])


def _top(b, name, legs, w, d, z, t, kind):
    """A w x d board of thickness t lying at height z, joined to every leg."""
    top = b.add(name, box_part([0, 0, z + t / 2], [w, d, t]), kind)
    b.join(top, *legs)
    return top


def _rails(b, name, legs, at, pairs, heights, width, kind):
    """A rod from ``at(a, za)`` to ``at(c, zc)`` for each leg pair (a, c),
    with ``za, zc = heights(a, c)``; each rod joins both legs."""
    for k, (a, c) in enumerate(pairs):
        za, zc = heights(a, c)
        rail = b.add(f"{name}_{k}", rod_part(at(a, za), at(c, zc), width), kind)
        b.join(rail, legs[a], legs[c])


def _wood_tilt(rng, cfg, span, z):
    """End heights of a wood member of length ``span`` centred at height z,
    tilted off level by a normal jitter clipped to ``cfg.wood_jitter_deg``."""
    jitter = cfg.wood_jitter_deg
    dev = math.radians(float(np.clip(rng.normal(0.0, jitter / 2.0), -jitter, jitter)))
    dz = span * math.tan(dev)
    return z - dz / 2, z + dz / 2


def _back(b, rng, cfg, seat, half_w, y, z0, back_h, t, fracs):
    """A chair back: two wood posts of width t at (+-half_w, y), rising
    back_h from z0 and joined to the seat, and a tilted slat between them at
    each height z0 + back_h * f; returns the posts."""
    posts = [b.add(f"post_{k}", rod_part([sx * half_w, y, z0],
                                         [sx * half_w, y, z0 + back_h], t), "rod")
             for k, sx in enumerate((-1, 1))]
    b.join(seat, *posts)
    x0, x1 = -half_w + t / 2, half_w - t / 2
    for k, f in enumerate(fracs):
        z_lo, z_hi = _wood_tilt(rng, cfg, x1 - x0, z0 + back_h * f)
        slat = b.add(f"slat_{k}", rod_part([x0, y, z_lo], [x1, y, z_hi], t * 0.85), "rod")
        b.join(slat, *posts)
    return posts


def _carcass(b, w, d, h, t, kind):
    """A cabinet's left, right, top, bottom and back panels of thickness t."""
    b.add("left", box_part([-(w - t) / 2, 0, h / 2], [t, d, h]), kind)
    b.add("right", box_part([(w - t) / 2, 0, h / 2], [t, d, h]), kind)
    b.add("top", box_part([0, 0, h - t / 2], [w - 2 * t, d, t]), kind)
    b.add("bottom", box_part([0, 0, t / 2], [w - 2 * t, d, t]), kind)
    b.add("back", box_part([0, (d - t) / 2, h / 2], [w - 2 * t, t, h - 2 * t]), kind)
    b.join("left", "top", "bottom")
    b.join("right", "top", "bottom")
    b.join("back", "left", "right")


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

    legs, at = _corner_posts(b, "leg", w / 2 - t / 2, d / 2 - t / 2, (seat_z,) * 4, t, "rod")
    seat = _top(b, "seat", legs, w, d, seat_z, ts, "board")
    _back(b, rng, cfg, seat, w / 2 - t / 2, d / 2 - t / 2, seat_z + ts, back_h, t,
          [0.35 + 0.5 * (k + 1) / (n_slats + 1) for k in range(n_slats)])
    _rails(b, "stretcher", legs, at, _SIDES[:max(n_stretchers, 0)],
           lambda a, c: _wood_tilt(rng, cfg, np.linalg.norm(at(c, 0) - at(a, 0)),
                                   seat_z * (0.25 + 0.1 * rng.random())),
           t * 0.85, "rod")
    return b


def wood_table(rng, cfg: GeneratorConfig) -> _Builder:
    b = _Builder()
    w = 0.78 + 0.2 * rng.random()
    d = 0.52 + 0.15 * rng.random()
    h = 0.45 + 0.1 * rng.random()
    diag = math.sqrt(w * w + d * d + h * h)
    t = diag * rng.uniform(*cfg.wood_thickness)
    tt = diag * rng.uniform(*cfg.wood_thickness)

    legs, at = _corner_posts(b, "leg", w / 2 - t / 2, d / 2 - t / 2, (h,) * 4, t, "rod")
    _top(b, "top", legs, w, d, h, tt, "board")
    _rails(b, "apron", legs, at, _SIDES,
           lambda a, c: _wood_tilt(rng, cfg, np.linalg.norm(at(c, 0) - at(a, 0)),
                                   h * (0.82 + 0.05 * rng.random())),
           t * 0.9, "rod")
    return b


def wood_bed(rng, cfg: GeneratorConfig, n_slats=3) -> _Builder:
    b = _Builder()
    length = 1.0 + 0.3 * rng.random()
    width = 0.5 + 0.2 * rng.random()
    h = 0.25 + 0.1 * rng.random()
    head_h = 0.25 + 0.1 * rng.random()
    diag = math.sqrt(length ** 2 + width ** 2 + (h + head_h) ** 2)
    t = diag * rng.uniform(*cfg.wood_thickness)

    y = width / 2 - t / 2
    posts, _ = _corner_posts(b, "post", length / 2 - t / 2, y,
                             (h + head_h, h, h + head_h, h), t, "rod")
    # The side rails end half a post inside the posts' centres, so they span
    # length - 2t; their tilt is drawn over length - t all the same.
    _rails(b, "rail", posts, _corner_at(length / 2 - t, y), ((0, 1), (2, 3)),
           lambda a, c: _wood_tilt(rng, cfg, length - t, h), t * 0.95, "rod")
    for k in range(n_slats):
        x = -length / 2 + (k + 1) * length / (n_slats + 1)
        z_lo, z_hi = _wood_tilt(rng, cfg, width - t, h + t * 0.85)
        slat = b.add(f"slat_{k}", rod_part([x, -y, z_lo], [x, y, z_hi], t * 0.85), "rod")
        b.join(slat, "rail_0", "rail_1")
    head = b.add("headboard", box_part([-(length / 2 - t / 2), 0, h + head_h / 2],
                                       [t, width, head_h]), "board")
    b.join(head, posts[0], posts[2])
    return b


def wood_cabinet(rng, cfg: GeneratorConfig) -> _Builder:
    b = _Builder()
    w = 0.55 + 0.2 * rng.random()
    d = 0.33 + 0.1 * rng.random()
    h = 0.65 + 0.15 * rng.random()
    diag = math.sqrt(w * w + d * d + h * h)
    t = diag * rng.uniform(*cfg.wood_thickness)

    _carcass(b, w, d, h, t, "board")
    b.add("shelf", box_part([0, 0, h * (0.4 + 0.2 * rng.random())], [w - 2 * t, d - t, t]),
          "board")
    b.join("shelf", "left", "right")
    return b


# ---------------------------------------------------------------------------
# metal furniture
# ---------------------------------------------------------------------------

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
    legs, at = _splayed_legs(b, rng, cfg, w, d, seat_z, c)
    seat = _top(b, "seat", legs, w, d, seat_z, sheet_t, "sheet")
    # braces between front/back leg pairs at a varied angle
    _rails(b, "brace", legs, at, ((0, 1), (2, 3)),
           lambda *_: (seat_z * rng.uniform(0.25, 0.6), seat_z * rng.uniform(0.25, 0.6)),
           c, "tube")
    # arc backrest tube standing on the seat
    back = b.add("backrest", arc_tube([0, d / 2 - c, seat_z + sheet_t], 0.42 * w,
                                      0.0, math.pi, c * 1.2), "tube")
    b.join(back, seat)
    return b


def metal_table(rng, cfg: GeneratorConfig) -> _Builder:
    b = _Builder()
    w = 0.75 + 0.2 * rng.random()
    d = 0.5 + 0.15 * rng.random()
    h = 0.45 + 0.1 * rng.random()
    diag = math.sqrt(w * w + d * d + h * h)
    c = diag * rng.uniform(*cfg.metal_thickness)
    sheet_t = diag * rng.uniform(*cfg.metal_thickness)

    legs, at = _splayed_legs(b, rng, cfg, w, d, h, c)
    _top(b, "top", legs, w, d, h, sheet_t, "sheet")
    # X brace between diagonal legs
    _rails(b, "brace", legs, at, ((0, 3), (1, 2)),
           lambda *_: (h * rng.uniform(0.2, 0.5), h * rng.uniform(0.5, 0.9)), c, "tube")
    return b


def metal_bed(rng, cfg: GeneratorConfig) -> _Builder:
    b = _Builder()
    length = 1.0 + 0.3 * rng.random()
    width = 0.5 + 0.2 * rng.random()
    h = 0.25 + 0.08 * rng.random()
    head_h = 0.25 + 0.1 * rng.random()
    diag = math.sqrt(length ** 2 + width ** 2 + (h + head_h) ** 2)
    c = diag * rng.uniform(*cfg.metal_thickness)

    posts, at = _corner_posts(b, "post", length / 2 - c, width / 2 - c, (h,) * 4, c, "tube")
    _rails(b, "rail", posts, at, ((0, 1), (2, 3)), lambda *_: (h, h), c, "tube")
    # slanted diagonal braces from the head posts' feet, varied angle
    for k in range(2):
        reach = min(h / math.tan(math.radians(rng.uniform(*cfg.metal_angle_range))),
                    length * 0.8)
        foot = at(2 * k, 0)
        brace = b.add(f"brace_{k}", rod_part(foot, foot + [reach, 0, h], c), "tube")
        b.join(brace, posts[2 * k], f"rail_{k}")
    head = b.add("headboard",
                 arc_tube([-(length / 2 - c), 0, h], width / 2 - c, 0.0, math.pi,
                          c * 1.2, e1=(0.0, 1.0, 0.0)), "tube")
    b.join(head, posts[0], posts[2])
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

    legs, at = _splayed_legs(b, rng, cfg, w, d, seat_z, c)
    seat = _top(b, "seat", legs, w, d, seat_z, tw, "board")
    _rails(b, "brace", legs, at, ((0, 1), (2, 3)),
           lambda *_: (seat_z * rng.uniform(0.3, 0.6), seat_z * rng.uniform(0.3, 0.6)),
           c, "tube")
    posts = _back(b, rng, cfg, seat, w / 2 - tw, d / 2 - tw, seat_z + tw, back_h, tw, [0.7])
    # metal crossbar through the wooden posts, over the slat's x range: the
    # screw exemplar
    x, y, z = w / 2 - tw - tw / 2, d / 2 - tw, seat_z + tw + 0.4 * back_h
    bar = b.add("crossbar", rod_part([-x, y, z], [x, y, z], c), "tube")
    b.join(bar, *posts)
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

    legs, at = _splayed_legs(b, rng, cfg, w, d, h, c)
    _top(b, "top", legs, w, d, h, tw, "board")
    # wooden aprons clamped at the leg tops: screw exemplars
    _rails(b, "apron", legs, at, ((0, 1), (2, 3)), lambda *_: (h * 0.96, h * 0.96),
           tw * 0.9, "rod")
    return b


def metal_cabinet(rng, cfg: GeneratorConfig) -> _Builder:
    """Tall narrow locker proportions, unlike the squat wooden cabinets."""
    b = _Builder()
    w = 0.3 + 0.1 * rng.random()
    d = 0.25 + 0.1 * rng.random()
    h = 0.95 + 0.2 * rng.random()
    diag = math.sqrt(w * w + d * d + h * h)
    t = diag * rng.uniform(*cfg.metal_thickness)

    _carcass(b, w, d, h, t, "sheet")
    return b


# (variant name, generator) per category
_VARIANTS = {
    "chair": (("wood", wood_chair), ("metal", metal_chair), ("mixed", mixed_chair)),
    "table": (("wood", wood_table), ("metal", metal_table), ("mixed", mixed_table)),
    "bed": (("wood", wood_bed), ("metal", metal_bed)),
    "cabinet": (("wood", wood_cabinet), ("metal", metal_cabinet)),
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
        for k in range(count):
            variant, generate = variants[k % len(variants)]
            sources.append(generate(rng, config).source(f"{cat}_{k:03d}_{variant}"))
    return sources
