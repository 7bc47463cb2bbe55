"""Exemplar database: tagged parts, contacting pairs, angle histograms,
and the k-means candidate set used during reform."""

import json
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .codec import check_shapes, decode, encode
from .mesh import Material, Model, TriangleMesh
from .part_analysis import PartDescriptor
from .similarity import orientation_angles

logger = logging.getLogger(__name__)

DB_VERSION = 1
ANGLE_BIN_WIDTH = 5.0
ANGLE_BIN_COUNT = 18
FEASIBILITY_THRESHOLD = 0.03
CANDIDATES_K = 80


class DatabaseVersionError(ValueError):
    pass


@dataclass
class ExemplarPart:
    index: int
    descriptor: PartDescriptor
    material: Material
    source_model: str
    cluster_id: Optional[int] = None
    congruent_duplicate: bool = False
    mesh: Optional[TriangleMesh] = None


@dataclass
class ExemplarContact:
    u: int
    v: int
    barycenter_distance: float
    angle: Optional[float]
    orientation_vec: np.ndarray
    joint_kind: Optional[str] = None

    def __post_init__(self):
        check_shapes(self, orientation_vec=(9,))


@dataclass
class AngleHistogram:
    """Contact-angle histogram for one material pair: 18 bins of 5 degrees
    over [0, 90]."""

    material: str  # "wood" or "metal"
    bins: np.ndarray = field(default_factory=lambda: np.zeros(ANGLE_BIN_COUNT))

    def __post_init__(self):
        check_shapes(self, bins=(ANGLE_BIN_COUNT,))

    @property
    def total(self):
        return float(self.bins.sum())

    @staticmethod
    def bin_of(angle):
        return min(int(angle // ANGLE_BIN_WIDTH), ANGLE_BIN_COUNT - 1)

    @staticmethod
    def bin_center(k):
        return (k + 0.5) * ANGLE_BIN_WIDTH

    def add(self, angle):
        self.bins[self.bin_of(angle)] += 1

    def frequencies(self):
        if self.total == 0:
            raise ValueError(f"empty {self.material} angle histogram")
        return self.bins / self.total

    def smoothed_frequencies(self):
        """Raw frequencies convolved with a one-bin triangular kernel
        [0.25, 0.5, 0.25] (zero padded at the ends)."""
        f = self.frequencies()
        out = 0.5 * f
        out[1:] += 0.25 * f[:-1]
        out[:-1] += 0.25 * f[1:]
        return out

    def feasibility(self, angle):
        return float(self.smoothed_frequencies()[self.bin_of(angle)])


@dataclass
class Database:
    parts: list[ExemplarPart] = field(default_factory=list)
    contacts: list[ExemplarContact] = field(default_factory=list)
    histograms: dict[str, AngleHistogram] = field(default_factory=lambda: {
        m: AngleHistogram(m) for m in ("wood", "metal")})
    candidates: list[int] = field(default_factory=list)  # part indices

    def __post_init__(self):
        n = len(self.parts)
        refs = [(f"contacts[{k}].{end}", getattr(c, end))
                for k, c in enumerate(self.contacts) for end in ("u", "v")]
        refs += [(f"candidates[{k}]", c) for k, c in enumerate(self.candidates)]
        for where, index in refs:
            if not 0 <= index < n:
                raise ValueError(f"{where}: {index} is not a part index ({n} parts)")
        for k, c in enumerate(self.candidates):
            if self.parts[c].mesh is None:
                raise ValueError(f"candidates[{k}]: no mesh for part {c}")

    def part(self, index) -> ExemplarPart:
        return self.parts[index]

    def tagged_contacts(self):
        return [c for c in self.contacts if c.joint_kind is not None]


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

@dataclass
class DatabaseSource:
    """One training model plus optional per-contact joint tags keyed by
    frozenset of the two part names."""

    model: Model
    name: str = ""
    joint_tags: Optional[dict] = None


def build_database(sources, cfg, normalized=False) -> Database:
    """Index tagged models, each analysed by ``pipeline.analyze_model`` with
    the same config as a query.

    Every part must carry a wood/metal/other tag; parts tagged other are
    excluded from the database entirely, and a model whose parts are all
    tagged other is skipped. Congruent duplicates are recorded so candidate
    clustering can keep one instance per class.
    """
    # pipeline imports this module at its top, so import at call time
    from .pipeline import analyze_model

    db = Database()
    for si, src in enumerate(sources):
        name = src.name or f"model_{si}"
        for p in src.model.parts:
            if p.material == Material.UNTAGGED:
                raise ValueError(f"untagged part {p.id} ({p.name!r}) in model {name}")
        if all(p.material == Material.OTHER for p in src.model.parts):
            continue
        _index_model(db, analyze_model(src.model, cfg, normalized), name,
                     src.joint_tags)
    return db


def _index_model(db: Database, analysis, name, joint_tags=None):
    """Append one analysed model's parts and contacts to ``db`` and count
    its same-material contact angles."""
    parts = analysis.model.parts
    descriptors = analysis.descriptors

    index_of = {}
    congruent_dup = set()
    for cls_ in analysis.repetition_graph.classes():
        congruent_dup.update(cls_[1:])
    for p in parts:
        idx = len(db.parts)
        index_of[p.id] = idx
        db.parts.append(ExemplarPart(
            index=idx, descriptor=descriptors[p.id], material=p.material,
            source_model=name, mesh=p.mesh, cluster_id=None,
            congruent_duplicate=p.id in congruent_dup))

    names = {p.id: p.name for p in parts}
    for e in analysis.contact_graph.part_edges():
        du = descriptors[e.i]
        dv = descriptors[e.j]
        kind = None
        if joint_tags:
            kind = joint_tags.get(frozenset((names[e.i], names[e.j])))
        contact = ExemplarContact(
            u=index_of[e.i], v=index_of[e.j],
            barycenter_distance=float(np.linalg.norm(du.barycenter - dv.barycenter)),
            angle=e.angle,
            orientation_vec=orientation_angles(du.obb.axes, dv.obb.axes),
            joint_kind=kind)
        db.contacts.append(contact)
        mats = (db.parts[contact.u].material, db.parts[contact.v].material)
        if e.angle is not None and mats[0] == mats[1]:
            db.histograms[mats[0].value].add(e.angle)


def part_feature(part: ExemplarPart):
    """5-d clustering feature: sorted OBB extents, area ratio, thickness."""
    d = part.descriptor
    return np.array([d.size_vec[0], d.size_vec[1], d.size_vec[2],
                     d.area_ratio, d.thickness])


def _kmeans(features, k, seed, max_iters=100):
    """Deterministic k-means++ / Lloyd. Returns (labels, centers, sse_trace)."""
    rng = np.random.default_rng(seed)
    n = len(features)
    centers = np.empty((k, features.shape[1]))
    centers[0] = features[rng.integers(n)]
    d2 = ((features - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = features[rng.integers(n)]
            continue
        centers[c] = features[np.searchsorted(np.cumsum(d2 / total), rng.random())]
        d2 = np.minimum(d2, ((features - centers[c]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=int)
    sse_trace = []
    for _ in range(max_iters):
        dist = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        sse_trace.append(float(dist[np.arange(n), new_labels].sum()))
        for c in range(k):
            members = features[new_labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        if (new_labels == labels).all() and len(sse_trace) > 1:
            break
        labels = new_labels
    return labels, centers, sse_trace


def cluster_candidates(db: Database, k=CANDIDATES_K, seed=0) -> Database:
    """Select representative parts: drop congruent duplicates, k-means the
    rest on the 5-d features, keep the member nearest each centroid."""
    pool = [p for p in db.parts if not p.congruent_duplicate]
    if len(pool) <= k:
        db.candidates = [p.index for p in pool]
        for p in pool:
            p.cluster_id = p.index
        return db
    feats = np.stack([part_feature(p) for p in pool])
    labels, centers, sse = _kmeans(feats, k, seed)
    if any(b > a + 1e-9 for a, b in zip(sse, sse[1:])):
        raise AssertionError("k-means SSE increased")
    db.candidates = []
    for c in range(k):
        member_idx = np.flatnonzero(labels == c)
        if len(member_idx) == 0:
            continue
        d2 = ((feats[member_idx] - centers[c]) ** 2).sum(axis=1)
        rep = pool[member_idx[int(np.argmin(d2))]]
        db.candidates.append(rep.index)
    for p, lab in zip(pool, labels):
        p.cluster_id = int(lab)
    db.candidates.sort()
    return db


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_database(db: Database, path):
    # json.dump always runs the pure-Python encoder; dumps (without indent)
    # runs the C one and writes the same bytes
    with open(path, "w") as fh:
        fh.write(json.dumps({"version": DB_VERSION, **encode(db)}))


def load_database(path) -> Database:
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != DB_VERSION:
        raise DatabaseVersionError(
            f"database version {version!r} not supported (expected {DB_VERSION})")
    return decode(Database, doc)
