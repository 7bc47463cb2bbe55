import json

import numpy as np
import pytest

from meshreform.codec import encode
from meshreform.database import (DB_VERSION, AngleHistogram, Database,
                                 DatabaseSource, DatabaseVersionError,
                                 build_database, cluster_candidates,
                                 load_database, part_feature, save_database,
                                 _index_model, _kmeans)
from meshreform.mesh import Material, Model
from meshreform.pipeline import PipelineConfig, analyze_model
from meshreform.synthetic import GeneratorConfig, wood_table
from conftest import make_box_part

CFG = PipelineConfig(contact_samples=3000)


def table_source():
    rng = np.random.default_rng(0)
    return wood_table(rng, GeneratorConfig()).source("table")


def test_build_counts_single_table():
    src = table_source()
    db = build_database([src], CFG)
    assert len(db.parts) == len(src.model.parts)
    # legs-top and apron-leg contacts at minimum
    assert len(db.contacts) >= 8
    assert db.histograms["wood"].total > 0


def test_other_parts_excluded():
    src = table_source()
    src.model.parts[0].material = Material.OTHER
    db = build_database([src], CFG)
    assert len(db.parts) == len(src.model.parts) - 1
    names = {p.source_model for p in db.parts}
    assert names == {"table"}


def test_untagged_part_rejected():
    src = table_source()
    src.model.parts[2].material = Material.UNTAGGED
    with pytest.raises(ValueError, match="untagged"):
        build_database([src], CFG)


@pytest.mark.parametrize("thickness_bin", [0.005, 0.02])
def test_exemplars_analysed_like_queries(thickness_bin):
    """An exemplar part gets the descriptor the same model would get as a
    query under the same config, thickness bin included."""
    src = table_source()
    cfg = PipelineConfig(contact_samples=3000, thickness_bin=thickness_bin)
    db = build_database([src], cfg)
    analysis = analyze_model(src.model, cfg)
    assert len(db.parts) == len(analysis.model.parts)
    for exemplar, part in zip(db.parts, analysis.model.parts):
        assert (json.dumps(encode(exemplar.descriptor))
                == json.dumps(encode(analysis.descriptors[part.id])))


def test_index_model_matches_build_database():
    """Indexing an existing analysis gives what build_database gives."""
    src = table_source()
    db = Database()
    _index_model(db, analyze_model(src.model, CFG), src.name, src.joint_tags)
    assert json.dumps(encode(db)) == json.dumps(encode(build_database([src], CFG)))


def test_all_other_model_skipped_but_rejected_as_query():
    other = table_source()
    for p in other.model.parts:
        p.material = Material.OTHER
    other.name = "screws"
    table = table_source()
    db = build_database([other, table], CFG)
    assert len(db.parts) == len(table.model.parts)
    assert {p.source_model for p in db.parts} == {"table"}
    assert db.contacts
    with pytest.raises(ValueError, match="all tagged other"):
        analyze_model(other.model, CFG)


def test_histogram_bins_and_mass():
    h = AngleHistogram("wood")
    for a in (89.0, 88.0, 90.0, 43.0):
        h.add(a)
    assert h.total == 4
    assert h.bins[17] == 3     # 90 clamps into the top bin
    assert h.bins[8] == 1
    assert abs(h.frequencies().sum() - 1.0) < 1e-12
    sm = h.smoothed_frequencies()
    assert sm[17] == pytest.approx(0.5 * 0.75 + 0.25 * 0.0)


def test_feasibility_spot_values(small_db):
    assert small_db.histograms["wood"].feasibility(90.0) >= 0.5
    assert small_db.histograms["wood"].feasibility(30.0) < 0.05


def test_uniform_metal_bins():
    h = AngleHistogram("metal")
    for k in range(18):
        for _ in range(10):
            h.add(AngleHistogram.bin_center(k))
    sm = h.smoothed_frequencies()
    assert np.allclose(sm[1:-1], 1 / 18, atol=1e-12)
    assert sm[0] == pytest.approx(0.75 / 18)


def test_empty_histogram_errors():
    db = Database()
    with pytest.raises(ValueError):
        db.histograms["wood"].feasibility(45.0)


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def synthetic_families_db():
    """Two well-separated part families wrapped in a bare Database."""
    from meshreform.database import ExemplarPart
    from meshreform.mesh import sample_surface
    from meshreform.part_analysis import analyze_part
    rng = np.random.default_rng(1)
    parts = []
    for k in range(12):
        if k % 2 == 0:
            dims = [0.9, 0.05, 0.05] + rng.normal(scale=0.002, size=3)
        else:
            dims = [0.4, 0.35, 0.3] + rng.normal(scale=0.002, size=3)
        p = make_box_part(k, [0, 0, 0], dims)
        desc = analyze_part(p, sample_surface(p, 400, seed=k))
        parts.append(ExemplarPart(index=k, descriptor=desc,
                                  material=Material.WOOD, source_model="m"))
    return Database(parts=parts)


def test_two_families_two_clusters():
    db = synthetic_families_db()
    db = cluster_candidates(db, k=2, seed=0)
    assert len(db.candidates) == 2
    fams = {db.part(c).index % 2 for c in db.candidates}
    assert fams == {0, 1}


def test_k_larger_than_pool():
    db = synthetic_families_db()
    db = cluster_candidates(db, k=50, seed=0)
    assert db.candidates == list(range(12))


def test_clustering_deterministic():
    a = cluster_candidates(synthetic_families_db(), k=3, seed=5)
    b = cluster_candidates(synthetic_families_db(), k=3, seed=5)
    assert a.candidates == b.candidates


def test_congruent_duplicates_skipped(small_db):
    dup = [p.index for p in small_db.parts if p.congruent_duplicate]
    assert dup, "synthetic furniture has congruent legs"
    assert not set(small_db.candidates) & set(dup)


def test_kmeans_sse_nonincreasing():
    rng = np.random.default_rng(2)
    feats = np.vstack([rng.normal(loc=c, scale=0.1, size=(30, 5))
                       for c in (0.0, 1.0, 3.0)])
    _, _, sse = _kmeans(feats, 3, seed=0)
    assert all(b <= a + 1e-9 for a, b in zip(sse, sse[1:]))


def test_part_feature_layout(small_db):
    p = small_db.parts[0]
    f = part_feature(p)
    assert np.allclose(f[:3], p.descriptor.size_vec)
    assert f[3] == p.descriptor.area_ratio
    assert f[4] == p.descriptor.thickness


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_roundtrip(tmp_path, small_db):
    path = tmp_path / "db.json"
    save_database(small_db, path)
    back = load_database(path)
    assert len(back.parts) == len(small_db.parts)
    assert back.candidates == small_db.candidates
    for a, b in zip(small_db.parts, back.parts):
        assert a.material == b.material
        assert a.congruent_duplicate == b.congruent_duplicate
        assert np.allclose(a.descriptor.size_vec, b.descriptor.size_vec)
        assert np.allclose(a.descriptor.obb.axes, b.descriptor.obb.axes)
        assert np.allclose(a.mesh.vertices, b.mesh.vertices)
    for a, b in zip(small_db.contacts, back.contacts):
        assert (a.u, a.v, a.joint_kind) == (b.u, b.v, b.joint_kind)
        assert a.angle == b.angle
        assert np.allclose(a.orientation_vec, b.orientation_vec)
    for key in ("wood", "metal"):
        assert np.array_equal(small_db.histograms[key].bins, back.histograms[key].bins)


def test_save_writes_json_dump_bytes(tmp_path, small_db):
    """The C-encoded file is byte for byte what ``json.dump`` writes."""
    path = tmp_path / "db.json"
    save_database(small_db, path)
    with open(tmp_path / "dump.json", "w") as fh:
        json.dump({"version": DB_VERSION, **encode(small_db)}, fh)
    assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()


def test_truncated_file_errors(tmp_path, small_db):
    path = tmp_path / "db.json"
    save_database(small_db, path)
    raw = path.read_text()
    path.write_text(raw[:len(raw) // 2])
    with pytest.raises(json.JSONDecodeError):
        load_database(path)


def test_future_version_rejected(tmp_path, small_db):
    path = tmp_path / "db.json"
    save_database(small_db, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(DatabaseVersionError):
        load_database(path)
