import json

import numpy as np
import pytest

from meshreform.codec import decode, encode
from meshreform.database import build_database
from meshreform.mesh import Material
from meshreform.pipeline import PipelineConfig
from meshreform.synthetic import (GeneratorConfig, generate_synthetic_database,
                                  rule_joint_kind, wood_chair)


def test_deterministic_per_seed():
    cfg = GeneratorConfig(scale=0.03)
    a = generate_synthetic_database(cfg, seed=7)
    b = generate_synthetic_database(cfg, seed=7)
    assert [s.name for s in a] == [s.name for s in b]
    for sa, sb in zip(a, b):
        for pa, pb in zip(sa.model.parts, sb.model.parts):
            assert np.array_equal(pa.mesh.vertices, pb.mesh.vertices)
            assert np.array_equal(pa.mesh.faces, pb.mesh.faces)
            assert pa.material == pb.material
        assert sa.joint_tags == sb.joint_tags


def test_different_seed_differs():
    cfg = GeneratorConfig(scale=0.03)
    a = generate_synthetic_database(cfg, seed=1)
    b = generate_synthetic_database(cfg, seed=2)
    assert not np.array_equal(a[0].model.parts[0].mesh.vertices,
                              b[0].model.parts[0].mesh.vertices)


def test_category_mix_rounds_up():
    cfg = GeneratorConfig(chairs=83, tables=32, beds=19, cabinets=18, scale=0.2)
    assert cfg.counts() == {"chair": 17, "table": 7, "bed": 4, "cabinet": 4}


def test_wood_histogram_mass_concentrated(small_db):
    h = small_db.histograms["wood"]
    assert h.bins[17] / h.total >= 0.8


def test_metal_histogram_spread(small_db):
    h = small_db.histograms["metal"]
    assert (h.bins[:14].sum()) > 0, "metal angles should reach below 70 degrees"


def test_thickness_ranges(small_sources, small_gen_config):
    """Normalized thickness of generated parts stays in the configured
    material bands (one voting bin of slack)."""
    db = build_database(small_sources[:6], PipelineConfig(contact_samples=2000))
    for p in db.parts:
        t = p.descriptor.thickness
        if p.material == Material.WOOD:
            assert 0.015 - 0.005 <= t <= 0.04 + 0.005
        else:
            assert t <= 0.01 + 0.005


def test_joint_tags_follow_rulebook(small_sources):
    for src in small_sources:
        kinds = {p.name: k for p, k in
                 ((p, None) for p in src.model.parts)}
        # regenerate expectation from the builders' kind map via rule_joint_kind
        # (tags were produced by the same rule; verify internal consistency)
        mats = {p.name: p.material for p in src.model.parts}
        for pair, kind in src.joint_tags.items():
            a, b = sorted(pair)
            cat_materials = {mats[a], mats[b]}
            if cat_materials == {Material.WOOD}:
                assert kind in ("mortise_tenon", "lap", "dowel")
            elif cat_materials == {Material.METAL}:
                assert kind in ("weld", "bolt")
            else:
                assert kind in ("screw", "bracket")


def test_rulebook():
    assert rule_joint_kind("rod", Material.WOOD, "board", Material.WOOD) == "mortise_tenon"
    assert rule_joint_kind("rod", Material.WOOD, "rod", Material.WOOD) == "dowel"
    assert rule_joint_kind("board", Material.WOOD, "board", Material.WOOD) == "lap"
    assert rule_joint_kind("tube", Material.METAL, "tube", Material.METAL) == "weld"
    assert rule_joint_kind("sheet", Material.METAL, "tube", Material.METAL) == "bolt"
    assert rule_joint_kind("board", Material.WOOD, "tube", Material.METAL) == "bracket"
    assert rule_joint_kind("rod", Material.WOOD, "tube", Material.METAL) == "screw"


def test_dense_chair_part_count():
    cfg = GeneratorConfig()
    rng = np.random.default_rng(1)
    b = wood_chair(rng, cfg, n_stretchers=4, n_slats=16)
    assert len(b.parts) == 4 + 1 + 2 + 16 + 4


def test_all_parts_tagged(small_sources):
    for src in small_sources:
        for p in src.model.parts:
            assert p.material in (Material.WOOD, Material.METAL)


def test_counts_require_positive():
    cfg = GeneratorConfig(chairs=0, scale=1.0)
    with pytest.raises(ValueError):
        generate_synthetic_database(cfg, seed=0)


def test_config_roundtrip():
    cfg = GeneratorConfig(scale=0.5, wood_thickness=(0.02, 0.03))
    back = decode(GeneratorConfig, json.loads(json.dumps(encode(cfg))))
    assert back == cfg
