import functools
import json
import math

import numpy as np
import pytest

from meshreform.codec import decode, encode
from meshreform.database import build_database
from meshreform.mesh import Material
from meshreform.pipeline import PipelineConfig
from meshreform.synthetic import (GeneratorConfig, arc_tube, box_part,
                                  generate_synthetic_database, metal_bed,
                                  metal_cabinet, metal_chair, metal_table,
                                  mixed_chair, mixed_table, rod_part,
                                  rule_joint_kind, wood_bed, wood_cabinet,
                                  wood_chair, wood_table)


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


_GENERATORS = [
    wood_chair, wood_table, wood_bed, wood_cabinet, metal_chair, metal_table,
    metal_bed, metal_cabinet, mixed_chair, mixed_table,
    functools.partial(wood_chair, n_slats=6),
    functools.partial(wood_chair, n_stretchers=4, n_slats=16),
]


def test_joint_tags_follow_rulebook():
    """Each tag is ``rule_joint_kind`` of the two parts' kinds and materials
    as the builder recorded them, for every generator."""
    for generate in _GENERATORS:
        for seed in range(3):
            b = generate(np.random.default_rng(seed), GeneratorConfig())
            mats = {p.name: p.material for p in b.parts}
            assert len(mats) == len(b.parts) == len(b.kinds)
            for name, kind in b.kinds.items():
                wood = kind in ("rod", "board")
                assert mats[name] == (Material.WOOD if wood else Material.METAL)
            assert b.tags
            for pair, tag in b.tags.items():
                a, c = sorted(pair)
                assert tag == rule_joint_kind(b.kinds[a], mats[a], b.kinds[c], mats[c])


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


def _signed_volume(mesh):
    v0, v1, v2 = mesh.triangle_corners()
    return float(np.einsum("ij,ij->", v0, np.cross(v1, v2))) / 6.0


_INSIDE_OUT = pytest.mark.xfail(
    strict=True, reason="FOUND (CHANGES.md): most synthetic parts are wound inside "
    "out; rod_part's box frame is left-handed and arc_tube winds its faces inward")


@pytest.mark.parametrize("make", [
    pytest.param(lambda: box_part([0.1, 0.2, 0.3], [0.5, 0.4, 0.5]), id="box"),
    pytest.param(lambda: rod_part([0, 0, 0], [0.4, 0.3, 1.0], 0.05), id="oblique_rod",
                 marks=_INSIDE_OUT),
    pytest.param(lambda: rod_part([0, 0, 0], [0, 0, 1.0], 0.05), id="vertical_rod",
                 marks=_INSIDE_OUT),
    pytest.param(lambda: arc_tube([0, 0, 0], 0.4, 0.0, math.pi, 0.05), id="arc_tube",
                 marks=_INSIDE_OUT),
])
def test_parts_are_wound_outwards(make):
    """Outward normals give a closed part a positive signed volume."""
    assert _signed_volume(make()) > 0
