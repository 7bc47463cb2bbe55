import dataclasses
import glob
import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from meshreform import assembly
from meshreform.codec import encode
from meshreform.config_opt import Configuration
from meshreform.database import save_database
from meshreform.mesh import Material, Model, load_model, save_model
from meshreform.pipeline import (PipelineConfig, StageError, analyze_model,
                                 apply_configuration, read_sources,
                                 reform_assignment, reformed_state,
                                 run_pipeline, write_sources)
from meshreform.synthetic import (GeneratorConfig, metal_chair, mixed_table,
                                  wood_chair)


@pytest.fixture(scope="module")
def query_paths(tmp_path_factory, small_gen_config_mod):
    root = tmp_path_factory.mktemp("queries")
    rng = np.random.default_rng(99)
    wood = wood_chair(rng, small_gen_config_mod).source("wq")
    metal = metal_chair(rng, small_gen_config_mod).source("mq")
    wp = os.path.join(root, "wood.obj")
    mp = os.path.join(root, "metal.obj")
    save_model(wood.model, wp)
    save_model(metal.model, mp)
    return wp, mp


@pytest.fixture(scope="module")
def small_gen_config_mod():
    return GeneratorConfig(scale=0.08)


def test_full_pipeline_to_metal(query_paths, small_db, tmp_path):
    cfg = PipelineConfig(contact_samples=3000, target_materials="all=metal")
    summary = run_pipeline(query_paths[0], None, cfg, tmp_path, db=small_db)
    assert set(summary["stages"]) == {"load", "preprocess", "materials",
                                      "reform", "restore", "optimize-angles",
                                      "infer-joints", "refine", "export"}
    spec = json.loads((tmp_path / "spec.json").read_text())
    assert all(p["material"] == "metal" for p in spec["parts"])
    for j in spec["joints"]:
        assert j["joint"]["category"] == "metal-metal"
    assert (tmp_path / "reformed_model.obj").exists()
    reformed = load_model(tmp_path / "reformed_model.obj")
    assert len(reformed.parts) == len(spec["parts"])


def test_summary_reports_reform_variables(query_paths, small_db, tmp_path):
    """The reform stage reports the repetition classes it solved over and its
    largest elimination table, in 03_assignment.json and summary.json."""
    cfg = PipelineConfig(contact_samples=3000, target_materials="all=wood")
    summary = run_pipeline(query_paths[1], None, cfg, tmp_path, db=small_db)
    assignment = json.loads((tmp_path / "03_assignment.json").read_text())
    reform = summary["stages"]["reform"]
    assert set(assignment) == {"labels", "log_potential", "variables", "largest_table"}
    assert 1 <= reform["variables"] == assignment["variables"] <= len(assignment["labels"])
    assert reform["largest_table"] == assignment["largest_table"] >= 1
    assert json.loads((tmp_path / "summary.json").read_text())["stages"]["reform"] == reform


def test_pipeline_self_reform_preserves_node_count(query_paths, small_db, tmp_path):
    cfg = PipelineConfig(contact_samples=3000, target_materials="suggest")
    run_pipeline(query_paths[0], None, cfg, tmp_path, db=small_db)
    analysis = json.loads((tmp_path / "01_analysis.json").read_text())
    spec = json.loads((tmp_path / "spec.json").read_text())
    assert len(spec["parts"]) == len(analysis["descriptors"])
    # topology may differ only at angle-optimization drops
    conf = json.loads((tmp_path / "05_configuration.json").read_text())
    dropped = 0 if conf["selected"] is None else len(conf["selected"]["dropped_edges"])
    orig_edges = [e for e in analysis["contact_graph"]["edges"] if not e["is_ground"]]
    assert len(spec["joints"]) >= len(orig_edges) - dropped - 2


def test_pipeline_deterministic(query_paths, small_db, tmp_path):
    cfg = PipelineConfig(contact_samples=3000, target_materials="all=wood")
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_pipeline(query_paths[1], None, cfg, a_dir, db=small_db)
    run_pipeline(query_paths[1], None, cfg, b_dir, db=small_db)
    a = json.loads((a_dir / "03_assignment.json").read_text())
    b = json.loads((b_dir / "03_assignment.json").read_text())
    assert a == b
    sa = json.loads((a_dir / "spec.json").read_text())
    sb = json.loads((b_dir / "spec.json").read_text())
    assert sa == sb


def test_stage_error_reports_stage(query_paths, tmp_path, small_db):
    import dataclasses
    broken = dataclasses.replace(small_db)
    broken.candidates = []
    cfg = PipelineConfig(contact_samples=3000, target_materials="all=wood")
    with pytest.raises(StageError) as err:
        run_pipeline(query_paths[0], None, cfg, tmp_path, db=broken)
    assert err.value.stage == "reform"
    failure = json.loads((tmp_path / "failure.json").read_text())
    assert failure["stage"] == "reform"


def test_write_read_sources_roundtrip(tmp_path, small_gen_config_mod):
    from meshreform.synthetic import generate_synthetic_database
    sources = generate_synthetic_database(GeneratorConfig(scale=0.02), seed=3)
    write_sources(sources, tmp_path)
    back = read_sources(tmp_path)
    assert [s.name for s in back] == [s.name for s in sources]
    for sa, sb in zip(sources, back):
        assert sa.joint_tags == sb.joint_tags
        assert len(sa.model.parts) == len(sb.model.parts)
        for pa, pb in zip(sa.model.parts, sb.model.parts):
            assert pa.material == pb.material
            assert np.allclose(pa.mesh.vertices, pb.mesh.vertices)


def test_other_parts_ignored_by_analysis(small_gen_config_mod):
    from meshreform.mesh import Material
    rng = np.random.default_rng(5)
    src = wood_chair(rng, small_gen_config_mod).source("q")
    src.model.parts[0].material = Material.OTHER
    cfg = PipelineConfig(contact_samples=2000)
    analysis = analyze_model(src.model, cfg)
    assert 0 not in analysis.descriptors
    assert 0 not in analysis.contact_graph.nodes
    assert len(analysis.descriptors) == len(src.model.parts) - 1


def test_all_other_parts_rejected(small_gen_config_mod):
    from meshreform.mesh import Material
    rng = np.random.default_rng(6)
    src = wood_chair(rng, small_gen_config_mod).source("q")
    for p in src.model.parts:
        p.material = Material.OTHER
    with pytest.raises(ValueError, match="all tagged other"):
        analyze_model(src.model, PipelineConfig())


def test_every_config_field_is_read():
    """A PipelineConfig field that no stage reads is a knob without a caller."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "meshreform")
    text = "".join(open(p).read() for p in glob.glob(os.path.join(src, "*.py")))
    unread = [f.name for f in dataclasses.fields(PipelineConfig)
              if not re.search(rf"\bcfg\.{f.name}\b", text)]
    assert not unread


def test_config_roundtrip(tmp_path):
    cfg = PipelineConfig(d_c=0.02, seed=5,
                         joint_overrides={(0, 3): "lap"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d_c": 0.02, "seed": 5,
                                "joint_overrides": {"0,3": "lap"}}))
    back = PipelineConfig.load(path)
    assert back.d_c == 0.02
    assert back.seed == 5
    assert back.joint_overrides == {(0, 3): "lap"}
    assert back == cfg


def test_config_joint_override_pair_is_sorted():
    cfg = PipelineConfig.from_json({"joint_overrides": {"3,1": "lap"}})
    assert cfg.joint_overrides == {(1, 3): "lap"}


@pytest.mark.parametrize("overrides, named", [
    ({"0,2": "foo"}, "foo"), ({"0,2": 3}, "3"), ({"0": "lap"}, "'0'"),
    ({"0,1,2": "lap"}, "0,1,2"), ({"a,b": "lap"}, "a,b"),
])
def test_config_bad_joint_override_is_rejected(overrides, named):
    with pytest.raises(ValueError, match=named):
        PipelineConfig.from_json({"joint_overrides": overrides})


@pytest.mark.parametrize("bad", [
    {"seed": "3"}, {"seed": True}, {"seed": 3.0}, {"contact_samples": 1.5},
    {"d_c": "0.01"}, {"d_c": False}, {"compact_parts": 3},
    {"joint_overrides": [[0, 3, "lap"]]},
])
def test_config_value_of_wrong_type_is_rejected(bad):
    (key,) = bad
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_json(bad)


@pytest.mark.parametrize("key", ["d_c", "thickness_bin", "contact_samples",
                                 "candidates_k"])
@pytest.mark.parametrize("value", [0, -3])
def test_config_non_positive_setting_is_rejected(key, value):
    with pytest.raises(ValueError, match=f"{key} must be positive"):
        PipelineConfig.from_json({key: value})


@pytest.mark.parametrize("value", [-1, -5])
def test_config_negative_seed_is_rejected(value):
    with pytest.raises(ValueError,
                       match=f"seed must be non-negative, got {value}"):
        PipelineConfig.from_json({"seed": value})
    assert PipelineConfig.from_json({"seed": 0}).seed == 0


def test_config_float_field_accepts_int():
    assert PipelineConfig.from_json({"d_c": 1, "seed": 2}).d_c == 1


# ---------------------------------------------------------------------------
# the reformed model handed to the angle stage
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def restored(small_db):
    """A mixed table reformed to wood: its analysis, the posed parts before
    and after contact restoration, the report and the reformed state."""
    cfg = PipelineConfig(contact_samples=3000)
    parts = mixed_table(np.random.default_rng(1), GeneratorConfig()).parts
    analysis = analyze_model(Model(parts=parts), cfg)
    targets = {pid: Material.WOOD for pid in analysis.descriptors}
    assignment = reform_assignment(analysis, targets, small_db, cfg)
    posed = assembly.place_replacements(analysis.descriptors, assignment, small_db,
                                        analysis.samples, seed=cfg.seed)
    placed, report = assembly.restore_contacts(posed, analysis.contact_graph,
                                               small_db, seed=cfg.seed)
    state = reformed_state(analysis, placed, targets, small_db, cfg,
                           restore_report=report)
    return SimpleNamespace(analysis=analysis, posed=posed, report=report,
                           state=state, cfg=cfg)


def test_restoration_translates_each_pose(restored):
    disp = restored.report.displacements
    assert max(np.abs(d).max() for d in disp.values()) > 1e-4
    for before in restored.posed:
        after = restored.state.placed[before.part_id]
        d = disp[before.part_id]
        assert np.array_equal(after.linear, before.linear)
        assert np.allclose(after.offset, before.offset + d, rtol=0, atol=1e-12)
        assert np.allclose(after.box.center, before.box.center + d, rtol=0, atol=1e-12)


def test_reformed_contacts_move_with_their_parts(restored):
    disp = restored.report.displacements
    original = restored.analysis.contact_graph.edges
    edges = restored.state.graph.edges
    assert [(e.key(), e.is_ground) for e in edges] == \
        [(e.key(), e.is_ground) for e in original]
    for old, new in zip(original, edges):
        if new.is_ground:
            want = old.contact_point + disp[new.i]
        else:
            pi, pj = restored.report.foot_points[new.key()]
            want = 0.5 * ((pi + disp[new.i]) + (pj + disp[new.j]))
        assert np.allclose(new.contact_point, want, rtol=0, atol=1e-12)


def test_apply_configuration_drops_and_reposes_only_what_it_names(restored, small_db):
    state = restored.state
    part_edges = state.graph.part_edges()
    grounded = sorted({e.i for e in state.graph.ground_edges()})
    moved = part_edges[0].i
    # turned as well as shifted, so that its contact angles change
    segment = state.descriptors[moved].segment + np.array([[0.0, 0.0, 0.05],
                                                           [0.05, 0.05, 0.05]])
    conf = Configuration(
        index=0, segments={moved: segment}, errors={}, objective=0.0, opt_value=0.0,
        converged=True, dropped_edges=[part_edges[-1].key()], new_contacts=[],
        moved_parts=[moved], no_hanging_ok=True, dropped_ground=[grounded[0]])
    before = encode([state.graph, state.placed])
    out = apply_configuration(state, conf, small_db, restored.cfg)

    assert encode([state.graph, state.placed]) == before
    assert [(e.key(), e.is_ground) for e in out.graph.edges] == [
        (e.key(), e.is_ground) for e in state.graph.edges
        if not (e.key() == part_edges[-1].key()
                or (e.is_ground and e.i == grounded[0]))]
    assert [pid for pid in out.placed if out.placed[pid] is not state.placed[pid]] \
        == [moved]
    assert np.allclose(out.descriptors[moved].segment, segment, rtol=0, atol=1e-12)
    for pid in out.placed:
        if pid != moved:
            assert np.array_equal(out.descriptors[pid].segment,
                                  state.descriptors[pid].segment)
