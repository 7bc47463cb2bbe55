import json
import os

import numpy as np
import pytest

from meshreform.cli import EXIT_INPUT, EXIT_OK, main
from meshreform.mesh import save_model
from meshreform.synthetic import GeneratorConfig, wood_chair


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """gen-db output plus a query model, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    models = os.path.join(root, "models")
    db = os.path.join(root, "db.json")
    rc = main(["gen-db", "--out", models, "--db", db, "--seed", "7",
               "--scale", "0.06", "--config", _config_path(root)])
    assert rc == EXIT_OK
    rng = np.random.default_rng(3)
    query = wood_chair(rng, GeneratorConfig()).source("query")
    qpath = os.path.join(root, "query.obj")
    save_model(query.model, qpath)
    return {"root": root, "models": models, "db": db, "query": qpath}


def _config_path(root):
    cfg = os.path.join(root, "config.json")
    if not os.path.exists(cfg):
        with open(cfg, "w") as fh:
            json.dump({"contact_samples": 3000, "candidates_k": 30}, fh)
    return cfg


def test_gen_db_wrote_models_and_db(corpus):
    manifest = json.load(open(os.path.join(corpus["models"], "manifest.json")))
    assert len(manifest["models"]) >= 8
    db = json.load(open(corpus["db"]))
    assert db["version"] == 1
    assert db["candidates"]


def test_build_db_matches_gen_db(corpus, tmp_path):
    out = tmp_path / "db2.json"
    rc = main(["build-db", "--models", corpus["models"], "--out", str(out),
               "--seed", "7", "--config", _config_path(corpus["root"])])
    assert rc == EXIT_OK
    a = json.load(open(corpus["db"]))
    b = json.load(open(out))
    assert a["candidates"] == b["candidates"]
    assert len(a["parts"]) == len(b["parts"])


def test_gen_db_takes_the_config_seed(tmp_path):
    """Without --seed, gen-db seeds the corpus and the database from the
    config, as --seed does."""
    small = ["--chairs", "1", "--tables", "1", "--beds", "1", "--cabinets", "1",
             "--scale", "1"]
    base = {"contact_samples": 1000, "candidates_k": 10}
    for name, cfg, seed in (("config", {**base, "seed": 5}, []),
                            ("flag", base, ["--seed", "5"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        rc = main(["gen-db", "--out", str(tmp_path / name), "--db",
                   str(tmp_path / name / "db.json"), "--config", str(path),
                   *small, *seed])
        assert rc == EXIT_OK
    files = sorted(os.listdir(tmp_path / "flag"))
    assert "db.json" in files and sorted(os.listdir(tmp_path / "config")) == files
    for f in files:
        assert (tmp_path / "config" / f).read_bytes() == \
            (tmp_path / "flag" / f).read_bytes(), f


def test_validate_db(corpus, capsys):
    rc = main(["validate", "--db", corpus["db"], "--model", corpus["query"]])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "db ok" in out and "model ok" in out


def test_ingest(corpus, tmp_path):
    out = tmp_path / "analysis.json"
    rc = main(["ingest", "--model", corpus["query"], "--out", str(out),
               "--config", _config_path(corpus["root"])])
    assert rc == EXIT_OK
    doc = json.load(open(out))
    assert set(doc) >= {"descriptors", "contact_graph", "repetition_graph"}


def test_suggest(corpus, tmp_path):
    out = tmp_path / "suggest.json"
    rc = main(["suggest", "--model", corpus["query"], "--db", corpus["db"],
               "--out", str(out), "--config", _config_path(corpus["root"])])
    assert rc == EXIT_OK
    doc = json.load(open(out))
    assert set(doc) == {"materials", "log_potential"}
    assert set(doc["materials"].values()) == {"wood"}


def test_pipeline_command(corpus, tmp_path):
    out = tmp_path / "run"
    rc = main(["pipeline", "--model", corpus["query"], "--db", corpus["db"],
               "--out", str(out), "--config", _config_path(corpus["root"]),
               "--target-material", "all=metal"])
    assert rc == EXIT_OK
    assert (out / "spec.json").exists()
    summary = json.load(open(out / "summary.json"))
    assert "export" in summary["stages"]


def test_pipeline_command_reforms_to_wood(corpus, tmp_path):
    out = tmp_path / "run"
    rc = main(["pipeline", "--model", corpus["query"], "--db", corpus["db"],
               "--out", str(out), "--config", _config_path(corpus["root"]),
               "--target-material", "all=wood"])
    assert rc == EXIT_OK
    assert (out / "03_assignment.json").exists()


def test_joint_override_flag(corpus, tmp_path):
    out = tmp_path / "run"
    rc = main(["pipeline", "--model", corpus["query"], "--db", corpus["db"],
               "--out", str(out), "--config", _config_path(corpus["root"]),
               "--target-material", "all=wood", "--joint-override", "0,4=lap"])
    assert rc == EXIT_OK
    joints = json.load(open(out / "06_joints.json"))
    mine = [j for j in joints if sorted(j["edge"]) == [0, 4]]
    if mine:
        assert mine[0]["joint"]["kind"] == "lap"
        assert not mine[0]["joint"]["ambiguous"]


@pytest.mark.parametrize("flag", ["0,1=foo", "0,1", "0=lap"])
def test_bad_joint_override_flag_is_input_error(corpus, tmp_path, capsys, flag):
    rc = main(["pipeline", "--model", corpus["query"], "--db", corpus["db"],
               "--out", str(tmp_path / "run"), "--joint-override", flag])
    assert rc == EXIT_INPUT
    assert "joint override" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_missing_model_is_input_error(corpus, tmp_path, capsys):
    rc = main(["pipeline", "--model", "/nonexistent.obj", "--db", corpus["db"],
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("config, named", [
    ({"contact_samples": 3000, "alpha": 0.1}, "alpha"),
    ([["contact_samples", 3000]], "JSON object"),
    ({"seed": "3"}, "seed"),
    ({"contact_samples": 1.5}, "contact_samples"),
    ({"candidates_k": 0}, "candidates_k"),
    ({"candidates_k": -3}, "candidates_k"),
    ({"thickness_bin": 0}, "thickness_bin"),
    ({"contact_samples": 0}, "contact_samples"),
    ({"d_c": -0.01}, "d_c"),
    ({"seed": -5}, "config seed must be non-negative, got -5"),
])
def test_bad_config_is_input_error(corpus, tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["build-db", "--models", corpus["models"],
               "--out", str(tmp_path / "db.json"), "--config", str(cfg)])
    assert rc == EXIT_INPUT
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, seed", [
    ("ingest", "-1"), ("build-db", "-2"), ("gen-db", "-1"), ("pipeline", "-3"),
])
def test_negative_seed_flag_is_input_error(corpus, tmp_path, capsys,
                                           command, seed):
    """A negative --seed is named before any input is read or written."""
    out = tmp_path / "out"
    args = {"ingest": ["--model", corpus["query"]],
            "build-db": ["--models", corpus["models"]],
            "gen-db": [],
            "pipeline": ["--model", corpus["query"], "--db", corpus["db"]]}
    rc = main([command, *args[command], "--out", str(out), "--seed", seed])
    assert rc == EXIT_INPUT
    assert f"--seed must be non-negative, got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config_spec, flag_spec", [
    ("bogus", None), ("all=other", None), ({"0": "other"}, None),
    ({"x": "wood"}, None), (None, "0=other"), (None, "all=other"), (None, "0"),
])
def test_bad_target_materials_is_input_error(corpus, tmp_path, capsys,
                                             config_spec, flag_spec):
    """A malformed target-material spec is rejected before any stage runs."""
    args = ["pipeline", "--model", corpus["query"], "--db", corpus["db"],
            "--out", str(tmp_path / "run")]
    if config_spec is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target_materials": config_spec}))
        args += ["--config", str(cfg)]
    if flag_spec is not None:
        args += ["--target-material", flag_spec]
    rc = main(args)
    assert rc == EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _tamper_candidate(doc):
    doc["candidates"][0] = 999


def _tamper_contact(doc):
    doc["contacts"][0]["u"] = 999


def _tamper_segment(doc):
    segment = doc["parts"][0]["descriptor"]["segment"]
    segment[:] = segment[:1]


def _tamper_barycenter(doc):
    doc["parts"][0]["descriptor"]["barycenter"].pop()


def _tamper_orientation(doc):
    doc["contacts"][0]["orientation_vec"].pop()


def _tamper_bins(doc):
    doc["histograms"]["wood"]["bins"].pop()


def _tamper_mesh(doc):
    doc["parts"][doc["candidates"][0]]["mesh"] = None


@pytest.mark.parametrize("tamper, named", [
    (_tamper_candidate, "candidates[0]: 999 is not a part index"),
    (_tamper_contact, "contacts[0].u: 999 is not a part index"),
    (_tamper_segment, "parts[0].descriptor: segment must be (2, 3)"),
    (_tamper_barycenter, "parts[0].descriptor: barycenter must be (3,)"),
    (_tamper_orientation, "contacts[0]: orientation_vec must be (9,)"),
    (_tamper_bins, "histograms.wood: bins must be (18,)"),
    (_tamper_mesh, "candidates[0]: no mesh for part"),
], ids=["candidate", "contact", "segment", "barycenter", "orientation", "bins",
        "mesh"])
@pytest.mark.parametrize("command", ["pipeline", "validate"])
def test_db_with_bad_reference_or_shape_is_input_error(corpus, tmp_path, capsys,
                                                       tamper, named, command):
    """A db.json whose part references or descriptor segments are broken is
    rejected when it loads, before any stage runs."""
    doc = json.load(open(corpus["db"]))
    tamper(doc)
    bad = tmp_path / "db.json"
    bad.write_text(json.dumps(doc))
    args = ["validate", "--db", str(bad)] if command == "validate" else \
        ["pipeline", "--model", corpus["query"], "--db", str(bad),
         "--out", str(tmp_path / "run"), "--config", _config_path(corpus["root"]),
         "--target-material", "all=wood"]
    rc = main(args)
    assert rc == EXIT_INPUT
    assert named in capsys.readouterr().err
    assert not (tmp_path / "run" / "01_analysis.json").exists()


def test_bad_db_is_input_error(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["validate", "--db", str(bad)])
    assert rc == EXIT_INPUT
