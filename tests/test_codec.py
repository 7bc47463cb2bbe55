"""The one JSON codec: round trips of every persisted class, byte-stable
database files, and input errors that name the field."""

import dataclasses
import json

import numpy as np
import pytest

from meshreform.cli import EXIT_INPUT, main
from meshreform.codec import DecodeError, decode, encode
from meshreform.database import (AngleHistogram, Database, ExemplarPart,
                                 load_database, save_database)
from meshreform.fabrication import (FabricationSpec, JointAssignment,
                                    JointGeometry, JointType, PartSpec)
from meshreform.graphs import GROUND_ID, ContactEdge, ContactGraph, RepetitionGraph
from meshreform.mesh import Material, sample_surface
from meshreform.obb import fit_points_obb
from meshreform.part_analysis import analyze_part
from conftest import make_box_part


def descriptor():
    part = make_box_part(0, (0.1, 0.2, 0.3), (0.6, 0.05, 0.04))
    return analyze_part(part, sample_surface(part, 300, seed=0))


def box(seed, degenerate=False):
    rng = np.random.default_rng(seed)
    b = fit_points_obb(rng.normal(size=(40, 3)) * (0.3, 0.1, 0.05))
    return dataclasses.replace(b, degenerate=degenerate)


def histogram():
    h = AngleHistogram("metal")
    for a in (12.0, 47.5, 88.0, 90.0):
        h.add(a)
    return h


def exemplar(with_mesh):
    part = make_box_part(3, (0.0, 0.0, 0.0), (0.2, 0.1, 0.3))
    return ExemplarPart(index=3, descriptor=descriptor(), material=Material.METAL,
                        source_model="chair_001_metal", cluster_id=7,
                        congruent_duplicate=True,
                        mesh=part.mesh if with_mesh else None)


MORTISE_TENON = JointAssignment(edge=(1, 4), joint=JointType("wood-wood", "mortise_tenon"),
                                tenon_part=4, mortise_part=1)
AMBIGUOUS_LAP = JointAssignment(edge=(0, 2), joint=JointType(
    "wood-wood", "lap", ambiguous=True, candidates=["lap", "dowel"]))


def spec():
    return FabricationSpec(
        parts=[PartSpec(1, Material.WOOD, np.array([0.5, 0.1, 0.05]), "part_1.obj"),
               PartSpec(4, Material.METAL, np.array([0.3, 0.02, 0.02]))],
        joints=[MORTISE_TENON, AMBIGUOUS_LAP],
        geometry=[
            JointGeometry(edge=(1, 4), kind="mortise_tenon", prism=box(1),
                          sculpted={1: [box(2), box(3)], 4: [box(4)]}),
            JointGeometry(edge=(0, 2), kind="lap",
                          seam_point=np.array([0.1, -0.2, 0.3])),
        ])


CASES = {
    "box": lambda: box(0),
    "degenerate_box": lambda: box(0, degenerate=True),
    "descriptor": descriptor,
    "contact_graph": lambda: ContactGraph(nodes=[0, 1, 2], edges=[
        ContactEdge(0, 1, np.array([0.1, 0.2, 0.3]), angle=None, min_distance=0.004),
        ContactEdge(1, 2, np.array([0.0, 0.5, 0.0]), angle=87.5),
        ContactEdge(2, GROUND_ID, np.array([0.0, 0.0, 0.0]), is_ground=True)]),
    "repetition_graph": lambda: RepetitionGraph(nodes=[0, 1, 2, 3],
                                                edges=[(0, 2), (1, 3)]),
    "exemplar_with_mesh": lambda: exemplar(True),
    "exemplar_without_mesh": lambda: exemplar(False),
    "histogram": histogram,
    "mortise_tenon_assignment": lambda: MORTISE_TENON,
    "roleless_assignment": lambda: AMBIGUOUS_LAP,
    "spec": spec,
}


def assert_same(a, b, where="value"):
    """Equal field by field, arrays by value and kind."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype.kind == b.dtype.kind, where
        assert np.array_equal(a, b), where
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for k in a:
            assert_same(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{k}]")
    else:
        assert a == b, where


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_trip(name):
    x = CASES[name]()
    back = decode(type(x), json.loads(json.dumps(encode(x))))
    assert_same(x, back)


def test_encode_rules():
    doc = encode({3: Material.WOOD, "t": (1, np.float32(0.5)), "a": np.arange(2)})
    assert doc == {"3": "wood", "t": [1, 0.5], "a": [0, 1]}
    assert list(encode(AMBIGUOUS_LAP)) == ["edge", "joint", "tenon_part", "mortise_part"]


def test_exemplar_mesh_is_the_last_key():
    assert list(encode(exemplar(True)))[-2:] == ["congruent_duplicate", "mesh"]


def test_field_with_a_default_is_required_too():
    with pytest.raises(DecodeError, match="ambiguous: field missing"):
        decode(JointType, {"category": "metal-metal", "kind": "weld"})


@pytest.mark.parametrize("doc, named", [
    ({}, "parts: field missing"),
    ({"parts": [{"index": 0}]}, "parts[0].descriptor: field missing"),
    ({"parts": [], "contacts": [], "histograms": {"wood": {
        "material": "wood", "bins": "x"}}}, "histograms.wood.bins: expected list"),
    ({"parts": [], "contacts": [], "histograms": {"wood": {
        "material": "wood", "bins": [1, "x"]}}}, "histograms.wood.bins: expected a numeric array"),
    ({"parts": [], "contacts": [{"u": True}]}, "contacts[0].u: expected int"),
    ({"parts": [], "contacts": [], "histograms": {}}, "candidates: field missing"),
    ({"parts": [], "contacts": [], "histograms": [], "candidates": []},
     "histograms: expected dict"),
])
def test_database_errors_name_the_field(doc, named):
    with pytest.raises(DecodeError) as info:
        decode(Database, doc)
    assert str(info.value).startswith(named)


@pytest.mark.parametrize("joint, named", [
    ({"category": "wood-wood", "kind": "weld"}, "joint: kind 'weld' not in category"),
    ({"category": "oak-oak", "kind": "lap"}, "joint: kind 'lap' not in category 'oak-oak'"),
    ({"category": "wood-wood", "kind": "mortise_tenon"},
     "mortise_tenon needs tenon and mortise roles"),
])
def test_constructor_checks_run(joint, named):
    doc = {"edge": [0, 1], "joint": {**joint, "ambiguous": False, "candidates": []},
           "tenon_part": None, "mortise_part": None}
    with pytest.raises(ValueError, match=named):
        decode(JointAssignment, doc)


def test_spec_sculpted_keys_are_integers():
    back = decode(FabricationSpec, json.loads(json.dumps(encode(spec()))))
    assert list(back.geometry[0].sculpted) == [1, 4]
    doc = encode(spec())
    doc["geometry"][0]["sculpted"] = {"a": []}
    with pytest.raises(DecodeError, match=r"^geometry\[0\]\.sculpted: key 'a'"):
        decode(FabricationSpec, doc)


def test_database_file_is_byte_stable(small_db, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_database(small_db, first)
    save_database(load_database(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_validate_reports_missing_field(small_db, tmp_path, capsys):
    path = tmp_path / "db.json"
    path.write_text(json.dumps({"version": 1}))
    assert main(["validate", "--db", str(path)]) == EXIT_INPUT
    assert "parts: field missing" in capsys.readouterr().err

    save_database(small_db, path)
    doc = json.loads(path.read_text())
    del doc["parts"][2]["descriptor"]
    path.write_text(json.dumps(doc))
    assert main(["validate", "--db", str(path)]) == EXIT_INPUT
    assert "parts[2].descriptor: field missing" in capsys.readouterr().err
