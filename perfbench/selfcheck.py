"""Show that every output check accepts real outputs and rejects tampered
copies of them.

Usage (from the repository root; takes about a minute):

    python3 perfbench/selfcheck.py

Builds one build-db corpus and one reform-to-wood request the way the
benchmark does, checks them, then applies one tampering per check to a copy
and requires that check to reject it. Prints one line per case and exits 1
if any real output is rejected or any tampered copy is accepted.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks, workloads  # noqa: E402
from perfbench.run import WORK, import_program  # noqa: E402

RESULTS = []


def expect(label, fn, reject):
    """Run a check; record whether it rejected as expected."""
    try:
        fn()
        rejected = False
        detail = "accepted"
    except Exception as exc:   # load_spec raises ValueError on some tampering
        rejected = True
        detail = f"rejected: {str(exc).splitlines()[0][:90]}"
    ok = rejected == reject
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


def edit_json(src_dir, name, edit):
    """Copy an output directory and apply ``edit`` to one of its files."""
    dst = tempfile.mkdtemp(dir=os.path.dirname(src_dir))
    shutil.copytree(src_dir, dst, dirs_exist_ok=True)
    path = os.path.join(dst, name)
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return dst


def database_cases(work):
    from meshreform.database import load_database, save_database
    from meshreform.pipeline import (PipelineConfig, build_database_from_config,
                                     read_sources)

    corpus = workloads.build_rounds(seed=1, out_dir=work)[0][0]
    db = build_database_from_config(read_sources(corpus.path), PipelineConfig())
    path = os.path.join(work, "db.json")
    save_database(db, path)
    loaded = load_database(path)
    expect("build-db real output", lambda: checks.check_database(db, loaded), False)

    box = next(p for p in loaded.parts if checks.box_edge_lengths(
        np.asarray(p.mesh.vertices), np.asarray(p.mesh.faces)) is not None)
    t = copy.deepcopy(loaded)
    t.parts[box.index].descriptor.size_vec = box.descriptor.size_vec + [1e-3, 0, 0]
    expect("box size_vec off by 1e-3", lambda: checks.check_box_parts(t), True)
    t = copy.deepcopy(loaded)
    t.parts[box.index].descriptor.thickness = box.descriptor.thickness + 0.01
    expect("box thickness off by two bins", lambda: checks.check_box_parts(t), True)
    t = copy.deepcopy(loaded)
    t.histograms["wood"].bins[3] += 1
    expect("wood histogram with an extra angle",
           lambda: checks.check_histograms(t), True)
    t = copy.deepcopy(loaded)
    c = next(c for c in t.contacts if c.angle is not None)
    c.angle += 1.0
    expect("loaded database with a changed angle",
           lambda: checks.check_roundtrip(db, t), True)


def reform_output(work, db):
    """Reform seeded mixed chairs to wood until one output has a
    mortise/tenon prism and a selected configuration."""
    from meshreform.mesh import Model, save_model
    from meshreform.pipeline import PipelineConfig, run_pipeline
    from meshreform import synthetic

    for seed in range(1, 20):
        rng = np.random.default_rng([seed, 0, 4])
        parts = synthetic.mixed_chair(rng, synthetic.GeneratorConfig()).parts
        path = os.path.join(work, f"chair{seed}.obj")
        save_model(Model(parts=parts), path)
        out = os.path.join(work, f"out{seed}")
        summary = run_pipeline(path, None, PipelineConfig(target_materials="all=wood"),
                               out, db=db)
        with open(os.path.join(out, "spec.json")) as fh:
            spec = json.load(fh)
        with open(os.path.join(out, "05_configuration.json")) as fh:
            selected = json.load(fh)["selected"]
        if selected and any(g["prism"] for g in spec["geometry"]):
            return path, out, summary
    raise SystemExit("no seeded chair gave a mortise/tenon joint")


def reform_cases(work, db):
    path, out, summary = reform_output(work, db)
    n = checks.obj_group_count(path)
    rng = np.random.default_rng(0)

    def run(d):
        return lambda: checks.check_reform(d, n, "wood", rng)

    expect("reform real output", run(out), False)
    with open(os.path.join(out, "spec.json")) as fh:
        print(f"     dropped cuts in the real output: "
              f"{checks.dropped_cuts(out, json.load(fh))}")

    def first_joint(doc, kind=None):
        return next(j for j in doc["joints"]
                    if kind is None or j["joint"]["kind"] == kind)

    def material(doc):
        doc["parts"][0]["material"] = "metal"

    def drop_part(doc):
        doc["parts"].pop()

    def category(doc):
        # a valid wood-metal joint on two wood parts: load_spec accepts it
        j = first_joint(doc)
        j["joint"]["category"], j["joint"]["kind"] = "wood-metal", "screw"
        j["tenon_part"] = j["mortise_part"] = None

    def kind(doc):
        first_joint(doc)["joint"]["kind"] = "weld"

    def roles(doc):
        j = first_joint(doc, "mortise_tenon")
        j["tenon_part"] = next(p["part_id"] for p in doc["parts"]
                               if p["part_id"] not in j["edge"])

    def drop_joint(doc):
        doc["joints"].pop()

    def fill_cavity(doc):
        g = next(g for g in doc["geometry"] if g["prism"])
        j = next(j for j in doc["joints"] if j["edge"] == g["edge"])
        g["sculpted"][str(j["mortise_part"])].append(g["prism"])

    def restore(doc):
        doc["objective_after"] = doc["objective_before"] + 1.0

    def angles(doc):
        rigid = sum((c["angle"] - c["target"]) ** 2 for c in doc["constraints"])
        doc["selected"]["objective"] = rigid + 1.0

    cases = [
        ("spec.json", material, "part with the wrong material"),
        ("spec.json", drop_part, "part missing from spec"),
        ("spec.json", category, "joint category not matching its materials"),
        ("spec.json", kind, "joint kind outside its category"),
        ("spec.json", roles, "tenon role on a part outside the joint"),
        ("spec.json", drop_joint, "joint edge missing"),
        ("spec.json", fill_cavity, "mortise piece covering the tenon prism"),
        ("04_restore.json", restore, "restoration raising the gap objective"),
        ("05_configuration.json", angles, "selected objective above the rigid one"),
    ]
    for name, edit, label in cases:
        expect(label, run(edit_json(out, name, edit)), True)

    stages = {k: v["seconds"] for k, v in summary["stages"].items() if k != "load"}
    expect("tracer stages equal to summary",
           lambda: checks.check_stage_times(stages, summary), False)
    skewed = dict(stages, preprocess=stages["preprocess"] + 1.0)
    expect("tracer stage off by one second",
           lambda: checks.check_stage_times(skewed, summary), True)


def main():
    import_program()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selfcheck-", dir=WORK)
    try:
        from meshreform.pipeline import PipelineConfig, build_database_from_config

        database_cases(work)
        reform_cases(work, build_database_from_config(
            workloads.database_sources(), PipelineConfig()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} cases as expected")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
