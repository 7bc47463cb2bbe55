"""Command line interface.

Exit codes: 0 ok, 2 input error, 3 stage failure.
"""

import argparse
import json
import logging
import math
import os
import sys

from . import pipeline as pl
from .codec import encode
from .database import load_database, save_database
from .mesh import MeshParseError, load_model
from .synthetic import GeneratorConfig, generate_synthetic_database

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STAGE = 3


def _load_config(args) -> pl.PipelineConfig:
    cfg = pl.PipelineConfig.load(args.config) if getattr(args, "config", None) \
        else pl.PipelineConfig()
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        cfg.seed = args.seed
    if getattr(args, "target_material", None):
        cfg.target_materials = _parse_targets(args.target_material)
    if getattr(args, "joint_override", None):
        items = [spec.split("=", 1) for spec in args.joint_override]
        if any(len(item) != 2 for item in items):
            raise ValueError(f"joint overrides must be i,j=kind, "
                             f"got {args.joint_override!r}")
        cfg.joint_overrides.update(pl._joint_overrides(dict(items)))
    return cfg


def _parse_targets(spec):
    """``suggest | all=wood | all=metal | id=mat,...`` as a config value."""
    if spec == "suggest" or spec.startswith("all="):
        return pl._target_spec(spec)
    items = [item.split("=", 1) for item in spec.split(",")]
    if any(len(item) != 2 for item in items):
        raise ValueError(f"target materials must be id=mat,..., got {spec!r}")
    return pl._target_spec(dict(items))


def _analysis_payload(analysis):
    return {
        "global_scale": analysis.model.global_scale,
        "descriptors": analysis.descriptors,
        "contact_graph": analysis.contact_graph,
        "repetition_graph": analysis.repetition_graph,
        "materials": {p.id: p.material for p in analysis.model.parts},
    }


def _write(path, payload):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(encode(payload), fh, indent=2)
    print(path)


def cmd_ingest(args):
    cfg = _load_config(args)
    if args.weld_tol is not None and not 0 <= args.weld_tol < math.inf:
        raise ValueError(f"--weld-tol must be finite and non-negative, got {args.weld_tol}")
    model = load_model(args.model, material_sidecar=args.materials,
                       regroup=args.regroup, weld_tol=args.weld_tol)
    analysis = pl.analyze_model(model, cfg)
    _write(args.out, _analysis_payload(analysis))
    return EXIT_OK


def cmd_gen_db(args):
    cfg = _load_config(args)
    if not 0 < args.scale < math.inf:
        raise ValueError(f"--scale must be finite and positive, got {args.scale}")
    gen = GeneratorConfig(scale=args.scale)
    if args.chairs is not None:
        gen.chairs = args.chairs
    if args.tables is not None:
        gen.tables = args.tables
    if args.beds is not None:
        gen.beds = args.beds
    if args.cabinets is not None:
        gen.cabinets = args.cabinets
    sources = generate_synthetic_database(gen, seed=cfg.seed)
    pl.write_sources(sources, args.out)
    print(args.out)
    if args.db:
        db = pl.build_database_from_config(sources, cfg)
        save_database(db, args.db)
        print(args.db)
    return EXIT_OK


def cmd_build_db(args):
    cfg = _load_config(args)
    sources = pl.read_sources(args.models)
    db = pl.build_database_from_config(sources, cfg)
    save_database(db, args.out)
    print(args.out)
    return EXIT_OK


def cmd_suggest(args):
    cfg = _load_config(args)
    model = load_model(args.model)
    db = load_database(args.db)
    analysis = pl.analyze_model(model, cfg)
    materials, result = pl.suggest_materials(analysis, db)
    _write(args.out, {
        "materials": materials,
        "log_potential": result.log_potential,
    })
    return EXIT_OK


def cmd_pipeline(args):
    """Run every stage and keep each stage's artifacts under ``--out``."""
    cfg = _load_config(args)
    pl.run_pipeline(args.model, args.db, cfg, args.out)
    print(os.path.join(args.out, "summary.json"))
    return EXIT_OK


def cmd_validate(args):
    if not (args.db or args.model):
        raise ValueError("validate needs --db, --model or both")
    if args.db:
        db = load_database(args.db)
        freqs = {k: h.frequencies().sum() for k, h in db.histograms.items()
                 if h.total > 0}
        for k, s in freqs.items():
            if abs(s - 1.0) > 1e-9:
                raise ValueError(f"histogram {k} frequencies sum to {s}")
        print(f"db ok: {len(db.parts)} parts, {len(db.contacts)} contacts, "
              f"{len(db.candidates)} candidates")
    if args.model:
        model = load_model(args.model)
        print(f"model ok: {len(model.parts)} parts, "
              f"{sum(p.mesh.n_faces for p in model.parts)} faces")
    return EXIT_OK


def make_parser():
    ap = argparse.ArgumentParser(prog="meshreform",
                                 description="Material-driven mesh reform pipeline")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model=True, db=True, out=True):
        if model:
            p.add_argument("--model", required=True)
        if db:
            p.add_argument("--db", required=True)
        if out:
            p.add_argument("--out", required=True)
        p.add_argument("--config")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("ingest", help="analyze a model file")
    common(p, db=False)
    p.add_argument("--materials")
    p.add_argument("--regroup")
    p.add_argument("--weld-tol", type=float, default=None,
                   help="weld vertices within this fraction of the diagonal")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-db", help="generate the synthetic model corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--db", help="also build a database file")
    p.add_argument("--seed", type=int,
                   help="corpus and database seed (default: the config's)")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--chairs", type=int)
    p.add_argument("--tables", type=int)
    p.add_argument("--beds", type=int)
    p.add_argument("--cabinets", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_gen_db)

    p = sub.add_parser("build-db", help="build a database from a model directory")
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_build_db)

    p = sub.add_parser("suggest", help="suggest part materials")
    common(p)
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("pipeline", help="run the full pipeline")
    common(p)
    p.add_argument("--target-material", default=None,
                   help="suggest | all=wood | all=metal | id=mat,...")
    p.add_argument("--joint-override", action="append", default=[],
                   help="i,j=kind (repeatable)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("validate", help="check a database or model file")
    p.add_argument("--db")
    p.add_argument("--model")
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None):
    logging.basicConfig(level=os.environ.get("MESHREFORM_LOGLEVEL", "WARNING"))
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, MeshParseError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except pl.StageError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
