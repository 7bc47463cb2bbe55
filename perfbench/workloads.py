"""Workload inputs, generated from the seed with ``meshreform.synthetic``.

A workload is a list of rounds; every round holds the same make-up of
requests (same categories, variants and part counts), and only the seeded
geometry differs between rounds and seeds. Runs always finish whole rounds.
"""

import os
from dataclasses import dataclass

import numpy as np

from meshreform import synthetic
from meshreform.mesh import Model, save_model
from meshreform.pipeline import write_sources

# The reform database: one corpus, the same for every seed, so that the
# service state does not change between runs. It holds two wood chairs: with
# one, thin metal seats get rod exemplars and angle enumeration explodes.
DB_SEED = 7
DB_CORPUS = dict(chairs=6, tables=3, beds=2, cabinets=2)

# A build-db round covers every category and variant once, split by category
# into four corpora, one per request: three chairs and three tables (wood,
# metal, mixed), two beds and two cabinets (wood, metal). The first three
# cost about the same, so the median request is one of them.
BUILD_CORPUS = dict(chairs=3, tables=3, beds=2, cabinets=2)

# reform-to-wood: chairs and metal tables are left out. A third of the chairs
# reach 1000-1750 angle configurations (35-46 s instead of 3 s), and a metal
# table costs 2-8 s, so a run of a few rounds would be decided by how many
# expensive models it drew (see README).
WOOD_ROUND = ("mixed_table", "metal_bed", "metal_cabinet")
ROUNDS = 12         # rounds written in set-up; longer runs cycle through them


@dataclass
class Request:
    label: str        # generator name and part count, e.g. "metal_bed/9"
    path: str         # polygon file (reform) or corpus directory (build-db)
    n_models: int = 1


def _rng(seed, round_index, slot):
    return np.random.default_rng([seed, round_index, slot])


def reform_rounds(seed, out_dir):
    """Write ROUNDS rounds of query models; returns a list of rounds."""
    gen = synthetic.GeneratorConfig()
    rounds = []
    for r in range(ROUNDS):
        requests = []
        for slot, name in enumerate(WOOD_ROUND):
            parts = getattr(synthetic, name)(_rng(seed, r, slot), gen).parts
            path = os.path.join(out_dir, f"r{r}_{slot}_{name}.obj")
            save_model(Model(parts=parts), path)
            requests.append(Request(f"{name}/{len(parts)}", path))
        rounds.append(requests)
    return rounds


def build_rounds(seed, out_dir):
    """Write ROUNDS rounds of corpora in the layout ``gen-db`` writes."""
    rounds = []
    for r in range(ROUNDS):
        gen = synthetic.GeneratorConfig(**BUILD_CORPUS)
        sources = synthetic.generate_synthetic_database(
            gen, seed=int(_rng(seed, r, 0).integers(2 ** 31)))
        requests = []
        for category in ("chair", "table", "bed", "cabinet"):
            # source names start with their category, e.g. "chair_002_mixed"
            part = [s for s in sources if s.name.startswith(category + "_")]
            path = write_sources(part, os.path.join(out_dir, f"r{r}_{category}"))
            requests.append(Request(f"{category}/{len(part)}", path,
                                    n_models=len(part)))
        rounds.append(requests)
    return rounds


def database_sources():
    gen = synthetic.GeneratorConfig(**DB_CORPUS)
    return synthetic.generate_synthetic_database(gen, seed=DB_SEED)
