import numpy as np
import pytest

from meshreform import kernels
from meshreform.database import build_database, cluster_candidates
from meshreform.mesh import Material, Model, Part, TriangleMesh
from meshreform.pipeline import PipelineConfig
from meshreform.synthetic import GeneratorConfig, box_part, generate_synthetic_database

kernels.warmup()


def make_box_mesh(center, dims) -> TriangleMesh:
    return box_part(center, dims)


def make_box_part(pid, center, dims, material=Material.UNTAGGED, name=""):
    return Part(id=pid, mesh=make_box_mesh(center, dims), material=material,
                name=name or f"part_{pid}")


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@pytest.fixture(scope="session")
def small_gen_config():
    return GeneratorConfig(scale=0.16)


@pytest.fixture(scope="session")
def small_sources(small_gen_config):
    return generate_synthetic_database(small_gen_config, seed=7)


@pytest.fixture(scope="session")
def small_db(small_sources):
    db = build_database(small_sources, PipelineConfig(contact_samples=4000))
    return cluster_candidates(db, k=30, seed=0)
