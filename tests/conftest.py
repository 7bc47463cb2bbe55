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


def points_in_boxes(points, centers, axes, half_extents, tol=1e-9):
    """Boolean mask: point inside at least one oriented box; the occupancy
    behind the voxel oracles. centers: (k, 3); axes: (k, 3, 3), rows are
    unit box axes; half_extents: (k, 3)."""
    out = np.zeros(points.shape[0], dtype=np.bool_)
    for c, ax, h in zip(centers, axes, half_extents):
        out |= (np.abs((points - c) @ ax.T) <= h + tol).all(axis=1)
    return out


def box_contains(box, points, tol=1e-6):
    """Mask of the points inside an OrientedBox grown by ``tol``."""
    return (np.abs(box.to_local(points)) <= box.half_extents + tol).all(axis=1)


def face_normals(mesh):
    """Unit normal of each face; a zero-area face's normal stays zero."""
    cr = mesh.face_cross()
    length = np.linalg.norm(cr, axis=1)
    return cr / np.where(length > 0, length, 1.0)[:, None]


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
