"""meshreform: material-driven reshaping of multi-component meshes."""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# A request's matrices are small: extra OpenBLAS/OpenMP threads spin rather
# than help, and make request times depend on what else the machine runs.
# The pools are sized when numpy loads, so the default can only be set
# before then; a count the user set is kept.
if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .mesh import (Material, Model, Part, SurfaceSamples, TriangleMesh,
                   load_model, normalize_model, sample_surface, save_model)
from .obb import OrientedBox, fit_points_obb
from .part_analysis import PartDescriptor, analyze_part, describe_part, \
    estimate_thickness, fit_obb
from .graphs import (ContactEdge, ContactGraph, RepetitionGraph,
                     build_contact_graph, build_repetition_graph,
                     estimate_contact_angle)
from .similarity import (contact_angle_similarity,
                         orientation_angle_similarity, shape_similarity,
                         spatial_similarity)
from .database import (Database, DatabaseSource, build_database,
                       cluster_candidates, load_database, save_database)
from .inference import (Assignment, FactorGraph, build_material_factor_graph,
                        build_reform_factor_graph, exact_map)
from .assembly import PlacedPart, place_replacements, restore_contacts
from .config_opt import (assess_angle_feasibility, enumerate_configurations,
                         optimize_configuration, select_best_configuration)
from .fabrication import (FabricationSpec, JointAssignment, JointType,
                          export_spec, form_joint_geometry, infer_joint_types,
                          load_spec, refine_part_dimensions)
from .synthetic import GeneratorConfig, generate_synthetic_database
from .pipeline import ModelAnalysis, PipelineConfig, analyze_model, run_pipeline
