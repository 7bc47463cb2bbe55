"""Per-part descriptors: OBB, thickness, area ratio, linearity, segment."""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .codec import check_shapes
from .mesh import Part, SurfaceSamples
from .obb import OrientedBox, fit_points_obb

THICKNESS_BIN_WIDTH = 0.005
ELONGATION_RATIO = 3.0
LINEAR_AREA_RATIO = 0.6
CURVILINEAR_AREA_RATIO = 0.3


@dataclass
class PartDescriptor:
    """Invariant geometric summary of a part.

    ``size_vec`` holds the three full OBB extents sorted descending;
    ``segment`` is the dominant-axis chord through the OBB center, the line
    abstraction used by the contact-angle machinery.
    """

    obb: OrientedBox
    size_vec: np.ndarray
    area_ratio: float
    thickness: float
    thickness_fallback: bool
    is_linear: bool
    curvilinear: bool
    dominant_axis: np.ndarray
    segment: np.ndarray        # (2, 3) endpoints
    barycenter: np.ndarray     # area-weighted surface barycenter

    def __post_init__(self):
        check_shapes(self, size_vec=(3,), dominant_axis=(3,), segment=(2, 3),
                     barycenter=(3,))


class ThicknessEstimate(NamedTuple):
    value: float
    fallback: bool


def fit_obb(part: Part) -> OrientedBox:
    if len(part.mesh.vertices) == 0:
        raise ValueError(f"part {part.id} is empty")
    return fit_points_obb(part.mesh.vertices)


def estimate_thickness(part: Part, samples: SurfaceSamples,
                       bin_width=THICKNESS_BIN_WIDTH,
                       obb: Optional[OrientedBox] = None) -> ThicknessEstimate:
    """Wall thickness by inward-ray voting.

    From every sample a ray is cast along the negated face normal; the
    distance to the first self-intersection is histogrammed at ``bin_width``
    and the winning bin's center is returned (ties to the smaller bin, so the
    estimate is deterministic). Samples whose ray escapes are discarded; if
    every ray escapes (open sheet) the smallest OBB extent is returned with
    the fallback flag set.
    """
    if len(samples) == 0:
        raise ValueError("no samples")
    v0, v1, v2 = part.mesh.triangle_corners()
    dists = kernels.ray_mesh_first_hit(samples.positions, -samples.normals, v0, v1, v2)
    hits = dists[np.isfinite(dists)]
    if len(hits) == 0:
        if obb is None:
            obb = fit_obb(part)
        return ThicknessEstimate(float(obb.extents.min()), True)
    bins = np.floor(hits / bin_width).astype(np.int64)
    counts = np.bincount(bins)
    winner = int(np.argmax(counts))
    return ThicknessEstimate((winner + 0.5) * bin_width, False)


def describe_part(part: Part, obb: OrientedBox, thickness: ThicknessEstimate,
                  barycenter) -> PartDescriptor:
    """Assemble the descriptor from precomputed OBB, thickness and surface
    barycenter.

    A part is linear when its OBB is elongated (largest extent at least
    ``ELONGATION_RATIO`` times the middle one) and nearly fills the box
    (area ratio >= ``LINEAR_AREA_RATIO``). Sparse parts (area ratio below
    ``CURVILINEAR_AREA_RATIO``) are flagged curvilinear; their angle leg is
    resolved locally at contact time.
    """
    extents = obb.extents
    area_ratio = part.mesh.surface_area() / obb.surface_area if obb.surface_area > 0 else np.inf
    elongated = extents[0] >= ELONGATION_RATIO * max(extents[1], 1e-30)
    is_linear = bool(elongated and area_ratio >= LINEAR_AREA_RATIO)
    curvilinear = bool(area_ratio < CURVILINEAR_AREA_RATIO)
    seg = np.stack([
        obb.center - obb.half_extents[0] * obb.axes[0],
        obb.center + obb.half_extents[0] * obb.axes[0],
    ])
    return PartDescriptor(
        obb=obb,
        size_vec=extents.copy(),
        area_ratio=float(area_ratio),
        thickness=float(thickness.value),
        thickness_fallback=bool(thickness.fallback),
        is_linear=is_linear,
        curvilinear=curvilinear,
        dominant_axis=obb.axes[0].copy(),
        segment=seg,
        barycenter=np.asarray(barycenter, dtype=float),
    )


def analyze_part(part: Part, samples: SurfaceSamples,
                 bin_width=THICKNESS_BIN_WIDTH) -> PartDescriptor:
    """fit_obb + estimate_thickness + describe_part in one call."""
    obb = fit_obb(part)
    thick = estimate_thickness(part, samples, bin_width=bin_width, obb=obb)
    return describe_part(part, obb, thick, samples.barycenter())
