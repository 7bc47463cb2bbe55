"""Similarity kernels between parts, materials, and contact configurations.

All kernels are symmetric, bounded in [0, 1], equal 1 on identical inputs,
and consume only rigid-invariant descriptors.
"""

import numpy as np

from .mesh import Material

SHAPE_MODES = ("obb_only", "obb_plus_area", "full")

# kernel bandwidths; angles are in degrees
SIGMA_B = 0.1       # OBB extents
SIGMA_R = 0.1       # area ratio
SIGMA_T = 0.02      # thickness
SIGMA_PR = 0.2      # barycenter distance
SIGMA_CA = 10.0     # contact angle
SIGMA_OA = 360.0    # orientation angles


def obb_similarity(size_a, size_b):
    """exp(-(L1 distance of sorted extents)^2 / sigma_b^2)."""
    l1 = float(np.abs(np.asarray(size_a) - np.asarray(size_b)).sum())
    return float(np.exp(-(l1 * l1) / SIGMA_B ** 2))


def area_ratio_similarity(ra, rb):
    return float(np.exp(-((ra - rb) ** 2) / SIGMA_R ** 2))


def thickness_similarity(ta, tb):
    return float(np.exp(-((ta - tb) ** 2) / SIGMA_T ** 2))


def shape_similarity(a, b, mode="obb_only"):
    """Product of OBB / area-ratio / thickness kernels per ``mode``.

    ``obb_only`` is the relaxed form used for part replacement,
    ``obb_plus_area`` adds the area-ratio kernel for compact parts, and
    ``full`` multiplies all three (used for material suggestion).
    """
    if mode not in SHAPE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    s = obb_similarity(a.size_vec, b.size_vec)
    if mode in ("obb_plus_area", "full"):
        s *= area_ratio_similarity(a.area_ratio, b.area_ratio)
    if mode == "full":
        s *= thickness_similarity(a.thickness, b.thickness)
    return s


def material_similarity(a: Material, b: Material):
    """1 when equal, 0 otherwise; only wood/metal are comparable."""
    valid = (Material.WOOD, Material.METAL)
    if a not in valid or b not in valid:
        raise ValueError(f"materials must be wood or metal, got {a}, {b}")
    return 1.0 if a == b else 0.0


def spatial_similarity(d1, d2):
    """Gaussian kernel on the difference of part-barycenter distances."""
    if d1 < 0 or d2 < 0:
        raise ValueError("barycenter distances must be non-negative")
    return float(np.exp(-((d1 - d2) ** 2) / SIGMA_PR ** 2))


def contact_angle_similarity(a, b):
    """Gaussian on angle difference; both N/A compare as 1, one-sided N/A
    as 0. Angles in [0, 90] degrees, None encodes N/A."""
    if a is None and b is None:
        return 1.0
    if a is None or b is None:
        return 0.0
    return float(np.exp(-((a - b) ** 2) / SIGMA_CA ** 2))


def contact_angle_similarity_vec(a, b_arr):
    """Vectorized ρ_ca of one angle against an array with NaN as N/A."""
    b_arr = np.asarray(b_arr, dtype=float)
    out = np.zeros(len(b_arr))
    nan_b = np.isnan(b_arr)
    if a is None:
        out[nan_b] = 1.0
        return out
    ok = ~nan_b
    out[ok] = np.exp(-((a - b_arr[ok]) ** 2) / SIGMA_CA ** 2)
    return out


def shape_matrix(descs_a, descs_b, mode="obb_only"):
    """Vectorized ``shape_similarity`` over two descriptor lists: returns the
    (len(a), len(b)) kernel matrix."""
    if mode not in SHAPE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    size_a = np.stack([d.size_vec for d in descs_a])
    size_b = np.stack([d.size_vec for d in descs_b])
    l1 = np.abs(size_a[:, None, :] - size_b[None, :, :]).sum(axis=2)
    out = np.exp(-(l1 * l1) / SIGMA_B ** 2)
    if mode in ("obb_plus_area", "full"):
        ra = np.array([d.area_ratio for d in descs_a])
        rb = np.array([d.area_ratio for d in descs_b])
        out = out * np.exp(-((ra[:, None] - rb[None, :]) ** 2) / SIGMA_R ** 2)
    if mode == "full":
        ta = np.array([d.thickness for d in descs_a])
        tb = np.array([d.thickness for d in descs_b])
        out = out * np.exp(-((ta[:, None] - tb[None, :]) ** 2) / SIGMA_T ** 2)
    return out


def orientation_angles(axes_a, axes_b):
    """9-vector of pairwise angles (degrees, folded to [0, 90]) between two
    OBB frames, rows ordered by descending extent, flattened row-major."""
    dots = np.abs(np.asarray(axes_a) @ np.asarray(axes_b).T)
    return np.degrees(np.arccos(np.clip(dots, 0.0, 1.0))).reshape(9)


def orientation_angle_similarity(a_vec, b_vec):
    """exp(-|a - b|_2^2 / sigma_oa^2) on the 9-d orientation-angle vectors."""
    a_vec = np.asarray(a_vec, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    if a_vec.shape != (9,) or b_vec.shape != (9,):
        raise ValueError("orientation vectors must be 9-d")
    d2 = float(((a_vec - b_vec) ** 2).sum())
    return float(np.exp(-d2 / SIGMA_OA ** 2))
