"""Similarity kernels between parts and contact configurations.

All kernels are symmetric, bounded in [0, 1], equal 1 on identical inputs,
and consume only rigid-invariant descriptors. The numeric kernels broadcast
over leading axes: scalar arguments give a float, array arguments an array
of elementwise values, computed by the same code.
"""

import numpy as np

SHAPE_MODES = ("obb_only", "obb_plus_area", "full")

# kernel bandwidths; angles are in degrees
SIGMA_B = 0.1       # OBB extents
SIGMA_R = 0.1       # area ratio
SIGMA_T = 0.02      # thickness
SIGMA_PR = 0.2      # barycenter distance
SIGMA_CA = 10.0     # contact angle
SIGMA_OA = 360.0    # orientation angles


def _value(x):
    """A 0-d kernel value as a float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def obb_similarity(size_a, size_b):
    """exp(-(L1 distance of sorted extents)^2 / sigma_b^2); extents on the
    last axis."""
    l1 = np.abs(np.asarray(size_a) - np.asarray(size_b)).sum(axis=-1)
    return _value(np.exp(-(l1 * l1) / SIGMA_B ** 2))


def area_ratio_similarity(ra, rb):
    return _value(np.exp(-((np.asarray(ra) - rb) ** 2) / SIGMA_R ** 2))


def thickness_similarity(ta, tb):
    return _value(np.exp(-((np.asarray(ta) - tb) ** 2) / SIGMA_T ** 2))


def shape_similarity(a, b, mode="obb_only"):
    """Product of OBB / area-ratio / thickness kernels per ``mode``.

    ``obb_only`` is the relaxed form used for part replacement,
    ``obb_plus_area`` adds the area-ratio kernel for compact parts, and
    ``full`` multiplies all three (used for material suggestion).
    """
    return float(shape_matrix([a], [b], mode)[0, 0])


def spatial_similarity(d1, d2):
    """Gaussian kernel on the difference of part-barycenter distances."""
    d1, d2 = np.asarray(d1, dtype=float), np.asarray(d2, dtype=float)
    if (d1 < 0).any() or (d2 < 0).any():
        raise ValueError("barycenter distances must be non-negative")
    return _value(np.exp(-((d1 - d2) ** 2) / SIGMA_PR ** 2))


def contact_angle_similarity(a, b):
    """Gaussian on angle difference; both N/A compare as 1, one-sided N/A
    as 0. Angles in [0, 90] degrees; None or NaN encodes N/A."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na_a, na_b = np.isnan(a), np.isnan(b)
    s = np.exp(-((a - b) ** 2) / SIGMA_CA ** 2)
    return _value(np.where(na_a | na_b, (na_a & na_b).astype(float), s))


def shape_matrix(descs_a, descs_b, mode="obb_only"):
    """``shape_similarity`` over two descriptor lists: returns the
    (len(a), len(b)) kernel matrix."""
    if mode not in SHAPE_MODES:
        raise ValueError(f"unknown mode {mode!r}")

    def pairs(attr):
        """One descriptor field as a column over a and a row over b."""
        return (np.array([getattr(d, attr) for d in descs_a])[:, None],
                np.array([getattr(d, attr) for d in descs_b])[None, :])

    out = obb_similarity(*pairs("size_vec"))
    if mode in ("obb_plus_area", "full"):
        out = out * area_ratio_similarity(*pairs("area_ratio"))
    if mode == "full":
        out = out * thickness_similarity(*pairs("thickness"))
    return out


def orientation_angles(axes_a, axes_b):
    """9-vector of pairwise angles (degrees, folded to [0, 90]) between two
    OBB frames, rows ordered by descending extent, flattened row-major."""
    dots = np.abs(np.asarray(axes_a) @ np.asarray(axes_b).T)
    return np.degrees(np.arccos(np.clip(dots, 0.0, 1.0))).reshape(9)


def orientation_angle_similarity(a_vec, b_vec):
    """exp(-|a - b|_2^2 / sigma_oa^2) on the 9-d orientation-angle vectors,
    which lie on the last axis."""
    a_vec = np.asarray(a_vec, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    if a_vec.shape[-1:] != (9,) or b_vec.shape[-1:] != (9,):
        raise ValueError("orientation vectors must be 9-d")
    d2 = ((a_vec - b_vec) ** 2).sum(axis=-1)
    return _value(np.exp(-d2 / SIGMA_OA ** 2))
