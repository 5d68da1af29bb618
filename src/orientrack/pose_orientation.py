"""Signed shoulder-to-torso (S2T) orientation ratio and discrete orientation bins.

The ratio is a confidence-weighted body width over body height computed from
the four torso keypoints.  Under image coordinates with y growing downward,
height is taken hip-minus-shoulder so that an upright person has h > 0 and
the sign of the ratio follows the facing direction: positive means facing
away from the camera, negative means facing the camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# COCO-18 keypoint indices for the torso.
RIGHT_SHOULDER = 2
LEFT_SHOULDER = 5
RIGHT_HIP = 8
LEFT_HIP = 11

DEGENERATE_HEIGHT_EPS = 1e-6  # px


class OrientationUnavailable(ValueError):
    """Raised when the torso keypoints cannot yield an orientation estimate."""


@dataclass(frozen=True)
class TorsoPoints:
    """Torso keypoints, each an (x, y, confidence) triple."""

    right_shoulder: tuple[float, float, float]
    left_shoulder: tuple[float, float, float]
    right_hip: tuple[float, float, float]
    left_hip: tuple[float, float, float]


@dataclass(frozen=True)
class Orientation:
    s2t: float  # nan when invalid
    bin: int
    valid: bool


def fallback_bin(bins: int) -> int:
    """Neutral bin used for detections whose orientation is unavailable."""
    return bins // 2


def s2t_ratio(torso: TorsoPoints) -> float:
    """Signed width-over-height ratio of the torso.

    Coordinates are weighted by their keypoint confidences, which makes the
    estimate robust to partial observations: a zero-confidence keypoint has
    no influence on the result.
    """
    x_rs, y_rs, c_rs = torso.right_shoulder
    x_ls, y_ls, c_ls = torso.left_shoulder
    x_rh, y_rh, c_rh = torso.right_hip
    x_lh, y_lh, c_lh = torso.left_hip

    total = c_rs + c_ls + c_rh + c_lh
    if total <= 0.0:
        raise OrientationUnavailable("zero confidence mass on torso keypoints")

    # A pairwise difference contributes only when both endpoints were observed;
    # this keeps unobserved (zero-confidence) coordinates out of the estimate.
    def pair(c_a: float, c_b: float, delta: float) -> float:
        if c_a <= 0.0 or c_b <= 0.0:
            return 0.0
        return (c_a + c_b) * delta

    width = (pair(c_rs, c_ls, x_rs - x_ls) + pair(c_rh, c_lh, x_rh - x_lh)) / total
    height = (pair(c_rs, c_rh, y_rh - y_rs) + pair(c_ls, c_lh, y_lh - y_ls)) / total
    if abs(height) < DEGENERATE_HEIGHT_EPS:
        raise OrientationUnavailable(f"degenerate torso height {height}")
    return width / height


def orientation_bin(s2t: float, bins: int, smax: float = 1.0) -> int:
    """Map an S2T value to a bin via a uniform clamped partition of [-smax, smax]."""
    if bins < 1:
        raise ValueError(f"bin count must be >= 1, got {bins}")
    if smax <= 0:
        raise ValueError(f"smax must be positive, got {smax}")
    clamped = min(max(s2t, -smax), smax)
    index = math.floor((clamped + smax) / (2.0 * smax) * bins)
    return min(index, bins - 1)


def torso_from_keypoints(keypoints: np.ndarray) -> TorsoPoints:
    """Extract the four torso triples from an (18, 3) COCO keypoint array."""
    return TorsoPoints(
        right_shoulder=tuple(keypoints[RIGHT_SHOULDER]),
        left_shoulder=tuple(keypoints[LEFT_SHOULDER]),
        right_hip=tuple(keypoints[RIGHT_HIP]),
        left_hip=tuple(keypoints[LEFT_HIP]),
    )


def orientation_from_keypoints(
    keypoints: np.ndarray, bins: int, smax: float = 1.0
) -> Orientation:
    """Compute the orientation for one detection, falling back to the middle bin."""
    try:
        ratio = s2t_ratio(torso_from_keypoints(keypoints))
    except OrientationUnavailable:
        return Orientation(s2t=float("nan"), bin=fallback_bin(bins), valid=False)
    return Orientation(s2t=ratio, bin=orientation_bin(ratio, bins, smax), valid=True)


# The four pairs of ``s2t_ratio`` as flat indices into 18 x 3 values, one
# column each: width (rs, ls) and (rh, lh) on x, height (rh, rs) and (lh, ls)
# on y.  Rows: first and second coordinate, first and second confidence.
_FIRST = 3 * np.array([RIGHT_SHOULDER, RIGHT_HIP, RIGHT_HIP, LEFT_HIP])
_SECOND = 3 * np.array([LEFT_SHOULDER, LEFT_HIP, RIGHT_SHOULDER, LEFT_SHOULDER])
_PAIRS = np.stack([_FIRST + [0, 0, 1, 1], _SECOND + [0, 0, 1, 1], _FIRST + 2, _SECOND + 2])


def orientation_bins(
    keypoints: np.ndarray, bins: int, smax: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``(bins, valid)`` of an (n, 18, 3) keypoint block, two (n,) arrays.

    The block form of ``orientation_from_keypoints``: the same elementwise
    operations in the same order, so on finite keypoints with confidences
    in [0, 1] (what ``parse_keypoints`` accepts) row i gets that function's
    bin and validity bit for bit; invalid rows get ``fallback_bin(bins)``.
    """
    if bins < 1:
        raise ValueError(f"bin count must be >= 1, got {bins}")
    if smax <= 0:
        raise ValueError(f"smax must be positive, got {smax}")
    # Each of the four is (pair, detection).
    first, second, c_first, c_second = keypoints.reshape(-1, 3 * 18).T[_PAIRS]
    weight = c_first + c_second
    # A pair contributes only when both endpoints were observed.
    terms = np.where(np.minimum(c_first, c_second) > 0.0, weight * (first - second), 0.0)
    total = weight[0] + c_first[1] + c_second[1]  # c_rs + c_ls + c_rh + c_lh
    # Invalid rows divide by zero; their values are replaced below.
    with np.errstate(divide="ignore", invalid="ignore"):
        width, height = (terms[0::2] + terms[1::2]) / total
        valid = (total > 0.0) & (np.abs(height) >= DEGENERATE_HEIGHT_EPS)
        clamped = np.minimum(np.maximum(width / height, -smax), smax)
        index = np.minimum(np.floor((clamped + smax) / (2.0 * smax) * bins), bins - 1)
    return np.where(valid, index, fallback_bin(bins)).astype(np.int64), valid
