"""Signed shoulder-to-torso (S2T) orientation ratio and discrete orientation bins.

The ratio is a confidence-weighted body width over body height computed from
the four torso keypoints.  Under image coordinates with y growing downward,
height is taken hip-minus-shoulder so that an upright person has h > 0 and
the sign of the ratio follows the facing direction: positive means facing
away from the camera, negative means facing the camera.

``s2t_ratio``, ``orientation_from_keypoints`` and the block form
``orientation_bins`` all call one row rule, ``_s2t``, on the twelve torso
values, so they agree by construction.  The block form loops it over its rows
as Python floats: at 4 rows that took 7.6 us against 29 us for an elementwise
numpy form (2-core Xeon, Python 3.11).
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

# Flat indices of the four torso triples (rs, ls, rh, lh) among 18 x 3 values.
_TORSO_VALUES = (3 * np.array([RIGHT_SHOULDER, LEFT_SHOULDER, RIGHT_HIP, LEFT_HIP])[:, None]
                 + np.arange(3)).ravel()


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
    no influence on the result.  A NaN on an observed keypoint, like a zero
    confidence mass or a degenerate height, raises ``OrientationUnavailable``.
    """
    return _s2t(*torso.right_shoulder, *torso.left_shoulder, *torso.right_hip, *torso.left_hip)


def _s2t(x_rs, y_rs, c_rs, x_ls, y_ls, c_ls, x_rh, y_rh, c_rh, x_lh, y_lh, c_lh) -> float:
    """``s2t_ratio`` of the twelve torso values, in (rs, ls, rh, lh) triple order."""
    total = c_rs + c_ls + c_rh + c_lh
    if total <= 0.0:
        raise OrientationUnavailable("zero confidence mass on torso keypoints")
    # A pairwise difference contributes only when both endpoints were observed;
    # this keeps unobserved (zero-confidence) coordinates out of the estimate.
    width = ((0.0 if c_rs <= 0.0 or c_ls <= 0.0 else (c_rs + c_ls) * (x_rs - x_ls))
             + (0.0 if c_rh <= 0.0 or c_lh <= 0.0 else (c_rh + c_lh) * (x_rh - x_lh))) / total
    height = ((0.0 if c_rs <= 0.0 or c_rh <= 0.0 else (c_rs + c_rh) * (y_rh - y_rs))
              + (0.0 if c_ls <= 0.0 or c_lh <= 0.0 else (c_ls + c_lh) * (y_lh - y_ls))) / total
    if abs(height) < DEGENERATE_HEIGHT_EPS:
        raise OrientationUnavailable(f"degenerate torso height {height}")
    ratio = width / height
    if ratio != ratio:
        raise OrientationUnavailable(f"undefined S2T ratio {width} / {height}")
    return ratio


def _check_bin_parameters(bins: int, smax: float) -> None:
    if bins < 1:
        raise ValueError(f"bin count must be >= 1, got {bins}")
    if smax <= 0:
        raise ValueError(f"smax must be positive, got {smax}")


def _bin_index(s2t: float, bins: int, smax: float) -> int:
    """The bin of a non-NaN S2T value, for parameters already checked."""
    clamped = min(max(s2t, -smax), smax)
    return min(math.floor((clamped + smax) / (2.0 * smax) * bins), bins - 1)


def orientation_bin(s2t: float, bins: int, smax: float = 1.0) -> int:
    """Map an S2T value to a bin via a uniform clamped partition of [-smax, smax]."""
    _check_bin_parameters(bins, smax)
    return _bin_index(s2t, bins, smax)


def orientation_from_keypoints(
    keypoints: np.ndarray, bins: int, smax: float = 1.0
) -> Orientation:
    """Compute the orientation for one detection, falling back to the middle bin."""
    try:
        ratio = _s2t(*keypoints.take(_TORSO_VALUES).tolist())
    except OrientationUnavailable:
        return Orientation(s2t=float("nan"), bin=fallback_bin(bins), valid=False)
    return Orientation(s2t=ratio, bin=orientation_bin(ratio, bins, smax), valid=True)


def orientation_bins(
    keypoints: np.ndarray, bins: int, smax: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``(bins, valid)`` of an (n, 18, 3) keypoint block, two (n,) arrays.

    The block form of ``orientation_from_keypoints``: one gather of the 12
    torso values per row, then ``s2t_ratio``'s own row rule and
    ``orientation_bin``'s bin step, so row i gets that function's bin and
    validity; invalid rows get ``fallback_bin(bins)``.  It stays a loop over
    Python floats: a frame holds a few to a few dozen rows, and at 4 rows the
    loop took 7.6 us against 29 us for an elementwise form.
    """
    _check_bin_parameters(bins, smax)
    fallback = fallback_bin(bins)
    out, valid = [], []
    for row in keypoints.reshape(-1, 3 * 18).take(_TORSO_VALUES, axis=1).tolist():
        try:
            ratio = _s2t(*row)
        except OrientationUnavailable:
            out.append(fallback)
            valid.append(False)
        else:
            out.append(_bin_index(ratio, bins, smax))
            valid.append(True)
    return np.array(out, dtype=np.int64), np.array(valid, dtype=bool)
