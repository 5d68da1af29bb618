"""Signed shoulder-to-torso (S2T) orientation ratio and discrete orientation bins.

The ratio is a confidence-weighted body width over body height computed from
the four torso keypoints.  Under image coordinates with y growing downward,
height is taken hip-minus-shoulder so that an upright person has h > 0 and
the sign of the ratio follows the facing direction: positive means facing
away from the camera, negative means facing the camera.

Orientation takes two steps.  First a row's S2T, from the one row rule
``_s2t``, NaN where the orientation is unavailable (``s2t_ratio`` alone raises
``OrientationUnavailable`` there).  Then its bin, ``_bin_index``: NaN goes to
``fallback_bin``, +-inf to the clamped edge bin; ``io_formats``' rules check
``bins``, ``smax`` and the S2T.  Every form takes both steps (``s2t_ratio``
and ``s2t_ratios`` stop after the first), as does ``metrics.build_gallery``, so
tracking and re-ID file a detection alike.  The block forms loop the row rule
over Python floats, which wins below about 24 rows and loses above: 4.3 us at 4
rows, 24 us at 32 and 45 us at 64, against 18-20 us for a byte-equal numpy form
(``timeit`` minima, shared 2-core Xeon, Python 3.11; host load can double both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io_formats import check_count, check_real

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


def _s2t_or_nan(row: list[float]) -> float:
    """``_s2t`` of a row's twelve torso values, NaN where the orientation is unavailable."""
    try:
        return _s2t(*row)
    except OrientationUnavailable:
        return math.nan


def s2t_ratios(keypoints: np.ndarray) -> np.ndarray:
    """S2T of each row of an (n, 18, 3) keypoint block, an (n,) array, NaN where
    unavailable: one gather of the 12 torso values per row, then the row rule."""
    rows = keypoints.reshape(-1, 3 * 18).take(_TORSO_VALUES, axis=1).tolist()
    return np.array([_s2t_or_nan(row) for row in rows], dtype=float)


def _bin_index(s2t: float, bins: int, smax: float) -> int:
    """The bin of an S2T value, for parameters already checked; NaN takes the fallback bin."""
    if s2t != s2t:
        return fallback_bin(bins)
    clamped = min(max(s2t, -smax), smax)
    return min(math.floor((clamped + smax) / (2.0 * smax) * bins), bins - 1)


def orientation_bin(s2t: float, bins: int, smax: float = 1.0) -> int:
    """Map an S2T value, any Real but a bool, to a bin via a uniform clamped partition
    of [-smax, smax]; NaN, an unavailable orientation, maps to ``fallback_bin(bins)``."""
    check_real(s2t, "s2t", "real")
    bins = check_count(bins, "bin count", 1)
    check_real(smax, "smax")
    return _bin_index(s2t, bins, smax)


def orientation_from_keypoints(
    keypoints: np.ndarray, bins: int, smax: float = 1.0
) -> Orientation:
    """One detection's orientation; an unavailable one has a NaN S2T and the fallback bin."""
    ratio = _s2t_or_nan(keypoints.take(_TORSO_VALUES).tolist())
    return Orientation(s2t=ratio, bin=orientation_bin(ratio, bins, smax), valid=ratio == ratio)


def orientation_bins(
    keypoints: np.ndarray, bins: int, smax: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``(bins, valid)`` of an (n, 18, 3) keypoint block, two (n,) arrays: the block
    form of ``orientation_from_keypoints``, ``s2t_ratios`` then the bin step."""
    bins = check_count(bins, "bin count", 1)
    check_real(smax, "smax")
    ratios = s2t_ratios(keypoints)
    out = [_bin_index(ratio, bins, smax) for ratio in ratios.tolist()]
    return np.array(out, dtype=np.int64), ratios == ratios
