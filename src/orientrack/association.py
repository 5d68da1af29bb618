"""Factored position x appearance association likelihoods and RBPF assignment.

Likelihood matrices have one row per detection and one column per active
track plus a trailing NEW_TRACK column.  Rows are probability distributions
(softmin of distances, row-normalized); every particle samples one-to-one
assignments from them afresh each frame, so no association hypothesis
survives a frame and only particle weights carry over (ROADMAP.md's open item
"A real Rao-Blackwellized particle filter").

The likelihoods are computed gate first, so a frame's distance work grows
with the pairs the chi-square gate can let through rather than with
detections x tracks.  ``position_likelihood`` measures squared Mahalanobis
distance only on the pairs an exact pre-gate keeps: with innovation y and
S = H P H^T + r I, d^2 >= y_i^2 / S_ii for each coordinate i, so a pair with
y_i^2 > 2 CHI2_GATE S_ii is surely gated out; the factor 2 is the rounding
margin, proven in ``filtering.gated_squared_mahalanobis``, so no pair the
dense computation keeps is left out.  Under ``pos_app``,
``appearance_likelihood`` then reads the gallery only on the position
factor's support (``Gallery.pair_distances``) and normalizes each row over
that support and NEW_TRACK, so ``combine`` equals one normalization of the
dense product up to rounding.  ``app_only`` has no gate: it reads every pair
through the same pair read, with the bytes of the dense read.

The sampler draws every row of a frame at once as if no column were taken,
then redraws, in row order, only the contested rows: those that share a
real-track column with an earlier row.  The other rows' first draws are
already the row-by-row loop's picks, because nothing they can pick is taken
before them.  A frame in which no real column has mass in two rows has no
contested row; that is most frames of a few well-separated tracks (about 85%
of the crossing benchmark's) and few of a crowd's (about 20%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filtering import MEAS_DIM, STATE_DIM, TrackState, gated_squared_mahalanobis
# ``mahalanobis`` is the one-pair form, kept importable from here for callers
# (and perfbench's tracer) that look it up on this module.
from .filtering import mahalanobis  # noqa: F401
from .gallery import Gallery

# 95% quantile of chi-square with 4 degrees of freedom, applied to squared
# Mahalanobis distance before softmin weighting.
CHI2_GATE = 9.488

DEFAULT_D0_POS = 4.0
DEFAULT_D0_APP = 1.5

POS_ONLY = "pos_only"
APP_ONLY = "app_only"
POS_APP = "pos_app"
MODES = (POS_ONLY, APP_ONLY, POS_APP)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize; a row with no mass falls back to NEW_TRACK."""
    totals = np.add.reduce(matrix, axis=1, keepdims=True)
    # A NaN total fails the comparison; ``initial`` admits 0 rows.
    if np.minimum.reduce(totals, axis=None, initial=np.inf) > 0.0:
        return matrix / totals
    empty = totals[:, 0] <= 0.0
    matrix = matrix / np.where(empty[:, None], 1.0, totals)
    matrix[empty] = 0.0
    matrix[empty, -1] = 1.0
    return matrix


def position_likelihood(
    tracks: TrackState,
    measurements: np.ndarray,
    r: float = 10.0,
    d0: float = DEFAULT_D0_POS,
) -> np.ndarray:
    """Softmin of Mahalanobis distances, gated, with a constant NEW_TRACK floor.

    ``tracks`` is the stacked state of the live tracks.  Squared distances
    are computed only for the pairs that ``filtering.gated_squared_mahalanobis``'s
    exact pre-gate keeps, by one stacked solve; a pair whose squared distance
    exceeds ``CHI2_GATE`` gets 0, as does every pair the pre-gate leaves out,
    any other pair ``exp(-d)``, and the NEW_TRACK column ``exp(-d0)``.
    Returns an (n_detections, n_tracks + 1) row-stochastic matrix.
    """
    matrix = np.zeros((np.size(measurements) // MEAS_DIM, tracks.mean.size // STATE_DIM + 1))
    dets, cols, squared = gated_squared_mahalanobis(tracks, measurements, CHI2_GATE, r)
    matrix[dets, cols] = np.where(squared > CHI2_GATE, 0.0, np.exp(-np.sqrt(squared)))
    matrix[:, -1] = np.exp(-d0)
    return _normalize_rows(matrix)


def appearance_likelihood(
    gallery: Gallery,
    features: Sequence[np.ndarray],
    track_ids: Sequence[int],
    d0_app: float = DEFAULT_D0_APP,
    support: np.ndarray | None = None,
) -> np.ndarray:
    """Softmin of nearest-gallery-feature distances per (detection, track) pair.

    Tracks without any stored appearance get the same constant floor as the
    NEW_TRACK column, making them indistinguishable from a new identity on
    appearance alone.  ``support`` is an optional (n_detections, n_tracks)
    array whose nonzero entries are the pairs to read, such as the position
    factor's real columns; without it every pair is read, as ``app_only``
    mode, which has no gate, does.  Only those pairs are read
    (``Gallery.pair_distances``), every other real entry is 0, and each row
    is normalised over its support and NEW_TRACK.
    """
    floor = np.exp(-d0_app)
    if support is None:
        support = np.ones((len(features), len(track_ids)), dtype=bool)
    matrix = np.zeros((support.shape[0], support.shape[1] + 1))
    dets, cols = support.nonzero()
    distances = gallery.pair_distances(features, dets, np.asarray(track_ids).take(cols))
    matrix[dets, cols] = np.where(np.isfinite(distances), np.exp(-distances), floor)
    matrix[:, -1] = floor
    return _normalize_rows(matrix)


def combine(pos: np.ndarray | None, app: np.ndarray | None, mode: str) -> np.ndarray:
    """Fuse the two likelihood factors according to the ablation mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == POS_ONLY:
        if pos is None:
            raise ValueError("pos_only mode requires a position matrix")
        return _normalize_rows(pos)
    if mode == APP_ONLY:
        if app is None:
            raise ValueError("app_only mode requires an appearance matrix")
        return _normalize_rows(app)
    if pos is None or app is None:
        raise ValueError("pos_app mode requires both matrices")
    if pos.shape != app.shape:
        raise ValueError(f"shape mismatch: {pos.shape} vs {app.shape}")
    return _normalize_rows(pos * app)


@dataclass
class ParticleSet:
    """Association hypotheses: per-particle latest assignment plus weight."""

    assignments: np.ndarray  # (P, n_detections) column indices, NEW = n_tracks
    weights: np.ndarray  # (P,) normalized

    @classmethod
    def initial(cls, particles: int) -> "ParticleSet":
        if particles < 1:
            raise ValueError(f"particle count must be >= 1, got {particles}")
        return cls(
            assignments=np.zeros((particles, 0), dtype=np.int64),
            weights=np.full(particles, 1.0 / particles),
        )


def effective_sample_size(weights: np.ndarray) -> float:
    return 1.0 / float(np.add.reduce(weights * weights))


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices of resampled particles using a single uniform offset."""
    n = len(weights)
    positions = (rng.random() + np.arange(n)) / n
    return np.minimum(np.searchsorted(np.add.accumulate(weights), positions), n - 1)


def rbpf_step(
    ps: ParticleSet, matrix: np.ndarray, rng: np.random.Generator
) -> tuple[ParticleSet, np.ndarray]:
    """Advance the particle set over one frame's association matrix.

    Each particle samples a fresh column per detection row, excluding
    real-track columns it already took this frame (NEW_TRACK can repeat);
    ``ps.assignments`` is never read, only ``ps.weights`` carry over.
    Weights are multiplied by the sampled probabilities, renormalized, and
    systematically resampled when the effective sample size drops below P/2.
    The consensus assignment is the highest-weight particle's assignment.

    Draw contract: one uniform per (particle, detection), drawn up front as
    ``rng.random((P, n_detections))``, i.e. particle-major.  Each row is
    sampled with ``Generator.choice``'s arithmetic (``cdf = cumsum(p / total)``,
    ``cdf /= cdf[-1]``, column = count of ``cdf <= u``), so a particle picks
    the column that a ``rng.choice`` call per row would have picked from the
    same stream.  A row with no mass left (possible only when its NEW_TRACK
    entry is 0) takes NEW_TRACK and still uses up its uniform.  Raises
    ``ValueError`` if ``matrix`` has a negative entry or a row whose sum is not
    finite (a non-finite entry, or a sum that overflows).

    Sampling: one ``_draw`` over every row, as if no column were taken, then
    each contested row (one that shares a real column with an earlier row)
    drawn again in row order, from its row times ``free``, the 1.0/0.0 mask of
    the columns a particle has not taken.  ``free`` starts from the
    uncontested rows' picks and takes each redrawn row's pick.  Exact: with
    finite row sums a particle only picks a column with mass.
    An uncontested row shares no column with any earlier row, so nothing it
    can pick is taken before it, and its first draw is the loop's pick.  An
    uncontested row that comes after a contested row shares no column with
    it, so seeding ``free`` with its pick hides nothing that row could pick.
    Multiplying by 0.0/1.0 and adding exact zeros leaves every total and cdf
    entry as the row-by-row loop computes it; factors multiply in row order.
    """
    # Contiguous rows: each row total adds in the order of the loop's one-row sum.
    matrix = np.ascontiguousarray(matrix)
    n_det, n_cols = matrix.shape
    new_col = n_cols - 1
    particles = len(ps.weights)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        totals = np.add.reduce(matrix, axis=1, keepdims=True)
        # A NaN entry or total fails its comparison; ``initial`` admits 0 rows.
        if not (np.minimum.reduce(matrix, axis=None, initial=0.0) >= 0.0
                and np.maximum.reduce(totals, axis=None, initial=0.0) < np.inf):
            raise ValueError(
                "association matrix rows must have finite sums and no negative entry"
            )
        # (P, n, 1) is the (P, n) particle-major stream with a trailing axis.
        uniforms = rng.random((particles, n_det, 1))
        assignments = _draw(matrix, totals, uniforms, new_col)
        support = matrix[:, :-1] > 0.0
        if np.count_nonzero(support) != np.count_nonzero(np.logical_or.reduce(support)):
            # Some real column has mass in two rows.  A row is contested when an
            # earlier row also supports one of its columns.
            contested = np.logical_or.reduce(
                support & (support.argmax(axis=0) < np.arange(n_det)[:, None]), axis=1
            )
            # 0.0 where a particle took a real column: entries are finite and >= 0,
            # so a row times ``free`` zeroes the taken ones exactly.
            # A row with no mass left divides 0 by 0; ``_draw`` gives it NEW_TRACK.
            free = np.ones((particles, n_cols))
            each = np.arange(particles)
            kept = assignments[:, ~contested]
            free[each[:, None], kept] = kept == new_col
            for i in np.flatnonzero(contested):
                probs = matrix[i] * free
                cols = _draw(probs, np.add.reduce(probs, axis=-1, keepdims=True),
                             uniforms[:, i], new_col)
                assignments[:, i] = cols
                free[each, cols] = cols == new_col
    # One sequential product over [weight | factors in row order], as the
    # row-by-row loop's ``weights *= factor``; a pairwise reduce would
    # multiply in another order.
    factors = matrix[np.arange(n_det), assignments]
    weights = np.multiply.accumulate(
        np.concatenate((ps.weights[:, None], factors), axis=1), axis=1
    )[:, -1]
    total = np.add.reduce(weights)
    if total <= 0.0:
        weights = np.full(particles, 1.0 / particles)
    else:
        weights /= total
    consensus = assignments[weights.argmax()].copy()

    if effective_sample_size(weights) < particles / 2.0:
        assignments = assignments[systematic_resample(weights, rng)]
        weights = np.full(particles, 1.0 / particles)

    return ParticleSet(assignments=assignments, weights=weights), consensus


def _draw(probs: np.ndarray, total: np.ndarray, uniforms: np.ndarray, new_col: int) -> np.ndarray:
    """Each particle's column for each row of ``probs``, by ``Generator.choice``'s
    arithmetic: ``probs`` is (rows, columns), or (P, columns) for one row after
    taken columns were zeroed; ``total`` its row sums with a trailing axis and
    ``uniforms`` the matching (P, rows, 1) or (P, 1) draws.  A row without
    mass takes ``new_col``.

    A row with mass has a non-decreasing ``cdf`` that ends at exactly 1.0, above
    every uniform, so its first column above u is the count of ``cdf <= u``.
    """
    cdf = np.add.accumulate(probs / total, axis=-1)
    cdf /= cdf[..., -1:]
    cols = (cdf > uniforms).argmax(axis=-1)
    if not np.minimum.reduce(total, axis=None, initial=np.inf) > 0.0:
        np.copyto(cols, new_col, where=total[..., 0] <= 0.0)
    return cols
