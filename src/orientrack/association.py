"""Factored position x appearance association likelihoods and RBPF assignment.

Likelihood matrices have one row per detection and one column per active
track plus a trailing NEW_TRACK column.  Rows are probability distributions
(softmin of distances, row-normalized); every particle samples one-to-one
assignments from them afresh each frame, so no association hypothesis
survives a frame and only particle weights carry over (ROADMAP.md open item 3).

The sampler draws a frame's rows by dependency level rather than one row at
a time.  A row's support is its set of real-track columns with mass; two rows
depend on each other when their supports meet, and a row's level is one more
than the highest level among the earlier rows it depends on (0 if none).
Rows of one level have disjoint supports, so all particles sample them in one
batch with the row-by-row loop's arithmetic, level 0 (no taken column) once for
all; each level gathers its rows and writes its picks back by row index.  A
frame in which no real column has mass in two rows is one level: it skips the
level split and samples every row at once.  That is most frames of a few
well-separated tracks (about 85% of the crossing benchmark's) and few of a
crowd's (about 20%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# ``mahalanobis`` is the one-pair form, kept importable from here for callers
# (and perfbench's tracer) that look it up on this module.
from .filtering import TrackState, mahalanobis, squared_mahalanobis  # noqa: F401
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

    ``tracks`` is the stacked state of the live tracks.  All detections x
    tracks squared distances come from one batched solve
    (``filtering.squared_mahalanobis``); a pair whose squared distance exceeds
    ``CHI2_GATE`` gets 0, any other pair ``exp(-d)``, and the NEW_TRACK column
    ``exp(-d0)``.  Returns an (n_detections, n_tracks + 1) row-stochastic
    matrix.
    """
    squared = squared_mahalanobis(tracks, measurements, r)
    matrix = np.empty((squared.shape[0], squared.shape[1] + 1))
    matrix[:, :-1] = np.where(squared > CHI2_GATE, 0.0, np.exp(-np.sqrt(squared)))
    matrix[:, -1] = np.exp(-d0)
    return _normalize_rows(matrix)


def appearance_likelihood(
    gallery: Gallery,
    features: Sequence[np.ndarray],
    track_ids: Sequence[int],
    d0_app: float = DEFAULT_D0_APP,
) -> np.ndarray:
    """Softmin of nearest-gallery-feature distances per (detection, track) pair.

    Tracks without any stored appearance get the same constant floor as the
    NEW_TRACK column, making them indistinguishable from a new identity on
    appearance alone.
    """
    floor = np.exp(-d0_app)
    matrix = np.full((len(features), len(track_ids) + 1), floor)
    distances = gallery.distances(features, track_ids)
    matrix[:, :-1] = np.where(np.isfinite(distances), np.exp(-distances), floor)
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


def _levels(matrix: np.ndarray) -> list[list[int]]:
    """The rows of each dependency level, in row order within a level.

    A row's level is 0 if its real-column support meets no earlier row's
    support, else 1 + the highest level among the earlier rows whose supports
    it meets.  Supports are Python-int bitmasks, and ``unions[k]`` is the union
    of level k's supports so far, so a row costs one mask test per level it
    skips, and a row that meets no earlier support costs none.
    """
    packed = np.packbits(matrix[:, :-1] > 0.0, axis=1)
    width = packed.shape[1]
    raw = packed.tobytes()
    unions: list[int] = []
    groups: list[list[int]] = []
    seen = 0
    for i in range(len(matrix)):
        mask = int.from_bytes(raw[i * width:(i + 1) * width], "big")
        level = 0
        if mask & seen:
            level = len(unions)
            while not unions[level - 1] & mask:
                level -= 1
        seen |= mask
        if level == len(unions):
            unions.append(0)
            groups.append([])
        unions[level] |= mask
        groups[level].append(i)
    return groups


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

    Rows are sampled by dependency level (``_levels``): level 0, which reads no
    taken column, once for all particles as (rows, columns) arrays, and each
    later level as one (P, rows, columns) batch.  A frame whose rows all sit
    in level 0 (no real column with mass in two rows) is sampled whole,
    without the split.  Exact: with finite row sums a
    particle only picks a column with mass, so a real column a row could see
    taken lies in its support, and only earlier rows of lower levels take it.
    Each row sees the row loop's taken columns; factors multiply in row order.
    """
    # Contiguous rows: the row sums below add in the order the levels' row gathers do.
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
        support = matrix[:, :-1] > 0.0
        if np.count_nonzero(support) == np.count_nonzero(np.logical_or.reduce(support)):
            # One level: no real column has mass in two rows, so no row can
            # find its column taken.  Every row at once, straight into ``assignments``.
            assignments = _draw(matrix, totals, uniforms, new_col)
        else:
            assignments = np.empty((particles, n_det), dtype=np.int64)
            # 0.0 where a particle took a real column: entries are finite and >= 0,
            # so a row times ``free`` zeroes the taken ones exactly; level 0 skips it.
            # A row with no mass left divides 0 by 0; its column is set to NEW_TRACK afterwards.
            free = np.ones((particles, n_cols))
            each = np.arange(particles)[:, None]
            for k, rows in enumerate(map(np.array, _levels(matrix))):
                # take: a row gather, cheaper per call than fancy indexing.
                probs = matrix.take(rows, axis=0)
                if k:
                    probs = probs * free[:, None]
                cols = _draw(probs, np.add.reduce(probs, axis=-1, keepdims=True),
                             uniforms.take(rows, axis=1), new_col)
                assignments[:, rows] = cols
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
    arithmetic: ``probs`` is (rows, columns), or (P, rows, columns) after
    taken columns were zeroed; ``total`` its row sums with a trailing axis and
    ``uniforms`` the (P, rows, 1) draws.  A row without mass takes ``new_col``.

    A row with mass has a non-decreasing ``cdf`` that ends at exactly 1.0, above
    every uniform, so its first column above u is the count of ``cdf <= u``.
    """
    cdf = np.add.accumulate(probs / total, axis=-1)
    cdf /= cdf[..., -1:]
    cols = (cdf > uniforms).argmax(axis=-1)
    if not np.minimum.reduce(total, axis=None, initial=np.inf) > 0.0:
        np.copyto(cols, new_col, where=total[..., 0] <= 0.0)
    return cols
