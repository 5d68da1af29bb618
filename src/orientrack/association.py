"""Factored position x appearance association likelihoods and RBPF assignment.

Likelihood matrices have one row per detection and one column per active
track plus a trailing NEW_TRACK column.  Rows are probability distributions
(softmin of distances, row-normalized); every particle samples one-to-one
assignments from them afresh each frame, so no association hypothesis
survives a frame and only particle weights carry over (ROADMAP.md item 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filtering import TrackState, mahalanobis
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
    totals = matrix.sum(axis=1, keepdims=True)
    empty = totals[:, 0] <= 0.0
    matrix = matrix / np.where(empty[:, None], 1.0, totals)
    matrix[empty] = 0.0
    matrix[empty, -1] = 1.0
    return matrix


def position_likelihood(
    tracks: Sequence[TrackState],
    measurements: Sequence[np.ndarray],
    r: float = 10.0,
    d0: float = DEFAULT_D0_POS,
    gate: float = CHI2_GATE,
) -> np.ndarray:
    """Softmin of Mahalanobis distances, gated, with a constant NEW_TRACK floor.

    Returns an (n_detections, n_tracks + 1) row-stochastic matrix.
    """
    n_det, n_trk = len(measurements), len(tracks)
    matrix = np.zeros((n_det, n_trk + 1))
    for i, z in enumerate(measurements):
        for j, track in enumerate(tracks):
            d = mahalanobis(track, z, r)
            matrix[i, j] = 0.0 if d * d > gate else np.exp(-d)
        matrix[i, n_trk] = np.exp(-d0)
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
    stored = np.isfinite(distances)
    matrix[:, :-1][stored] = np.exp(-distances[stored])
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
    return 1.0 / float(np.sum(weights**2))


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices of resampled particles using a single uniform offset."""
    n = len(weights)
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), positions).clip(max=n - 1)


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
    """
    n_det, n_cols = matrix.shape
    new_col = n_cols - 1
    particles = len(ps.weights)
    assignments = np.full((particles, n_det), new_col, dtype=np.int64)
    weights = ps.weights.copy()

    for p in range(particles):
        taken: set[int] = set()
        for i in range(n_det):
            probs = matrix[i].copy()
            for col in taken:
                probs[col] = 0.0
            total = probs.sum()
            if total <= 0.0:
                col = new_col
            else:
                col = int(rng.choice(n_cols, p=probs / total))
            assignments[p, i] = col
            weights[p] *= matrix[i, col]
            if col != new_col:
                taken.add(col)

    total = weights.sum()
    if total <= 0.0:
        weights = np.full(particles, 1.0 / particles)
    else:
        weights = weights / total

    consensus = assignments[int(np.argmax(weights))].copy()

    if effective_sample_size(weights) < particles / 2.0:
        indices = systematic_resample(weights, rng)
        assignments = assignments[indices]
        weights = np.full(particles, 1.0 / particles)

    return ParticleSet(assignments=assignments, weights=weights), consensus
