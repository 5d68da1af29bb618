"""Per-frame tracking loop: predict, associate, update, maintain galleries.

The live tracks are arrays, one row per track in birth order: ``tracks``
holds the ids, one stacked ``filtering.TrackState`` the Kalman state, and
two count vectors the matches (hits) and the unmatched frames since the
last match (misses).  Each frame makes one batched predict and one batched
update of the matched rows, and handles its detections' measurements,
features, orientation bins, gallery insert and emitted records as one block
each.  A track is emitted once it has ``confirm_hits`` hits and dropped after
more than ``max_age`` misses; its gallery rows go with its Kalman rows.

Association runs a particle set whose assignments are re-sampled from
scratch every frame (only weights carry over; see ROADMAP.md's open item
"A real Rao-Blackwellized particle filter").
Filters and the appearance gallery, keyed by track id, are mutated from the
consensus (highest-weight) particle only; per-particle filter banks are out
of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np

from . import association, filtering
from .gallery import STRATEGIES, Gallery
from .io_formats import (
    DetectionRecord,
    FeatureTable,
    KeypointRecord,
    config_from_mapping,
    group_by_frame,
    parse_config,
    parse_features,
    parse_keypoints,
    parse_mot,
)
# ``orientation_from_keypoints`` is unused here (``orientation_bins`` shares its
# row rule); it stays importable from here for callers, perfbench's tracer
# among them, that look it up in this module by name.
from .pose_orientation import orientation_bins, orientation_from_keypoints  # noqa: F401

_EMIT_MIN_SIZE = 1e-3  # px floor so emitted boxes stay valid
_BOX = attrgetter("bb_left", "bb_top", "bb_width", "bb_height")  # DetectionRecord.box


class MissingInputError(ValueError):
    """A feature or keypoint row required by the configuration is absent."""

    def __init__(self, kind: str, frame: int, det_index: int):
        super().__init__(f"missing {kind} for frame {frame}, det_index {det_index}")
        self.frame = frame
        self.det_index = det_index


@dataclass
class TrackerConfig:
    bins: int = 2
    smax: float = 1.0
    particles: int = 20
    mode: str = association.POS_APP
    gallery: str = "orient"
    q: float = 1.0
    r: float = 10.0
    d0_pos: float = association.DEFAULT_D0_POS
    d0_app: float = association.DEFAULT_D0_APP
    confirm_hits: int = 2
    max_age: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")
        if self.particles < 1:
            raise ValueError(f"particles must be >= 1, got {self.particles}")
        if self.mode not in association.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.gallery not in STRATEGIES:
            raise ValueError(f"unknown gallery strategy {self.gallery!r}")
        for name in ("smax", "q", "r", "d0_pos", "d0_app"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.confirm_hits <= 0:
            raise ValueError("confirm_hits must be positive")
        if self.max_age < 0:
            raise ValueError("max_age must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "TrackerConfig":
        return config_from_mapping(cls, mapping)


class Tracker:
    def __init__(self, config: TrackerConfig) -> None:
        self.config = config
        self.tracks = np.zeros(0, dtype=np.int64)
        self._state = filtering.initial_state(np.zeros((0, filtering.MEAS_DIM)))
        self._hits = np.zeros(0, dtype=np.int64)
        self._misses = np.zeros(0, dtype=np.int64)
        self._next_id = 1
        self._rng = np.random.default_rng(config.seed)
        self._particles = association.ParticleSet.initial(config.particles)
        self._gallery = Gallery(config.gallery, bins=config.bins, seed=config.seed)

    @property
    def gallery(self) -> Gallery:
        return self._gallery

    def process_frame(
        self,
        frame: int,
        detections: list[DetectionRecord],
        features: FeatureTable | None = None,
        keypoints: dict[tuple[int, int], KeypointRecord] | None = None,
    ) -> list[DetectionRecord]:
        """Advance the tracker by one frame; returns emitted confirmed records.
        Inputs are gathered first: a MissingInputError leaves the tracker as it was."""
        cfg = self.config
        count = len(detections)
        # ``filtering.box_to_measurement``'s arithmetic, on the Python floats of each box.
        measurements = np.array(
            [(left + width / 2.0, top + height / 2.0, width, height)
             for left, top, width, height in map(_BOX, detections)], dtype=float,
        ).reshape(count, filtering.MEAS_DIM)
        feats = bins = None
        if count and cfg.mode != association.POS_ONLY:
            table = features.entries if features is not None else {}
            feats = np.array(_frame_rows(table, "feature", frame, count))
            if cfg.gallery == "orient":
                records = _frame_rows(keypoints or {}, "keypoints", frame, count)
                bins = orientation_bins(
                    np.array([r.keypoints for r in records]), cfg.bins, cfg.smax
                )[0]

        self._state = filtering.predict(self._state, cfg.q)
        self._misses += 1
        if not count:
            self._retire_and_spawn(measurements)
            return []

        pos = app = None
        if cfg.mode != association.APP_ONLY:
            pos = association.position_likelihood(
                self._state, measurements, cfg.r, cfg.d0_pos
            )
        if cfg.mode != association.POS_ONLY:
            app = association.appearance_likelihood(
                self._gallery, feats, self.tracks, cfg.d0_app
            )
        matrix = association.combine(pos, app, cfg.mode)

        self._particles, consensus = association.rbpf_step(
            self._particles, matrix, self._rng
        )

        # The consensus takes each real column at most once, so the matched
        # rows are distinct and update in place.
        matched = consensus < len(self.tracks)
        rows = consensus[matched]
        mean, cov = self._state.mean, self._state.cov
        post = filtering.update(
            filtering.TrackState(mean[rows], cov[rows]), measurements[matched], cfg.r
        )
        mean[rows] = post.mean
        cov[rows] = post.cov
        hits = self._hits[rows] + 1
        self._hits[rows] = hits
        self._misses[rows] = 0
        confirmed = rows[hits >= cfg.confirm_hits]
        centre = mean[confirmed, :4]
        size = np.maximum(centre[:, 2:], _EMIT_MIN_SIZE)
        corner = centre[:, :2] - size / 2.0
        emitted = list(map(DetectionRecord, repeat(frame), self.tracks[confirmed].tolist(),
                           *corner.T.tolist(), *size.T.tolist(), repeat(1.0)))

        det_ids = np.empty(count, dtype=np.int64)
        det_ids[matched] = self.tracks[rows]
        det_ids[~matched] = self._retire_and_spawn(measurements[~matched])
        if feats is not None:
            self._gallery.insert_block(det_ids, feats, bins)
        return emitted

    def _retire_and_spawn(self, born: np.ndarray) -> np.ndarray:
        """Drop tracks with more than max_age misses and their gallery rows, append
        a track per (4,) row of ``born``, and return the new ids."""
        keep = self._misses <= self.config.max_age
        ids = np.arange(self._next_id, self._next_id + len(born), dtype=np.int64)
        if not len(ids) and keep.all():
            return ids
        self._next_id += len(born)
        self._gallery.discard(self.tracks[~keep])
        fresh = filtering.initial_state(born)
        self._state = filtering.TrackState(
            mean=np.concatenate([self._state.mean[keep], fresh.mean]),
            cov=np.concatenate([self._state.cov[keep], fresh.cov]),
        )
        self.tracks = np.concatenate([self.tracks[keep], ids])
        self._hits = np.concatenate([self._hits[keep], np.ones_like(ids)])
        self._misses = np.concatenate([self._misses[keep], np.zeros_like(ids)])
        return ids


def _frame_rows(table: dict, kind: str, frame: int, count: int) -> list:
    """``table[(frame, i)]`` for each i < count; raises MissingInputError for
    the first absent i."""
    try:
        return [table[(frame, i)] for i in range(count)]
    except KeyError:
        missing = next(i for i in range(count) if (frame, i) not in table)
        raise MissingInputError(kind, frame, missing) from None


def run_sequence(
    config: TrackerConfig,
    det_text: str,
    features_text: str | None = None,
    keypoints_text: str | None = None,
) -> list[DetectionRecord]:
    """Run the tracker over a whole detection file; deterministic per seed."""
    detections = parse_mot(det_text)
    features = parse_features(features_text) if features_text is not None else None
    keypoints = None
    if keypoints_text is not None:
        keypoints = {
            (k.frame, k.det_index): k for k in parse_keypoints(keypoints_text)
        }

    tracker = Tracker(config)
    by_frame = group_by_frame(detections)
    output: list[DetectionRecord] = []
    last_frame = max(by_frame, default=0)
    for frame in range(1, last_frame + 1):
        output.extend(
            tracker.process_frame(frame, by_frame.get(frame, []), features, keypoints)
        )
    output.sort(key=lambda r: (r.frame, r.id))
    return output


def config_from_text(text: str) -> TrackerConfig:
    return TrackerConfig.from_mapping(parse_config(text))
