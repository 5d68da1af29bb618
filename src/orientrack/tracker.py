"""Per-frame tracking loop: predict, associate, update, maintain galleries.

The live tracks are arrays, one row per track in birth order: ``tracks``
holds the ids, one stacked ``filtering.TrackState`` the Kalman state, and
two count vectors the matches (hits) and the unmatched frames since the
last match (misses).  Each frame makes one batched predict and one batched
update of the matched rows.  A track is emitted once it has
``confirm_hits`` hits and dropped after more than ``max_age`` misses.

Association runs a particle set whose assignments are re-sampled from
scratch every frame (only weights carry over; ROADMAP.md item 2).  Filters
and the appearance gallery, keyed by track id, are mutated from the
consensus (highest-weight) particle only; per-particle filter banks are out
of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
)
from .pose_orientation import fallback_bin, orientation_from_keypoints

_EMIT_MIN_SIZE = 1e-3  # px floor so emitted boxes stay valid


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

    def _uses_appearance(self) -> bool:
        return self.config.mode != association.POS_ONLY

    def _frame_features(
        self, frame: int, count: int, features: FeatureTable | None
    ) -> list[np.ndarray]:
        rows = []
        for i in range(count):
            if features is None or (frame, i) not in features.entries:
                raise MissingInputError("feature", frame, i)
            rows.append(features.entries[(frame, i)])
        return rows

    def _detection_bin(
        self, frame: int, det_index: int,
        keypoints: dict[tuple[int, int], KeypointRecord] | None,
    ) -> int:
        if self.config.gallery != "orient":
            return fallback_bin(self.config.bins)
        if keypoints is None or (frame, det_index) not in keypoints:
            raise MissingInputError("keypoints", frame, det_index)
        record = keypoints[(frame, det_index)]
        return orientation_from_keypoints(
            record.keypoints, self.config.bins, self.config.smax
        ).bin

    def process_frame(
        self,
        frame: int,
        detections: list[DetectionRecord],
        features: FeatureTable | None = None,
        keypoints: dict[tuple[int, int], KeypointRecord] | None = None,
    ) -> list[DetectionRecord]:
        """Advance the tracker by one frame; returns emitted confirmed records."""
        cfg = self.config
        self._state = filtering.predict(self._state, cfg.q)
        self._misses += 1

        if not detections:
            self._retire_and_spawn(np.zeros((0, filtering.MEAS_DIM)))
            return []

        measurements = np.array([filtering.box_to_measurement(*d.box) for d in detections])
        feats: list[np.ndarray] | None = None
        if self._uses_appearance():
            feats = self._frame_features(frame, len(detections), features)

        pos = app = None
        if cfg.mode != association.APP_ONLY:
            pos = association.position_likelihood(
                self._state, measurements, cfg.r, cfg.d0_pos
            )
        if cfg.mode != association.POS_ONLY:
            assert feats is not None
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
        post = filtering.update(
            filtering.TrackState(self._state.mean[rows], self._state.cov[rows]),
            measurements[matched], cfg.r,
        )
        self._state.mean[rows] = post.mean
        self._state.cov[rows] = post.cov
        self._hits[rows] += 1
        self._misses[rows] = 0
        emitted = [
            self._emit(frame, int(self.tracks[row]), self._state.mean[row])
            for row in rows[self._hits[rows] >= cfg.confirm_hits]
        ]

        det_ids = np.empty(len(detections), dtype=np.int64)
        det_ids[matched] = self.tracks[rows]
        det_ids[~matched] = self._retire_and_spawn(measurements[~matched])
        if self._uses_appearance():
            assert feats is not None
            for i, track_id in enumerate(det_ids.tolist()):
                self._gallery.insert(
                    track_id, feats[i], self._detection_bin(frame, i, keypoints)
                )
        return emitted

    def _emit(self, frame: int, track_id: int, mean: np.ndarray) -> DetectionRecord:
        cx, cy, w, h = mean[:4]
        w = max(w, _EMIT_MIN_SIZE)
        h = max(h, _EMIT_MIN_SIZE)
        return DetectionRecord(
            frame=frame,
            id=track_id,
            bb_left=cx - w / 2.0,
            bb_top=cy - h / 2.0,
            bb_width=w,
            bb_height=h,
            conf=1.0,
        )

    def _retire_and_spawn(self, born: np.ndarray) -> np.ndarray:
        """Drop rows with more than max_age misses, append a track per (4,) row of
        ``born``, and return the new ids."""
        keep = self._misses <= self.config.max_age
        ids = np.arange(self._next_id, self._next_id + len(born), dtype=np.int64)
        if not len(ids) and keep.all():
            return ids
        self._next_id += len(born)
        fresh = filtering.initial_state(born)
        self._state = filtering.TrackState(
            mean=np.concatenate([self._state.mean[keep], fresh.mean]),
            cov=np.concatenate([self._state.cov[keep], fresh.cov]),
        )
        self.tracks = np.concatenate([self.tracks[keep], ids])
        self._hits = np.concatenate([self._hits[keep], np.ones_like(ids)])
        self._misses = np.concatenate([self._misses[keep], np.zeros_like(ids)])
        return ids


def run_sequence(
    config: TrackerConfig,
    det_text: str,
    features_text: str | None = None,
    keypoints_text: str | None = None,
) -> list[DetectionRecord]:
    """Run the tracker over a whole detection file; deterministic per seed."""
    from .io_formats import parse_features, parse_keypoints, parse_mot

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
