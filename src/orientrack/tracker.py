"""Per-frame tracking loop: predict, associate, update, maintain galleries.

The tracker owns a set of live tracks, a particle set whose assignments are
re-sampled from scratch every frame (only weights carry over; ROADMAP.md
item 2), and an appearance gallery keyed by track id.  Filters and the
gallery are mutated from the consensus (highest-weight) particle only;
per-particle filter banks are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

TENTATIVE = "tentative"
CONFIRMED = "confirmed"

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


@dataclass
class Track:
    track_id: int
    state: filtering.TrackState
    hits: int = 1
    misses: int = 0
    status: str = TENTATIVE


@dataclass
class Tracker:
    config: TrackerConfig
    tracks: list[Track] = field(default_factory=list)
    _next_id: int = 1

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.config.seed)
        self._particles = association.ParticleSet.initial(self.config.particles)
        self._gallery = Gallery(
            self.config.gallery, bins=self.config.bins, seed=self.config.seed
        )

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

        for track in self.tracks:
            track.state = filtering.predict(track.state, cfg.q)

        if not detections:
            self._age_unmatched(set())
            return []

        measurements = [
            filtering.box_to_measurement(*d.box) for d in detections
        ]
        feats: list[np.ndarray] | None = None
        if self._uses_appearance():
            feats = self._frame_features(frame, len(detections), features)

        track_states = [t.state for t in self.tracks]
        pos = app = None
        if cfg.mode != association.APP_ONLY:
            pos = association.position_likelihood(
                track_states, measurements, cfg.r, cfg.d0_pos
            )
        if cfg.mode != association.POS_ONLY:
            assert feats is not None
            app = association.appearance_likelihood(
                self._gallery, feats, [t.track_id for t in self.tracks], cfg.d0_app
            )
        matrix = association.combine(pos, app, cfg.mode)

        self._particles, consensus = association.rbpf_step(
            self._particles, matrix, self._rng
        )

        new_col = len(self.tracks)
        updated: set[int] = set()
        emitted: list[DetectionRecord] = []
        det_tracks: list[Track] = []
        for i, col in enumerate(consensus):
            if col == new_col:
                track = Track(
                    track_id=self._next_id,
                    state=filtering.initial_state(measurements[i]),
                )
                self._next_id += 1
                self.tracks.append(track)
            else:
                track = self.tracks[col]
                track.state = filtering.update(track.state, measurements[i], cfg.r)
                track.hits += 1
                track.misses = 0
                updated.add(col)
            if track.status == TENTATIVE and track.hits >= cfg.confirm_hits:
                track.status = CONFIRMED
            det_tracks.append(track)

        if self._uses_appearance():
            assert feats is not None
            for i, track in enumerate(det_tracks):
                self._gallery.insert(
                    track.track_id, feats[i], self._detection_bin(frame, i, keypoints)
                )

        for i, track in enumerate(det_tracks):
            if track.status == CONFIRMED and consensus[i] != new_col:
                emitted.append(self._emit(frame, track))

        self._age_unmatched(updated, spawned=len(self.tracks) - new_col)
        return emitted

    def _emit(self, frame: int, track: Track) -> DetectionRecord:
        cx, cy, w, h = track.state.mean[:4]
        w = max(w, _EMIT_MIN_SIZE)
        h = max(h, _EMIT_MIN_SIZE)
        return DetectionRecord(
            frame=frame,
            id=track.track_id,
            bb_left=cx - w / 2.0,
            bb_top=cy - h / 2.0,
            bb_width=w,
            bb_height=h,
            conf=1.0,
        )

    def _age_unmatched(self, updated: set[int], spawned: int = 0) -> None:
        survivors = []
        n_prior = len(self.tracks) - spawned
        for j, track in enumerate(self.tracks):
            if j < n_prior and j not in updated:
                track.misses += 1
            if track.misses <= self.config.max_age:
                survivors.append(track)
        self.tracks = survivors


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
