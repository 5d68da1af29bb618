import json
import math

import numpy as np
import pytest

from orientrack.io_formats import parse_features, parse_keypoints, parse_mot
from orientrack.pose_orientation import orientation_from_keypoints
from orientrack.synth import SynthConfig, generate, quadrant


class TestDeterminism:
    def test_identical_reruns(self):
        cfg = SynthConfig(persons=3, frames=20, kappa=0.7, sigma=0.3,
                          sigma_det=2.0, crossing=True, seed=13)
        a, b = generate(cfg), generate(cfg)
        assert a.gt_text == b.gt_text
        assert a.det_text == b.det_text
        assert a.features_text == b.features_text
        assert a.keypoints_text == b.keypoints_text

    def test_seed_changes_output(self):
        a = generate(SynthConfig(seed=0))
        b = generate(SynthConfig(seed=1))
        assert a.gt_text != b.gt_text


class TestFileConsistency:
    def test_outputs_parse_and_align(self):
        cfg = SynthConfig(persons=4, frames=15, kappa=0.5, sigma=0.1)
        out = generate(cfg)
        gt = parse_mot(out.gt_text)
        det = parse_mot(out.det_text)
        features = parse_features(out.features_text)
        keypoints = parse_keypoints(out.keypoints_text)
        expected = cfg.persons * cfg.frames
        assert len(gt) == len(det) == len(keypoints) == expected
        assert len(features.entries) == expected
        assert features.dim == cfg.dim
        assert {r.id for r in gt} == set(range(1, cfg.persons + 1))
        assert all(r.id == -1 for r in det)

    def test_noiseless_detections_equal_ground_truth_boxes(self):
        out = generate(SynthConfig(persons=2, frames=10, sigma_det=0.0))
        gt = parse_mot(out.gt_text)
        det = parse_mot(out.det_text)
        for g, d in zip(gt, det):
            assert (g.frame, g.box) == (d.frame, d.box)

    def test_features_are_unit_norm(self):
        out = generate(SynthConfig(persons=3, frames=10, kappa=0.8, sigma=0.3))
        table = parse_features(out.features_text)
        for vector in table.entries.values():
            assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-4)


class TestQuadrant:
    def test_cardinal_angles(self):
        assert quadrant(0.1) == 0
        assert quadrant(math.pi / 2 + 0.1) == 1
        assert quadrant(math.pi + 0.1) == 2
        assert quadrant(-0.1) == 3

    def test_wraps(self):
        assert quadrant(0.1 + 2 * math.pi) == quadrant(0.1)


class TestOrientationSignal:
    def test_s2t_sign_tracks_heading(self):
        out = generate(SynthConfig(persons=2, frames=40, seed=3))
        gt = parse_mot(out.gt_text)
        centers = {}
        for r in gt:
            centers[(r.frame, r.id)] = (r.bb_left + r.bb_width / 2,
                                        r.bb_top + r.bb_height / 2)
        for record in parse_keypoints(out.keypoints_text):
            person = record.det_index + 1
            prev = centers.get((record.frame - 1, person))
            cur = centers[(record.frame, person)]
            if prev is None:
                continue
            dx = cur[0] - prev[0]
            orientation = orientation_from_keypoints(record.keypoints, bins=2)
            assert orientation.valid
            if abs(dx) < 2.0 or abs(orientation.s2t) < 0.1:
                continue  # near-profile views: discrete heading vs step disagree
            assert math.copysign(1.0, orientation.s2t) == math.copysign(1.0, dx)

    def test_full_circle_visits_four_feature_values(self):
        # With kappa > 0 and no noise, features only depend on the heading
        # quadrant, and a full-circle walk visits all four.
        out = generate(SynthConfig(persons=1, frames=40, kappa=1.0, sigma=0.0))
        table = parse_features(out.features_text)
        distinct = {tuple(np.round(v, 6)) for v in table.entries.values()}
        assert len(distinct) == 4

    def test_cross_person_distance_exceeds_within_person(self):
        out = generate(SynthConfig(persons=4, frames=30, kappa=0.6, sigma=0.1,
                                   seed=9))
        table = parse_features(out.features_text)
        by_person: dict[int, list[np.ndarray]] = {}
        for (frame, det_index), vector in table.entries.items():
            by_person.setdefault(det_index, []).append(vector)
        within, across = [], []
        for person, vectors in by_person.items():
            mean = np.mean(vectors, axis=0)
            within.extend(np.linalg.norm(v - mean) for v in vectors)
            for other, other_vectors in by_person.items():
                if other > person:
                    other_mean = np.mean(other_vectors, axis=0)
                    across.append(np.linalg.norm(mean - other_mean))
        assert np.mean(across) > np.mean(within)


class TestCrossingScenario:
    def test_paths_meet_near_center(self):
        cfg = SynthConfig(persons=4, frames=100, crossing=True, seed=1)
        out = generate(cfg)
        gt = parse_mot(out.gt_text)
        center = np.array([cfg.width / 2, cfg.height / 2])
        closest = {m: float("inf") for m in range(1, cfg.persons + 1)}
        for r in gt:
            c = np.array([r.bb_left + r.bb_width / 2, r.bb_top + r.bb_height / 2])
            closest[r.id] = min(closest[r.id], float(np.linalg.norm(c - center)))
        for distance in closest.values():
            assert distance < 15.0

    def test_straight_constant_velocity(self):
        cfg = SynthConfig(persons=3, frames=50, crossing=True, seed=2)
        out = generate(cfg)
        gt = parse_mot(out.gt_text)
        per_person: dict[int, list[tuple[float, float]]] = {}
        for r in gt:
            per_person.setdefault(r.id, []).append(
                (r.bb_left + r.bb_width / 2, r.bb_top + r.bb_height / 2)
            )
        for path in per_person.values():
            steps = np.diff(np.array(path), axis=0)
            assert np.std(steps, axis=0).max() < 0.02  # 2-decimal rounding only


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SynthConfig(persons=0)
        with pytest.raises(ValueError):
            SynthConfig(dim=1)
        with pytest.raises(ValueError):
            SynthConfig(sigma=-0.1)

    @pytest.mark.parametrize("name, value, least", [
        ("persons", 0, 1), ("persons", -3, 1), ("frames", 0, 1), ("dim", 1, 2), ("dim", 0, 2),
        ("seed", -1, 0),
    ])
    def test_out_of_range_count_names_its_key(self, name, value, least):
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {value}$"):
            SynthConfig(**{name: value})

    @pytest.mark.parametrize("name", ["persons", "frames", "dim", "seed"])
    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
    def test_non_integer_count_names_its_key(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
            SynthConfig(**{name: value})

    @pytest.mark.parametrize("name", ["kappa", "sigma", "sigma_det"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_bad_noise(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative and finite"):
            SynthConfig(**{name: value})

    @pytest.mark.parametrize("name", ["width", "height"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -5.0])
    def test_rejects_bad_image_size(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            SynthConfig(**{name: value})

    def test_from_mapping(self):
        cfg = SynthConfig.from_mapping(
            {"persons": "3", "crossing": "true", "kappa": "0.5"}
        )
        assert cfg.persons == 3
        assert cfg.crossing is True
        assert cfg.kappa == 0.5
        with pytest.raises(ValueError, match="unknown synth config key 'nope'"):
            SynthConfig.from_mapping({"nope": "1"})

    @pytest.mark.parametrize(
        "raw, expected",
        [("1", True), ("true", True), ("YES", True), ("0", False), ("no", False)],
    )
    def test_from_mapping_crossing_flag(self, raw, expected):
        assert SynthConfig.from_mapping({"crossing": raw}).crossing is expected

    @pytest.mark.parametrize("raw", ["ture", "", "2", "on", "y"])
    def test_from_mapping_rejects_unknown_flag(self, raw):
        with pytest.raises(ValueError, match="'crossing'"):
            SynthConfig.from_mapping({"crossing": raw})

    def test_from_mapping_every_field(self):
        cfg = SynthConfig.from_mapping(
            {"persons": "2", "frames": "3", "width": "100", "height": "50", "dim": "4",
             "kappa": "0.1", "sigma": "0.2", "sigma_det": "0.3", "crossing": "yes",
             "seed": "5"}
        )
        assert cfg == SynthConfig(
            persons=2, frames=3, width=100.0, height=50.0, dim=4, kappa=0.1,
            sigma=0.2, sigma_det=0.3, crossing=True, seed=5,
        )
