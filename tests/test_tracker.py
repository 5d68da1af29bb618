import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orientrack import association, filtering
from orientrack.gallery import Gallery
from orientrack.io_formats import (
    DetectionRecord,
    FeatureTable,
    KeypointRecord,
    ParseError,
    group_by_frame,
    parse_features,
    parse_keypoints,
    parse_mot,
    write_tracks,
)
from orientrack.metrics import id_switches, idf1
from orientrack.synth import SynthConfig, generate
from orientrack.pose_orientation import fallback_bin, orientation_from_keypoints
from orientrack.tracker import (
    MissingInputError,
    Tracker,
    TrackerConfig,
    config_from_text,
    run_sequence,
)


def det_lines(rows):
    return "".join(
        f"{frame},-1,{l:.2f},{t:.2f},{w:.2f},{h:.2f},1.00,-1,-1,-1\n"
        for frame, l, t, w, h in rows
    )


def feature_lines(dim, rows):
    body = "".join(
        f"{frame},{index}," + ",".join(f"{v:.6f}" for v in vec) + "\n"
        for frame, index, vec in rows
    )
    return f"# dim={dim}\n" + body


class TestStationaryTarget:
    def run(self, frames=10):
        rows = [(f, 100.0, 200.0, 40.0, 80.0) for f in range(1, frames + 1)]
        feats = [(f, 0, [1.0, 0.0]) for f in range(1, frames + 1)]
        config = TrackerConfig(mode="pos_app", gallery="averaged", seed=0)
        return run_sequence(
            config, det_lines(rows), feature_lines(2, feats)
        )

    def test_emits_from_confirmation_frame(self):
        out = self.run()
        assert [r.frame for r in out] == list(range(2, 11))

    def test_single_stable_id(self):
        out = self.run()
        assert {r.id for r in out} == {1}

    def test_box_stays_within_one_pixel(self):
        for r in self.run():
            assert abs(r.bb_left - 100.0) < 1.0
            assert abs(r.bb_top - 200.0) < 1.0
            assert abs(r.bb_width - 40.0) < 1.0
            assert abs(r.bb_height - 80.0) < 1.0


class TestTwoSeparatedTargets:
    def run(self):
        rows = []
        feats = []
        for f in range(1, 51):
            rows.append((f, 100.0 + 2.0 * f, 100.0, 40.0, 80.0))
            feats.append((f, 0, [1.0, 0.0]))
            rows.append((f, 800.0 - 2.0 * f, 700.0, 40.0, 80.0))
            feats.append((f, 1, [0.0, 1.0]))
        config = TrackerConfig(mode="pos_app", gallery="averaged", seed=0)
        return rows, run_sequence(config, det_lines(rows), feature_lines(2, feats))

    def test_exactly_two_ids_no_switches(self):
        rows, out = self.run()
        assert len({r.id for r in out}) == 2
        gt = []
        from orientrack.io_formats import DetectionRecord

        for i, (f, l, t, w, h) in enumerate(rows):
            gt.append(DetectionRecord(f, 1 + (i % 2), l, t, w, h, 1.0))
        assert id_switches(gt, out) == 0
        assert idf1(gt, out).idf1 > 0.9


class TestLifecycle:
    def test_track_survives_missing_frames(self):
        rows = [(f, 100.0, 100.0, 40.0, 80.0) for f in (1, 2, 3, 6, 7)]
        feats = [(f, 0, [1.0, 0.0]) for f in (1, 2, 3, 6, 7)]
        out = run_sequence(
            TrackerConfig(mode="pos_app", gallery="averaged", max_age=30),
            det_lines(rows),
            feature_lines(2, feats),
        )
        assert {r.id for r in out} == {1}
        assert {r.frame for r in out} == {2, 3, 6, 7}

    def test_track_dies_after_max_age(self):
        rows = [(1, 100.0, 100.0, 40.0, 80.0), (2, 100.0, 100.0, 40.0, 80.0),
                (10, 100.0, 100.0, 40.0, 80.0), (11, 100.0, 100.0, 40.0, 80.0)]
        feats = [(f, 0, [1.0, 0.0]) for f in (1, 2, 10, 11)]
        out = run_sequence(
            TrackerConfig(mode="pos_app", gallery="averaged", max_age=3),
            det_lines(rows),
            feature_lines(2, feats),
        )
        assert {r.id for r in out} == {1, 2}

    def test_ids_never_reused(self):
        from orientrack.io_formats import (
            group_by_frame,
            parse_features,
            parse_keypoints,
            parse_mot,
        )
        from orientrack.tracker import Tracker

        cfg = SynthConfig(persons=4, frames=30, sigma_det=1.0, seed=5)
        data = generate(cfg)
        tracker = Tracker(TrackerConfig())
        features = parse_features(data.features_text)
        keypoints = {
            (k.frame, k.det_index): k for k in parse_keypoints(data.keypoints_text)
        }
        by_frame = group_by_frame(parse_mot(data.det_text))
        seen: set[int] = set()
        for frame in range(1, cfg.frames + 1):
            out = tracker.process_frame(
                frame, by_frame.get(frame, []), features, keypoints
            )
            live = tracker.tracks.tolist()
            assert len(live) == len(set(live))
            assert all(r.id >= 1 for r in out)
            fresh = {t for t in live if t not in seen}
            # A new id must exceed every id ever allocated before it.
            if seen and fresh:
                assert min(fresh) > max(seen)
            seen |= fresh


class TestInputRequirements:
    def test_missing_feature_row(self):
        rows = [(1, 100.0, 100.0, 40.0, 80.0)]
        with pytest.raises(MissingInputError) as exc:
            run_sequence(
                TrackerConfig(mode="pos_app", gallery="averaged"),
                det_lines(rows),
                "# dim=2\n",
            )
        assert exc.value.frame == 1
        assert exc.value.det_index == 0

    def test_missing_keypoints_row(self):
        rows = [(1, 100.0, 100.0, 40.0, 80.0)]
        feats = [(1, 0, [1.0, 0.0])]
        with pytest.raises(MissingInputError) as exc:
            run_sequence(
                TrackerConfig(mode="pos_app", gallery="orient"),
                det_lines(rows),
                feature_lines(2, feats),
                "",
            )
        assert exc.value.frame == 1

    @pytest.mark.parametrize("absent", ["feature", "keypoints"])
    def test_missing_row_leaves_the_tracker_unchanged(self, absent):
        rows = [(f, 100.0 + 60.0 * i, 100.0, 40.0, 80.0) for f in (1, 2) for i in range(3)]
        by_frame = group_by_frame(parse_mot(det_lines(rows)))
        entries = {(f, i): np.array([1.0, float(i)]) for f in (1, 2) for i in range(3)}
        lines = [f'{{"frame":{f},"det_index":{i},"keypoints":{[[i, 0, 1]] * 18}}}'
                 for f, i in entries]
        keypoints = {(k.frame, k.det_index): k for k in parse_keypoints("\n".join(lines))}
        (entries if absent == "feature" else keypoints).pop((2, 1))
        features = FeatureTable(dim=2, entries=entries)
        tracker = Tracker(TrackerConfig(mode="pos_app", gallery="orient", bins=3))
        tracker.process_frame(1, by_frame[1], features, keypoints)
        before = (tracker.tracks.copy(), tracker._state.mean.copy(), tracker._misses.copy(),
                  tracker._hits.copy(), tracker.gallery.stored_vectors())
        with pytest.raises(MissingInputError) as exc:
            tracker.process_frame(2, by_frame[2], features, keypoints)
        assert (exc.value.frame, exc.value.det_index) == (2, 1)
        assert str(exc.value).startswith(f"missing {absent} ")
        after = (tracker.tracks, tracker._state.mean, tracker._misses, tracker._hits,
                 tracker.gallery.stored_vectors())
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old, new)

    def test_pos_only_needs_no_features(self):
        rows = [(f, 100.0, 100.0, 40.0, 80.0) for f in range(1, 5)]
        out = run_sequence(TrackerConfig(mode="pos_only"), det_lines(rows))
        assert {r.id for r in out} == {1}


class TestDeterminism:
    def test_identical_reruns(self):
        cfg = SynthConfig(persons=3, frames=25, kappa=0.5, sigma=0.2,
                          sigma_det=1.0, seed=7)
        data = generate(cfg)
        outputs = [
            write_tracks(
                run_sequence(
                    TrackerConfig(seed=3),
                    data.det_text,
                    data.features_text,
                    data.keypoints_text,
                )
            )
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]

    def test_pos_only_ignores_feature_contents(self):
        cfg = SynthConfig(persons=3, frames=25, sigma_det=1.0, seed=11)
        data = generate(cfg)
        shuffled = data.features_text.replace("0", "9")
        base = run_sequence(TrackerConfig(mode="pos_only"), data.det_text,
                            data.features_text)
        alt = run_sequence(TrackerConfig(mode="pos_only"), data.det_text)
        assert write_tracks(base) == write_tracks(alt)


class TestGalleryGrowth:
    def test_binned_gallery_is_bounded(self):
        cfg = SynthConfig(persons=3, frames=60, kappa=0.5, seed=2)
        data = generate(cfg)
        from orientrack.io_formats import (
            group_by_frame,
            parse_features,
            parse_keypoints,
            parse_mot,
        )
        from orientrack.tracker import Tracker

        tracker = Tracker(TrackerConfig(bins=4, gallery="orient"))
        features = parse_features(data.features_text)
        keypoints = {
            (k.frame, k.det_index): k for k in parse_keypoints(data.keypoints_text)
        }
        by_frame = group_by_frame(parse_mot(data.det_text))
        for frame in range(1, cfg.frames + 1):
            tracker.process_frame(frame, by_frame.get(frame, []), features, keypoints)
        gallery = tracker.gallery
        persons = len(np.unique(gallery._owners))
        assert gallery.stored_vectors() <= persons * 4

    def test_binned_gallery_follows_the_live_tracks(self):
        # Frames 25-34 are empty, so every track born before them retires.
        cfg = SynthConfig(persons=3, frames=60, kappa=0.5, seed=2)
        data = generate(cfg)
        tracker = Tracker(TrackerConfig(bins=4, gallery="orient", max_age=5))
        features = parse_features(data.features_text)
        keypoints = {
            (k.frame, k.det_index): k for k in parse_keypoints(data.keypoints_text)
        }
        by_frame = group_by_frame(parse_mot(data.det_text))
        for frame in range(1, cfg.frames + 1):
            detections = [] if 25 <= frame < 35 else by_frame.get(frame, [])
            tracker.process_frame(frame, detections, features, keypoints)
            if frame == 24:
                before = tracker.tracks.tolist()
        assert before and min(tracker.tracks) > max(before)
        assert tracker.gallery.stored_vectors() <= len(tracker.tracks) * 4


class TestRetiredTracksLeaveTheGallery:
    @pytest.mark.parametrize("mode", [association.POS_APP, association.APP_ONLY])
    def test_owners_are_the_live_tracks_through_a_gap(self, mode, monkeypatch):
        # A crowd clip whose frames 10-15 are empty: more than max_age misses.
        frames, gap = 24, range(10, 16)
        data = generate(SynthConfig(persons=32, frames=frames, sigma_det=2.0, kappa=0.8,
                                    sigma=0.3, seed=4))
        features = parse_features(data.features_text)
        keypoints = {(k.frame, k.det_index): k for k in parse_keypoints(data.keypoints_text)}
        by_frame = group_by_frame(parse_mot(data.det_text))

        def run(check):
            tracker = Tracker(TrackerConfig(mode=mode, bins=5, max_age=3, seed=1))
            out = []
            for frame in range(1, frames + 1):
                detections = [] if frame in gap else by_frame[frame]
                out += tracker.process_frame(frame, detections, features, keypoints)
                owners = tracker.gallery._owners
                if check:
                    assert np.unique(owners).tolist() == tracker.tracks.tolist()
            return write_tracks(sorted(out, key=lambda r: (r.frame, r.id))), tracker.gallery

        text, gallery = run(check=True)
        monkeypatch.setattr(Gallery, "discard", lambda self, persons: None)
        kept_text, kept = run(check=False)
        assert text == kept_text
        # Without discard the retired tracks' rows would still be stored.
        assert kept.stored_vectors() > gallery.stored_vectors() > 0


class TestConfigParsing:
    def test_round_trip(self):
        config = config_from_text("bins=4\nmode=pos_only\nq=2.0\nseed=9\n")
        assert config.bins == 4
        assert config.mode == "pos_only"
        assert config.q == 2.0
        assert config.seed == 9

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            config_from_text("bogus=1\n")

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            TrackerConfig(bins=0)
        with pytest.raises(ValueError):
            TrackerConfig(particles=0)
        with pytest.raises(ValueError):
            TrackerConfig(mode="nope")
        with pytest.raises(ValueError):
            TrackerConfig(q=-1.0)


class TestConfigIntegerFields:
    @pytest.mark.parametrize("name", ["bins", "particles", "confirm_hits", "max_age", "seed"])
    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf")])
    def test_non_integer_names_its_key(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
            TrackerConfig(**{name: bad})

    @pytest.mark.parametrize("name, value, least", [
        ("confirm_hits", 0, 1), ("max_age", -1, 0), ("seed", -2, 0),
    ])
    def test_out_of_range_names_its_key(self, name, value, least):
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {value}$"):
            TrackerConfig(**{name: value})


class TestConfigRejectsNonFinite:
    @pytest.mark.parametrize("name", ["smax", "q", "r", "d0_pos", "d0_app"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_field(self, name, bad):
        with pytest.raises(ValueError, match=name):
            TrackerConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["d0_pos", "d0_app"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_floor_distance(self, name, bad):
        with pytest.raises(ValueError, match=name):
            TrackerConfig(**{name: bad})

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            TrackerConfig(seed=-1)

    @pytest.mark.parametrize("line", ["q=nan", "r=nan", "d0_pos=nan", "d0_app=inf", "seed=-3"])
    def test_config_text_fails_before_tracking(self, line):
        key = line.split("=")[0]
        with pytest.raises(ValueError, match=key):
            config_from_text(f"{line}\nmode=pos_only\n")


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nan_box_is_a_parse_error(self, bad):
        text = det_lines([(1, 100.0, 100.0, 40.0, 80.0)]) + f"2,-1,100,100,{bad},80,1,-1,-1,-1\n"
        with pytest.raises(ParseError) as exc:
            run_sequence(TrackerConfig(mode="pos_only"), text)
        assert exc.value.line == 2


class TestNonFiniteKeypoints:
    def test_nan_torso_value_takes_the_fallback_bin(self):
        # Records built in code can hold NaN; the parsers reject it.
        rows = [(1, 100.0 + 60.0 * i, 100.0, 40.0, 80.0) for i in range(2)]
        (detections,) = group_by_frame(parse_mot(det_lines(rows))).values()
        features = FeatureTable(dim=2, entries={(1, i): np.array([1.0, float(i)]) for i in range(2)})
        keypoints = {}
        for i, y_ls in enumerate([np.nan, 0.0]):
            kp = np.zeros((18, 3))
            kp[[2, 5, 8, 11]] = [(4, 0, 1), (0, y_ls, 1), (4, 8, 1), (0, 8, 1)]
            keypoints[(1, i)] = KeypointRecord(frame=1, det_index=i, keypoints=kp)
        tracker = Tracker(TrackerConfig(mode="pos_app", gallery="orient", bins=3))
        assert tracker.process_frame(1, detections, features, keypoints) == []
        assert tracker.gallery._row_of == {(1, fallback_bin(3)): 0, (2, 2): 1}


class TestConfigCoercion:
    def test_every_field_is_a_key(self):
        mapping = {
            "bins": "3", "smax": "0.5", "particles": "4", "mode": "app_only",
            "gallery": "full", "q": "2", "r": "5", "d0_pos": "3", "d0_app": "1",
            "confirm_hits": "3", "max_age": "7", "seed": "11",
        }
        config = TrackerConfig.from_mapping(mapping)
        assert config == TrackerConfig(
            bins=3, smax=0.5, particles=4, mode="app_only", gallery="full", q=2.0,
            r=5.0, d0_pos=3.0, d0_app=1.0, confirm_hits=3, max_age=7, seed=11,
        )
        assert type(config.q) is float and type(config.bins) is int

    def test_unknown_key_message(self):
        with pytest.raises(ValueError, match="unknown config key 'bogus'"):
            TrackerConfig.from_mapping({"bogus": "1"})

    def test_integer_field_rejects_fraction(self):
        with pytest.raises(ValueError):
            TrackerConfig.from_mapping({"bins": "2.5"})

    @pytest.mark.parametrize(
        "key, raw", [("bins", "2.0"), ("max_age", "x"), ("q", "abc"), ("seed", "")]
    )
    def test_failed_coercion_names_the_key(self, key, raw):
        with pytest.raises(ValueError, match=f"'{key}'"):
            TrackerConfig.from_mapping({key: raw})


@dataclass
class ReferenceTrack:
    track_id: int
    state: filtering.TrackState
    hits: int = 1
    misses: int = 0
    confirmed: bool = False


class ReferenceTracker:
    """One object per track and per-track predict/update loops: the design the
    array-held tracks replaced, kept as an oracle."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        self.tracks: list[ReferenceTrack] = []
        self.next_id = 1
        self.rng = np.random.default_rng(config.seed)
        self.particles = association.ParticleSet.initial(config.particles)
        self.gallery = Gallery(config.gallery, bins=config.bins, seed=config.seed)

    def detection_bin(self, frame, i, keypoints):
        if self.config.gallery != "orient":
            return fallback_bin(self.config.bins)
        return orientation_from_keypoints(
            keypoints[(frame, i)].keypoints, self.config.bins, self.config.smax
        ).bin

    def age(self, updated, spawned=0):
        prior = len(self.tracks) - spawned
        for j, track in enumerate(self.tracks):
            if j < prior and j not in updated:
                track.misses += 1
        self.tracks = [t for t in self.tracks if t.misses <= self.config.max_age]

    def process_frame(self, frame, detections, features, keypoints):
        cfg = self.config
        for track in self.tracks:
            track.state = filtering.predict(track.state, cfg.q)
        if not detections:
            self.age(set())
            return []
        measurements = [filtering.box_to_measurement(*d.box) for d in detections]
        feats = [features.entries[(frame, i)] for i in range(len(detections))]
        stack = filtering.TrackState(
            mean=np.array([t.state.mean for t in self.tracks]).reshape(-1, 6),
            cov=np.array([t.state.cov for t in self.tracks]).reshape(-1, 6, 6),
        )
        pos = app = None
        if cfg.mode != association.APP_ONLY:
            pos = association.position_likelihood(stack, measurements, cfg.r, cfg.d0_pos)
        if cfg.mode != association.POS_ONLY:
            app = association.appearance_likelihood(
                self.gallery, feats, [t.track_id for t in self.tracks], cfg.d0_app
            )
        matrix = association.combine(pos, app, cfg.mode)
        self.particles, consensus = association.rbpf_step(self.particles, matrix, self.rng)

        new_col = len(self.tracks)
        updated = set()
        det_tracks = []
        for i, col in enumerate(consensus):
            if col == new_col:
                track = ReferenceTrack(self.next_id, filtering.initial_state(measurements[i]))
                self.next_id += 1
                self.tracks.append(track)
            else:
                track = self.tracks[col]
                track.state = filtering.update(track.state, measurements[i], cfg.r)
                track.hits += 1
                track.misses = 0
                updated.add(col)
            track.confirmed = track.confirmed or track.hits >= cfg.confirm_hits
            det_tracks.append(track)
        if cfg.mode != association.POS_ONLY:
            for i, track in enumerate(det_tracks):
                self.gallery.insert(
                    track.track_id, feats[i], self.detection_bin(frame, i, keypoints)
                )
        emitted = []
        for i, track in enumerate(det_tracks):
            if track.confirmed and consensus[i] != new_col:
                cx, cy, w, h = track.state.mean[:4]
                w, h = max(w, 1e-3), max(h, 1e-3)
                emitted.append(DetectionRecord(
                    frame, track.track_id, cx - w / 2.0, cy - h / 2.0, w, h, 1.0
                ))
        self.age(updated, spawned=len(self.tracks) - new_col)
        return emitted


def dropped_frames(data, frames, drop, empty, rng):
    """Per frame: the kept detections, re-indexed features and keypoints.

    Each detection is dropped with probability ``drop`` and each frame emptied
    with probability ``empty``; det_index is the position among the kept.
    """
    by_frame = group_by_frame(parse_mot(data.det_text))
    table = parse_features(data.features_text)
    keypoints = {(k.frame, k.det_index): k for k in parse_keypoints(data.keypoints_text)}
    entries, kept_keypoints, kept_frames = {}, {}, {}
    for frame in range(1, frames + 1):
        rows = by_frame.get(frame, [])
        keep = [i for i in range(len(rows)) if rng.random() >= drop]
        if rng.random() < empty:
            keep = []
        kept_frames[frame] = [rows[i] for i in keep]
        for new, old in enumerate(keep):
            entries[(frame, new)] = table.entries[(frame, old)]
            kept_keypoints[(frame, new)] = keypoints[(frame, old)]
    return kept_frames, FeatureTable(dim=table.dim, entries=entries), kept_keypoints


class TestArrayTracksMatchReference:
    @pytest.mark.parametrize("mode", association.MODES)
    @pytest.mark.parametrize("gallery", ["full", "orient"])
    @pytest.mark.parametrize("confirm_hits", [1, 3])
    @pytest.mark.parametrize("max_age", [0, 30])
    @given(
        scenario=st.integers(0, 2**16),
        persons=st.integers(1, 5),
        crossing=st.booleans(),
        drop=st.sampled_from([0.0, 0.3, 0.7]),
        empty=st.sampled_from([0.0, 0.2]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_same_records_and_live_ids_every_frame(
        self, mode, gallery, confirm_hits, max_age, scenario, persons, crossing, drop,
        empty, seed,
    ):
        frames = 14
        data = generate(SynthConfig(persons=persons, frames=frames, sigma_det=2.0,
                                    crossing=crossing, seed=scenario))
        by_frame, features, keypoints = dropped_frames(
            data, frames, drop, empty, np.random.default_rng(seed)
        )
        config = TrackerConfig(mode=mode, gallery=gallery, bins=3, particles=5,
                               confirm_hits=confirm_hits, max_age=max_age, seed=seed)
        tracker, reference = Tracker(config), ReferenceTracker(config)
        for frame in range(1, frames + 1):
            got = tracker.process_frame(frame, by_frame[frame], features, keypoints)
            expected = reference.process_frame(frame, by_frame[frame], features, keypoints)
            assert got == expected
            assert tracker.tracks.tolist() == [t.track_id for t in reference.tracks]


# Boxes within [-1e4, 1e4] px with sides in [1, 1e3] px.
fuzz_box = st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
                     st.floats(1.0, 1e3), st.floats(1.0, 1e3))


@st.composite
def detection_streams(draw):
    """Per frame ``(boxes, hole)``: the frame's boxes, in det-file order, and the
    ``(table, det_index)`` left out of the feature or keypoint file, or None.

    Boxes come from a few walkers that move a little each frame, from fresh
    random boxes and from copies of the frame's first box; a frame may be
    empty, and several empty frames in a row outlive ``max_age``.
    """
    walkers = draw(st.lists(fuzz_box, min_size=1, max_size=4))
    frames = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 3)) == 0:
            frames.append(([], None))
            continue
        step = draw(st.floats(-20.0, 20.0))
        boxes = [(l + step, t - step, w, h) for l, t, w, h in walkers if draw(st.booleans())]
        boxes += draw(st.lists(fuzz_box, max_size=2))
        if boxes and draw(st.booleans()):
            boxes.append(boxes[0])
        hole = None
        if boxes and draw(st.integers(0, 4)) == 0:
            hole = (draw(st.sampled_from(["feature", "keypoints"])),
                    draw(st.integers(0, len(boxes) - 1)))
        frames.append((boxes, hole))
    return frames


def stream_texts(frames, seed):
    """Detection, feature and keypoint file texts for a stream; every third
    keypoint row has all confidences 0."""
    rng = np.random.default_rng(seed)
    dets, feats, points = [], ["# dim=3"], []
    for frame, (boxes, hole) in enumerate(frames, start=1):
        for i, (l, t, w, h) in enumerate(boxes):
            dets.append(f"{frame},-1,{l!r},{t!r},{w!r},{h!r},1.0,-1,-1,-1")
            if hole != ("feature", i):
                feats.append(f"{frame},{i}," + ",".join(map(repr, rng.normal(size=3).tolist())))
            if hole != ("keypoints", i):
                xy = rng.uniform((l, t), (l + w, t + h), size=(18, 2))
                conf = rng.uniform(size=(18, 1)) * (len(points) % 3 != 0)
                points.append(json.dumps({"frame": frame, "det_index": i,
                                          "keypoints": np.hstack([xy, conf]).tolist()}))
    return "\n".join(dets), "\n".join(feats), "\n".join(points)


class TestFuzzedStreams:
    @given(
        frames=detection_streams(),
        mode=st.sampled_from(association.MODES),
        gallery=st.sampled_from(["full", "averaged", "random", "orient"]),
        bins=st.integers(1, 4),
        particles=st.integers(1, 4),
        confirm_hits=st.integers(1, 3),
        max_age=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_process_frame_keeps_its_contract(
        self, frames, mode, gallery, bins, particles, confirm_hits, max_age, seed
    ):
        config = TrackerConfig(mode=mode, gallery=gallery, bins=bins, particles=particles,
                               confirm_hits=confirm_hits, max_age=max_age, seed=seed)
        det_text, features_text, keypoints_text = stream_texts(frames, seed)
        # As run_sequence builds its inputs.
        by_frame = group_by_frame(parse_mot(det_text))
        features = parse_features(features_text)
        keypoints = {(k.frame, k.det_index): k for k in parse_keypoints(keypoints_text)}

        def run():
            tracker, out, errors = Tracker(config), [], []
            seen, retired = set(), set()
            for frame, (_, hole) in enumerate(frames, start=1):
                needed = hole is not None and mode != association.POS_ONLY and (
                    hole[0] == "feature" or gallery == "orient")
                try:
                    emitted = tracker.process_frame(
                        frame, by_frame.get(frame, []), features, keypoints)
                except MissingInputError as exc:
                    assert needed and (exc.frame, exc.det_index) == (frame, hole[1])
                    errors.append(frame)
                    continue
                assert not needed
                ids = [r.id for r in emitted]
                assert len(ids) == len(set(ids))
                for r in emitted:
                    assert np.isfinite(r.box).all() and r.bb_width > 0 and r.bb_height > 0
                live = set(tracker.tracks.tolist())
                assert set(ids) <= live and not live & retired
                fresh = live - seen
                assert not fresh or not seen or min(fresh) > max(seen)
                retired |= seen - live
                seen |= live
                owners = tracker.gallery._owners
                expected = [] if mode == association.POS_ONLY else sorted(live)
                assert np.unique(owners).tolist() == expected
                out += emitted
            return write_tracks(sorted(out, key=lambda r: (r.frame, r.id))), errors

        assert run() == run()


class TestLayerCallsGoThroughModules:
    """Each stage is looked up on its module on every frame, so a wrapper
    installed there (as perfbench's tracer installs its spans) sees each call."""

    STAGES = [(filtering, "predict"), (filtering, "update"),
              (association, "position_likelihood"), (association, "appearance_likelihood"),
              (association, "combine"), (association, "rbpf_step")]

    def test_each_stage_once_per_frame_with_detections(self, monkeypatch):
        data = generate(SynthConfig(persons=3, frames=8, crossing=True, seed=2))
        by_frame = group_by_frame(parse_mot(data.det_text))
        features = parse_features(data.features_text)
        keypoints = {(k.frame, k.det_index): k for k in parse_keypoints(data.keypoints_text)}
        calls = {}
        for module, name in self.STAGES:
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        tracker = Tracker(TrackerConfig(mode="pos_app", gallery="orient", bins=3, seed=1))
        for frame in range(1, 9):
            assert by_frame[frame]
            tracker.process_frame(frame, by_frame[frame], features, keypoints)
            assert calls == {name: frame for _, name in self.STAGES}
        tracker.process_frame(9, [], features, keypoints)
        assert calls == {name: 9 if name == "predict" else 8 for _, name in self.STAGES}
