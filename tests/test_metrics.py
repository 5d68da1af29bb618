import itertools

import numpy as np
import pytest

from orientrack.io_formats import DetectionRecord, FeatureTable, KeypointRecord
from orientrack.metrics import (
    LabeledFeature,
    build_gallery,
    id_switches,
    idf1,
    iou,
    label_features,
    rank1,
    split_gallery_query,
)


def rec(frame, id, left, top=0.0, w=10.0, h=10.0):
    return DetectionRecord(frame, id, left, top, w, h, 1.0)


def brute_force_idtp(gt, pred, threshold=0.5):
    """Oracle: maximize matched detections over all id-to-id injections."""
    gt_traj = {}
    for r in gt:
        gt_traj.setdefault(r.id, {})[r.frame] = r.box
    pred_traj = {}
    for r in pred:
        pred_traj.setdefault(r.id, {})[r.frame] = r.box

    def overlap(gid, pid):
        frames = gt_traj[gid].keys() & pred_traj[pid].keys()
        return sum(
            1 for f in frames if iou(gt_traj[gid][f], pred_traj[pid][f]) >= threshold
        )

    gt_ids, pred_ids = list(gt_traj), list(pred_traj)
    best = 0
    k = min(len(gt_ids), len(pred_ids))
    for gt_subset in itertools.combinations(gt_ids, k):
        for perm in itertools.permutations(pred_ids, k):
            best = max(best, sum(overlap(g, p) for g, p in zip(gt_subset, perm)))
    return best


class TestIou:
    def test_identical_boxes(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 10, 10), (20, 20, 10, 10)) == 0.0

    def test_half_overlap(self):
        # Oracle: intersection 50, union 150 -> 1/3.
        assert iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)


class TestSplit:
    def items(self, counts):
        out = []
        for person, n in counts.items():
            for i in range(n):
                out.append(LabeledFeature(person, np.array([float(person), float(i)])))
        return out

    def test_eighty_twenty(self):
        gallery, query = split_gallery_query(self.items({1: 10}), 0.8, seed=0)
        assert len(gallery) == 8
        assert len(query) == 2

    def test_both_sides_nonempty_per_person(self):
        gallery, query = split_gallery_query(self.items({1: 2, 2: 5}), 0.8, seed=1)
        for person in (1, 2):
            assert any(i.person == person for i in gallery)
            assert any(i.person == person for i in query)

    def test_single_item_person_goes_to_gallery(self):
        gallery, query = split_gallery_query(self.items({1: 1, 2: 4}), 0.8, seed=0)
        assert [i.person for i in query] == [2]
        assert any(i.person == 1 for i in gallery)

    def test_deterministic(self):
        items = self.items({1: 7, 2: 9, 3: 3})
        a = split_gallery_query(items, 0.8, seed=42)
        b = split_gallery_query(items, 0.8, seed=42)
        assert [i.person for i in a[0]] == [i.person for i in b[0]]
        assert [tuple(i.vector) for i in a[1]] == [tuple(i.vector) for i in b[1]]

    def test_partition_is_exact(self):
        items = self.items({1: 6, 2: 4})
        gallery, query = split_gallery_query(items, 0.8, seed=3)
        assert len(gallery) + len(query) == len(items)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_gallery_query([], 1.0)


class TestRank1:
    def test_perfectly_separable(self):
        gallery = build_gallery(
            [
                LabeledFeature(1, np.array([1.0, 0.0])),
                LabeledFeature(2, np.array([0.0, 1.0])),
            ],
            "averaged",
        )
        queries = [
            LabeledFeature(1, np.array([0.9, 0.1])),
            LabeledFeature(2, np.array([0.1, 0.9])),
        ]
        assert rank1(gallery, queries) == 1.0

    def test_two_of_three(self):
        gallery = build_gallery(
            [
                LabeledFeature(1, np.array([1.0, 0.0])),
                LabeledFeature(2, np.array([0.0, 1.0])),
            ],
            "averaged",
        )
        queries = [
            LabeledFeature(1, np.array([1.0, 0.0])),
            LabeledFeature(2, np.array([0.0, 1.0])),
            LabeledFeature(1, np.array([0.6, 0.6 + 1e-9])),  # nearer person 2
        ]
        assert rank1(gallery, queries) == pytest.approx(2 / 3)

    def test_empty_queries(self):
        gallery = build_gallery([LabeledFeature(1, np.array([1.0]))], "averaged")
        with pytest.raises(ValueError):
            rank1(gallery, [])

    def test_matches_naive_scan_on_full_gallery(self):
        rng = np.random.default_rng(0)
        items = [
            LabeledFeature(int(rng.integers(1, 6)), rng.standard_normal(4))
            for _ in range(60)
        ]
        queries = [
            LabeledFeature(int(rng.integers(1, 6)), rng.standard_normal(4))
            for _ in range(30)
        ]
        gallery = build_gallery(items, "full")
        hits = 0
        for q in queries:
            best, best_person = None, None
            for item in items:
                d = float(np.linalg.norm(q.vector - item.vector))
                if best is None or d < best or (d == best and item.person < best_person):
                    best, best_person = d, item.person
            hits += best_person == q.person
        assert rank1(gallery, queries) == pytest.approx(hits / len(queries))


class TestIdf1:
    def test_perfect_tracking(self):
        gt = [rec(f, 1, 10.0 * f) for f in range(1, 6)]
        scores = idf1(gt, [rec(f, 7, 10.0 * f) for f in range(1, 6)])
        assert scores.idf1 == 1.0
        assert scores.idtp == 5
        assert scores.idfp == scores.idfn == 0

    def test_split_track(self):
        # One 10-frame object covered by two 5-frame tracks: the best
        # assignment keeps one track, so IDTP=5, IDFP=5, IDFN=5 -> 0.5.
        gt = [rec(f, 1, 10.0 * f) for f in range(1, 11)]
        pred = [rec(f, 1 if f <= 5 else 2, 10.0 * f) for f in range(1, 11)]
        scores = idf1(gt, pred)
        assert scores.idf1 == pytest.approx(0.5)
        assert scores.idtp == brute_force_idtp(gt, pred) == 5

    def test_empty_prediction(self):
        gt = [rec(1, 1, 0.0)]
        scores = idf1(gt, [])
        assert scores.idf1 == 0.0
        assert scores.idfn == 1

    def test_empty_vs_empty(self):
        assert idf1([], []).idf1 == 1.0

    def test_id_rename_invariance(self):
        rng = np.random.default_rng(1)
        gt = [rec(f, i, 100.0 * i + f) for f in range(1, 8) for i in (1, 2, 3)]
        pred = [rec(f, i + 10, 100.0 * i + f + rng.uniform(-1, 1))
                for f in range(1, 8) for i in (1, 2, 3)]
        renamed = [
            DetectionRecord(r.frame, r.id + 500, r.bb_left, r.bb_top,
                            r.bb_width, r.bb_height, r.conf)
            for r in pred
        ]
        assert idf1(gt, pred).idf1 == idf1(gt, renamed).idf1

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n_gt, n_pred = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            frames = int(rng.integers(1, 6))
            gt, pred = [], []
            for f in range(1, frames + 1):
                for i in range(n_gt):
                    gt.append(rec(f, i + 1, float(rng.integers(0, 5) * 8)))
                for i in range(n_pred):
                    pred.append(rec(f, i + 1, float(rng.integers(0, 5) * 8)))
            assert idf1(gt, pred).idtp == brute_force_idtp(gt, pred)


class TestIdSwitches:
    def test_perfect_tracking(self):
        gt = [rec(f, 1, 10.0 * f) for f in range(1, 6)]
        pred = [rec(f, 3, 10.0 * f) for f in range(1, 6)]
        assert id_switches(gt, pred) == 0

    def test_single_handover(self):
        gt = [rec(f, 1, 10.0 * f) for f in range(1, 7)]
        pred = [rec(f, 1 if f <= 3 else 2, 10.0 * f) for f in range(1, 7)]
        assert id_switches(gt, pred) == 1

    def test_gap_without_change_is_free(self):
        gt = [rec(f, 1, 10.0 * f) for f in (1, 2, 5, 6)]
        pred = [rec(f, 9, 10.0 * f) for f in (1, 2, 5, 6)]
        assert id_switches(gt, pred) == 0

    def test_gap_with_change_counts_once(self):
        gt = [rec(f, 1, 10.0 * f) for f in (1, 2, 5, 6)]
        pred = [rec(f, 1 if f <= 2 else 2, 10.0 * f) for f in (1, 2, 5, 6)]
        assert id_switches(gt, pred) == 1

    def test_persistence_beats_marginal_iou(self):
        # Frame 2 offers a slightly better-overlapping rival track, but the
        # established pairing still clears the threshold and must be kept.
        gt = [rec(1, 1, 0.0), rec(2, 1, 0.0)]
        pred = [
            rec(1, 5, 0.0),
            rec(2, 5, 2.0),  # IoU 2/3 with gt, the incumbent
            rec(2, 6, 1.0),  # IoU ~0.82, better but a newcomer
        ]
        assert id_switches(gt, pred) == 0


class TestLabelFeatures:
    def table(self, keys):
        return FeatureTable(dim=2, entries={k: np.array([float(k[0]), float(k[1])]) for k in keys})

    def test_ids_follow_frame_order_of_mot_rows(self):
        mot = [rec(2, 7, 0.0), rec(1, 4, 0.0), rec(1, 9, 50.0), rec(2, 3, 50.0)]
        items = label_features(self.table([(2, 1), (1, 0), (1, 1), (2, 0)]), mot)
        assert [item.person for item in items] == [4, 9, 7, 3]
        assert [item.vector.tolist() for item in items] == [[1, 0], [1, 1], [2, 0], [2, 1]]
        assert all(item.s2t is None for item in items)

    def test_s2t_only_for_valid_orientations(self):
        valid = np.zeros((18, 3))
        valid[[2, 5, 8, 11]] = [[10, 0, 1], [0, 0, 1], [10, 20, 1], [0, 20, 1]]
        keypoints = [KeypointRecord(1, 0, valid), KeypointRecord(1, 1, np.zeros((18, 3)))]
        items = label_features(
            self.table([(1, 0), (1, 1)]), [rec(1, 1, 0.0), rec(1, 2, 50.0)], keypoints
        )
        assert items[0].s2t == pytest.approx(0.5)
        assert items[1].s2t is None

    def test_feature_row_without_mot_row(self):
        with pytest.raises(ValueError, match="no MOT row for frame 1, det_index 1"):
            label_features(self.table([(1, 0), (1, 1)]), [rec(1, 1, 0.0)])
