import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from orientrack.io_formats import DetectionRecord, FeatureTable, KeypointRecord
from orientrack.metrics import (
    LabeledFeature,
    MotScores,
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

    def test_negative_det_index_has_no_mot_row(self):
        # A negative index must not count back from the frame's last MOT row.
        with pytest.raises(ValueError, match="no MOT row for frame 1, det_index -1"):
            label_features(self.table([(1, -1)]), [rec(1, 4, 0.0), rec(1, 9, 50.0)])


class TestIdSwitchesThreshold:
    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_rejects_threshold_outside_open_unit_interval(self, threshold):
        # At 0 a disjoint box (IoU 0) would "match" and count as a switch.
        gt = [rec(1, 1, 0.0), rec(2, 1, 0.0)]
        pred = [rec(1, 5, 0.0), rec(2, 6, 500.0)]
        with pytest.raises(ValueError, match="IoU threshold"):
            id_switches(gt, pred, threshold)


# Per-pair loop versions of the identity metrics, kept as the reference the
# vectorized ones must reproduce exactly.
def reference_iou(box_a, box_b):
    la, ta, wa, ha = box_a
    lb, tb, wb, hb = box_b
    ix = max(0.0, min(la + wa, lb + wb) - max(la, lb))
    iy = max(0.0, min(ta + ha, tb + hb) - max(ta, tb))
    inter = ix * iy
    union = wa * ha + wb * hb - inter
    return inter / union if union > 0 else 0.0


def reference_trajectories(records):
    out = {}
    for r in records:
        out.setdefault(r.id, {})[r.frame] = r.box
    return out


def reference_id_switches(gt, pred, iou_threshold):
    gt_by_frame, pred_by_frame = {}, {}
    for r in gt:
        gt_by_frame.setdefault(r.frame, {})[r.id] = r.box
    for r in pred:
        pred_by_frame.setdefault(r.frame, {})[r.id] = r.box

    last_assigned = {}
    switches = 0
    for frame in sorted(gt_by_frame.keys() | pred_by_frame.keys()):
        gt_boxes = gt_by_frame.get(frame, {})
        pred_boxes = pred_by_frame.get(frame, {})
        matched, claimed = {}, set()
        candidates = []
        for gid, box in gt_boxes.items():
            prev = last_assigned.get(gid)
            if prev is not None and prev in pred_boxes:
                score = reference_iou(box, pred_boxes[prev])
                if score >= iou_threshold:
                    candidates.append((score, gid, prev))
        for _, gid, pid in sorted(candidates, key=lambda c: -c[0]):
            if gid not in matched and pid not in claimed:
                matched[gid] = pid
                claimed.add(pid)
        free_gt = [g for g in sorted(gt_boxes) if g not in matched]
        free_pred = [p for p in sorted(pred_boxes) if p not in claimed]
        if free_gt and free_pred:
            cost = np.zeros((len(free_gt), len(free_pred)))
            for a, gid in enumerate(free_gt):
                for b, pid in enumerate(free_pred):
                    cost[a, b] = -reference_iou(gt_boxes[gid], pred_boxes[pid])
            rows, cols = linear_sum_assignment(cost)
            for a, b in zip(rows, cols):
                if -cost[a, b] >= iou_threshold:
                    matched[free_gt[a]] = free_pred[b]
        for gid, pid in matched.items():
            prev = last_assigned.get(gid)
            if prev is not None and prev != pid:
                switches += 1
            last_assigned[gid] = pid
    return switches


def reference_idf1(gt, pred, iou_threshold):
    gt_traj = reference_trajectories(gt)
    pred_traj = reference_trajectories(pred)
    gt_ids, pred_ids = sorted(gt_traj), sorted(pred_traj)
    overlap = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    for a, gid in enumerate(gt_ids):
        for b, pid in enumerate(pred_ids):
            frames = gt_traj[gid].keys() & pred_traj[pid].keys()
            overlap[a, b] = sum(
                1 for f in frames
                if reference_iou(gt_traj[gid][f], pred_traj[pid][f]) >= iou_threshold
            )
    idtp = 0
    if overlap.size:
        rows, cols = linear_sum_assignment(-overlap)
        idtp = int(overlap[rows, cols].sum())
    idfn, idfp = len(gt) - idtp, len(pred) - idtp
    denominator = 2 * idtp + idfp + idfn
    return MotScores(
        idf1=2 * idtp / denominator if denominator > 0 else 1.0,
        idtp=idtp, idfp=idfp, idfn=idfn,
        id_switches=reference_id_switches(gt, pred, iou_threshold),
    )


# Boxes on a coarse grid give many tied IoUs, and the thresholds drawn
# include every IoU two grid boxes can have, so matches exactly at the
# threshold are common.
GRID = dict(
    bb_left=[0.0, 5.0, 10.0, 20.0], bb_top=[0.0, 5.0], bb_width=[10.0, 20.0], bb_height=[10.0, 20.0]
)
GRID_BOXES = list(itertools.product(*GRID.values()))
GRID_IOUS = sorted(
    {reference_iou(a, b) for a in GRID_BOXES for b in GRID_BOXES} - {0.0, 1.0}
)


@st.composite
def grid_stream(draw, frames=8, ids=4):
    """Records for a random subset of the (frame, id) cells, some given twice
    with a second box, in a random order."""
    cells = draw(st.lists(st.one_of(st.none(), st.sampled_from(GRID_BOXES)),
                          min_size=frames * ids, max_size=frames * ids))
    records = [
        DetectionRecord(cell // ids + 1, cell % ids + 1, *box, 1.0)
        for cell, box in enumerate(cells) if box is not None
    ]
    if records:
        repeats = draw(st.lists(
            st.tuples(st.sampled_from(records), st.sampled_from(GRID_BOXES)), max_size=4
        ))
        records += [DetectionRecord(r.frame, r.id, *box, 1.0) for r, box in repeats]
    return draw(st.permutations(records))


threshold = st.one_of(st.sampled_from(GRID_IOUS), st.floats(0.01, 0.99, allow_nan=False))


class TestIdentityScoresMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(grid_stream(), grid_stream(), threshold)
    def test_grid_streams(self, gt, pred, iou_threshold):
        # A frame may hold only gt or only pred records, and either list may
        # be empty.
        assert idf1(gt, pred, iou_threshold) == reference_idf1(gt, pred, iou_threshold)

    def test_equal_ious_go_in_first_appearance_order(self):
        # Frame 3 lists gt 2 before gt 1; both were last matched to pred 7 and
        # overlap it equally, so gt 2 keeps it and gt 1 takes pred 8 (a switch).
        # Frame 4 then moves gt 1 back to pred 7, a second switch.  Settling
        # the tie by id instead lets gt 1 keep pred 7 and counts one switch.
        box, near = (0.0, 0.0, 10.0, 10.0), (0.0, 0.0, 10.0, 20.0)
        gt = [DetectionRecord(f, i, *box, 1.0) for f, i in [(1, 2), (2, 1), (3, 2), (3, 1), (4, 1)]]
        pred = [DetectionRecord(f, i, *b, 1.0)
                for f, i, b in [(1, 7, box), (2, 7, box), (3, 7, box), (3, 8, near), (4, 7, box)]]
        assert id_switches(gt, pred) == reference_id_switches(gt, pred, 0.5) == 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6), threshold)
    def test_jittered_streams(self, seed, n_gt, n_pred, iou_threshold):
        rng = np.random.default_rng(seed)
        gt, pred = [], []
        for frame in range(1, 9):
            for out, n in ((gt, n_gt), (pred, n_pred)):
                for ident in rng.permutation(n) + 1:
                    if rng.random() < 0.85:
                        left, top = rng.uniform(0, 60, size=2)
                        w, h = rng.uniform(5, 30, size=2)
                        out.append(DetectionRecord(frame, int(ident), left, top, w, h, 1.0))
        assert idf1(gt, pred, iou_threshold) == reference_idf1(gt, pred, iou_threshold)

    @given(st.tuples(*[st.floats(-50, 50)] * 2, *[st.floats(0.5, 50)] * 2),
           st.tuples(*[st.floats(-50, 50)] * 2, *[st.floats(0.5, 50)] * 2))
    def test_iou_is_bit_identical(self, box_a, box_b):
        assert np.float64(iou(box_a, box_b)).tobytes() == np.float64(
            reference_iou(box_a, box_b)
        ).tobytes()


class TestIdentityMetricsMemory:
    @staticmethod
    def peak_bytes(persons, frames=200):
        """Peak traced allocation of one idf1 call on side-by-side walkers."""
        def stream(shift):
            return [rec(f, p + 1, 30.0 * p + shift + 0.1 * f, w=20.0, h=50.0)
                    for f in range(1, frames + 1) for p in range(persons)]

        gt, pred = stream(0.0), stream(2.0)
        tracemalloc.start()
        try:
            idf1(gt, pred)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_linearly_with_persons_per_frame(self):
        # Doubling the persons doubles the records; a table of every
        # same-frame gt x pred pair would quadruple.
        assert self.peak_bytes(64) / self.peak_bytes(32) < 2.5
