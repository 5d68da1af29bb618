"""Evaluation metrics: rank-1 re-identification, IDF1 and identity switches.

IDF1 follows the identity-measure convention: a single global one-to-one
assignment between ground-truth and predicted trajectories maximizing the
number of matched detections, from which identity true positives, false
positives and false negatives are derived.  Identity switches are counted
with a persistence-preferring per-frame matcher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .gallery import Gallery
from .io_formats import DetectionRecord, FeatureTable, KeypointRecord, group_by_frame
from .pose_orientation import fallback_bin, orientation_bin, orientation_from_keypoints

DEFAULT_IOU_THRESHOLD = 0.5


@dataclass
class LabeledFeature:
    person: int
    vector: np.ndarray
    s2t: float | None = None


def label_features(
    table: FeatureTable,
    mot: list[DetectionRecord],
    keypoints: list[KeypointRecord] | None = None,
) -> list[LabeledFeature]:
    """Label each feature row with the id of its MOT row and, given keypoints, its S2T.

    Rows come out in (frame, det_index) order; det_index is the position of
    the detection within its frame in ``mot``.  A detection without a valid
    orientation gets ``s2t=None``.  Raises ``ValueError`` for a feature row
    without a MOT row.
    """
    s2t_by_key: dict[tuple[int, int], float] = {}
    for record in keypoints or []:
        orientation = orientation_from_keypoints(record.keypoints, bins=1)
        if orientation.valid:
            s2t_by_key[(record.frame, record.det_index)] = orientation.s2t
    by_frame = group_by_frame(mot)
    items: list[LabeledFeature] = []
    for (frame, det_index), vector in sorted(table.entries.items()):
        rows = by_frame.get(frame, [])
        if det_index >= len(rows):
            raise ValueError(f"no MOT row for frame {frame}, det_index {det_index}")
        items.append(LabeledFeature(
            person=rows[det_index].id, vector=vector, s2t=s2t_by_key.get((frame, det_index))
        ))
    return items


@dataclass
class MotScores:
    idf1: float
    idtp: int
    idfp: int
    idfn: int
    id_switches: int


def iou(box_a: tuple[float, float, float, float],
        box_b: tuple[float, float, float, float]) -> float:
    """Intersection-over-union of (left, top, width, height) boxes."""
    la, ta, wa, ha = box_a
    lb, tb, wb, hb = box_b
    ix = max(0.0, min(la + wa, lb + wb) - max(la, lb))
    iy = max(0.0, min(ta + ha, tb + hb) - max(ta, tb))
    inter = ix * iy
    union = wa * ha + wb * hb - inter
    return inter / union if union > 0 else 0.0


def split_gallery_query(
    items: list[LabeledFeature], gallery_fraction: float = 0.8, seed: int = 0
) -> tuple[list[LabeledFeature], list[LabeledFeature]]:
    """Per-person stratified random split into gallery and query sets.

    Persons with at least two items keep at least one item on each side;
    single-item persons go to the gallery only.
    """
    if not 0.0 < gallery_fraction < 1.0:
        raise ValueError(f"gallery fraction must be in (0, 1), got {gallery_fraction}")
    rng = np.random.default_rng(seed)
    by_person: dict[int, list[LabeledFeature]] = {}
    for item in items:
        by_person.setdefault(item.person, []).append(item)

    gallery_items: list[LabeledFeature] = []
    query_items: list[LabeledFeature] = []
    for person in sorted(by_person):
        group = by_person[person]
        n = len(group)
        if n == 1:
            gallery_items.extend(group)
            continue
        order = rng.permutation(n)
        n_gallery = min(max(int(round(gallery_fraction * n)), 1), n - 1)
        for pos, idx in enumerate(order):
            (gallery_items if pos < n_gallery else query_items).append(group[idx])
    return gallery_items, query_items


def build_gallery(
    items: list[LabeledFeature],
    strategy: str,
    bins: int = 1,
    seed: int = 0,
    smax: float = 1.0,
) -> Gallery:
    """Populate a gallery from labeled features, binning by their S2T values."""
    gallery = Gallery(strategy, bins=bins, seed=seed)
    for item in items:
        if strategy == "orient":
            if item.s2t is None or not np.isfinite(item.s2t):
                bin_index = fallback_bin(gallery.bins)
            else:
                bin_index = orientation_bin(item.s2t, gallery.bins, smax)
        else:
            bin_index = 0
        gallery.insert(item.person, item.vector, bin_index)
    return gallery


def rank1(gallery: Gallery, queries: list[LabeledFeature]) -> float:
    """Fraction of queries whose nearest gallery person has the query's id."""
    if not queries:
        raise ValueError("empty query set")
    hits = sum(
        1 for q in queries if gallery.nearest_person(q.vector)[0] == q.person
    )
    return hits / len(queries)


def _trajectories(records: list[DetectionRecord]) -> dict[int, dict[int, tuple]]:
    out: dict[int, dict[int, tuple]] = {}
    for r in records:
        out.setdefault(r.id, {})[r.frame] = r.box
    return out


def idf1(
    gt: list[DetectionRecord],
    pred: list[DetectionRecord],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> MotScores:
    """Identity scores from the overlap-maximizing trajectory assignment."""
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"IoU threshold must be in (0, 1), got {iou_threshold}")
    gt_traj = _trajectories(gt)
    pred_traj = _trajectories(pred)
    gt_ids = sorted(gt_traj)
    pred_ids = sorted(pred_traj)

    overlap = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    for a, gid in enumerate(gt_ids):
        for b, pid in enumerate(pred_ids):
            frames = gt_traj[gid].keys() & pred_traj[pid].keys()
            overlap[a, b] = sum(
                1
                for f in frames
                if iou(gt_traj[gid][f], pred_traj[pid][f]) >= iou_threshold
            )

    idtp = 0
    if overlap.size:
        rows, cols = linear_sum_assignment(-overlap)
        idtp = int(overlap[rows, cols].sum())
    idfn = len(gt) - idtp
    idfp = len(pred) - idtp
    denominator = 2 * idtp + idfp + idfn
    score = 2 * idtp / denominator if denominator > 0 else 1.0
    return MotScores(
        idf1=score,
        idtp=idtp,
        idfp=idfp,
        idfn=idfn,
        id_switches=id_switches(gt, pred, iou_threshold),
    )


def id_switches(
    gt: list[DetectionRecord],
    pred: list[DetectionRecord],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> int:
    """Count id changes of matched ground-truth objects across frames.

    Per frame, matching prefers keeping each object's previous track when
    that pairing still clears the IoU threshold; remaining pairs are matched
    by an IoU-maximizing assignment.  Gaps without an id change do not count.
    """
    gt_by_frame: dict[int, dict[int, tuple]] = {}
    for r in gt:
        gt_by_frame.setdefault(r.frame, {})[r.id] = r.box
    pred_by_frame: dict[int, dict[int, tuple]] = {}
    for r in pred:
        pred_by_frame.setdefault(r.frame, {})[r.id] = r.box

    last_assigned: dict[int, int] = {}
    switches = 0
    for frame in sorted(gt_by_frame.keys() | pred_by_frame.keys()):
        gt_boxes = gt_by_frame.get(frame, {})
        pred_boxes = pred_by_frame.get(frame, {})
        matched: dict[int, int] = {}
        claimed: set[int] = set()

        # Persistence pass: keep previous pairings that still overlap.
        candidates = []
        for gid, box in gt_boxes.items():
            prev = last_assigned.get(gid)
            if prev is not None and prev in pred_boxes:
                score = iou(box, pred_boxes[prev])
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
                    cost[a, b] = -iou(gt_boxes[gid], pred_boxes[pid])
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
