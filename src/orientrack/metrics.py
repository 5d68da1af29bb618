"""Evaluation metrics: rank-1 re-identification, IDF1 and identity switches.

IDF1 follows the identity-measure convention: one global one-to-one assignment
between ground-truth and predicted trajectories maximizing matched detections
gives the identity true positives, false positives and false negatives.
Identity switches come from a persistence-preferring per-frame matcher.  Boxes
of one frame match when their IoU is at least the threshold (inclusive); a
(frame, id) given twice keeps its last box; and every record, a repeated one
too, counts toward IDFN = len(gt) - IDTP or IDFP = len(pred) - IDTP.  Both
scores are accumulated in one walk over the frames, one gt x pred IoU block
per frame: beyond the rows and their matches, memory follows the largest
frame, not persons squared times frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .gallery import Gallery
from .io_formats import DetectionRecord, FeatureTable, KeypointRecord, group_by_frame
from .io_formats import check_count, check_real
from .pose_orientation import orientation_bin, s2t_ratios

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

    Rows come out in (frame, det_index) order; det_index is the 0-based
    position of the detection within its frame in ``mot`` (file order), and
    keypoint rows share it.  One ``s2t_ratios`` call reads every record's S2T;
    a detection without a valid orientation gets ``s2t=None``.  Raises
    ``ValueError`` for a feature row without a MOT row, a negative det_index
    included.
    """
    records = keypoints or []
    ratios = s2t_ratios(np.array([record.keypoints for record in records])).tolist()
    s2t_by_key = {(record.frame, record.det_index): ratio
                  for record, ratio in zip(records, ratios) if ratio == ratio}
    by_frame = group_by_frame(mot)
    items: list[LabeledFeature] = []
    for (frame, det_index), vector in sorted(table.entries.items()):
        rows = by_frame.get(frame, [])
        if not 0 <= det_index < len(rows):
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


def _corners(boxes) -> np.ndarray:
    """(left, top, right, bottom, area), (5,) or (5, n), of (left, top, width, height) boxes."""
    left, top, width, height = np.asarray(boxes, dtype=float).T
    return np.array([left, top, left + width, top + height, width * height])


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of boxes given as ``_corners`` columns, broadcast; 0 for no union."""
    (la, ta, ra, ba, area_a), (lb, tb, rb, bb, area_b) = a, b
    ix = np.maximum(0.0, np.minimum(ra, rb) - np.maximum(la, lb))
    iy = np.maximum(0.0, np.minimum(ba, bb) - np.maximum(ta, tb))
    inter = ix * iy
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def iou(box_a: tuple[float, float, float, float],
        box_b: tuple[float, float, float, float]) -> float:
    """Intersection-over-union of (left, top, width, height) boxes."""
    return float(_iou(_corners(box_a), _corners(box_b)))


def split_gallery_query(
    items: list[LabeledFeature], gallery_fraction: float = 0.8, seed: int = 0
) -> tuple[list[LabeledFeature], list[LabeledFeature]]:
    """Per-person stratified random split into gallery and query sets.

    Persons with at least two items keep at least one item on each side;
    single-item persons go to the gallery only.
    """
    check_real(gallery_fraction, "gallery fraction", "fraction")
    rng = np.random.default_rng(check_count(seed, "seed", 0))
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
) -> Gallery:
    """Populate a gallery from labeled features, binning S2T values over [-1, 1].

    ``orient`` files each item under ``orientation_bin`` of its S2T, ``None``
    read as NaN: as in tracking, no valid orientation takes the middle bin and
    +-inf the edge bin.  Items go in with one ``insert_block``, in list order.
    """
    gallery = Gallery(strategy, bins=bins, seed=seed)
    if not items:
        return gallery
    targets = [orientation_bin(np.nan if item.s2t is None else item.s2t, gallery.bins)
               for item in items] if strategy == "orient" else None
    gallery.insert_block(
        [item.person for item in items], np.array([item.vector for item in items]), targets
    )
    return gallery


def rank1(gallery: Gallery, queries: list[LabeledFeature]) -> float:
    """Fraction of queries whose nearest gallery person has the query's id."""
    if not queries:
        raise ValueError("empty query set")
    hits = sum(
        1 for q in queries if gallery.nearest_person(q.vector)[0] == q.person
    )
    return hits / len(queries)


def _rows(records: list[DetectionRecord]) -> tuple[np.ndarray, ...]:
    """Frame, id, last box's ``_corners`` and first list position per (frame, id), sorted."""
    frame = np.array([r.frame for r in records], dtype=np.int64)
    ids = np.array([r.id for r in records], dtype=np.int64)
    boxes = np.array([r.box for r in records], dtype=float).reshape(-1, 4)
    order = np.lexsort((ids, frame))  # stable: a repeated (frame, id) keeps list order
    frame, ids, boxes = frame[order], ids[order], boxes[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (frame[1:] != frame[:-1]) | (ids[1:] != ids[:-1])
    return frame[first], ids[first], _corners(boxes[np.roll(first, -1)]), order[first]


def _walk(gt: list[DetectionRecord], pred: list[DetectionRecord], threshold: float):
    """One pass over the frames that hold both gt and pred rows.

    Each frame gives one (gt rows, pred rows) IoU block.  Its pairs at or
    above the threshold are the frame's IDF1 matches; its persistence pass and
    assignment are the switch counter's.  Returns IDTP and the switch count.
    """
    check_real(threshold, "IoU threshold", "fraction")
    (g_frame, g_id, g_box, g_first), (p_frame, p_id, p_box, _) = _rows(gt), _rows(pred)
    frames = np.unique(g_frame)
    bounds = [np.searchsorted(f, frames, side=side).tolist()
              for f in (g_frame, p_frame) for side in ("left", "right")]
    hit_gt, hit_pred = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    last_assigned: dict[int, int] = {}
    switches = 0
    for g0, g1, p0, p1 in zip(*bounds):
        if p0 == p1:
            continue
        block = _iou(g_box[:, g0:g1, None], p_box[:, None, p0:p1])
        a_hit, b_hit = np.nonzero(block >= threshold)
        hit_gt.append(g_id[g0 + a_hit])
        hit_pred.append(p_id[p0 + b_hit])
        gt_ids, first = g_id[g0:g1].tolist(), g_first[g0:g1].tolist()
        pred_ids = p_id[p0:p1].tolist()
        column = {pid: b for b, pid in enumerate(pred_ids)}

        # Persistence pass: keep previous pairings that still overlap, best
        # IoU first; equal IoUs go in the order the gt ids first appear.
        candidates = []
        for a, gid in enumerate(gt_ids):
            b = column.get(last_assigned.get(gid))
            if b is not None and block[a, b] >= threshold:
                candidates.append((-block[a, b], first[a], a, b))
        # A column goes to its first candidate: written in reverse, the last write wins.
        claimed = {b: a for *_, a, b in sorted(candidates, reverse=True)}
        matched = {a: b for b, a in claimed.items()}  # block row -> block column

        free_gt = [a for a in range(len(gt_ids)) if a not in matched]
        free_pred = [b for b in range(len(pred_ids)) if b not in claimed]
        if free_gt and free_pred:
            cost = -block[np.ix_(free_gt, free_pred)]
            for a, b in zip(*linear_sum_assignment(cost)):
                if -cost[a, b] >= threshold:
                    matched[free_gt[a]] = free_pred[b]

        for a, b in matched.items():
            switches += last_assigned.get(gt_ids[a], pred_ids[b]) != pred_ids[b]
            last_assigned[gt_ids[a]] = pred_ids[b]

    # overlap[a, b]: frames where gt id a and pred id b match.
    gt_ids, gt_col = np.unique(np.concatenate(hit_gt), return_inverse=True)
    pred_ids, pred_col = np.unique(np.concatenate(hit_pred), return_inverse=True)
    overlap = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    np.add.at(overlap, (gt_col, pred_col), 1)
    return int(overlap[linear_sum_assignment(-overlap)].sum()), switches


def idf1(
    gt: list[DetectionRecord],
    pred: list[DetectionRecord],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> MotScores:
    """Identity scores from the overlap-maximizing trajectory assignment."""
    idtp, switches = _walk(gt, pred, iou_threshold)
    idfp, idfn = len(pred) - idtp, len(gt) - idtp
    score = 2 * idtp / (2 * idtp + idfp + idfn) if gt or pred else 1.0
    return MotScores(score, idtp, idfp, idfn, switches)


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
    return _walk(gt, pred, iou_threshold)[1]
