"""End-to-end acceptance checks for the tracking and re-identification stack.

Each test prints one PASS/FAIL line so the criterion outcomes are visible in
the normal pytest output.  The re-identification experiments share one cached
set of synthetic scenarios across criteria to keep the total runtime low.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from orientrack.association import ParticleSet, combine, rbpf_step
from orientrack.filtering import TrackState, initial_state, mahalanobis, predict, update
from orientrack.gallery import Gallery
from orientrack.io_formats import (
    DetectionRecord,
    parse_features,
    parse_keypoints,
    parse_mot,
    write_tracks,
)
from orientrack.metrics import (
    LabeledFeature,
    build_gallery,
    idf1,
    iou,
    label_features,
    rank1,
    split_gallery_query,
)
from orientrack.pose_orientation import TorsoPoints, s2t_ratio
from orientrack.synth import SynthConfig, generate
from orientrack.tracker import TrackerConfig, run_sequence

REID_SEEDS = range(10)
TRACK_SEEDS = range(10)


@pytest.fixture
def announce(capfd):
    def _announce(label: str, ok: bool, detail: str) -> None:
        with capfd.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"[{label}] {status}: {detail}")
        assert ok, f"{label}: {detail}"

    return _announce


def reid_items(seed: int) -> list[LabeledFeature]:
    """Labeled features with orientation values for one synthetic scenario."""
    out = generate(
        SynthConfig(persons=50, frames=40, kappa=0.8, sigma=0.3, seed=seed)
    )
    return label_features(
        parse_features(out.features_text),
        parse_mot(out.gt_text),
        parse_keypoints(out.keypoints_text),
    )


def reid_score(items, strategy: str, bins: int, seed: int) -> float:
    gallery_items, query_items = split_gallery_query(items, 0.8, seed)
    gallery = build_gallery(gallery_items, strategy, bins=bins, seed=seed)
    return rank1(gallery, query_items)


_REID_CACHE: dict[tuple, float] = {}
_REID_ITEMS: dict[int, list[LabeledFeature]] = {}


def cached_reid(strategy: str, bins: int, seed: int) -> float:
    key = (strategy, bins, seed)
    if key not in _REID_CACHE:
        if seed not in _REID_ITEMS:
            _REID_ITEMS[seed] = reid_items(seed)
        _REID_CACHE[key] = reid_score(_REID_ITEMS[seed], strategy, bins, seed)
    return _REID_CACHE[key]


class TestReidGalleryCriteria:
    def test_criterion_1_orientation_beats_averaged(self, announce):
        start = time.perf_counter()
        wins = sum(
            cached_reid("orient", 2, s) > cached_reid("averaged", 1, s)
            for s in REID_SEEDS
        )
        elapsed = time.perf_counter() - start
        ok = wins >= 9 and elapsed < 10.0
        announce(
            "criterion 1",
            ok,
            f"orient(B=2) beats averaged in {wins}/10 seeds, {elapsed:.1f}s",
        )

    def test_criterion_2_strategy_ordering(self, announce):
        full = np.mean([cached_reid("full", 1, s) for s in REID_SEEDS])
        orient = np.mean([cached_reid("orient", 2, s) for s in REID_SEEDS])
        averaged = np.mean([cached_reid("averaged", 1, s) for s in REID_SEEDS])
        ok = full >= orient >= averaged
        announce(
            "criterion 2",
            ok,
            f"mean rank-1 full={full:.3f} >= orient={orient:.3f} "
            f">= averaged={averaged:.3f}",
        )

    def test_criterion_3_bin_count_trend(self, announce):
        sweep = [1, 2, 3, 4, 5, 9]
        means = {
            b: np.mean([cached_reid("orient", b, s) for s in REID_SEEDS])
            for b in sweep
        }
        low_range = [1, 2, 3, 4]
        rho = spearmanr(low_range, [means[b] for b in low_range]).statistic
        gain = means[4] - means[1]
        ok = rho > 0.8 and gain >= 0.03
        announce(
            "criterion 3",
            ok,
            f"Spearman(B, rank-1)={rho:.2f} over B=1..4, "
            f"B=1->4 gain={100 * gain:.1f} pts, sweep means="
            + ", ".join(f"B{b}:{means[b]:.3f}" for b in sweep),
        )


class TestTrackingAblation:
    def test_criterion_4_appearance_resolves_crossings(self, announce):
        start = time.perf_counter()
        idf1_wins = 0
        switch_wins = 0
        for seed in TRACK_SEEDS:
            data = generate(
                SynthConfig(
                    persons=4, frames=200, sigma_det=2.0, kappa=0.8,
                    sigma=0.3, crossing=True, seed=seed,
                )
            )
            gt = parse_mot(data.gt_text)
            scores = {}
            for mode, bins in (("pos_app", 5), ("pos_only", 5)):
                config = TrackerConfig(
                    mode=mode, gallery="orient", bins=bins,
                    particles=20, q=2.0, seed=seed,
                )
                pred = run_sequence(
                    config, data.det_text, data.features_text, data.keypoints_text
                )
                scores[mode] = idf1(gt, pred)
            idf1_wins += scores["pos_app"].idf1 > scores["pos_only"].idf1
            switch_wins += (
                scores["pos_app"].id_switches <= scores["pos_only"].id_switches
            )
        elapsed = time.perf_counter() - start
        ok = idf1_wins >= 8 and switch_wins >= 8 and elapsed < 60.0
        announce(
            "criterion 4",
            ok,
            f"pos_app wins IDF1 in {idf1_wins}/10 and switches in "
            f"{switch_wins}/10 seeds, {elapsed:.1f}s",
        )


def brute_force_idtp(gt, pred, threshold=0.5):
    gt_traj: dict[int, dict[int, tuple]] = {}
    for r in gt:
        gt_traj.setdefault(r.id, {})[r.frame] = r.box
    pred_traj: dict[int, dict[int, tuple]] = {}
    for r in pred:
        pred_traj.setdefault(r.id, {})[r.frame] = r.box

    def overlap(gid, pid):
        frames = gt_traj[gid].keys() & pred_traj[pid].keys()
        return sum(
            1 for f in frames if iou(gt_traj[gid][f], pred_traj[pid][f]) >= threshold
        )

    gt_ids, pred_ids = list(gt_traj), list(pred_traj)
    k = min(len(gt_ids), len(pred_ids))
    best = 0
    for subset in itertools.combinations(gt_ids, k):
        for perm in itertools.permutations(pred_ids, k):
            best = max(best, sum(overlap(g, p) for g, p in zip(subset, perm)))
    return best


class TestOracleEquivalence:
    def test_criterion_5_assignment_oracles(self, announce):
        rng = np.random.default_rng(0)
        idf1_ok = True
        for _ in range(100):
            frames = int(rng.integers(1, 7))
            gt, pred = [], []
            for f in range(1, frames + 1):
                for i in range(int(rng.integers(1, 6))):
                    gt.append(
                        DetectionRecord(f, i + 1, float(rng.integers(0, 6) * 8),
                                        0.0, 10.0, 10.0, 1.0)
                    )
                for i in range(int(rng.integers(1, 6))):
                    pred.append(
                        DetectionRecord(f, i + 1, float(rng.integers(0, 6) * 8),
                                        0.0, 10.0, 10.0, 1.0)
                    )
            if idf1(gt, pred).idtp != brute_force_idtp(gt, pred):
                idf1_ok = False
                break

        rank1_ok = True
        for _ in range(100):
            items = [
                LabeledFeature(int(rng.integers(1, 6)), rng.standard_normal(4))
                for _ in range(int(rng.integers(5, 40)))
            ]
            queries = [
                LabeledFeature(int(rng.integers(1, 6)), rng.standard_normal(4))
                for _ in range(int(rng.integers(1, 15)))
            ]
            gallery = build_gallery(items, "full")
            hits = 0
            for q in queries:
                best, person = math.inf, None
                for item in items:
                    d = float(np.linalg.norm(q.vector - item.vector))
                    if d < best or (d == best and item.person < person):
                        best, person = d, item.person
                hits += person == q.person
            if rank1(gallery, queries) != pytest.approx(hits / len(queries)):
                rank1_ok = False
                break

        ok = idf1_ok and rank1_ok
        announce(
            "criterion 5",
            ok,
            f"IDF1 vs permutation search: {'match' if idf1_ok else 'mismatch'}; "
            f"rank-1 vs naive scan: {'match' if rank1_ok else 'mismatch'} "
            "(100 instances each)",
        )


class TestNumericInvariants:
    def test_criterion_6_numeric_invariants(self, announce):
        rng = np.random.default_rng(1)

        worst_row = 0.0
        rows_checked = 0
        while rows_checked < 10_000:
            n_det, n_col = int(rng.integers(1, 8)), int(rng.integers(2, 8))
            pos = rng.random((n_det, n_col)) + 1e-6
            app = rng.random((n_det, n_col)) + 1e-6
            matrix = combine(pos, app, "pos_app")
            worst_row = max(worst_row, float(np.abs(matrix.sum(axis=1) - 1).max()))
            rows_checked += n_det
        rows_ok = worst_row <= 1e-9

        worst_mean = 0.0
        for _ in range(1000):
            g = Gallery("averaged")
            vectors = [rng.standard_normal(4) for _ in range(int(rng.integers(1, 30)))]
            for v in vectors:
                g.insert(1, v)
            row = g._row_of[(1, 0)]
            worst_mean = max(
                worst_mean,
                float(np.abs(g._vectors[row] - np.mean(vectors, axis=0)).max()),
            )
        mean_ok = worst_mean <= 1e-9

        state = initial_state(np.array([100.0, 100.0, 40.0, 80.0]))
        min_eig = math.inf
        max_asym = 0.0
        for _ in range(1000):
            state = predict(state, q=float(rng.uniform(0.1, 5)))
            z = state.mean[:4] + rng.normal(0, 5, size=4)
            state = update(state, z, r=float(rng.uniform(0.5, 20)))
            max_asym = max(max_asym, float(np.abs(state.cov - state.cov.T).max()))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(state.cov).min()))
        kf_ok = max_asym <= 1e-9 and min_eig >= -1e-9

        worst_md = 0.0
        for _ in range(100):
            mean = np.concatenate([rng.normal(0, 50, 4), rng.normal(0, 5, 2)])
            s = TrackState(mean=mean, cov=np.zeros((6, 6)))
            z = mean[:4] + rng.normal(0, 10, size=4)
            euclid = float(np.linalg.norm(z - mean[:4]))
            worst_md = max(worst_md, abs(mahalanobis(s, z, r=1.0) - euclid))
        md_ok = worst_md <= 1e-12

        ok = rows_ok and mean_ok and kf_ok and md_ok
        announce(
            "criterion 6",
            ok,
            f"row-sum err={worst_row:.1e}, running-mean err={worst_mean:.1e}, "
            f"cov asym={max_asym:.1e}, min eig={min_eig:.1e}, "
            f"identity-metric err={worst_md:.1e}",
        )


def random_torso(rng) -> TorsoPoints:
    """Well-conditioned upright torso with strictly positive confidences."""
    cx, cy = rng.uniform(100, 900, size=2)
    half_w = rng.uniform(5, 40)
    half_h = rng.uniform(20, 60)
    skew = rng.uniform(-3, 3, size=4)
    c = rng.uniform(0.1, 1.0, size=4)
    return TorsoPoints(
        right_shoulder=(cx - half_w + skew[0], cy - half_h, c[0]),
        left_shoulder=(cx + half_w + skew[1], cy - half_h, c[1]),
        right_hip=(cx - half_w + skew[2], cy + half_h, c[2]),
        left_hip=(cx + half_w + skew[3], cy + half_h, c[3]),
    )


class TestOrientationProperties:
    def test_criterion_7_s2t_properties(self, announce):
        rng = np.random.default_rng(2)

        def reflect(t, axis):
            def f(p):
                return (2 * axis - p[0], p[1], p[2])

            return TorsoPoints(f(t.right_shoulder), f(t.left_shoulder),
                               f(t.right_hip), f(t.left_hip))

        def scale(t, factor, cx, cy):
            def f(p):
                return (cx + factor * (p[0] - cx), cy + factor * (p[1] - cy), p[2])

            return TorsoPoints(f(t.right_shoulder), f(t.left_shoulder),
                               f(t.right_hip), f(t.left_hip))

        worst_anti = worst_scale = worst_conf = 0.0
        for _ in range(1000):
            t = random_torso(rng)
            base = s2t_ratio(t)

            axis = float(rng.uniform(-500, 500))
            worst_anti = max(worst_anti, abs(s2t_ratio(reflect(t, axis)) + base))

            factor = float(rng.uniform(0.5, 2.0))
            cx, cy = rng.uniform(-200, 200, size=2)
            scaled = abs(s2t_ratio(scale(t, factor, cx, cy)) - base)
            worst_scale = max(worst_scale, scaled / max(abs(base), 1.0))

            fields = ["right_shoulder", "left_shoulder", "right_hip", "left_hip"]
            index = int(rng.integers(4))
            values = {f: getattr(t, f) for f in fields}
            x, y, _ = values[fields[index]]
            values[fields[index]] = (x, y, 0.0)
            zeroed = s2t_ratio(TorsoPoints(**values))
            values[fields[index]] = tuple(rng.uniform(-1000, 1000, size=2)) + (0.0,)
            worst_conf = max(worst_conf, abs(s2t_ratio(TorsoPoints(**values)) - zeroed))

        example = TorsoPoints(
            right_shoulder=(10, 100, 1.0),
            left_shoulder=(30, 102, 0.5),
            right_hip=(12, 160, 0.8),
            left_hip=(28, 158, 0.2),
        )
        example_err = abs(s2t_ratio(example) - (-0.3125))

        ok = (
            worst_anti <= 1e-12
            and worst_scale <= 1e-12
            and worst_conf <= 1e-12
            and example_err <= 1e-12
        )
        announce(
            "criterion 7",
            ok,
            f"antisymmetry err={worst_anti:.1e}, scale err={worst_scale:.1e}, "
            f"zero-conf err={worst_conf:.1e}, worked example err={example_err:.1e}",
        )


class TestDeterminism:
    def test_criterion_8_pipeline_byte_identical(self, announce):
        outputs = []
        for _ in range(2):
            data = generate(
                SynthConfig(
                    persons=4, frames=60, kappa=0.6, sigma=0.2,
                    sigma_det=1.5, crossing=True, seed=21,
                )
            )
            pred = run_sequence(
                TrackerConfig(seed=5, bins=3, q=2.0),
                data.det_text,
                data.features_text,
                data.keypoints_text,
            )
            scores = idf1(parse_mot(data.gt_text), pred)
            outputs.append(
                (
                    data.gt_text.encode(),
                    data.det_text.encode(),
                    data.features_text.encode(),
                    data.keypoints_text.encode(),
                    write_tracks(pred).encode(),
                    repr(scores).encode(),
                )
            )
        ok = outputs[0] == outputs[1]
        announce(
            "criterion 8",
            ok,
            "synth + track + evaluate outputs byte-identical across reruns",
        )
