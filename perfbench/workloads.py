"""Workload definitions, their closed-loop drivers and the output checks.

Every library call goes through ``lib``, a namespace of the orientrack
modules imported during set-up, so the tracer can wrap and restore them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

TRACKER_CONFIG = dict(mode="pos_app", gallery="orient", bins=5, particles=20, q=2.0)
# (report suffix, gallery strategy, bins) for the rank-1 pass.
REID_MODES = (("full", "full", 1), ("averaged", "averaged", 1),
              ("orient2", "orient", 2), ("orient9", "orient", 9))
REID_SPLIT = 0.8
EVAL_REPEATS = 3  # metrics.idf1 calls per tracked sequence; all must agree


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "track" or "reid"
    seeds: int  # scenarios per pass, seeds offset .. offset + seeds - 1
    synth: dict
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "crossing", "track", 10,
            dict(persons=4, frames=200, crossing=True, sigma_det=2.0, kappa=0.8, sigma=0.3),
            "criterion-4 crossings, 4 persons x 200 frames, seeds 0-9: few tracks, so "
            "rbpf_step sampling and KF predict/update dominate; nearest_person and rank-1 "
            "are bypassed",
        ),
        Workload(
            "crowd", "track", 1,
            dict(persons=32, frames=100, sigma_det=2.0, kappa=0.8, sigma=0.3),
            "32 circular walkers x 100 frames: the detections x tracks position and "
            "appearance likelihood loops (mahalanobis, min_distance) dominate; eval-mot "
            "scores a large output",
        ),
        Workload(
            "reid", "reid", 3,
            dict(persons=50, frames=40, kappa=0.8, sigma=0.3),
            "rank-1 re-ID, 50 persons x 40 frames, seeds 0-2, galleries full/averaged/"
            "orient:2/orient:9: bulk insert then nearest_person reads; tracker, filtering, "
            "association bypassed",
        ),
    )
}


def shrink(workload: Workload, persons: int, frames: int) -> Workload:
    """The same workload at another size (the self-test uses a tiny one)."""
    return dataclasses.replace(
        workload, synth={**workload.synth, "persons": persons, "frames": frames}
    )


def generate_inputs(synth_module, workload: Workload, seed: int) -> list:
    """One SynthOutput per scenario seed; the workload's only inputs."""
    return [
        synth_module.generate(synth_module.SynthConfig(**workload.synth, seed=seed + k))
        for k in range(workload.seeds)
    ]


@dataclass
class TrackUnit:
    seed: int
    by_frame: dict
    last_frame: int
    features: object
    keypoints: dict
    gt: list


@dataclass
class ReidUnit:
    seed: int
    items: list


def parse_inputs(lib, workload: Workload, seed: int, outputs: list) -> tuple[list, int]:
    """Parse each scenario's text as the CLI does; returns (units, bytes parsed)."""
    io = lib.io_formats
    units, nbytes = [], 0
    for k, out in enumerate(outputs):
        texts = [out.gt_text, out.features_text, out.keypoints_text]
        if workload.kind == "track":
            texts.append(out.det_text)
        nbytes += sum(len(t.encode()) for t in texts)
        keypoints = io.parse_keypoints(out.keypoints_text)
        features = io.parse_features(out.features_text)
        gt = io.parse_mot(out.gt_text)
        if workload.kind == "track":
            by_frame = io.group_by_frame(io.parse_mot(out.det_text))
            units.append(TrackUnit(
                seed=seed + k, by_frame=by_frame, last_frame=max(by_frame, default=0),
                features=features,
                keypoints={(r.frame, r.det_index): r for r in keypoints}, gt=gt,
            ))
        else:
            units.append(ReidUnit(seed=seed + k, items=join_labels(lib, features, gt, keypoints)))
    return units, nbytes


def join_labels(lib, features, gt: list, keypoints: list) -> list:
    """Label each feature row with its ground-truth id and S2T value (eval-reid's join)."""
    s2t = {}
    for record in keypoints:
        orientation = lib.pose_orientation.orientation_from_keypoints(record.keypoints, bins=1)
        if orientation.valid:
            s2t[(record.frame, record.det_index)] = orientation.s2t
    rows = lib.io_formats.group_by_frame(gt)
    return [
        lib.metrics.LabeledFeature(
            person=rows[frame][det_index].id, vector=vector, s2t=s2t.get((frame, det_index))
        )
        for (frame, det_index), vector in sorted(features.entries.items())
    ]


@dataclass
class UnitResult:
    seed: int
    steps: list[float]  # seconds per closed-loop step
    step_wall: float  # wall time of the step loop
    eval_s: list[float]  # seconds per evaluation call
    quality: tuple  # (idf1, id_switches) or the four rank-1 values
    digest: str  # write_tracks hash, or of the quality values for reid
    stored_vectors: int
    problems: list[str] = field(default_factory=list)


def check_records(records: list) -> list[str]:
    """Emitted boxes finite and positive, track ids unique within each frame."""
    problems, seen = [], set()
    for r in records:
        box = (r.bb_left, r.bb_top, r.bb_width, r.bb_height)
        if not all(math.isfinite(v) for v in box) or r.bb_width <= 0 or r.bb_height <= 0:
            problems.append(f"frame {r.frame} id {r.id}: bad box {box}")
        if (r.frame, r.id) in seen:
            problems.append(f"frame {r.frame}: duplicate track id {r.id}")
        seen.add((r.frame, r.id))
    return problems


def run_track_unit(lib, unit: TrackUnit) -> UnitResult:
    """Track one sequence in a closed loop, then score it (track + eval-mot)."""
    tracker = lib.tracker.Tracker(lib.tracker.TrackerConfig(**TRACKER_CONFIG, seed=unit.seed))
    output, steps = [], []
    clock = time.perf_counter
    start = clock()
    for frame in range(1, unit.last_frame + 1):
        t0 = clock()
        emitted = tracker.process_frame(
            frame, unit.by_frame.get(frame, []), unit.features, unit.keypoints
        )
        steps.append(clock() - t0)
        output.extend(emitted)
    step_wall = clock() - start
    output.sort(key=lambda r: (r.frame, r.id))

    eval_s, scores = [], []
    for _ in range(EVAL_REPEATS):
        t0 = clock()
        scores.append(lib.metrics.idf1(unit.gt, output))
        eval_s.append(clock() - t0)

    problems = check_records(output)
    if any(s != scores[0] for s in scores):
        problems.append(f"idf1 differs between calls on one output: {scores}")
    scores = scores[0]
    if not 0.0 <= scores.idf1 <= 1.0 or scores.id_switches < 0:
        problems.append(f"scores out of range: {scores}")
    text = lib.io_formats.write_tracks(output)
    return UnitResult(
        seed=unit.seed, steps=steps, step_wall=step_wall, eval_s=eval_s,
        quality=(scores.idf1, scores.id_switches),
        digest=hashlib.sha256(text.encode()).hexdigest(),
        stored_vectors=tracker.gallery.stored_vectors(), problems=problems,
    )


def run_reid_unit(lib, unit: ReidUnit) -> UnitResult:
    """Rank-1 over the four gallery strategies; one step ranks one query in all four."""
    metrics = lib.metrics
    clock = time.perf_counter
    start = clock()
    gallery_items, queries = metrics.split_gallery_query(unit.items, REID_SPLIT, unit.seed)
    galleries = [
        metrics.build_gallery(gallery_items, strategy, bins=bins, seed=unit.seed)
        for _, strategy, bins in REID_MODES
    ]
    hits = [0.0] * len(galleries)
    steps = []
    loop_start = clock()
    for query in queries:
        t0 = clock()
        for k, gallery in enumerate(galleries):
            hits[k] += metrics.rank1(gallery, [query])
        steps.append(clock() - t0)
    end = clock()
    quality = tuple(h / len(queries) for h in hits)
    problems = [f"rank-1 {v} outside [0, 1]" for v in quality if not 0.0 <= v <= 1.0]
    return UnitResult(
        seed=unit.seed, steps=steps, step_wall=end - loop_start, eval_s=[end - start],
        quality=quality, digest=hashlib.sha256(repr(quality).encode()).hexdigest(),
        stored_vectors=sum(g.stored_vectors() for g in galleries), problems=problems,
    )


class Ledger:
    """Every unit result of a run, the reference outputs and the failures."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.results: list[UnitResult] = []
        self.reference: dict[int, tuple[str, tuple]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes: list[list[UnitResult]] = []
        self.pass_steps_per_s: list[float] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def run_unit(self, lib, unit) -> UnitResult | None:
        """Run one unit; check it against the first run of the same seed."""
        runner = run_track_unit if self.workload.kind == "track" else run_reid_unit
        try:
            result = runner(lib, unit)
        except Exception as exc:  # a crash is a failed operation, not an abort
            self.attempted += 1
            self.fail(f"seed {unit.seed}: {type(exc).__name__}: {exc}")
            return None
        self.attempted += len(result.steps) + len(result.eval_s)
        for problem in result.problems:
            self.fail(f"seed {unit.seed}: {problem}")
        expected = self.reference.setdefault(unit.seed, (result.digest, result.quality))
        if result.digest != expected[0]:
            self.fail(f"seed {unit.seed}: output differs from the first run")
        if result.quality != expected[1]:
            self.fail(f"seed {unit.seed}: quality {result.quality} != {expected[1]}")
        self.results.append(result)
        return result

    def run_pass(self, lib, units: list) -> list[UnitResult | None]:
        results = [self.run_unit(lib, unit) for unit in units]
        done = [r for r in results if r is not None]
        self.passes.append(done)
        if done:
            self.pass_steps_per_s.append(
                sum(len(r.steps) for r in done) / sum(r.step_wall for r in done))
        return results


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(results: list[UnitResult]) -> dict[str, float]:
    """Throughput, latency percentiles and eval time over every given repetition.

    Host speed on a shared machine changes for seconds to minutes at a time,
    so these are totals and means over the whole run, which average those
    phases; a minimum over repetitions depends on whether a fast phase
    happened to fall inside the run.
    """
    steps = [s for r in results for s in r.steps]
    evals: dict[int, list[float]] = {}
    for r in results:
        evals.setdefault(r.seed, []).extend(r.eval_s)
    per_seed = [statistics.fmean(times) for times in evals.values()]
    return {
        "steps": len(steps),
        "steps_per_s": len(steps) / sum(r.step_wall for r in results),
        "step_ms_p50": 1e3 * percentile(steps, 50),
        "step_ms_p90": 1e3 * percentile(steps, 90),
        "eval_s": statistics.fmean(per_seed),  # mean over the scenario seeds
        "eval_total_s": sum(per_seed),  # one eval of every scenario seed
    }


def quality_report(workload: Workload, reference: dict) -> dict[str, float]:
    """Mean quality over the scenario seeds of one pass."""
    values = [q for _, q in reference.values()]
    if workload.kind == "track":
        return {
            "idf1": sum(v[0] for v in values) / len(values),
            "id_switches": sum(v[1] for v in values),
        }
    return {
        f"rank1_{suffix}": sum(v[k] for v in values) / len(values)
        for k, (suffix, _, _) in enumerate(REID_MODES)
    }
