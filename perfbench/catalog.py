"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the two
agree.  ``MOVES`` records, for each per-layer metric, the end-to-end metric
and workload it is expected to move, so a later claim can name both before
measuring.
"""

# (name, unit, better) -- every workload reports each of these with --trace 0.
# A "step" is one closed-loop call the workload waits on: one
# Tracker.process_frame on crossing and crowd, one query ranked against all
# four galleries on reid.  With one caller in a closed loop, steps_per_s is
# the inverse of the mean step latency.
#
# The other timings are printed in the report line but not bounded, because
# on a shared 2-core host their figures on at least one workload spread past
# the largest bound allowed (0.25) between runs of the same code: the p50 and
# p90 step latencies, and the eval times (eval_mot_s: metrics.idf1 on
# crossing and crowd; reid_s: the four-strategy split/build/rank-1 pass on
# reid).  The crowd eval-mot call slows by up to 1.8x within seconds when the
# host is busy, about twice as much as tracking does, and it runs for only a
# few seconds of each run.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# The metric names of the report, per workload kind; printed on the line
# before the result.  quality metrics are seed-dependent (and can be 0), so
# they are checked for repeatability instead of being bounded.
REPORT = {
    "track": [
        ("setup_s", "s"), ("frames_per_s", "1/s"), ("frame_ms_p50", "ms"),
        ("frame_ms_p90", "ms"), ("eval_mot_s", "s"), ("idf1", "ratio"),
        ("id_switches", "count"), ("peak_rss_mb", "MB"),
        ("ops_failed_ratio", "ratio"),
    ],
    "reid": [
        ("setup_s", "s"), ("reid_s", "s"), ("rank1_full", "ratio"),
        ("rank1_averaged", "ratio"), ("rank1_orient2", "ratio"),
        ("rank1_orient9", "ratio"), ("peak_rss_mb", "MB"),
        ("ops_failed_ratio", "ratio"),
    ],
}

# (name, unit, better, moves) -- every workload reports each of these with
# --trace 1; a layer a workload bypasses reads 0.  "_s" is seconds spent per
# workload pass (plus, for parsing and orientation, one set-up; eval-mot runs
# three times per sequence); "_calls" and the other counts are exact per pass
# for a given seed.
PER_LAYER = [
    ("tracker.process_frame_s", "s", "lower", "steps_per_s on crossing, crowd"),
    ("tracker.self_s", "s", "lower", "steps_per_s on crossing, crowd"),
    ("tracker.live_tracks_mean", "count", "lower", "steps_per_s on crowd"),
    ("filtering.predict_s", "s", "lower", "steps_per_s on crossing"),
    ("filtering.predict_calls", "count", "lower", "steps_per_s on crossing"),
    ("filtering.update_s", "s", "lower", "steps_per_s on crossing"),
    ("filtering.update_calls", "count", "lower", "steps_per_s on crossing"),
    ("filtering.mahalanobis_s", "s", "lower", "steps_per_s on crowd"),
    ("filtering.mahalanobis_calls", "count", "lower", "steps_per_s on crowd"),
    ("association.position_likelihood_s", "s", "lower", "steps_per_s on crowd"),
    ("association.appearance_likelihood_s", "s", "lower", "steps_per_s on crowd"),
    ("association.combine_s", "s", "lower", "steps_per_s on crowd"),
    ("association.rbpf_step_s", "s", "lower", "steps_per_s on crossing"),
    ("association.pairs", "count", "lower", "steps_per_s on crowd"),
    ("association.gated_ratio", "ratio", "higher", "steps_per_s on crowd"),
    ("association.new_track_ratio", "ratio", "lower", "steps_per_s on crossing"),
    ("association.resample_ratio", "ratio", "lower", "steps_per_s on crossing"),
    ("gallery.insert_s", "s", "lower", "steps_per_s on crowd; reid_s on reid"),
    ("gallery.insert_calls", "count", "lower", "steps_per_s on crowd; reid_s on reid"),
    ("gallery.min_distance_s", "s", "lower", "steps_per_s on crowd"),
    ("gallery.min_distance_calls", "count", "lower", "steps_per_s on crowd"),
    ("gallery.nearest_person_s", "s", "lower", "steps_per_s and reid_s on reid"),
    ("gallery.nearest_person_calls", "count", "lower", "steps_per_s and reid_s on reid"),
    ("gallery.stored_vectors", "count", "lower", "peak_rss_mb on reid"),
    ("pose_orientation.orientation_s", "s", "lower",
     "steps_per_s on crossing; setup_s on reid"),
    ("pose_orientation.orientation_calls", "count", "lower",
     "steps_per_s on crossing; setup_s on reid"),
    ("pose_orientation.invalid_ratio", "ratio", "lower", "steps_per_s on crossing"),
    ("io_formats.parse_mot_s", "s", "lower", "setup_s on crowd"),
    ("io_formats.parse_features_s", "s", "lower", "setup_s on crowd"),
    ("io_formats.parse_keypoints_s", "s", "lower", "setup_s on crowd"),
    ("io_formats.write_tracks_s", "s", "lower", "none end to end (after the timed steps)"),
    ("io_formats.bytes_in", "bytes", "lower", "setup_s on crowd"),
    ("metrics.split_gallery_query_s", "s", "lower", "reid_s on reid"),
    ("metrics.build_gallery_s", "s", "lower", "reid_s on reid"),
    ("metrics.rank1_s", "s", "lower", "steps_per_s and reid_s on reid"),
    ("metrics.idf1_s", "s", "lower", "eval_mot_s on crowd"),
    ("metrics.id_switches_s", "s", "lower", "eval_mot_s on crowd"),
    ("synth.generate_s", "s", "lower", "none: the load generator, outside every end-to-end metric"),
    ("trace.overhead_ratio", "ratio", "lower", "none: untraced over traced steps_per_s"),
]

MOVES = {name: moves for name, _, _, moves in PER_LAYER}
