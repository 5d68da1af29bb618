"""orientrack benchmark: tracking, re-ID and eval-mot, end to end and per layer.

    python3 perfbench/run.py --workload crossing|crowd|reid --seed N \
        --seconds S --trace 0|1

Generates the workload's inputs with ``synth.generate`` from ``--seed``,
parses them as the CLI does (set-up), then drives the library's public
functions in a closed loop from one caller until ``--seconds`` have passed
(whole passes, at least two; the first warms up and is left out of the
timings).  ``--trace 0`` prints the end-to-end metrics, totals and means over
the remaining passes; ``--trace 1`` runs untraced passes for half the time,
then wraps every layer's public functions and prints the per-layer metrics.
The line before the last is a report (environment, quality, checks); the
last line is the result.
Runs from the root of a source checkout and imports ``src/orientrack``.
"""

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import catalog  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = (Path(__file__).resolve().parent.parent / "src").resolve()
LIB_MODULES = ("association", "filtering", "gallery", "io_formats", "metrics",
               "pose_orientation", "synth", "tracker")
MIN_PASSES = 2


def import_library() -> SimpleNamespace:
    """Import orientrack afresh (dropping earlier module objects) and return its modules."""
    for name in [n for n in sys.modules if n == "orientrack" or n.startswith("orientrack.")]:
        del sys.modules[name]
    importlib.import_module("orientrack")
    return SimpleNamespace(**{m: sys.modules[f"orientrack.{m}"] for m in LIB_MODULES})


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def warm_results(passes: list[list]) -> list:
    """The unit results of every pass after the first, which warms up."""
    return [r for done in passes[1:] for r in done]


def run_passes(ledger, lib, units, seconds: float, min_passes: int, on_pass) -> int:
    """Closed loop: whole passes until the time is up; returns the pass count."""
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < min_passes or time.perf_counter() < deadline:
        results = ledger.run_pass(lib, units)
        passes += 1
        on_pass(results)
    return passes


def per_layer_metrics(setup_snap, pass_snaps, nbytes, generate_s,
                      overhead, ledger) -> dict[str, float]:
    """Per-layer values: one traced set-up plus the median traced pass."""
    keys = set(setup_snap).union(*pass_snaps)
    value = {}
    for key in keys:
        per_pass = [snap.get(key, 0) for snap in pass_snaps]
        if key.startswith(("total:", "self:")):
            value[key] = setup_snap.get(key, 0.0) + statistics.median(per_pass)
        else:
            if len(set(per_pass)) > 1:
                ledger.fail(f"count {key} differs between passes: {per_pass}")
            value[key] = setup_snap.get(key, 0) + per_pass[0]

    def get(key):
        return value.get(key, 0)

    def ratio(num, den):
        return get(num) / get(den) if get(den) else 0.0

    out = {}
    for name, _, _, _ in catalog.PER_LAYER:
        stem = name.rsplit("_", 1)[0]
        if name.endswith("_s") and stem in tracing.SPANS:
            out[name] = get(f"total:{stem}")
        elif name.endswith("_calls") and stem in tracing.SPANS:
            out[name] = get(f"calls:{stem}")
    out.update({
        "tracker.self_s": get("self:tracker.process_frame"),
        "tracker.live_tracks_mean": ratio("count:live_tracks", "calls:tracker.process_frame"),
        "association.pairs": get("count:pairs"),
        "association.gated_ratio": ratio("count:gated", "count:pairs"),
        "association.new_track_ratio": ratio("count:new_track_picks", "count:rbpf_detections"),
        "association.resample_ratio": ratio("count:uniform_weight_frames",
                                            "calls:association.rbpf_step"),
        "gallery.stored_vectors": get("count:stored_vectors"),
        "pose_orientation.invalid_ratio": ratio("count:invalid_orientations",
                                                "calls:pose_orientation.orientation"),
        "io_formats.bytes_in": nbytes,
        "synth.generate_s": generate_s,
        "trace.overhead_ratio": overhead,
    })
    return {name: out[name] for name, _, _, _ in catalog.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every scenario seed (0 = the documented seeds)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    return run(args, workloads.WORKLOADS[args.workload])


def run(args, workload: workloads.Workload) -> int:
    clock = time.perf_counter
    # scipy is imported before the set-up clock so that every set-up
    # repetition times the same work: orientrack's own modules plus parsing.
    import scipy.optimize  # noqa: F401

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        synth = importlib.import_module("orientrack.synth")
    except ImportError as exc:
        print(f"error: cannot import orientrack from {SRC}: {exc}", file=sys.stderr)
        return 1
    if SRC not in Path(synth.__file__).resolve().parents:
        print(f"error: orientrack was imported from {synth.__file__}, not {SRC}",
              file=sys.stderr)
        return 1

    t0 = clock()
    outputs = workloads.generate_inputs(synth, workload, args.seed)
    generate_s = clock() - t0

    setups = []

    def set_up():
        t0 = clock()
        lib = import_library()
        units, nbytes = workloads.parse_inputs(lib, workload, args.seed, outputs)
        setups.append(clock() - t0)
        return lib, units, nbytes

    lib, units, nbytes = set_up()

    ledger = workloads.Ledger(workload)
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "scenario_seeds":
              [args.seed + k for k in range(workload.seeds)], "environment": environment()}

    if args.trace:
        # Untraced passes for half the time (the first one warms up and is
        # left out), then traced passes for the other half.
        run_passes(ledger, lib, units, args.seconds / 2, MIN_PASSES, lambda _: None)
        warm = warm_results(ledger.passes)
        untraced = workloads.summarize(warm) if warm else None
        first_traced = len(ledger.passes)
        pass_snaps = []
        with tracing.Tracer() as tracer:
            tracer.install(lib)
            units, nbytes = workloads.parse_inputs(lib, workload, args.seed, outputs)
            setup_snap = tracer.snapshot()

            last = [setup_snap]

            def on_pass(results):
                after = tracer.snapshot()
                delta = {k: v - last[0].get(k, 0) for k, v in after.items()}
                delta["count:stored_vectors"] = sum(r.stored_vectors for r in results if r)
                pass_snaps.append(delta)
                last[0] = after

            passes = run_passes(ledger, lib, units, args.seconds / 2, 1, on_pass)
        traced_results = [r for done in ledger.passes[first_traced:] for r in done]
        traced = workloads.summarize(traced_results) if traced_results else None
        if untraced is None or traced is None:
            print("error: every unit failed; nothing to report", file=sys.stderr)
            return 1
        overhead = untraced["steps_per_s"] / traced["steps_per_s"]
        metrics = per_layer_metrics(setup_snap, pass_snaps, nbytes,
                                    generate_s, overhead, ledger)
        units_of = {name: unit for name, unit, _, _ in catalog.PER_LAYER}
        report["tracing"] = {"untraced_steps_per_s": untraced["steps_per_s"],
                             "traced_steps_per_s": traced["steps_per_s"],
                             "traced_passes": passes}
        report["moves"] = catalog.MOVES
    else:
        # One more set-up after each pass, so that set-up time is sampled
        # across the run rather than at a single moment of host load.
        passes = run_passes(ledger, lib, units, args.seconds, MIN_PASSES,
                            lambda _: set_up())
        warm = warm_results(ledger.passes)
        if not warm:
            print("error: every unit failed; nothing to report", file=sys.stderr)
            return 1
        summary = workloads.summarize(warm)
        metrics = {
            "setup_s": statistics.median(setups),
            "steps_per_s": summary["steps_per_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        units_of = {name: unit for name, unit, _ in catalog.END_TO_END}
        report["named_metrics"] = named_metrics(workload, metrics, summary, ledger)
        report["samples"] = {"timed_steps": summary["steps"],
                             "beyond_p90": summary["steps"] // 10,
                             "passes": passes, "timed_passes": passes - 1,
                             "setup_repeats": setups}
        report["every_repetition"] = workloads.summarize(ledger.results)

    report.update({
        "attempted": ledger.attempted, "failed": ledger.failed,
        "problems": ledger.problems[:20],
        "pass_steps_per_s": ledger.pass_steps_per_s,
        "quality": workloads.quality_report(workload, ledger.reference),
        "outputs_sha256": {seed: digest for seed, (digest, _) in ledger.reference.items()},
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": units_of[name]} for name, v in metrics.items()},
    }))
    return 0


def named_metrics(workload, metrics, summary, ledger) -> dict:
    """The report line's metric names for this workload, each with its unit."""
    values = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
              "ops_failed_ratio": ledger.failed / ledger.attempted,
              **workloads.quality_report(workload, ledger.reference)}
    if workload.kind == "track":
        values.update(frames_per_s=summary["steps_per_s"], frame_ms_p50=summary["step_ms_p50"],
                      frame_ms_p90=summary["step_ms_p90"], eval_mot_s=summary["eval_s"])
    else:
        values["reid_s"] = summary["eval_total_s"]
    out = {name: {"value": values[name], "unit": unit}
           for name, unit in catalog.REPORT[workload.kind]}
    out["ops_failed_ratio"]["base"] = ledger.attempted  # frames/queries plus eval calls
    return out


if __name__ == "__main__":
    sys.exit(main())
