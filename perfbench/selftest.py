"""Self-test of the benchmark at a tiny size (2 persons x 5 frames).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and ``catalog`` name the same metrics, that every
workload prints every end-to-end and per-layer metric with its unit, that
the tracer restores what it wraps, that broken or non-repeatable tracker
output fails the correctness check, and that the benchmark exits non-zero
without a result when the library is absent.  Exits 0 when all pass.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run  # sets the BLAS thread variables before numpy is imported

import catalog
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def tiny(name: str) -> workloads.Workload:
    return workloads.shrink(workloads.WORKLOADS[name], persons=2, frames=5)


def run_tiny(name: str, trace: int) -> tuple[dict, dict]:
    """Run one tiny workload in this process; returns (report, result)."""
    args = SimpleNamespace(workload=name, seed=0, seconds=0.0, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(args, tiny(name))
    lines = out.getvalue().splitlines()
    if code != 0 or len(lines) < 2:
        raise AssertionError(f"{name} trace={trace}: exit {code}, output {lines!r}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name], spec["paths"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        catalog.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [entry[:3] for entry in catalog.PER_LAYER]


def check_every_metric_emitted() -> None:
    expected = {0: {n: u for n, u, _ in catalog.END_TO_END},
                1: {n: u for n, u, _, _ in catalog.PER_LAYER}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            report, result = run_tiny(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, report["problems"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (name, trace, got)
            if trace == 0:
                kind = workloads.WORKLOADS[name].kind
                assert {k: v["unit"] for k, v in report["named_metrics"].items()} == \
                    dict(catalog.REPORT[kind]), report["named_metrics"]


def check_tracer_restores() -> None:
    lib = run.import_library()
    places = [tracing._resolve(lib, m, a) for spans in tracing.SPANS.values()
              for m, a in spans]
    originals = [getattr(owner, attr) for owner, attr in places]
    with tracing.Tracer() as tracer:
        tracer.install(lib)
        assert all(getattr(o, a) is not f for (o, a), f in zip(places, originals))
    assert all(getattr(o, a) is f for (o, a), f in zip(places, originals))
    assert tracer.calls == {}, "no call was made, so none may be counted"


@contextlib.contextmanager
def patched_tracker(edit):
    """Make every freshly imported Tracker pass its output through ``edit``."""
    original_import = run.import_library
    calls = [0]

    def import_library():
        lib = original_import()
        process_frame = lib.tracker.Tracker.process_frame

        def broken(self, *args, **kwargs):
            calls[0] += 1
            return edit(process_frame(self, *args, **kwargs), calls[0])

        lib.tracker.Tracker.process_frame = broken
        return lib

    run.import_library = import_library
    try:
        yield
    finally:
        run.import_library = original_import


def check_broken_output_fails() -> None:
    record = SimpleNamespace(frame=1, id=1, bb_left=0.0, bb_top=0.0,
                             bb_width=float("nan"), bb_height=5.0)
    assert len(workloads.check_records([record, record])) == 3  # box twice, duplicate id

    def nan_width(records, _):
        for r in records:
            r.bb_width = float("nan")
        return records

    def drifting(records, call):
        for r in records:
            r.bb_left += call  # differs between repetitions of the same frame
        return records

    for edit in (nan_width, drifting):
        with patched_tracker(edit):
            report, result = run_tiny("crossing", 0)
        assert not result["correct"] and result["failed"] > 0, (edit.__name__, result)
        assert report["problems"], edit.__name__


def check_fails_without_library() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "crowd", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    checks = [check_benchmark_json, check_every_metric_emitted, check_tracer_restores,
              check_broken_output_fails, check_fails_without_library]
    failed = 0
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"PASS {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
