"""Per-layer spans around orientrack's public functions, from outside the package.

``Tracer.install`` replaces each layer's public functions (module attributes,
including the by-name imports other modules hold, and ``Gallery``/``Tracker``
methods) with timing wrappers, and ``Tracer.restore`` puts the originals back.
Each wrapper records total and self time (its span minus the spans of wrapped
calls made inside it) and a call count; observers read counts off the
returned values.  Nothing under ``src/orientrack`` is edited.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

# Span name -> the (module, attribute) pairs that hold the function.  A
# function imported by name into another module is wrapped in both places.
SPANS = {
    "tracker.process_frame": [("tracker", "Tracker.process_frame")],
    "filtering.predict": [("filtering", "predict")],
    "filtering.update": [("filtering", "update")],
    "filtering.mahalanobis": [("filtering", "mahalanobis"), ("association", "mahalanobis")],
    "association.position_likelihood": [("association", "position_likelihood")],
    "association.appearance_likelihood": [("association", "appearance_likelihood")],
    "association.combine": [("association", "combine")],
    "association.rbpf_step": [("association", "rbpf_step")],
    "gallery.insert": [("gallery", "Gallery.insert")],
    "gallery.min_distance": [("gallery", "Gallery.min_distance")],
    "gallery.nearest_person": [("gallery", "Gallery.nearest_person")],
    "pose_orientation.orientation": [
        ("pose_orientation", "orientation_from_keypoints"),
        ("tracker", "orientation_from_keypoints"),
    ],
    "io_formats.parse_mot": [("io_formats", "parse_mot")],
    "io_formats.parse_features": [("io_formats", "parse_features")],
    "io_formats.parse_keypoints": [("io_formats", "parse_keypoints")],
    "io_formats.write_tracks": [("io_formats", "write_tracks")],
    "metrics.split_gallery_query": [("metrics", "split_gallery_query")],
    "metrics.build_gallery": [("metrics", "build_gallery")],
    "metrics.rank1": [("metrics", "rank1")],
    "metrics.idf1": [("metrics", "idf1")],
    "metrics.id_switches": [("metrics", "id_switches")],
}


def _before_process_frame(counts, args):
    counts["live_tracks"] += len(args[0].tracks)


def _after_position_likelihood(counts, args, result):
    tracks = result[:, :-1]
    counts["pairs"] += tracks.size
    counts["gated"] += int(np.count_nonzero(tracks == 0.0))


def _after_rbpf_step(counts, args, result):
    particles, consensus = result
    new_col = args[1].shape[1] - 1
    counts["rbpf_detections"] += len(consensus)
    counts["new_track_picks"] += int(np.count_nonzero(consensus == new_col))
    weights = particles.weights
    counts["uniform_weight_frames"] += bool(np.all(weights == weights[0]))


def _after_orientation(counts, args, result):
    counts["invalid_orientations"] += not result.valid


BEFORE = {"tracker.process_frame": _before_process_frame}
AFTER = {
    "association.position_likelihood": _after_position_likelihood,
    "association.rbpf_step": _after_rbpf_step,
    "pose_orientation.orientation": _after_orientation,
}


def _resolve(lib, module: str, attr: str):
    owner = getattr(lib, module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Totals, self times, call counts and observed counts per span."""

    def __init__(self) -> None:
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def snapshot(self) -> dict[str, float]:
        """Flat copy of every accumulator, keyed '<kind>:<name>'."""
        out: dict[str, float] = {}
        for kind, table in (("total", self.total), ("self", self.self_time),
                            ("calls", self.calls), ("count", self.counts)):
            for name, value in table.items():
                out[f"{kind}:{name}"] = value
        return out

    def _wrap(self, name: str, original):
        before, after = BEFORE.get(name), AFTER.get(name)
        stack, counts = self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                observed = time.perf_counter()
                after(counts, args, result)
                # Bookkeeping is not the enclosing layer's own work.
                if stack:
                    stack[-1] += time.perf_counter() - observed
            return result

        return wrapper

    def install(self, lib) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, places in SPANS.items():
            for module, attr in places:
                owner, attr = _resolve(lib, module, attr)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        """Put every wrapped attribute back; raise if one did not come back."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
