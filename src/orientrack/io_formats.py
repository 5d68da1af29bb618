"""Readers and writers for the on-disk interchange formats.

Formats handled here:
  * MOT-style CSV for detections, ground truth and emitted tracks
    (``frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z``)
  * feature tables (``# dim=d`` header, then ``frame,det_index,v0,...``)
  * keypoint streams (JSON lines, 18 COCO triples per detection)
  * flat ``key=value`` run configuration files

Feature and keypoint rows share one key: ``det_index`` is the 0-based
position of the detection within its frame, in detection-file order.

All parsers are total: every input either yields a value or raises a
positioned error; nothing is returned partially.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

COCO_KEYPOINT_COUNT = 18


class ParseError(ValueError):
    """Input does not match the declared grammar; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    """Structurally well-formed input violating a value-level invariant."""


@dataclass
class DetectionRecord:
    frame: int
    id: int
    bb_left: float
    bb_top: float
    bb_width: float
    bb_height: float
    conf: float

    def validate(self) -> None:
        if self.frame < 1:
            raise ValidationError(f"frame must be >= 1, got {self.frame}")
        if self.bb_width <= 0 or self.bb_height <= 0:
            raise ValidationError(
                f"box dimensions must be positive, got {self.bb_width}x{self.bb_height}"
            )
        if self.conf < 0:
            raise ValidationError(f"conf must be non-negative, got {self.conf}")

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.bb_left, self.bb_top, self.bb_width, self.bb_height)


@dataclass
class FeatureTable:
    dim: int
    entries: dict[tuple[int, int], np.ndarray]


@dataclass
class KeypointRecord:
    frame: int
    det_index: int
    keypoints: np.ndarray  # (18, 3) rows of (x, y, c)


def _parse_int(raw: str, line_no: int, name: str) -> int:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(line_no, f"non-numeric {name}: {raw!r}") from None
    if not value.is_integer():
        raise ParseError(line_no, f"{name} must be an integer, got {raw!r}")
    if abs(value) >= 2**53:  # from here on a float no longer tells neighbouring integers apart
        raise ParseError(line_no, f"{name} out of range: {raw!r}")
    return int(value)


def _parse_float(raw: str, line_no: int, name: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(line_no, f"non-numeric {name}: {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"non-finite {name}: {raw!r}")
    return value


def _check_key(line_no: int, frame, det_index, seen) -> tuple[int, int]:
    """Check a feature or keypoint row's ``(frame, det_index)`` key, not yet in ``seen``."""
    # JSON true/false load as bool, a subclass of int: test the exact type.
    if type(frame) is not int or frame < 1:
        raise ParseError(line_no, f"frame must be a positive integer, got {frame!r}")
    if frame >= 2**53:  # the range _parse_int gives the CSV parsers
        raise ParseError(line_no, f"frame out of range: {frame!r}")
    if type(det_index) is not int or det_index < 0:
        raise ParseError(line_no, f"det_index must be a non-negative integer, got {det_index!r}")
    if det_index >= 2**53:
        raise ParseError(line_no, f"det_index out of range: {det_index!r}")
    if (frame, det_index) in seen:
        raise ParseError(line_no, f"duplicate key {(frame, det_index)}")
    return frame, det_index


def parse_mot(text: str) -> list[DetectionRecord]:
    """Parse MOT CSV text into detection records, in file order.

    Trailing world-coordinate fields are ignored.  Raises ParseError for
    malformed lines and ValidationError for out-of-range values.
    """
    records: list[DetectionRecord] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 7:
            raise ParseError(line_no, f"expected >= 7 fields, got {len(fields)}")
        record = DetectionRecord(
            frame=_parse_int(fields[0], line_no, "frame"),
            id=_parse_int(fields[1], line_no, "id"),
            bb_left=_parse_float(fields[2], line_no, "bb_left"),
            bb_top=_parse_float(fields[3], line_no, "bb_top"),
            bb_width=_parse_float(fields[4], line_no, "bb_width"),
            bb_height=_parse_float(fields[5], line_no, "bb_height"),
            conf=_parse_float(fields[6], line_no, "conf"),
        )
        record.validate()
        records.append(record)
    return records


def write_tracks(records: list[DetectionRecord]) -> str:
    """Format track records as canonical MOT CSV (2 decimal places, -1 world coords)."""
    lines = []
    for record in records:
        if record.id < 1:
            raise ValidationError(f"track id must be >= 1, got {record.id}")
        record.validate()
        lines.append(
            f"{record.frame},{record.id},"
            f"{record.bb_left:.2f},{record.bb_top:.2f},"
            f"{record.bb_width:.2f},{record.bb_height:.2f},"
            f"{record.conf:.2f},-1,-1,-1"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_features(text: str) -> FeatureTable:
    """Parse a feature table: '# dim=<d>' header, then 'frame,det_index,v0,...' rows."""
    lines = text.splitlines()
    if not lines or not lines[0].strip().startswith("# dim="):
        raise ParseError(1, "missing '# dim=<d>' header")
    try:
        dim = int(lines[0].strip()[len("# dim="):])
    except ValueError:
        raise ParseError(1, f"bad dimension header: {lines[0]!r}") from None
    if dim < 1:
        raise ParseError(1, f"dimension must be positive, got {dim}")

    entries: dict[tuple[int, int], np.ndarray] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2 + dim:
            raise ParseError(
                line_no, f"expected {2 + dim} fields (dim={dim}), got {len(fields)}"
            )
        frame = _parse_int(fields[0], line_no, "frame")
        key = _check_key(line_no, frame, _parse_int(fields[1], line_no, "det_index"), entries)
        entries[key] = np.array(
            [_parse_float(f, line_no, "feature value") for f in fields[2:]],
            dtype=np.float64,
        )
    return FeatureTable(dim=dim, entries=entries)


def parse_keypoints(text: str) -> list[KeypointRecord]:
    """Parse JSON-lines keypoint records with exactly 18 COCO (x, y, c) triples."""
    records: list[KeypointRecord] = []
    seen: set[tuple[int, int]] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg}") from None
        except ValueError:
            # An integer literal past Python's int-from-string digit limit.
            raise ParseError(line_no, "integer with too many digits") from None
        try:
            frame = obj["frame"]
            det_index = obj["det_index"]
            keypoints = obj["keypoints"]
        except (KeyError, TypeError):
            raise ParseError(line_no, "expected frame/det_index/keypoints object") from None
        seen.add(_check_key(line_no, frame, det_index, seen))
        try:
            array = np.array(keypoints, dtype=np.float64)
        except (TypeError, ValueError):
            raise ParseError(line_no, "keypoints must be numeric (x, y, c) triples") from None
        except OverflowError:
            raise ParseError(line_no, "keypoint value outside the float range") from None
        if array.shape != (COCO_KEYPOINT_COUNT, 3):
            raise ParseError(
                line_no, f"expected {COCO_KEYPOINT_COUNT} keypoints, got shape {array.shape}"
            )
        if not np.isfinite(array[:, :2]).all():
            raise ParseError(line_no, "keypoint position is not finite")
        outside = ~((array[:, 2] >= 0.0) & (array[:, 2] <= 1.0))
        if outside.any():
            i = int(np.argmax(outside))
            raise ParseError(line_no, f"keypoint {i} confidence {array[i, 2]} outside [0, 1]")
        records.append(KeypointRecord(frame=frame, det_index=det_index, keypoints=array))
    return records


def parse_config(text: str) -> dict[str, str]:
    """Parse a flat 'key=value' config file; '#' starts a comment line."""
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(line_no, f"expected 'key=value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ParseError(line_no, f"duplicate key {key!r}")
        values[key] = value.strip()
    return values


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLS[raw.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLS)}") from None


def config_from_mapping(cls, mapping: dict[str, str], kind: str = "config"):
    """Build dataclass ``cls`` from string values, coercing each by its field type.

    Booleans accept 1/0/true/false/yes/no in any case.  A value that does not
    coerce raises ``ValueError`` naming its key.
    """
    hints = get_type_hints(cls)
    coercions = {
        f.name: _parse_bool if hints[f.name] is bool else hints[f.name] for f in fields(cls)
    }
    kwargs = {}
    for key, raw in mapping.items():
        if key not in coercions:
            raise ValueError(f"unknown {kind} key {key!r}")
        try:
            kwargs[key] = coercions[key](raw)
        except ValueError as exc:
            raise ValueError(f"{kind} key {key!r}: bad value {raw!r} ({exc})") from None
    return cls(**kwargs)


def group_by_frame(records: list[DetectionRecord]) -> dict[int, list[DetectionRecord]]:
    """Group records per frame, preserving file order (det_index = position in group)."""
    frames: dict[int, list[DetectionRecord]] = {}
    for record in records:
        frames.setdefault(record.frame, []).append(record)
    return frames
