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

The three record parsers share one reader, ``_blocks``, that takes the text
in pieces of whole lines.  Per line, the parser's ``read`` splits the CSV line
and maps ``float`` over its fields, or loads the JSON line, and checks its
structure and key; ``seen`` maps each key to the line it was read on.  Each
piece's values become one float block, and the integer, range, finiteness,
confidence and ``validate`` rules run once per block.  Error contract: the
first bad line in file order raises the error of its own line rules, checked
in order; only that line is turned into a message.  Parsed feature vectors and
keypoint arrays are rows of read-only blocks, one block per piece, so they
share memory and cannot be written to.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import chain
from numbers import Integral, Real
from operator import attrgetter
from typing import Iterator, get_type_hints

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

    # (bb_left, bb_top, bb_width, bb_height); ``DetectionRecord.box.fget`` is
    # the C getter, for mapping over many records.
    box = property(attrgetter("bb_left", "bb_top", "bb_width", "bb_height"))


@dataclass
class FeatureTable:
    dim: int
    entries: dict[tuple[int, int], np.ndarray]


@dataclass
class KeypointRecord:
    frame: int
    det_index: int
    keypoints: np.ndarray  # (18, 3) rows of (x, y, c)


# Characters per piece: about 100 keypoint lines.  One block per file, or
# pieces four times this size, raised the benchmark's peak RSS.
_CHUNK_CHARS = 1 << 15
_MOT_FLOATS = ("bb_left", "bb_top", "bb_width", "bb_height", "conf")
_INT_LIMIT = 2**53  # from here on a float no longer tells neighbouring integers apart


def _line_chunks(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``text.splitlines()`` in consecutive pieces, each with the 1-based
    number of its first line.

    A piece ends just after the first ``\\n`` at least ``_CHUNK_CHARS``
    characters on, so every piece ends with a line break (``\\r\\n`` included)
    and the pieces' lines are exactly the text's lines.
    """
    line_no, start = 1, 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        lines = text[start:end].splitlines()
        yield line_no, lines
        line_no += len(lines)
        start = end


def _parse_int(raw: str, line_no: int, name: str) -> int:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(line_no, f"non-numeric {name}: {raw!r}") from None
    if not value.is_integer():
        raise ParseError(line_no, f"{name} must be an integer, got {raw!r}")
    if abs(value) >= _INT_LIMIT:
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
    """Check a feature or keypoint row's ``(frame, det_index)`` key; ``seen``
    maps each key read so far to its line, and another line's key is a duplicate."""
    # JSON true/false load as bool, a subclass of int: test the exact type.
    if type(frame) is not int or frame < 1:
        raise ParseError(line_no, f"frame must be a positive integer, got {frame!r}")
    if frame >= _INT_LIMIT:  # the range _parse_int gives the CSV parsers
        raise ParseError(line_no, f"frame out of range: {frame!r}")
    if type(det_index) is not int or det_index < 0:
        raise ParseError(line_no, f"det_index must be a non-negative integer, got {det_index!r}")
    if det_index >= _INT_LIMIT:
        raise ParseError(line_no, f"det_index out of range: {det_index!r}")
    if seen.get((frame, det_index), line_no) != line_no:
        raise ParseError(line_no, f"duplicate key {(frame, det_index)}")
    return frame, det_index


def _blocks(pieces, shape: tuple[int, ...], read, rows_ok, explain) -> Iterator[tuple]:
    """Yield each ``(first line number, lines)`` piece as one checked float
    block of rows of ``shape``, with the list of its values.

    ``read(line_no, line, values)`` appends a non-blank line's values and
    returns False when the line breaks a line rule, which ends the piece.  A
    piece whose lines all read, whose values all convert and whose rows all
    pass ``rows_ok`` is yielded.  Any other piece is explained:
    ``explain(line_no, line)`` raises a line's error, and it runs on the
    piece's non-blank lines in file order, so the first bad line raises.
    """
    size = math.prod(shape)
    for first, lines in pieces:
        values: list = []
        rows = 0
        for line_no, line in enumerate(lines, first):
            if not line.strip():
                continue
            if not read(line_no, line, values):
                break
            rows += 1
        else:
            try:
                block = np.fromiter(values, np.float64, rows * size).reshape(rows, *shape)
            except (TypeError, ValueError, OverflowError):
                block = None
            if block is not None and rows_ok(block).all():
                yield block, values
                continue
        for line_no, line in enumerate(lines, first):
            if line.strip():
                explain(line_no, line)
        raise AssertionError(f"a piece from line {first} failed a check but its lines pass")


def _read_only(blocks: list[np.ndarray]) -> Iterator[np.ndarray]:
    """The rows of each block, in order, each block made read-only."""
    for block in blocks:
        block.flags.writeable = False
        yield from block


def _mot_record(line_no: int, line: str) -> DetectionRecord:
    """One MOT line's record, checked rule by rule in order: how a bad line's
    error is found."""
    fields = [f.strip() for f in line.split(",")]
    if len(fields) < 7:
        raise ParseError(line_no, f"expected >= 7 fields, got {len(fields)}")
    record = DetectionRecord(
        _parse_int(fields[0], line_no, "frame"),
        _parse_int(fields[1], line_no, "id"),
        *(_parse_float(raw, line_no, name) for raw, name in zip(fields[2:7], _MOT_FLOATS)),
    )
    record.validate()
    return record


def _mot_rows_ok(block: np.ndarray) -> np.ndarray:
    """Per row of an (m, 7) block: every value rule of ``_mot_record`` holds."""
    keys = block[:, :2]
    return (
        ((np.floor(keys) == keys) & (np.abs(keys) < _INT_LIMIT)).all(axis=1)
        & np.isfinite(block[:, 2:]).all(axis=1)
        & (block[:, 0] >= 1) & (block[:, 4] > 0) & (block[:, 5] > 0) & (block[:, 6] >= 0)
    )


def _read_mot(line_no: int, line: str, values: list) -> bool:
    """Append a MOT line's first 7 fields as floats; False unless there are 7 numbers."""
    fields = line.split(",", 7)[:7]
    try:
        values.extend(map(float, fields))
    except ValueError:
        return False
    return len(fields) == 7


def parse_mot(text: str) -> list[DetectionRecord]:
    """Parse MOT CSV text into detection records, in file order.

    Trailing world-coordinate fields are ignored.  Raises ParseError for
    malformed lines and ValidationError for out-of-range values.
    """
    records: list[DetectionRecord] = []
    for _, values in _blocks(_line_chunks(text), (7,), _read_mot, _mot_rows_ok, _mot_record):
        # Every rule holds: the records take the parsed floats, keys as ints.
        frames, ids = map(int, values[0::7]), map(int, values[1::7])
        records.extend(map(DetectionRecord, frames, ids, *(values[k::7] for k in range(2, 7))))
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
    chunks = _line_chunks(text)
    _, lines = next(chunks, (1, []))
    if not lines or not lines[0].strip().startswith("# dim="):
        raise ParseError(1, "missing '# dim=<d>' header")
    try:
        dim = int(lines[0].strip()[len("# dim="):])
    except ValueError:
        raise ParseError(1, f"bad dimension header: {lines[0]!r}") from None
    if dim < 1:
        raise ParseError(1, f"dimension must be positive, got {dim}")

    width = 2 + dim
    seen: dict[tuple[int, int], int] = {}  # each key, in row order, to its line

    def read(line_no: int, line: str, values: list) -> bool:
        fields = line.split(",")
        if len(fields) != width:
            return False
        try:
            values.extend(map(float, fields))
            # An integral float becomes an int, so that _check_key accepts it.
            frame, det_index = values[-width], values[1 - width]
            key = _check_key(line_no, int(frame) if frame.is_integer() else frame,
                             int(det_index) if det_index.is_integer() else det_index, seen)
            seen[key] = line_no
        except ValueError:  # ParseError is one
            return False
        return True

    def explain(line_no: int, line: str) -> None:
        """One feature line's rules, in order: how a bad line's error is found."""
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != width:
            raise ParseError(line_no, f"expected {width} fields (dim={dim}), got {len(fields)}")
        frame = _parse_int(fields[0], line_no, "frame")
        _check_key(line_no, frame, _parse_int(fields[1], line_no, "det_index"), seen)
        for raw in fields[2:]:
            _parse_float(raw, line_no, "feature value")

    pieces = _blocks(chain([(2, lines[1:])], chunks), (width,), read,
                     lambda block: np.isfinite(block[:, 2:]).all(axis=1), explain)
    blocks = [np.ascontiguousarray(block[:, 2:]) for block, _ in pieces]
    return FeatureTable(dim=dim, entries=dict(zip(seen, _read_only(blocks))))


def _keypoint_key(line_no: int, line: str, seen) -> tuple[tuple[int, int], object]:
    """One JSON line's checked ``(frame, det_index)`` key and its keypoints value."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, f"invalid JSON: {exc.msg}") from None
    except ValueError:
        # An integer literal past Python's int-from-string digit limit.
        raise ParseError(line_no, "integer with too many digits") from None
    try:
        frame, det_index, keypoints = obj["frame"], obj["det_index"], obj["keypoints"]
    except (KeyError, TypeError):
        raise ParseError(line_no, "expected frame/det_index/keypoints object") from None
    return _check_key(line_no, frame, det_index, seen), keypoints


def _json_numbers(value) -> bool:
    """Whether ``value`` is a JSON number or nested lists of them (not true/false/null)."""
    if type(value) is list:
        return all(map(_json_numbers, value))
    return type(value) is int or type(value) is float


def _keypoint_rows_ok(block: np.ndarray) -> np.ndarray:
    """Per (18, 3) row of an (m, 18, 3) block: finite positions, confidences in [0, 1]."""
    conf = block[:, :, 2]
    in_range = ((conf >= 0.0) & (conf <= 1.0)).all(axis=1)
    return np.isfinite(block[:, :, :2]).all(axis=(1, 2)) & in_range


def _keypoint_array(line_no: int, keypoints) -> np.ndarray:
    """One keypoints value as an (18, 3) array, checked rule by rule in order:
    how a bad row's error is found."""
    try:
        array = np.array(keypoints, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParseError(line_no, "keypoints must be numeric (x, y, c) triples") from None
    except OverflowError:
        raise ParseError(line_no, "keypoint value outside the float range") from None
    if not _json_numbers(keypoints):  # np.array would take "1.5", true and null
        raise ParseError(line_no, "keypoints must be numeric (x, y, c) triples")
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
    return array


_TRIPLE_LENGTHS = [3] * COCO_KEYPOINT_COUNT


def _plain_triples(line: str, keypoints) -> bool:
    """Whether ``keypoints`` is 18 sized-3 lists of nothing but lists and JSON numbers.

    The line must hold exactly six double quotes, those of the three keys, and
    no ``u`` or ``l``: every true, false and null has one, while numbers
    (NaN and Infinity too) and the keys have none.
    """
    if line.count('"') != 6 or "u" in line or "l" in line or type(keypoints) is not list:
        return False
    try:
        return list(map(len, keypoints)) == _TRIPLE_LENGTHS
    except TypeError:  # an unsized entry
        return False


def parse_keypoints(text: str) -> list[KeypointRecord]:
    """Parse JSON-lines keypoint records with exactly 18 COCO (x, y, c) triples.

    Every keypoint value must be a JSON number: strings, true/false and null
    are not numeric.
    """
    seen: dict[tuple[int, int], int] = {}  # each key, in row order, to its line

    def read(line_no: int, line: str, values: list) -> bool:
        try:
            key, keypoints = _keypoint_key(line_no, line, seen)
            if not _plain_triples(line, keypoints):
                keypoints = _keypoint_array(line_no, keypoints)
        except ParseError:
            return False
        seen[key] = line_no
        values.extend(chain.from_iterable(keypoints))
        return True

    def explain(line_no: int, line: str) -> None:
        _keypoint_array(line_no, _keypoint_key(line_no, line, seen)[1])

    blocks = [block for block, _ in _blocks(_line_chunks(text), (COCO_KEYPOINT_COUNT, 3),
                                            read, _keypoint_rows_ok, explain)]
    return [
        KeypointRecord(frame, det_index, row)
        for (frame, det_index), row in zip(seen, _read_only(blocks))
    ]


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


def check_count(value, name: str, least: int) -> int:
    """The count rule: ``value`` as an int if an Integral (not a bool) >= ``least``."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_real(value, name: str, rule: str = "positive") -> None:
    """Real and fraction rules: a finite Real, not a bool, > 0, >= 0 or in (0, 1) by ``rule``."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if rule == "fraction" and not 0 < value < 1:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    if not (math.isfinite(value) and (value > 0 if rule == "positive" else value >= 0)):
        raise ValueError(f"{name} must be {rule} and finite, got {value}")


def check_choice(value, name: str, choices: tuple) -> None:
    """The choice rule: one of ``choices``; a value not of their type is not compared."""
    if type(value) is not type(choices[0]) or value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def check_ranges(config, least: dict[str, int], positive=(), non_negative=(), choices=None):
    """The count, real and choice rules on a config's fields, in turn: the first bad one raises."""
    for name, floor in least.items():
        check_count(getattr(config, name), name, floor)
    for names, rule in ((positive, "positive"), (non_negative, "non-negative")):
        for name in names:
            check_real(getattr(config, name), name, rule)
    for name, options in (choices or {}).items():
        check_choice(getattr(config, name), name, options)


def group_by_frame(records: list[DetectionRecord]) -> dict[int, list[DetectionRecord]]:
    """Group records per frame, preserving file order (det_index = position in group)."""
    frames: dict[int, list[DetectionRecord]] = {}
    for record in records:
        frames.setdefault(record.frame, []).append(record)
    return frames
