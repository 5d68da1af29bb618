import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orientrack import io_formats
from orientrack.io_formats import (
    DetectionRecord,
    FeatureTable,
    KeypointRecord,
    ParseError,
    ValidationError,
    parse_config,
    parse_features,
    parse_keypoints,
    parse_mot,
    write_tracks,
)
from orientrack.synth import SynthConfig, generate


def make_record(frame=1, id=3, box=(10.0, 20.0, 30.0, 60.0), conf=1.0):
    return DetectionRecord(frame, id, *box, conf)


class TestParseMot:
    def test_basic_line(self):
        records = parse_mot("1,-1,10,20,30,60,0.9,-1,-1,-1")
        assert records == [DetectionRecord(1, -1, 10.0, 20.0, 30.0, 60.0, 0.9)]

    def test_empty_text(self):
        assert parse_mot("") == []

    def test_too_few_fields(self):
        with pytest.raises(ParseError) as exc:
            parse_mot("1,-1,10,20")
        assert exc.value.line == 1

    def test_error_carries_later_line_number(self):
        text = "1,-1,10,20,30,60,0.9\n2,-1,bad,20,30,60,0.9"
        with pytest.raises(ParseError) as exc:
            parse_mot(text)
        assert exc.value.line == 2

    @pytest.mark.parametrize("line", [
        "9007199254740992,-1,10,20,30,60,0.9",  # 2**53 frame
        "1,99999999999999999999,10,20,30,60,0.9",  # id past int64
        "1,-9007199254740993,10,20,30,60,0.9",
    ])
    def test_integer_out_of_float_range_rejected(self, line):
        with pytest.raises(ParseError, match="out of range") as exc:
            parse_mot(line)
        assert exc.value.line == 1

    def test_frame_zero_rejected(self):
        with pytest.raises(ValidationError):
            parse_mot("0,-1,10,20,30,60,0.9")

    def test_nonpositive_box_rejected(self):
        with pytest.raises(ValidationError):
            parse_mot("1,-1,10,20,0,60,0.9")

    def test_world_coordinates_ignored(self):
        records = parse_mot("1,-1,10,20,30,60,0.9,5.5,6.5,7.5")
        assert records[0].conf == 0.9


class TestWriteTracks:
    def test_canonical_formatting(self):
        text = write_tracks([make_record()])
        assert text == "1,3,10.00,20.00,30.00,60.00,1.00,-1,-1,-1\n"

    def test_empty_list(self):
        assert write_tracks([]) == ""

    def test_unassigned_id_rejected(self):
        with pytest.raises(ValidationError):
            write_tracks([make_record(id=-1)])

    def test_round_trip_example(self):
        records = [make_record(), make_record(frame=2, id=4, conf=0.25)]
        assert parse_mot(write_tracks(records)) == records

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 10_000),
                st.integers(1, 500),
                st.integers(-50_000, 50_000),
                st.integers(-50_000, 50_000),
                st.integers(1, 50_000),
                st.integers(1, 50_000),
                st.integers(0, 400),
            ),
            max_size=20,
        )
    )
    def test_round_trip_property(self, raw):
        # 2-decimal-representable reals survive the canonical formatting.
        records = [
            DetectionRecord(f, i, l / 100, t / 100, w / 100, h / 100, c / 100)
            for f, i, l, t, w, h, c in raw
        ]
        assert parse_mot(write_tracks(records)) == records


class TestParseFeatures:
    def test_basic(self):
        table = parse_features("# dim=2\n1,0,1.0,0.0")
        assert table.dim == 2
        assert list(table.entries[(1, 0)]) == [1.0, 0.0]

    def test_wrong_length(self):
        with pytest.raises(ParseError):
            parse_features("# dim=2\n1,0,1.0")

    def test_duplicate_key(self):
        with pytest.raises(ParseError) as exc:
            parse_features("# dim=2\n1,0,1,0\n1,0,0,1")
        assert "(1, 0)" in str(exc.value)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_features("1,0,1.0,0.0")

    @pytest.mark.parametrize(
        "row, message",
        [("1,-1,0.5,0.5", "det_index must be a non-negative integer, got -1"),
         ("0,0,0.5,0.5", "frame must be a positive integer, got 0"),
         ("-2,0,0.5,0.5", "frame must be a positive integer, got -2")],
    )
    def test_out_of_range_key_is_positioned(self, row, message):
        # The same bounds as parse_keypoints: frames count from 1, det_index from 0.
        with pytest.raises(ParseError, match=message) as exc:
            parse_features(f"# dim=2\n1,0,1.0,0.0\n{row}\n")
        assert exc.value.line == 3


class TestParseKeypoints:
    def test_all_missing_keypoints(self):
        line = '{"frame":1,"det_index":0,"keypoints":' + str([[0, 0, 0]] * 18) + "}"
        records = parse_keypoints(line)
        assert len(records) == 1
        assert records[0].keypoints.shape == (18, 3)
        assert (records[0].keypoints == 0).all()

    def test_wrong_count(self):
        line = '{"frame":1,"det_index":0,"keypoints":' + str([[0, 0, 0]] * 17) + "}"
        with pytest.raises(ParseError):
            parse_keypoints(line)

    def test_confidence_out_of_range(self):
        triples = [[0, 0, 0]] * 17 + [[1, 2, 1.5]]
        line = '{"frame":1,"det_index":0,"keypoints":' + str(triples) + "}"
        with pytest.raises(ParseError):
            parse_keypoints(line)

    def test_non_json_line(self):
        with pytest.raises(ParseError):
            parse_keypoints("not json")

    @pytest.mark.parametrize(
        "frame, det_index, field",
        [("true", "0", "frame"), ("1", "false", "det_index"), ("1", "true", "det_index")],
    )
    def test_json_booleans_rejected(self, frame, det_index, field):
        kps = str([[0, 0, 0]] * 18)
        good = '{"frame":1,"det_index":0,"keypoints":' + kps + "}"
        line = f'{{"frame":{frame},"det_index":{det_index},"keypoints":{kps}}}'
        with pytest.raises(ParseError, match=field) as exc:
            parse_keypoints(good + "\n" + line)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "frame, det_index, keypoint, message",
        [
            ("1", "1", "9" * 400, "float range"),
            ("1", "1", "-" + "9" * 400, "float range"),
            ("1", "1", "9" * 5000, "too many digits"),
            ("9" * 5000, "1", "0", "too many digits"),
            (str(2**53), "1", "0", "frame out of range"),
            ("1", str(2**53), "0", "det_index out of range"),
        ],
        ids=["keypoint-400-digits", "keypoint-minus-400-digits", "keypoint-5000-digits",
             "frame-5000-digits", "frame-2**53", "det_index-2**53"],
    )
    def test_oversized_number_is_positioned(self, frame, det_index, keypoint, message):
        good = '{"frame":1,"det_index":0,"keypoints":' + str([[0, 0, 0]] * 18) + "}"
        kps = "[[" + keypoint + ", 0, 0]" + ", [0, 0, 0]" * 17 + "]"
        line = f'{{"frame":{frame},"det_index":{det_index},"keypoints":{kps}}}'
        with pytest.raises(ParseError, match=message) as exc:
            parse_keypoints(good + "\n" + line)
        assert exc.value.line == 2

    def test_largest_integer_ids_are_accepted(self):
        kps = str([[0, 0, 0]] * 18)
        line = f'{{"frame":{2**53 - 1},"det_index":{2**53 - 1},"keypoints":{kps}}}'
        (record,) = parse_keypoints(line)
        assert (record.frame, record.det_index) == (2**53 - 1, 2**53 - 1)

    def test_duplicate_key_is_positioned(self):
        # As in parse_features: a dict keyed by (frame, det_index) would keep the last row.
        kps = str([[0, 0, 0]] * 18)
        lines = [f'{{"frame":{f},"det_index":{i},"keypoints":{kps}}}'
                 for f, i in ((1, 0), (1, 1), (2, 0), (1, 1))]
        with pytest.raises(ParseError, match=r"duplicate key \(1, 1\)") as exc:
            parse_keypoints("\n".join(lines))
        assert exc.value.line == 4


class TestParseConfig:
    def test_basic(self):
        assert parse_config("bins=2\n# comment\nmode = pos_app\n") == {
            "bins": "2",
            "mode": "pos_app",
        }

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config("bins=2\nbins=3")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_config("bins 2")


class TestNonFiniteRejected:
    @pytest.mark.parametrize("field", range(2, 7))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_mot_box_and_conf(self, field, bad):
        fields = "1,-1,10,20,30,60,0.9".split(",")
        fields[field] = bad
        text = "1,-1,10,20,30,60,0.9\n" + ",".join(fields)
        with pytest.raises(ParseError) as exc:
            parse_mot(text)
        assert exc.value.line == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_feature_value(self, bad):
        with pytest.raises(ParseError) as exc:
            parse_features(f"# dim=2\n1,0,1.0,0.0\n1,1,0.5,{bad}")
        assert exc.value.line == 3

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", '"nan"'])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_keypoint_position(self, bad, axis):
        triple = ["1", "2", "1"]
        triple[axis] = bad
        triples = "[" + ",".join(["[0,0,0]"] * 17 + ["[" + ",".join(triple) + "]"]) + "]"
        good = '{"frame":1,"det_index":0,"keypoints":' + str([[0, 0, 0]] * 18) + "}"
        line = '{"frame":1,"det_index":1,"keypoints":' + triples + "}"
        with pytest.raises(ParseError) as exc:
            parse_keypoints(good + "\n" + line)
        assert exc.value.line == 2

    @pytest.mark.parametrize("triple", ['["a",0,0]', "[null,0,0]", "7"])
    def test_keypoint_non_numeric(self, triple):
        triples = "[" + ",".join(["[0,0,0]"] * 17 + [triple]) + "]"
        with pytest.raises(ParseError) as exc:
            parse_keypoints('{"frame":1,"det_index":0,"keypoints":' + triples + "}")
        assert exc.value.line == 1


# --- The per-line parsers the block parsers replaced, kept as an oracle. ---
# Each checks one line at a time and stops at its first broken rule; the
# keypoint parser adds one rule, that keypoint values are JSON numbers.


def _reference_int(raw, line_no, name):
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(line_no, f"non-numeric {name}: {raw!r}") from None
    if not value.is_integer():
        raise ParseError(line_no, f"{name} must be an integer, got {raw!r}")
    if abs(value) >= 2**53:
        raise ParseError(line_no, f"{name} out of range: {raw!r}")
    return int(value)


def _reference_float(raw, line_no, name):
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(line_no, f"non-numeric {name}: {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"non-finite {name}: {raw!r}")
    return value


def _reference_key(line_no, frame, det_index, seen):
    if type(frame) is not int or frame < 1:
        raise ParseError(line_no, f"frame must be a positive integer, got {frame!r}")
    if frame >= 2**53:
        raise ParseError(line_no, f"frame out of range: {frame!r}")
    if type(det_index) is not int or det_index < 0:
        raise ParseError(line_no, f"det_index must be a non-negative integer, got {det_index!r}")
    if det_index >= 2**53:
        raise ParseError(line_no, f"det_index out of range: {det_index!r}")
    if (frame, det_index) in seen:
        raise ParseError(line_no, f"duplicate key {(frame, det_index)}")
    return frame, det_index


def reference_parse_mot(text):
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 7:
            raise ParseError(line_no, f"expected >= 7 fields, got {len(fields)}")
        record = DetectionRecord(
            frame=_reference_int(fields[0], line_no, "frame"),
            id=_reference_int(fields[1], line_no, "id"),
            bb_left=_reference_float(fields[2], line_no, "bb_left"),
            bb_top=_reference_float(fields[3], line_no, "bb_top"),
            bb_width=_reference_float(fields[4], line_no, "bb_width"),
            bb_height=_reference_float(fields[5], line_no, "bb_height"),
            conf=_reference_float(fields[6], line_no, "conf"),
        )
        record.validate()
        records.append(record)
    return records


def reference_parse_features(text):
    lines = text.splitlines()
    if not lines or not lines[0].strip().startswith("# dim="):
        raise ParseError(1, "missing '# dim=<d>' header")
    try:
        dim = int(lines[0].strip()[len("# dim="):])
    except ValueError:
        raise ParseError(1, f"bad dimension header: {lines[0]!r}") from None
    if dim < 1:
        raise ParseError(1, f"dimension must be positive, got {dim}")
    entries = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2 + dim:
            raise ParseError(
                line_no, f"expected {2 + dim} fields (dim={dim}), got {len(fields)}"
            )
        frame = _reference_int(fields[0], line_no, "frame")
        key = _reference_key(
            line_no, frame, _reference_int(fields[1], line_no, "det_index"), entries
        )
        entries[key] = np.array(
            [_reference_float(f, line_no, "feature value") for f in fields[2:]],
            dtype=np.float64,
        )
    return FeatureTable(dim=dim, entries=entries)


def _reference_numbers(value):
    """JSON numbers load as int or float; true/false load as bool, an int subclass."""
    if isinstance(value, list):
        return all(_reference_numbers(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def reference_parse_keypoints(text):
    records = []
    seen = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg}") from None
        except ValueError:
            raise ParseError(line_no, "integer with too many digits") from None
        try:
            frame = obj["frame"]
            det_index = obj["det_index"]
            keypoints = obj["keypoints"]
        except (KeyError, TypeError):
            raise ParseError(line_no, "expected frame/det_index/keypoints object") from None
        seen.add(_reference_key(line_no, frame, det_index, seen))
        try:
            array = np.array(keypoints, dtype=np.float64)
        except (TypeError, ValueError):
            raise ParseError(line_no, "keypoints must be numeric (x, y, c) triples") from None
        except OverflowError:
            raise ParseError(line_no, "keypoint value outside the float range") from None
        if not _reference_numbers(keypoints):
            raise ParseError(line_no, "keypoints must be numeric (x, y, c) triples")
        if array.shape != (18, 3):
            raise ParseError(line_no, f"expected 18 keypoints, got shape {array.shape}")
        if not np.isfinite(array[:, :2]).all():
            raise ParseError(line_no, "keypoint position is not finite")
        outside = ~((array[:, 2] >= 0.0) & (array[:, 2] <= 1.0))
        if outside.any():
            i = int(np.argmax(outside))
            raise ParseError(line_no, f"keypoint {i} confidence {array[i, 2]} outside [0, 1]")
        records.append(KeypointRecord(frame=frame, det_index=det_index, keypoints=array))
    return records


def outcome(parse, text):
    """What ``parse`` makes of ``text``: ("ok", comparable value) or the error's
    type, line and message."""
    try:
        value = parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)
    if isinstance(value, FeatureTable):
        value = (value.dim, [(k, v.tobytes()) for k, v in value.entries.items()])
    elif value and isinstance(value[0], KeypointRecord):
        value = [(r.frame, type(r.frame), r.det_index, type(r.det_index), r.keypoints.shape,
                  r.keypoints.tobytes()) for r in value]
    else:
        value = [(r, tuple(map(type, vars(r).values()))) for r in value]
    return "ok", value


# Raw field tokens: valid, non-numeric, non-finite, non-integer, out of range,
# and forms that float() accepts (padding, underscores, signs, exponents).
CSV_TOKENS = ["abc", "", " ", "nan", "NaN", "inf", "-inf", "Infinity", "1.5", "-1", "0",
              "-0", "0.0", "2", "1e3", "1E-3", " 2 ", "1_0", "+3", "0x10", "1e400",
              "9007199254740992", "9007199254740991", "-9007199254740992", "3.0000000001"]
# Line ends: separators str.splitlines() knows besides "\n", and a space that
# joins two lines into one.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x1e", " "]


@st.composite
def corrupted_lines(draw, lines, tokens, *, max_fixes=3):
    """``lines`` (lists of raw fields) joined into a text after up to ``max_fixes``
    corruptions: a token in place of a field, a dropped or an extra field, a
    blank line, a repeated line."""
    lines = [list(fields) for fields in lines]
    for _ in range(draw(st.integers(0, max_fixes))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "token", "drop", "extra", "blank", "repeat"]))
        if kind == "token" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(st.sampled_from(tokens))
        elif kind == "drop" and lines[i]:
            del lines[i][draw(st.integers(0, len(lines[i]) - 1))]
        elif kind == "extra":
            lines[i].append(draw(st.sampled_from(tokens)))
        elif kind == "blank":
            lines.insert(i, [draw(st.sampled_from(["", " ", "\t"]))])
        else:
            lines.insert(draw(st.integers(i, len(lines))), list(lines[i]))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    return "".join(",".join(fields) + end for fields, end in zip(lines, breaks))


finite = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
mot_rows = st.lists(
    st.tuples(st.integers(1, 4).map(str), st.integers(-1, 4).map(str), finite, finite,
              st.floats(0.5, 100).map(repr), st.floats(0.5, 100).map(repr),
              st.floats(0, 1).map(repr)).map(lambda row: [*row, "-1", "-1", "-1"]),
    max_size=8,
)


def feature_rows(dim):
    keys = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), max_size=8, unique=True)
    return keys.flatmap(lambda keys: st.tuples(*[
        st.lists(finite, min_size=dim, max_size=dim).map(
            lambda values, key=key: [str(key[0]), str(key[1]), *values])
        for key in keys
    ]))


# Raw JSON for one keypoint value or key: numbers the parsers take, and every
# kind of value they must turn down.
JSON_TOKENS = ["0", "1", "-0", "0.5", "1.0", "1.5", "-0.1", "2", "1e400", "9" * 400, "NaN",
               "Infinity", "-Infinity", "true", "false", "null", '"1.5"', '" 3 "', '"1_0"',
               '"nan"', "[1]", "[]", "{}", str(2**53), str(2**53 - 1)]


@st.composite
def keypoint_texts(draw):
    """JSON lines built from raw tokens, so that any kind of bad value can sit anywhere."""
    keys = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), max_size=6,
                         unique=True))
    if keys and draw(st.integers(0, 7)) == 5:
        keys.insert(draw(st.integers(1, len(keys))), keys[0])
    lines = []
    for frame, det_index in keys:
        triples = [[repr(draw(st.floats(-1e4, 1e4, allow_nan=False))),
                    repr(draw(st.floats(-1e4, 1e4, allow_nan=False))),
                    repr(draw(st.floats(0, 1)))] for _ in range(18)]
        head = {"frame": str(frame), "det_index": str(det_index)}
        for _ in range(draw(st.integers(0, 2))):
            triples[draw(st.integers(0, 17))][draw(st.integers(0, 2))] = draw(
                st.sampled_from(JSON_TOKENS))
        if draw(st.integers(0, 3)) == 2:
            kind = draw(st.sampled_from(["key", "triple", "shape"]))
            if kind == "key":
                head[draw(st.sampled_from(["frame", "det_index"]))] = draw(
                    st.sampled_from(["0", "1", "-1", "1.0", "true", '"1"', "null", str(2**53)]))
            elif kind == "triple":
                triple = triples[draw(st.integers(0, 17))]
                if draw(st.booleans()):
                    triple.append("0")
                else:
                    triple.pop()
            elif draw(st.booleans()):
                del triples[draw(st.integers(0, 17))]
            else:
                triples.append(["0", "0", "0"])
        body = "[" + ",".join("[" + ",".join(t) + "]" for t in triples) + "]"
        parts = [f'"{name}":{value}' for name, value in head.items()] + [f'"keypoints":{body}']
        extra = draw(st.sampled_from([None] * 12 + ['"note":"x"', '"u":1', "drop"]))
        if extra == "drop":
            del parts[draw(st.integers(0, 2))]
        elif extra:
            parts.append(extra)
        line = "{" + ",".join(parts) + "}"
        line = draw(st.sampled_from([line] * 20 + [" " + line + " ", line[:-1], line + "x",
                                                   "\ufeff" + line, "[" + line + "]", "7"]))
        lines.append(line)
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS + ["\n\n"]), min_size=len(lines),
                           max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, breaks))


class TestBlockParsersMatchReference:
    """Each block parser gives the per-line reference's records, or its first
    error: the same type, line and message.  Small pieces put piece boundaries
    between most lines."""

    chunk = st.sampled_from([1, 7, 64, io_formats._CHUNK_CHARS])

    def check(self, parse, reference, text, chunk):
        with mock.patch.object(io_formats, "_CHUNK_CHARS", chunk):
            assert outcome(parse, text) == outcome(reference, text)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), chunk=chunk)
    def test_parse_mot(self, data, chunk):
        rows = data.draw(mot_rows)
        text = data.draw(corrupted_lines(rows, CSV_TOKENS))
        self.check(parse_mot, reference_parse_mot, text, chunk)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), chunk=chunk)
    def test_parse_features(self, data, dim, chunk):
        rows = data.draw(feature_rows(dim))
        header = data.draw(st.sampled_from([f"# dim={dim}"] * 6 + [
            "# dim=x", "# dim=0", "dim=2", "", f" # dim={dim} "]))
        text = header + "\n" + data.draw(corrupted_lines(rows, CSV_TOKENS))
        self.check(parse_features, reference_parse_features, text, chunk)

    @settings(max_examples=400, deadline=None)
    @given(text=keypoint_texts(), chunk=chunk)
    def test_parse_keypoints(self, text, chunk):
        self.check(parse_keypoints, reference_parse_keypoints, text, chunk)

    @pytest.mark.parametrize("name, config", [
        ("crossing", dict(persons=4, frames=20, crossing=True, sigma_det=2.0, kappa=0.8,
                          sigma=0.3)),
        ("crowd", dict(persons=8, frames=10, sigma_det=2.0, kappa=0.8, sigma=0.3)),
        ("reid", dict(persons=10, frames=6, kappa=0.8, sigma=0.3)),
    ])
    @pytest.mark.parametrize("chunk", [200, io_formats._CHUNK_CHARS])
    def test_synth_inputs(self, name, config, chunk):
        out = generate(SynthConfig(**config, seed=3))
        for parse, reference, text in (
            (parse_mot, reference_parse_mot, out.det_text),
            (parse_mot, reference_parse_mot, out.gt_text),
            (parse_features, reference_parse_features, out.features_text),
            (parse_keypoints, reference_parse_keypoints, out.keypoints_text),
        ):
            result = outcome(parse, text)
            assert result[0] == "ok"
            self.check(parse, reference, text, chunk)


class TestParsedRowsShareOneBlock:
    def test_feature_rows(self):
        table = parse_features("# dim=2\n1,0,1,2\n1,1,3,4\n2,0,5,6\n")
        rows = list(table.entries.values())
        assert all(row.base is rows[0].base for row in rows)
        assert rows[0].base.shape == (3, 2)
        with pytest.raises(ValueError):
            rows[1][0] = 1.0

    def test_keypoint_rows(self):
        kps = str([[0, 0, 0]] * 18)
        lines = [f'{{"frame":1,"det_index":{i},"keypoints":{kps}}}' for i in range(3)]
        records = parse_keypoints("\n".join(lines))
        assert all(r.keypoints.base is records[0].keypoints.base for r in records)
        assert records[0].keypoints.base.size == 3 * 18 * 3
        with pytest.raises(ValueError):
            records[1].keypoints[0, 0] = 1.0


class TestKeypointValuesAreJsonNumbers:
    @pytest.mark.parametrize("triple", [
        '["1.5","2","0.5"]', '[" 3 ",0,0]', '["1_0",0,0]', "[0,0,true]", "[true,false,true]",
        "[false,0,0]", "[0,null,0]",
    ])
    def test_non_number_rejected(self, triple):
        good = '{"frame":1,"det_index":0,"keypoints":' + str([[0, 0, 0]] * 18) + "}"
        triples = "[" + ",".join([triple] + ["[0,0,0]"] * 17) + "]"
        line = '{"frame":1,"det_index":1,"keypoints":' + triples + "}"
        with pytest.raises(ParseError, match="keypoints must be numeric") as exc:
            parse_keypoints(good + "\n" + line)
        assert exc.value.line == 2


class TestFirstBadLineWins:
    def test_value_error_before_a_later_json_error(self):
        good = "[" + ",".join(["[0,0,0]"] * 18) + "]"
        nan = "[" + ",".join(["[NaN,0,0]"] + ["[0,0,0]"] * 17) + "]"
        text = "\n".join([
            '{"frame":1,"det_index":0,"keypoints":' + good + "}",
            '{"frame":1,"det_index":1,"keypoints":' + nan + "}",
            "not json",
        ])
        with pytest.raises(ParseError, match="keypoint position is not finite") as exc:
            parse_keypoints(text)
        assert exc.value.line == 2

    @pytest.mark.parametrize("parse, text, message", [
        (parse_mot, "1,-1,10,20,30,60,0.9\n1,-1,nan,20,30,60,0.9\n1,-1,10",
         "non-finite bb_left"),
        (parse_mot, "1,-1,10,20,30,60,0.9\n1,-1,10,20,30,60,-1\n1,-1,abc,20,30,60,0.9",
         "conf must be non-negative"),
        (parse_features, "# dim=2\n1,0,inf,1\n1,1,abc,1", "non-finite feature value"),
        (parse_features, "# dim=2\n1,0,nan,1\n1,0,1,1", "non-finite feature value"),
        (parse_keypoints, "\n".join(
            f'{{"frame":1,"det_index":{i},"keypoints":[{first},' + ",".join(["[0,0,0]"] * 17) + "]}"
            for i, first in ((0, "[0,0,0]"), (1, "[NaN,0,0]"), (1, "[0,0,0]"))
        ), "keypoint position is not finite"),
    ])
    def test_value_rule_before_a_later_line_rule(self, parse, text, message):
        with pytest.raises((ParseError, ValidationError), match=message) as exc:
            parse(text)
        assert getattr(exc.value, "line", 2) == 2  # a ValidationError carries no line

    def test_frame_rule_before_a_later_field_in_the_line(self):
        with pytest.raises(ParseError, match="frame must be an integer, got '1.5'") as exc:
            parse_mot("1,-1,10,20,30,60,0.9\n1.5,-1,abc,20,30,60,0.9")
        assert exc.value.line == 2

    def test_numeric_rule_before_the_shape_rule(self):
        triples = "[" + ",".join(['["a",0,0]'] + ["[0,0,0]"] * 16) + "]"
        with pytest.raises(ParseError, match="keypoints must be numeric") as exc:
            parse_keypoints('{"frame":1,"det_index":0,"keypoints":' + triples + "}")
        assert exc.value.line == 1
