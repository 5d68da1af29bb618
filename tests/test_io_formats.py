import pytest
from hypothesis import given, strategies as st

from orientrack.io_formats import (
    DetectionRecord,
    ParseError,
    ValidationError,
    parse_config,
    parse_features,
    parse_keypoints,
    parse_mot,
    write_tracks,
)


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
