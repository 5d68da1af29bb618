import numpy as np
import pytest

from orientrack.cli import _parse_reid_mode, build_parser, main
from orientrack.io_formats import parse_mot


def run(argv):
    return main(argv)


def write_synth(tmp_path, config_text):
    config = tmp_path / "synth.cfg"
    config.write_text(config_text)
    out_dir = tmp_path / "data"
    assert run(["synth", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    return out_dir


class TestParseReidMode:
    def test_simple_modes(self):
        assert _parse_reid_mode("full") == ("full", 1)
        assert _parse_reid_mode("avg") == ("averaged", 1)

    def test_binned_modes(self):
        assert _parse_reid_mode("random:3") == ("random", 3)
        assert _parse_reid_mode("orient:5") == ("orient", 5)

    def test_bad_modes(self):
        for bad in ("orient", "random:x", "orient:0", "mystery"):
            with pytest.raises(ValueError):
                _parse_reid_mode(bad)


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["track", "--bogus", "x"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["dance"])
        assert exc.value.code == 2

    def test_missing_file_returns_1(self, tmp_path):
        code = run(
            ["eval-mot", "--gt", str(tmp_path / "absent.txt"),
             "--pred", str(tmp_path / "absent.txt"),
             "--out", str(tmp_path / "out.csv")]
        )
        assert code == 1

    def test_parse_error_returns_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not,a,mot,line\n")
        code = run(
            ["eval-mot", "--gt", str(bad), "--pred", str(bad),
             "--out", str(tmp_path / "out.csv")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "line", ["width=nan", "height=inf", "kappa=nan", "sigma=nan", "sigma_det=inf", "seed=-1"]
    )
    def test_bad_synth_value_returns_1(self, tmp_path, capsys, line):
        config = tmp_path / "synth.cfg"
        config.write_text(f"persons=1\nframes=2\n{line}\n")
        out_dir = tmp_path / "data"
        assert run(["synth", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {line.split('=')[0]} must be")
        assert not out_dir.exists()

    @pytest.mark.parametrize("line, least", [("persons=0", 1), ("frames=0", 1), ("dim=1", 2)])
    def test_out_of_range_synth_count_names_its_key(self, tmp_path, capsys, line, least):
        config = tmp_path / "synth.cfg"
        config.write_text(f"{line}\n")
        out_dir = tmp_path / "data"
        assert run(["synth", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        key, value = line.split("=")
        assert capsys.readouterr().err == f"error: {key} must be >= {least}, got {value}\n"
        assert not out_dir.exists()


class TestPipeline:
    def test_single_person_noiseless_tracking_is_perfect(self, tmp_path):
        data = write_synth(tmp_path, "persons=1\nframes=30\ncrossing=true\nseed=0\n")
        tracker_cfg = tmp_path / "tracker.cfg"
        tracker_cfg.write_text("mode=pos_app\ngallery=orient\nbins=2\nseed=0\n")
        pred = tmp_path / "pred.txt"
        assert run(
            ["track", "--det", str(data / "det.txt"),
             "--features", str(data / "features.txt"),
             "--keypoints", str(data / "keypoints.jsonl"),
             "--config", str(tracker_cfg), "--out", str(pred)]
        ) == 0
        scores = tmp_path / "scores.csv"
        assert run(
            ["eval-mot", "--gt", str(data / "gt.txt"), "--pred", str(pred),
             "--out", str(scores)]
        ) == 0
        values = dict(
            line.split(",") for line in scores.read_text().splitlines()[1:]
        )
        # Confirmation delay costs one frame; identity must stay perfect.
        assert float(values["idf1"]) > 0.9
        assert int(values["id_switches"]) == 0
        assert parse_mot(pred.read_text())  # output is re-parseable

    def test_eval_reid_separable_full_gallery(self, tmp_path):
        data = write_synth(
            tmp_path, "persons=4\nframes=20\nkappa=0.3\nsigma=0.05\nseed=1\n"
        )
        out = tmp_path / "reid.csv"
        assert run(
            ["eval-reid", "--features", str(data / "features.txt"),
             "--ids-from-mot", str(data / "gt.txt"), "--mode", "full",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,bins,rank1"
        mode, bins, score = lines[1].split(",")
        assert (mode, bins) == ("full", "1")
        assert float(score) == 1.0

    def test_eval_reid_bin_sweep_rows(self, tmp_path):
        data = write_synth(
            tmp_path, "persons=4\nframes=20\nkappa=0.8\nsigma=0.3\nseed=2\n"
        )
        out = tmp_path / "sweep.csv"
        assert run(
            ["eval-reid", "--features", str(data / "features.txt"),
             "--ids-from-mot", str(data / "gt.txt"),
             "--keypoints", str(data / "keypoints.jsonl"),
             "--mode", "orient:2", "--sweep-bins", "1,2,3,5,9",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["1", "2", "3", "5", "9"]
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[2]) <= 1.0

    def test_eval_reid_sweep_csv_is_pinned(self, tmp_path):
        # Every bin count ranks the same gallery/query split.
        data = write_synth(
            tmp_path, "persons=4\nframes=20\nkappa=0.8\nsigma=0.3\nseed=2\n"
        )
        out = tmp_path / "sweep.csv"
        assert run(
            ["eval-reid", "--features", str(data / "features.txt"),
             "--ids-from-mot", str(data / "gt.txt"),
             "--keypoints", str(data / "keypoints.jsonl"),
             "--mode", "orient:2", "--sweep-bins", "1,2,3,5,9",
             "--out", str(out)]
        ) == 0
        assert out.read_text() == (
            "mode,bins,rank1\norient,1,1.000000\norient,2,0.875000\n"
            "orient,3,0.875000\norient,5,1.000000\norient,9,1.000000\n"
        )

    def test_orient_mode_without_keypoints_fails_before_parsing(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.txt")
        assert run(
            ["eval-reid", "--features", absent, "--ids-from-mot", absent,
             "--mode", "orient:2", "--out", str(tmp_path / "out.csv")]
        ) == 1
        assert "orient mode requires --keypoints" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["random:2", "full"])
    @pytest.mark.parametrize("sweep, bad", [("2,x", "'x'"), ("2,,4", "''"), ("", "''"),
                                            ("3,0", "'0'"), ("-1", "'-1'"), ("2.5", "'2.5'")])
    def test_bad_sweep_bins_fail_before_parsing(self, tmp_path, capsys, mode, sweep, bad):
        absent = str(tmp_path / "absent.txt")
        assert run(
            ["eval-reid", "--features", absent, "--ids-from-mot", absent,
             "--mode", mode, "--sweep-bins", sweep, "--out", str(tmp_path / "out.csv")]
        ) == 1
        err = capsys.readouterr().err
        assert "--sweep-bins" in err and bad in err
        assert "absent.txt" not in err

    @pytest.mark.parametrize("flag, value", [("--split", "1.5"), ("--split", "0"),
                                             ("--split", "nan"), ("--seed", "-1")])
    def test_bad_eval_reid_flag_fails_before_reading(self, tmp_path, capsys, flag, value):
        absent = str(tmp_path / "absent.txt")
        assert run(
            ["eval-reid", "--features", absent, "--ids-from-mot", absent,
             "--mode", "full", flag, value, "--out", str(tmp_path / "out.csv")]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must") and value in err
        assert "absent.txt" not in err

    @pytest.mark.parametrize("value", ["0", "1", "-0.5", "nan"])
    def test_bad_iou_fails_before_reading(self, tmp_path, capsys, value):
        absent = str(tmp_path / "absent.txt")
        assert run(
            ["eval-mot", "--gt", absent, "--pred", absent, "--iou", value,
             "--out", str(tmp_path / "out.csv")]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --iou must") and "absent.txt" not in err

    @pytest.mark.parametrize(
        "config, flags, missing",
        [("mode=pos_app\ngallery=full\n", [], "--features"),
         ("mode=app_only\ngallery=orient\n", [], "--features"),
         ("mode=pos_app\ngallery=orient\n", ["--features"], "--keypoints"),
         ("mode=app_only\ngallery=orient\n", ["--features"], "--keypoints")],
    )
    def test_track_without_required_input_fails_before_reading(
        self, tmp_path, capsys, config, flags, missing
    ):
        # Every data path is absent: the flag check must come before any read.
        absent = str(tmp_path / "absent.txt")
        tracker_cfg = tmp_path / "tracker.cfg"
        tracker_cfg.write_text(config)
        argv = ["track", "--det", absent, "--config", str(tracker_cfg),
                "--out", str(tmp_path / "out.txt")]
        for flag in flags:
            argv += [flag, absent]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"requires {missing}" in err
        assert "absent.txt" not in err

    def test_track_pos_only_needs_neither_features_nor_keypoints(self, tmp_path):
        data = write_synth(tmp_path, "persons=2\nframes=10\nseed=5\n")
        tracker_cfg = tmp_path / "tracker.cfg"
        tracker_cfg.write_text("mode=pos_only\ngallery=orient\n")
        pred = tmp_path / "pred.txt"
        assert run(["track", "--det", str(data / "det.txt"), "--config", str(tracker_cfg),
                    "--out", str(pred)]) == 0
        assert parse_mot(pred.read_text())

    def test_eval_mot_csv_is_pinned(self, tmp_path):
        # A position-only tracker on four crossing persons: imperfect
        # identities with two switches, scored as before the IoU table.
        data = write_synth(
            tmp_path, "persons=4\nframes=30\ncrossing=true\nsigma_det=2.0\nseed=3\n"
        )
        tracker_cfg = tmp_path / "tracker.cfg"
        tracker_cfg.write_text("mode=pos_only\nseed=3\n")
        pred = tmp_path / "pred.txt"
        assert run(
            ["track", "--det", str(data / "det.txt"),
             "--features", str(data / "features.txt"),
             "--keypoints", str(data / "keypoints.jsonl"),
             "--config", str(tracker_cfg), "--out", str(pred)]
        ) == 0
        scores = tmp_path / "scores.csv"
        assert run(
            ["eval-mot", "--gt", str(data / "gt.txt"), "--pred", str(pred),
             "--out", str(scores)]
        ) == 0
        assert scores.read_text() == (
            "metric,value\nidf1,0.864407\nidtp,102\nidfp,14\nidfn,18\nid_switches,2\n"
        )

    def test_synth_outputs_all_four_files(self, tmp_path):
        data = write_synth(tmp_path, "persons=2\nframes=5\n")
        for name in ("gt.txt", "det.txt", "features.txt", "keypoints.jsonl"):
            assert (data / name).exists()

    def test_track_determinism_across_runs(self, tmp_path):
        data = write_synth(
            tmp_path, "persons=3\nframes=25\nsigma_det=1.5\nkappa=0.5\nseed=4\n"
        )
        tracker_cfg = tmp_path / "tracker.cfg"
        tracker_cfg.write_text("seed=6\n")
        outputs = []
        for name in ("a.txt", "b.txt"):
            pred = tmp_path / name
            assert run(
                ["track", "--det", str(data / "det.txt"),
                 "--features", str(data / "features.txt"),
                 "--keypoints", str(data / "keypoints.jsonl"),
                 "--config", str(tracker_cfg), "--out", str(pred)]
            ) == 0
            outputs.append(pred.read_bytes())
        assert outputs[0] == outputs[1]
