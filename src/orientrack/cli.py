"""Command-line interface: track, eval-reid, eval-mot, synth subcommands.

All outputs are machine-readable CSV; exit codes are 0 on success, 1 on
data/file errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import association, metrics, synth, tracker
from .io_formats import parse_config, parse_features, parse_keypoints, parse_mot
from .io_formats import ParseError, ValidationError, check_count, check_real, write_tracks

_MODE_STRATEGIES = {"full": "full", "avg": "averaged"}


def _read(path: str) -> str:
    return Path(path).read_text()


def _bin_count(entry: str, where: str) -> int:
    """Parse one bin count, an integer >= 1; ``where`` names its source in errors."""
    try:
        count = int(entry)
    except ValueError:
        raise ValueError(f"bad bin count {entry!r} in {where}") from None
    return check_count(count, f"bin count {entry!r} in {where}", 1)


def _parse_reid_mode(raw: str) -> tuple[str, int]:
    """Parse 'full', 'avg', 'random:B' or 'orient:B' into (strategy, bins)."""
    if raw in _MODE_STRATEGIES:
        return _MODE_STRATEGIES[raw], 1
    name, sep, bins = raw.partition(":")
    if name in ("random", "orient") and sep:
        return name, _bin_count(bins, f"mode {raw!r}")
    raise ValueError(f"unknown re-ID mode {raw!r}")


def _parse_sweep_bins(raw: str) -> list[int]:
    """Parse '--sweep-bins 1,2,5' into bin counts, by the rules of a mode's B."""
    return [_bin_count(entry, f"--sweep-bins {raw!r}") for entry in raw.split(",")]


def _cmd_track(args: argparse.Namespace) -> int:
    config = tracker.config_from_text(_read(args.config))
    if config.mode != association.POS_ONLY:
        if args.features is None:
            raise ValueError(f"mode={config.mode} requires --features")
        if config.gallery == "orient" and args.keypoints is None:
            raise ValueError(f"mode={config.mode} with gallery=orient requires --keypoints")
    records = tracker.run_sequence(
        config,
        _read(args.det),
        _read(args.features) if args.features else None,
        _read(args.keypoints) if args.keypoints else None,
    )
    Path(args.out).write_text(write_tracks(records))
    return 0


def _cmd_eval_reid(args: argparse.Namespace) -> int:
    strategy, bins = _parse_reid_mode(args.mode)
    if strategy == "orient" and args.keypoints is None:
        raise ValueError("orient mode requires --keypoints")
    sweep = None if args.sweep_bins is None else _parse_sweep_bins(args.sweep_bins)
    check_real(args.split, "--split", "fraction")
    check_count(args.seed, "--seed", 0)
    bin_counts = sweep if sweep and strategy in ("random", "orient") else [bins]
    items = metrics.label_features(
        parse_features(_read(args.features)),
        parse_mot(_read(args.ids_from_mot)),
        parse_keypoints(_read(args.keypoints)) if args.keypoints is not None else None,
    )

    gallery_items, query_items = metrics.split_gallery_query(items, args.split, args.seed)
    lines = ["mode,bins,rank1"]
    for count in bin_counts:
        gallery = metrics.build_gallery(
            gallery_items, strategy, bins=count, seed=args.seed
        )
        score = metrics.rank1(gallery, query_items)
        lines.append(f"{strategy},{count},{score:.6f}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_eval_mot(args: argparse.Namespace) -> int:
    check_real(args.iou, "--iou", "fraction")
    scores = metrics.idf1(
        parse_mot(_read(args.gt)), parse_mot(_read(args.pred)), args.iou
    )
    lines = [
        "metric,value",
        f"idf1,{scores.idf1:.6f}",
        f"idtp,{scores.idtp}",
        f"idfp,{scores.idfp}",
        f"idfn,{scores.idfn}",
        f"id_switches,{scores.id_switches}",
    ]
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = synth.SynthConfig.from_mapping(parse_config(_read(args.config)))
    synth.generate_to_dir(cfg, args.out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orientrack",
        description="Orientation-aware tracking-by-detection and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a sequence")
    p_track.add_argument("--det", required=True)
    p_track.add_argument("--features")
    p_track.add_argument("--keypoints")
    p_track.add_argument("--config", required=True)
    p_track.add_argument("--out", required=True)
    p_track.set_defaults(func=_cmd_track)

    p_reid = sub.add_parser("eval-reid", help="rank-1 accuracy per gallery strategy")
    p_reid.add_argument("--features", required=True)
    p_reid.add_argument("--ids-from-mot", required=True)
    p_reid.add_argument("--keypoints")
    p_reid.add_argument("--mode", required=True,
                        help="full | avg | random:B | orient:B")
    p_reid.add_argument("--split", type=float, default=0.8)
    p_reid.add_argument("--seed", type=int, default=0)
    p_reid.add_argument("--sweep-bins",
                        help="comma-separated bin counts >= 1; ignored for full and avg")
    p_reid.add_argument("--out", required=True)
    p_reid.set_defaults(func=_cmd_eval_reid)

    p_mot = sub.add_parser("eval-mot", help="IDF1 and identity-switch scores")
    p_mot.add_argument("--gt", required=True)
    p_mot.add_argument("--pred", required=True)
    p_mot.add_argument("--iou", type=float, default=0.5)
    p_mot.add_argument("--out", required=True)
    p_mot.set_defaults(func=_cmd_eval_mot)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
