"""Synthetic labeled sequences: ground truth, detections, features, keypoints.

Each person has an identity vector plus four per-quadrant appearance offsets,
so features genuinely depend on heading.  Non-crossing persons walk a circle
(heading sweeps the full range); the crossing scenario sends straight
constant-velocity walkers through the image center, creating the positional
ambiguity that appearance must resolve.  Keypoints encode the heading into
the torso so the orientation ratio recovers sign(cos theta).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io_formats import COCO_KEYPOINT_COUNT, config_from_mapping
from .pose_orientation import LEFT_HIP, LEFT_SHOULDER, RIGHT_HIP, RIGHT_SHOULDER

TWO_PI = 2.0 * math.pi

# Torso geometry relative to the box: half-width fraction, half-height
# fraction, floor keeping the width nonzero at profile views, and the
# lean factor that lets S2T discriminate more of the heading range.
TORSO_HALF_WIDTH = 0.25
TORSO_HALF_HEIGHT = 0.15
PROFILE_WIDTH_FLOOR = 0.02
LEAN_FACTOR = 0.25


@dataclass
class SynthConfig:
    persons: int = 5
    frames: int = 40
    width: float = 1280.0
    height: float = 960.0
    dim: int = 8
    kappa: float = 0.0  # orientation coupling strength
    sigma: float = 0.0  # feature noise
    sigma_det: float = 0.0  # detection box jitter, px
    crossing: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.persons < 1 or self.frames < 1:
            raise ValueError("persons and frames must be >= 1")
        if self.dim < 2:
            raise ValueError(f"feature dimension must be >= 2, got {self.dim}")
        for name in ("kappa", "sigma", "sigma_det"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        for name in ("width", "height"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SynthConfig":
        return config_from_mapping(cls, mapping, "synth config")


@dataclass
class SynthOutput:
    gt_text: str
    det_text: str
    features_text: str
    keypoints_text: str


def quadrant(theta: float) -> int:
    """Quadrant index of a heading angle: floor(wrap(theta) / (pi/2))."""
    wrapped = theta % TWO_PI
    return min(int(wrapped // (TWO_PI / 4.0)), 3)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _trajectory(
    cfg: SynthConfig, rng: np.random.Generator, person: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (cx, cy) positions and heading angles for one person."""
    n = cfg.frames
    if cfg.crossing:
        center = np.array([cfg.width / 2.0, cfg.height / 2.0])
        # Walking speed ~1 px/frame keeps the mid-sequence crossing
        # ambiguous for many frames relative to the detection jitter.
        radius = min(0.5 * n, 0.45 * min(cfg.width, cfg.height))
        angle = TWO_PI * person / cfg.persons + rng.normal(0.0, 0.05)
        start = center + radius * np.array([math.cos(angle), math.sin(angle)])
        # Paths pass within a couple of pixels of the shared center at
        # nearly the same time, so position alone cannot keep identities
        # apart through the encounter.
        target = center + rng.normal(0.0, 2.0, size=2)
        velocity = (target - start) / max(n / 2.0, 1.0)
        t = np.arange(n)[:, None]
        positions = start[None, :] + t * velocity[None, :]
        headings = np.full(n, math.atan2(velocity[1], velocity[0]))
        return positions, headings
    # Circular walk: heading sweeps a full turn over the sequence.
    margin = 0.35 * min(cfg.width, cfg.height)
    cx = rng.uniform(margin, cfg.width - margin)
    cy = rng.uniform(margin, cfg.height - margin)
    radius = rng.uniform(0.15, 0.3) * min(cfg.width, cfg.height)
    phase = rng.uniform(0.0, TWO_PI)
    omega = TWO_PI / n
    t = np.arange(n)
    angles = phase + omega * t
    positions = np.stack(
        [cx + radius * np.cos(angles), cy + radius * np.sin(angles)], axis=1
    )
    headings = angles + TWO_PI / 4.0  # tangent direction
    return positions, headings


def _torso_keypoints(
    cx: float, cy: float, box_w: float, box_h: float, theta: float
) -> list[list[float]]:
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    sign = 1.0 if cos_t >= 0 else -1.0
    half_w = TORSO_HALF_WIDTH * box_w * (abs(cos_t) + PROFILE_WIDTH_FLOOR)
    half_h = TORSO_HALF_HEIGHT * box_h * (1.0 + LEAN_FACTOR * sin_t)
    x_right = cx + sign * half_w
    x_left = cx - sign * half_w
    points = [[0.0, 0.0, 0.0] for _ in range(COCO_KEYPOINT_COUNT)]
    points[RIGHT_SHOULDER] = [x_right, cy - half_h, 1.0]
    points[LEFT_SHOULDER] = [x_left, cy - half_h, 1.0]
    points[RIGHT_HIP] = [x_right, cy + half_h, 1.0]
    points[LEFT_HIP] = [x_left, cy + half_h, 1.0]
    return points


def generate(cfg: SynthConfig) -> SynthOutput:
    """Generate the four mutually consistent files for one scenario."""
    rng = np.random.default_rng(cfg.seed)

    identity = [_unit(rng, cfg.dim) for _ in range(cfg.persons)]
    quadrant_offsets = [
        [_unit(rng, cfg.dim) for _ in range(4)] for _ in range(cfg.persons)
    ]
    box_w = [40.0 * (1.0 + 0.1 * rng.random()) for _ in range(cfg.persons)]
    box_h = [80.0 * (1.0 + 0.1 * rng.random()) for _ in range(cfg.persons)]
    trajectories = [_trajectory(cfg, rng, m) for m in range(cfg.persons)]

    gt_lines: list[str] = []
    det_lines: list[str] = []
    feat_lines: list[str] = [f"# dim={cfg.dim}"]
    kp_lines: list[str] = []

    for t in range(cfg.frames):
        frame = t + 1
        for m in range(cfg.persons):
            positions, headings = trajectories[m]
            cx, cy = positions[t]
            theta = float(headings[t])
            w, h = box_w[m], box_h[m]
            left, top = cx - w / 2.0, cy - h / 2.0
            gt_lines.append(
                f"{frame},{m + 1},{left:.2f},{top:.2f},{w:.2f},{h:.2f},1.00,-1,-1,-1"
            )

            jitter = rng.normal(0.0, cfg.sigma_det, size=4) if cfg.sigma_det > 0 else np.zeros(4)
            det_w = max(w + jitter[2], 1.0)
            det_h = max(h + jitter[3], 1.0)
            det_lines.append(
                f"{frame},-1,{left + jitter[0]:.2f},{top + jitter[1]:.2f},"
                f"{det_w:.2f},{det_h:.2f},1.00,-1,-1,-1"
            )

            g = identity[m] + cfg.kappa * quadrant_offsets[m][quadrant(theta)]
            if cfg.sigma > 0:
                # Unit-norm noise direction so sigma is the noise magnitude
                # regardless of the feature dimension.
                g = g + cfg.sigma * _unit(rng, cfg.dim)
            g = g / np.linalg.norm(g)
            values = ",".join(f"{v:.6f}" for v in g)
            feat_lines.append(f"{frame},{m},{values}")

            kp_lines.append(
                json.dumps(
                    {
                        "frame": frame,
                        "det_index": m,
                        "keypoints": [
                            [round(x, 4), round(y, 4), c]
                            for x, y, c in _torso_keypoints(cx, cy, w, h, theta)
                        ],
                    },
                    separators=(",", ":"),
                )
            )

    return SynthOutput(
        gt_text="\n".join(gt_lines) + "\n",
        det_text="\n".join(det_lines) + "\n",
        features_text="\n".join(feat_lines) + "\n",
        keypoints_text="\n".join(kp_lines) + "\n",
    )


def generate_to_dir(cfg: SynthConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write the four generated files into a directory; returns their paths."""
    out = generate(cfg)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "gt": directory / "gt.txt",
        "det": directory / "det.txt",
        "features": directory / "features.txt",
        "keypoints": directory / "keypoints.jsonl",
    }
    paths["gt"].write_text(out.gt_text)
    paths["det"].write_text(out.det_text)
    paths["features"].write_text(out.features_text)
    paths["keypoints"].write_text(out.keypoints_text)
    return paths
