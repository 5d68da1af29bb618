"""Every entry point that takes a count, the S2T range, a fraction or a named
choice checks it by one rule.

``io_formats.check_count``, ``check_real`` and ``check_choice`` hold the
rules; the configs, the gallery, the bin step, the particle set, the
association step and the re-ID and MOT metrics all call them, so a bad value
is rejected by name wherever a caller sets it.
"""

import math
import re

import numpy as np
import pytest

from orientrack.association import ParticleSet, combine
from orientrack.gallery import Gallery
from orientrack.metrics import build_gallery, id_switches, idf1, split_gallery_query
from orientrack.pose_orientation import orientation_bin, orientation_bins
from orientrack.synth import SynthConfig
from orientrack.tracker import TrackerConfig

_KEYPOINTS = np.zeros((1, 18, 3))

# (entry point, the name its error gives, call with the count)
COUNTS = [
    ("TrackerConfig", "bins", lambda v: TrackerConfig(bins=v)),
    ("TrackerConfig", "particles", lambda v: TrackerConfig(particles=v)),
    ("TrackerConfig", "confirm_hits", lambda v: TrackerConfig(confirm_hits=v)),
    ("TrackerConfig", "max_age", lambda v: TrackerConfig(max_age=v)),
    ("TrackerConfig", "seed", lambda v: TrackerConfig(seed=v)),
    ("SynthConfig", "persons", lambda v: SynthConfig(persons=v)),
    ("SynthConfig", "frames", lambda v: SynthConfig(frames=v)),
    ("SynthConfig", "dim", lambda v: SynthConfig(dim=v)),
    ("SynthConfig", "seed", lambda v: SynthConfig(seed=v)),
    ("Gallery", "bin count", lambda v: Gallery("orient", bins=v)),
    ("Gallery", "seed", lambda v: Gallery("random", bins=2, seed=v)),
    ("orientation_bin", "bin count", lambda v: orientation_bin(0.3, v)),
    ("orientation_bins", "bin count", lambda v: orientation_bins(_KEYPOINTS, v)),
    ("ParticleSet.initial", "particles", ParticleSet.initial),
    ("split_gallery_query", "seed", lambda v: split_gallery_query([], 0.8, v)),
    ("build_gallery", "bin count", lambda v: build_gallery([], "orient", bins=v)),
    ("build_gallery", "seed", lambda v: build_gallery([], "random", bins=2, seed=v)),
]
SMAX = [
    ("TrackerConfig", lambda v: TrackerConfig(smax=v)),
    ("orientation_bin", lambda v: orientation_bin(0.3, 2, v)),
    ("orientation_bins", lambda v: orientation_bins(_KEYPOINTS, 2, v)),
]
BAD_COUNTS = [True, 2.0, 2.5, math.nan, math.inf, -1, "2", None]
BAD_SMAX = [True, 0.0, math.nan, math.inf]
COUNT_IDS = [f"{entry}-{name}" for entry, name, _ in COUNTS]


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("entry, name, call", COUNTS, ids=COUNT_IDS)
def test_bad_count_is_rejected_by_name(entry, name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(value)


@pytest.mark.parametrize("entry, name, call", COUNTS, ids=COUNT_IDS)
def test_numpy_integer_count_is_accepted(entry, name, call):
    call(np.int64(2))


@pytest.mark.parametrize("value", BAD_SMAX, ids=repr)
@pytest.mark.parametrize("entry, call", SMAX, ids=[entry for entry, _ in SMAX])
def test_bad_smax_is_rejected_by_name(entry, call, value):
    with pytest.raises(ValueError, match="^smax must be "):
        call(value)


# (entry point, the name its error gives, call with the fraction)
FRACTIONS = [
    ("split_gallery_query", "gallery fraction", lambda v: split_gallery_query([], v)),
    ("idf1", "IoU threshold", lambda v: idf1([], [], v)),
    ("id_switches", "IoU threshold", lambda v: id_switches([], [], v)),
]
BAD_FRACTIONS = [True, 0.0, 1.0, -0.5, math.nan, math.inf, "0.5", None, 0.5j,
                 np.array([0.5, 0.6])]


@pytest.mark.parametrize("value", BAD_FRACTIONS, ids=repr)
@pytest.mark.parametrize("entry, name, call", FRACTIONS, ids=[e for e, _, _ in FRACTIONS])
def test_bad_fraction_is_rejected_by_name(entry, name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        call(value)


@pytest.mark.parametrize("entry, name, call", FRACTIONS, ids=[e for e, _, _ in FRACTIONS])
def test_numpy_float_fraction_is_accepted(entry, name, call):
    call(np.float64(0.5))


# (entry point, the name its error gives, call with the choice, a valid choice
# that goes into a numpy array, which is rejected too)
CHOICES = [
    ("TrackerConfig", "mode", lambda v: TrackerConfig(mode=v), "pos_app"),
    ("TrackerConfig", "gallery", lambda v: TrackerConfig(gallery=v), "orient"),
    ("Gallery", "strategy", Gallery, "full"),
    ("combine", "mode", lambda v: combine(None, None, v), "pos_only"),
    ("SynthConfig", "crossing", lambda v: SynthConfig(crossing=v), True),
]
BAD_CHOICES = ["nope", None, 3]
BAD_FLAGS = ["no", 1, np.True_]  # for the bool choice, crossing
CHOICE_CASES = [
    (entry, name, call, value)
    for entry, name, call, valid in CHOICES
    for value in BAD_CHOICES + [np.array([valid])] + (BAD_FLAGS if valid is True else [])
]


@pytest.mark.parametrize(
    "entry, name, call, value", CHOICE_CASES,
    ids=[f"{entry}-{name}-{value!r}" for entry, name, _, value in CHOICE_CASES],
)
def test_bad_choice_is_rejected_by_name(entry, name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be one of "):
        call(value)
