"""Every entry point that takes a count or the S2T range checks it by one rule.

``io_formats.check_count`` and ``check_real`` hold the rules; the configs, the
gallery, the bin step, the particle set and the re-ID helpers all call them,
so a bad value is rejected by name wherever a caller sets it.
"""

import math
import re

import numpy as np
import pytest

from orientrack.association import ParticleSet
from orientrack.gallery import Gallery
from orientrack.metrics import build_gallery, split_gallery_query
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
