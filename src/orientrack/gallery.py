"""Per-person appearance feature stores with interchangeable retention strategies.

Strategies:
  * ``full``     - keep every inserted feature (memory grows with detections)
  * ``averaged`` - one running-average row per person
  * ``random``   - B running-average rows, bin drawn from a seeded generator
  * ``orient``   - B running-average rows indexed by orientation bin

All four share one store: a ``(rows, d)`` vector matrix with an owner id and
an insert count per row, so binned memory is proportional to persons x bins.
``distances`` reads it as one detections x persons nearest-row matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

STRATEGIES = ("full", "averaged", "random", "orient")


class Gallery:
    """Appearance store keyed by person (or track) id.

    Single writer per instance; concurrent read-only queries are safe
    between mutations.
    """

    def __init__(self, strategy: str, bins: int = 1, seed: int = 0):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
        if bins < 1:
            raise ValueError(f"bin count must be >= 1, got {bins}")
        self.strategy = strategy
        self.bins = 1 if strategy == "averaged" else bins
        self._rng = np.random.default_rng(seed)
        self._dim: int | None = None
        # Rows [0, _rows) are live; capacity doubles when full.
        self._rows = 0
        self._vectors = np.empty((0, 0))
        self._owners = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        # Binned strategies: (person, bin) -> row of its running mean.
        self._row_of: dict[tuple[int, int], int] = {}

    def __contains__(self, person: int) -> bool:
        return bool(np.any(self._owners[: self._rows] == person))

    def _block(self, features) -> np.ndarray:
        """Validate an (n, d) block of finite features against the gallery dimension."""
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must form an (n, d) block, got shape {feats.shape}")
        if self._dim is not None and feats.shape[1] != self._dim:
            raise ValueError(
                f"feature dimension {feats.shape[1]} != gallery dimension {self._dim}"
            )
        if not np.isfinite(feats).all():
            raise ValueError("feature contains non-finite values")
        return feats

    def insert(self, person: int, feat: np.ndarray, bin: int | None = None) -> None:
        """Insert a feature for a person; binned strategies update a running mean."""
        feat = self._block([feat])[0]
        self._dim = feat.shape[0]
        if self.strategy == "full":
            self._append(person, feat)
            return
        if self.strategy == "averaged":
            target = 0
        elif self.strategy == "random":
            target = int(self._rng.integers(self.bins))
        else:  # orient
            if bin is None:
                raise ValueError("orientation-binned gallery requires an explicit bin")
            if not 0 <= bin < self.bins:
                raise ValueError(f"bin {bin} out of range [0, {self.bins})")
            target = bin
        row = self._row_of.get((person, target))
        if row is None:
            self._row_of[(person, target)] = self._append(person, feat)
        else:
            count = int(self._counts[row])
            self._vectors[row] = (count * self._vectors[row] + feat) / (count + 1)
            self._counts[row] = count + 1

    def _append(self, person: int, feat: np.ndarray) -> int:
        row = self._rows
        if row == len(self._owners):
            # np.resize keeps the leading rows; the tail is unused capacity.
            capacity = max(2 * row, 8)
            self._vectors = np.resize(self._vectors, (capacity, feat.shape[0]))
            self._owners = np.resize(self._owners, capacity)
            self._counts = np.resize(self._counts, capacity)
        self._vectors[row] = feat
        self._owners[row] = person
        self._counts[row] = 1
        self._rows = row + 1
        return row

    def distances(self, features: Sequence[np.ndarray], persons: Sequence[int]) -> np.ndarray:
        """Euclidean distance from each feature to each person's nearest stored row.

        Returns a (len(features), len(persons)) matrix; a person without
        stored rows gets ``inf`` in its column.
        """
        if not len(features):
            return np.empty((0, len(persons)))
        feats = self._block(features)
        wanted, column = np.unique(np.asarray(persons, dtype=np.int64), return_inverse=True)
        out = np.full((len(feats), len(wanted)), np.inf)
        owners = self._owners[: self._rows]
        rows = np.isin(owners, wanted)
        if rows.any():
            dist = np.linalg.norm(self._vectors[: self._rows][rows] - feats[:, None, :], axis=2)
            np.minimum.at(out, (slice(None), np.searchsorted(wanted, owners[rows])), dist)
        return out[:, column]

    def min_distance(self, person: int, feat: np.ndarray) -> float:
        """Euclidean distance from feat to the person's nearest stored feature."""
        feat = self._block([feat])[0]
        if person not in self:
            raise KeyError(f"person {person} has no stored features")
        return float(self.distances([feat], [person])[0, 0])

    def nearest_person(self, feat: np.ndarray) -> tuple[int, float]:
        """Person minimizing min_distance; ties broken by smallest person id."""
        if self._rows == 0:
            raise KeyError("empty gallery")
        feat = self._block([feat])[0]
        dist = np.linalg.norm(self._vectors[: self._rows] - feat, axis=1)
        best = dist.min()
        return int(self._owners[: self._rows][dist == best].min()), float(best)

    def stored_vectors(self) -> int:
        """Total number of stored vectors (running means count as one each)."""
        return self._rows
