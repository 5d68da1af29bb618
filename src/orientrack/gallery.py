"""Per-person appearance feature stores with interchangeable retention strategies.

Strategies:
  * ``full``     - keep every inserted feature (memory grows with detections)
  * ``averaged`` - one running-average row per person
  * ``random``   - B running-average rows, bin drawn from a seeded generator
  * ``orient``   - B running-average rows indexed by orientation bin

All four share one store: a ``(rows, d)`` vector matrix with an owner id and
an insert count per row, so binned memory is proportional to persons x bins.
The store holds exactly its rows, with no spare capacity: a block insert
appends its new rows in one copy, and ``discard`` keeps the other rows.
``distances`` reads every stored row, by owner segments, into one
detections x persons nearest-row matrix.

Distances are summed as ``np.linalg.norm`` sums them, byte for byte, but with
whole-array adds instead of one reduction per row pair.  ``_pairwise_sum``
writes out numpy's ``pairwise_sum`` order over a contiguous axis of length d:
a running sum below 8; up to 128, eight interleaved partial sums combined as
a tree, then the tail in order; above 128, the same on two halves split at a
multiple of 8.  Verified against ``np.add.reduce`` on numpy 2.4.6; the tests
check it again on the numpy that runs them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

STRATEGIES = ("full", "averaged", "random", "orient")


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis of length d, in numpy's ``pairwise_sum`` order.

    Below 8 values that is a running sum, left to ``np.add.reduce``.  Up to
    128 it is eight partial sums ``r_j = x_j + x_(j+8) + ...`` over the whole
    8-wide blocks, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then
    the tail added in order.  Above 128 the axis splits at the largest
    multiple of 8 not above d/2, and each part is summed the same way.  Each
    step is one add over every leading index at once.

    Equals ``np.add.reduce(x, axis=-1)`` byte for byte, save that a sum of
    -0.0 terms stays -0.0 here where numpy's +0.0 start makes it +0.0; a
    square is never -0.0.
    """
    d = x.shape[-1]
    if d < 8:
        return np.add.reduce(x, axis=-1)
    if d > 128:
        half = d // 2 - d // 2 % 8
        return _pairwise_sum(x[..., :half]) + _pairwise_sum(x[..., half:])
    whole = d - d % 8
    r = x[..., :8]
    for start in range(8, whole, 8):
        r = r + x[..., start:start + 8]
    # Flat (a copy unless r is contiguous), the three halvings pair neighbours
    # within each row's eight partials.
    r = r.reshape(-1)
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    total = (r[0::2] + r[1::2]).reshape(x.shape[:-1])
    for i in range(whole, d):
        total += x[..., i]
    return total


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean norm of ``a - b`` over the last axis, as ``np.linalg.norm`` sums it.

    ``a - b`` is a new contiguous array, squared in place; ``_pairwise_sum``
    adds its last axis in numpy's pairwise order, as ``np.add.reduce`` does
    (verified on numpy 2.4.6): a running sum below 8 dimensions, eight
    interleaved partial sums and a tree up to 128, split halves above.
    """
    diff = a - b
    np.multiply(diff, diff, out=diff)
    return np.sqrt(_pairwise_sum(diff))


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
        self._vectors = np.empty((0, 0))
        self._owners = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        # Binned strategies: (person, bin) -> row of its running mean.
        self._row_of: dict[tuple[int, int], int] = {}

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
        """Insert a feature for a person: the one-row form of ``insert_block``.

        Each call copies the whole store, so n one-row inserts cost O(n^2)
        copying; a caller with many rows should collect them into one
        ``insert_block`` call.
        """
        self.insert_block([person], [feat], None if bin is None else [bin])

    def insert_block(
        self, persons: Sequence[int], features, bins: Sequence[int] | None = None
    ) -> None:
        """Insert row i of an (n, d) feature block for ``persons[i]``, as n
        ``insert`` calls in block order would.

        ``full`` appends every row; binned strategies append a row per new
        (person, bin) key and update each stored key's running mean.
        ``random`` draws ``rng.integers(bins, size=n)``, the stream of n
        single draws.  A key that repeats within the block is applied in
        rounds: round k inserts the k-th occurrence of every key, so each
        key's rows update its mean in block order.
        """
        feats = self._block(features)
        persons = np.asarray(persons, dtype=np.int64)
        if len(persons) != len(feats):
            raise ValueError(f"{len(persons)} persons for {len(feats)} feature rows")
        if not len(feats):
            return
        self._dim = feats.shape[1]
        if self.strategy == "full":
            self._append(persons, feats)
            return
        if self.strategy == "averaged":
            targets = [0] * len(persons)
        elif self.strategy == "random":
            targets = self._rng.integers(self.bins, size=len(persons)).tolist()
        else:  # orient
            if bins is None:
                raise ValueError("orientation-binned gallery requires an explicit bin")
            targets = np.asarray(bins, dtype=np.int64).reshape(len(persons)).tolist()
            for target in targets:
                if not 0 <= target < self.bins:
                    raise ValueError(f"bin {target} out of range [0, {self.bins})")
        keys = list(zip(persons.tolist(), targets))
        rounds: list[list[int]] = []
        occurrences: dict[tuple[int, int], int] = {}
        for i, key in enumerate(keys):
            k = occurrences[key] = occurrences.get(key, -1) + 1
            if k == len(rounds):
                rounds.append([])
            rounds[k].append(i)
        for members in rounds:
            # The first round appends every new key in the order single
            # inserts would; later rounds only update stored keys.
            rows = [self._row_of.get(keys[i], -1) for i in members]
            fresh = [i for i, row in zip(members, rows) if row < 0]
            if fresh:
                start = self._append(persons[fresh], feats[fresh])
                self._row_of.update(zip([keys[i] for i in fresh], range(start, start + len(fresh))))
            stored = [i for i, row in zip(members, rows) if row >= 0]
            if stored:
                old = np.array([row for row in rows if row >= 0])
                count = self._counts[old, None]
                self._vectors[old] = (count * self._vectors[old] + feats[stored]) / (count + 1)
                self._counts[old] = count[:, 0] + 1

    def _append(self, persons: np.ndarray, feats: np.ndarray) -> int:
        """Append a row per person, each at insert count 1; returns the first new row."""
        start = len(self._owners)
        # Before the first insert the vectors are (0, 0); reshape gives them d columns.
        self._vectors = np.concatenate([self._vectors.reshape(start, feats.shape[1]), feats])
        self._owners = np.concatenate([self._owners, persons])
        self._counts = np.concatenate([self._counts, np.ones(len(feats), np.int64)])
        return start

    def discard(self, persons: Sequence[int]) -> None:
        """Drop every row of ``persons``; the other rows keep their order and counts."""
        kept = np.flatnonzero(~np.isin(self._owners, persons))
        if len(kept) == len(self._owners):
            return
        self._vectors, self._owners, self._counts = (
            self._vectors[kept], self._owners[kept], self._counts[kept])
        moved = dict(zip(kept.tolist(), range(len(kept))))
        self._row_of = {key: moved[row] for key, row in self._row_of.items() if row in moved}

    def distances(self, features: Sequence[np.ndarray], persons: Sequence[int]) -> np.ndarray:
        """Euclidean distance from each feature to each person's nearest stored row.

        Returns a (len(features), len(persons)) matrix, ``inf`` for a person
        without rows; one ``np.minimum.reduceat`` over every owner's segment takes the minima.
        """
        feats = self._block(features) if len(features) else None
        if feats is None or not len(self._owners):
            return np.full((len(features), len(persons)), np.inf)
        rows = np.argsort(self._owners, kind="stable")
        owners, heads = np.unique(self._owners[rows], return_index=True)
        nearest = np.minimum.reduceat(_distance(self._vectors[rows], feats[:, None]), heads, axis=1)
        segment = np.searchsorted(owners, persons).clip(max=len(owners) - 1)
        return np.where(owners[segment] == persons, nearest[:, segment], np.inf)

    def min_distance(self, person: int, feat: np.ndarray) -> float:
        """Euclidean distance from feat to the person's nearest stored feature."""
        distance = self.distances([feat], [person])[0, 0]
        if not np.any(self._owners == person):
            raise KeyError(f"person {person} has no stored features")
        return float(distance)

    def nearest_person(self, feat: np.ndarray) -> tuple[int, float]:
        """Person minimizing min_distance; ties broken by smallest person id."""
        if not len(self._owners):
            raise KeyError("empty gallery")
        dist = _distance(self._vectors, self._block([feat])[0])
        best = dist[dist.argmin()]
        # argmin gives the first row at the minimum; the tie-break wants the smallest id.
        return min(self._owners[dist == best].tolist()), float(best)

    def stored_vectors(self) -> int:
        """Total number of stored vectors (running means count as one each)."""
        return len(self._owners)
