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
detections x persons nearest-row matrix.  The segments (the rows in stable
owner order, each owner once and the head row of its segment) are recomputed
on the first read after rows were appended or discarded; updating a running
mean moves no row, so reads between appends reuse them.

``nearest_person`` screens every row, then measures only the rows that can
win.  One matrix-vector product gives each row ``approx = |v|^2/2 - v.q``:
half its squared distance to the query q, less ``|q|^2/2``, which is the
same for every row.  After rounding, the row at the exact minimum lies within
(gamma_(d+1) + gamma_(d+4)) (M + |q|)^2 of the smallest ``approx``, where M
is the largest row norm, gamma_n = n u / (1 - n u) and u = 2^-53 (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 3).  The margin,
8 (d + 8) u (M + |q|)^2 + 64 (d + 8) 2^-1074, exceeds that bound; its second
term covers products and squares that round in the subnormal range.  The rows
within it are measured with the exact kernel below, and the smallest owner id
among the rows at the exact minimum wins, with that distance's bytes: the
answer of a scan over every row.  The screen runs only while
(M + |q|)^2 < 2^1020, where no product, square or distance can overflow;
otherwise every row is measured, so distances that overflow to ``inf`` tie.
The half squared norms and M are recomputed on the first ``nearest_person``
after a row was appended, discarded or had its running mean updated.

Distances are summed as ``np.linalg.norm`` sums them, byte for byte, but with
whole-array adds instead of one reduction per row pair.  ``_pairwise_sum``
writes out numpy's ``pairwise_sum`` order over a contiguous axis of length d:
a running sum below 8; up to 128, eight interleaved partial sums combined as
a tree, then the tail in order; above 128, the same on two halves split at a
multiple of 8.  Verified against ``np.add.reduce`` on numpy 2.4.6; the tests
check it again on the numpy that runs them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

STRATEGIES = ("full", "averaged", "random", "orient")
_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = 2.0 ** -1074
# The screen runs only while (M + |q|)^2 stays below 2^1020: no product,
# square or distance can then overflow.
_SCREEN_REACH = 2.0 ** 510


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


def _whole_numbers(values, name: str) -> np.ndarray:
    """``values`` as int64; raises ValueError for one that is not an int64 integer.

    An integer array passes on its dtype alone, with no look at its values.
    """
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return array.astype(np.int64, copy=False)
    floats = array.astype(np.float64)
    whole = (np.floor(floats) == floats) & (np.abs(floats) < 2.0 ** 63)
    if not whole.all():
        raise ValueError(f"{name} {floats[~whole].flat[0]} is not an integer")
    return floats.astype(np.int64)


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
        # (order, owners, heads) of the current rows; None after an append or discard.
        self._segments: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # (half squared norm per row, largest row norm); None after any row changes.
        self._norms: tuple[np.ndarray, float] | None = None

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
        single draws.  A block whose keys are distinct is applied in one
        step.  A key that repeats within the block is applied in rounds:
        round k inserts the k-th occurrence of every key, so each key's rows
        update its mean in block order.
        """
        feats = self._block(features)
        persons = _whole_numbers(persons, "person id")
        if len(persons) != len(feats):
            raise ValueError(f"{len(persons)} persons for {len(feats)} feature rows")
        if not len(feats):
            return
        if self.strategy == "orient":
            if bins is None:
                raise ValueError("orientation-binned gallery requires an explicit bin")
            targets = _whole_numbers(bins, "bin").reshape(len(persons)).tolist()
            if min(targets) < 0 or max(targets) >= self.bins:
                bad = next(t for t in targets if not 0 <= t < self.bins)
                raise ValueError(f"bin {bad} out of range [0, {self.bins})")
        self._dim = feats.shape[1]
        if self.strategy == "full":
            self._append(persons, feats)
            return
        if self.strategy == "averaged":
            targets = [0] * len(persons)
        elif self.strategy == "random":
            targets = self._rng.integers(self.bins, size=len(persons)).tolist()
        keys = list(zip(persons.tolist(), targets))
        if len(set(keys)) == len(keys):
            self._apply(keys, persons, feats)
            return
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
            self._apply([keys[i] for i in members], persons[members], feats[members])

    def _apply(self, keys: list, persons: np.ndarray, feats: np.ndarray) -> None:
        """Insert the rows of a block whose (person, bin) ``keys`` are distinct:
        append the new keys' rows in order, and update the stored keys' means."""
        rows = [self._row_of.get(key, -1) for key in keys]
        if -1 in rows:
            fresh = [i for i, row in enumerate(rows) if row < 0]
            start = self._append(persons[fresh], feats[fresh])
            self._row_of.update(zip([keys[i] for i in fresh], range(start, start + len(fresh))))
            stored = [i for i, row in enumerate(rows) if row >= 0]
            rows, feats = [rows[i] for i in stored], feats[stored]
        if rows:
            old = np.array(rows)
            count = self._counts[old, None]
            self._vectors[old] = (count * self._vectors[old] + feats) / (count + 1)
            self._counts[old] = count[:, 0] + 1
            self._norms = None

    def _append(self, persons: np.ndarray, feats: np.ndarray) -> int:
        """Append a row per person, each at insert count 1; returns the first new row."""
        start = len(self._owners)
        self._segments = self._norms = None
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
        self._segments = self._norms = None
        moved = dict(zip(kept.tolist(), range(len(kept))))
        self._row_of = {key: moved[row] for key, row in self._row_of.items() if row in moved}

    def _owner_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows in stable owner order, each owner once in ascending order,
        and each owner's first position in that order; kept until rows move."""
        if self._segments is None:
            order = np.argsort(self._owners, kind="stable")
            ranked = self._owners[order]
            heads = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
            self._segments = order, ranked[heads], heads
        return self._segments

    def distances(self, features: Sequence[np.ndarray], persons: Sequence[int]) -> np.ndarray:
        """Euclidean distance from each feature to each person's nearest stored row.

        Returns a (len(features), len(persons)) matrix, ``inf`` for a person
        without rows; one ``np.minimum.reduceat`` over every owner's segment takes the minima.
        """
        feats = self._block(features) if len(features) else None
        if feats is None or not len(self._owners):
            return np.full((len(features), len(persons)), np.inf)
        order, owners, heads = self._owner_segments()
        nearest = np.minimum.reduceat(_distance(self._vectors[order], feats[:, None]), heads, axis=1)
        segment = np.minimum(np.searchsorted(owners, persons), len(owners) - 1)
        return np.where(owners[segment] == persons, nearest[:, segment], np.inf)

    def min_distance(self, person: int, feat: np.ndarray) -> float:
        """Euclidean distance from feat to the person's nearest stored feature."""
        distance = self.distances([feat], [person])[0, 0]
        if not np.any(self._owners == person):
            raise KeyError(f"person {person} has no stored features")
        return float(distance)

    def _row_norms(self) -> tuple[np.ndarray, float]:
        """Half the squared norm of every row and the largest row norm M; kept
        until a row is appended, discarded or updated.  A row whose squared
        norm overflows makes M ``inf``, which turns the screen off."""
        if self._norms is None:
            with np.errstate(over="ignore"):
                squares = np.einsum("ij,ij->i", self._vectors, self._vectors)
            self._norms = 0.5 * squares, math.sqrt(squares.max())
        return self._norms

    def nearest_person(self, feat: np.ndarray) -> tuple[int, float]:
        """Person owning the stored row nearest to ``feat``, and that row's distance.

        ``feat`` is one (d,) row, checked as ``distances`` checks a block.
        The rows within the screen's margin of the smallest
        ``|v|^2/2 - v.q`` (see the module docstring) are measured exactly; of
        the rows at the exact minimum the smallest owner id wins, with the
        distance ``distances`` gives.  When ``(M + |q|)^2`` reaches 2^1020
        every row is measured.  The row norms behind the screen are
        recomputed on the first call after any append, discard or
        running-mean update.
        """
        if not len(self._owners):
            raise KeyError("empty gallery")
        if feat.ndim != 1:
            raise ValueError(f"features must form an (n, d) block, got shape {(1, *feat.shape)}")
        if feat.shape[0] != self._dim:
            raise ValueError(f"feature dimension {feat.shape[0]} != gallery dimension {self._dim}")
        # The norm is finite unless an entry is non-finite or the sum of
        # squares overflows; only then are the entries checked one by one.
        norm = math.hypot(*feat.tolist())
        if not math.isfinite(norm) and not np.isfinite(feat).all():
            raise ValueError("feature contains non-finite values")
        half_squares, largest = self._row_norms()
        reach = largest + norm
        rows = slice(None)
        if reach < _SCREEN_REACH:
            approx = half_squares - self._vectors.dot(feat)
            row = approx.argmin()
            terms = self._dim + 8
            margin = 8 * terms * (_UNIT_ROUNDOFF * reach * reach + 8 * _SMALLEST_SUBNORMAL)
            near = approx <= approx[row] + margin
            if np.count_nonzero(near) == 1:
                # One contiguous row: np.add.reduce sums it in the pairwise
                # order that _pairwise_sum copies.
                diff = self._vectors[row] - feat
                return int(self._owners[row]), math.sqrt(np.add.reduce(diff * diff))
            rows = np.flatnonzero(near)
        dist = _distance(self._vectors[rows], feat)
        best = dist.min()
        return int(self._owners[rows][dist == best].min()), float(best)

    def stored_vectors(self) -> int:
        """Total number of stored vectors (running means count as one each)."""
        return len(self._owners)
