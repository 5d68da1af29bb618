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
``pair_distances`` is the one distance read: for given (detection, person)
pairs, each pair gathers its person's row of a table of row indices, padded
to the longest person's row count by repeating that person's last row, so a
pair costs at most that many row distances.  The tracker's ``pos_app`` mode
reads it on the pairs inside the position gate, and ``app_only`` mode, which
has no gate, on every pair.  ``distances`` is that read over every
(feature, person) pair, shaped as a detections x persons matrix, and
``min_distance`` over one pair.  The table (each owner once in ascending
order, and its rows in store order) is recomputed on the first read after
rows were appended or discarded; updating a running mean moves no row, so
reads between appends reuse it.

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

Distances are summed as ``np.linalg.norm`` sums them, byte for byte: one
``np.add.reduce`` over the last axis, at every width.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .io_formats import check_choice, check_count

STRATEGIES = ("full", "averaged", "random", "orient")
_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = 2.0 ** -1074
# The screen runs only while (M + |q|)^2 stays below 2^1020: no product,
# square or distance can then overflow.
_SCREEN_REACH = 2.0 ** 510


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

    ``a - b`` is a new contiguous array, squared in place and added by one
    ``np.add.reduce`` over its last axis.
    """
    diff = a - b
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.add.reduce(diff, axis=-1))


class Gallery:
    """Appearance store keyed by person (or track) id.

    Single writer per instance; concurrent read-only queries are safe
    between mutations.
    """

    def __init__(self, strategy: str, bins: int = 1, seed: int = 0):
        check_choice(strategy, "strategy", STRATEGIES)
        bins = check_count(bins, "bin count", 1)
        self.strategy = strategy
        self.bins = 1 if strategy == "averaged" else bins
        self._rng = np.random.default_rng(check_count(seed, "seed", 0))
        self._dim: int | None = None
        self._vectors = np.empty((0, 0))
        self._owners = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        # Binned strategies: (person, bin) -> row of its running mean.
        self._row_of: dict[tuple[int, int], int] = {}
        # (owners, padded row table) of the current rows; None after an
        # append or discard.
        self._table: tuple[np.ndarray, np.ndarray] | None = None
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
        self._table = self._norms = None
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
        self._table = self._norms = None
        moved = dict(zip(kept.tolist(), range(len(kept))))
        self._row_of = {key: moved[row] for key, row in self._row_of.items() if row in moved}

    def _owner_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Each owner once, in ascending order, and a table with one row per
        owner: its rows' indices in store order, padded to the longest
        owner's count by repeating its last row (a repeat cannot change a
        minimum); kept until rows move."""
        if self._table is None:
            order = np.argsort(self._owners, kind="stable")
            ranked = self._owners[order]
            heads = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
            ends = np.append(heads[1:], len(order)) - 1
            slots = np.arange((ends - heads).max() + 1)
            table = order[np.minimum(heads[:, None] + slots, ends[:, None])]
            self._table = ranked[heads], table
        return self._table

    def distances(self, features: Sequence[np.ndarray], persons: Sequence[int]) -> np.ndarray:
        """Euclidean distance from each feature to each person's nearest stored row.

        Returns a (len(features), len(persons)) matrix, ``inf`` for a person
        without rows: ``pair_distances`` over every (feature, person) pair.
        """
        persons = np.asarray(persons)
        dets, cols = np.indices((len(features), len(persons))).reshape(2, -1)
        nearest = self.pair_distances(features, dets, persons.take(cols))
        return nearest.reshape(len(features), len(persons))

    def pair_distances(self, features, dets: np.ndarray, persons: np.ndarray) -> np.ndarray:
        """For each pair k, the distance from ``features[dets[k]]`` to
        ``persons[k]``'s nearest stored row, ``inf`` for a person without rows.

        Each pair reads only its person's rows, through the padded table.
        A row's distance is summed alone, as ``np.linalg.norm`` sums it, and
        a minimum is exact, so a pair's bytes do not depend on the other
        pairs read with it.
        """
        feats = self._block(features) if len(features) else None
        if feats is None or not len(persons) or not len(self._owners):
            return np.full(len(persons), np.inf)
        owners, table = self._owner_table()
        # Method forms and take: cheaper per call than the functions and fancy indexing.
        segment = np.minimum(owners.searchsorted(persons), len(owners) - 1)
        rows = self._vectors.take(table.take(segment, axis=0), axis=0)
        nearest = np.minimum.reduce(_distance(rows, feats.take(dets, axis=0)[:, None]), axis=-1)
        return np.where(owners.take(segment) == persons, nearest, np.inf)

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

    def nearest_person(self, feat) -> tuple[int, float]:
        """Person owning the stored row nearest to ``feat``, and that row's distance.

        ``feat`` is one (d,) row, an array or a sequence of numbers, checked
        as ``distances`` checks a block.
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
        if not isinstance(feat, np.ndarray):
            feat = np.asarray(feat, dtype=np.float64)
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
                # One contiguous row, summed by the same np.add.reduce as
                # _distance, so it has the bytes of a full scan.
                diff = self._vectors[row] - feat
                return int(self._owners[row]), math.sqrt(np.add.reduce(diff * diff))
            rows = np.flatnonzero(near)
        dist = _distance(self._vectors[rows], feat)
        best = dist.min()
        return int(self._owners[rows][dist == best].min()), float(best)

    def stored_vectors(self) -> int:
        """Total number of stored vectors (running means count as one each)."""
        return len(self._owners)
