import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orientrack.gallery import Gallery


class TestInsert:
    def test_orientation_bin_running_mean(self):
        g = Gallery("orient", bins=2)
        g.insert(1, np.array([1.0, 0.0]), bin=0)
        g.insert(1, np.array([0.0, 1.0]), bin=0)
        row = g._row_of[(1, 0)]
        assert g._counts[row] == 2
        np.testing.assert_allclose(g._vectors[row], [0.5, 0.5])
        assert (1, 1) not in g._row_of

    def test_averaged_first_insert(self):
        g = Gallery("averaged")
        g.insert(1, np.array([3.0, 4.0]))
        row = g._row_of[(1, 0)]
        assert g._counts[row] == 1
        np.testing.assert_allclose(g._vectors[row], [3.0, 4.0])

    def test_full_appends_in_order(self):
        g = Gallery("full")
        for value in (1.0, 2.0, 3.0):
            g.insert(7, np.array([value, 0.0]))
        rows = g._owners[: g._rows] == 7
        assert list(g._vectors[: g._rows][rows][:, 0]) == [1.0, 2.0, 3.0]
        assert list(g._counts[: g._rows][rows]) == [1, 1, 1]

    def test_dimension_mismatch(self):
        g = Gallery("full")
        g.insert(1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            g.insert(1, np.array([1.0, 0.0, 0.0]))

    def test_orient_bin_out_of_range(self):
        g = Gallery("orient", bins=2)
        with pytest.raises(ValueError):
            g.insert(1, np.array([1.0]), bin=2)

    def test_orient_requires_bin(self):
        g = Gallery("orient", bins=2)
        with pytest.raises(ValueError):
            g.insert(1, np.array([1.0]))


class TestMinDistance:
    def test_exact_hit(self):
        g = Gallery("orient", bins=2)
        g.insert(1, np.array([0.0, 0.0]), bin=0)
        g.insert(1, np.array([3.0, 4.0]), bin=1)
        assert g.min_distance(1, np.array([0.0, 0.0])) == 0.0

    def test_nearest_of_two_slots(self):
        # distances to (0,0) and (3,4) from (3,0): 3 and 4
        g = Gallery("orient", bins=2)
        g.insert(1, np.array([0.0, 0.0]), bin=0)
        g.insert(1, np.array([3.0, 4.0]), bin=1)
        assert g.min_distance(1, np.array([3.0, 0.0])) == pytest.approx(3.0)

    def test_unknown_person(self):
        g = Gallery("full")
        g.insert(1, np.array([0.0]))
        with pytest.raises(KeyError):
            g.min_distance(2, np.array([0.0]))


class TestNearestPerson:
    def test_clear_margin(self):
        g = Gallery("averaged")
        g.insert(1, np.array([0.0, 0.0]))
        g.insert(2, np.array([1.0, 1.0]))
        person, distance = g.nearest_person(np.array([0.1, 0.0]))
        assert person == 1
        assert distance == pytest.approx(0.1)

    def test_tie_goes_to_smallest_id(self):
        g = Gallery("averaged")
        g.insert(2, np.array([1.0, 0.0]))
        g.insert(1, np.array([-1.0, 0.0]))
        person, _ = g.nearest_person(np.array([0.0, 0.0]))
        assert person == 1

    def test_empty_gallery(self):
        with pytest.raises(KeyError):
            Gallery("full").nearest_person(np.array([0.0]))


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.lists(st.floats(-100, 100), min_size=3, max_size=3)),
            min_size=1,
            max_size=50,
        ),
        st.integers(1, 4),
    )
    def test_running_mean_equals_batch_mean(self, inserts, bins):
        g = Gallery("orient", bins=bins)
        history: dict[tuple[int, int], list] = {}
        for bin_index, values in inserts:
            bin_index = bin_index % bins
            g.insert(1, np.array(values), bin=bin_index)
            history.setdefault((1, bin_index), []).append(values)
        for (person, bin_index), vectors in history.items():
            row = g._row_of[(person, bin_index)]
            np.testing.assert_allclose(
                g._vectors[row], np.mean(vectors, axis=0), atol=1e-9
            )
            assert g._counts[row] == len(vectors)
        assert set(g._row_of) == set(history)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    @settings(max_examples=25)
    def test_random_bins_reproducible(self, seed, bins):
        rng = np.random.default_rng(123)
        features = [rng.standard_normal(4) for _ in range(20)]
        galleries = [Gallery("random", bins=bins, seed=seed) for _ in range(2)]
        for g in galleries:
            for i, feat in enumerate(features):
                g.insert(i % 3, feat)
        a, b = galleries
        assert a._row_of == b._row_of
        for row in a._row_of.values():
            np.testing.assert_array_equal(a._vectors[row], b._vectors[row])
            assert a._counts[row] == b._counts[row]

    def test_full_min_distance_matches_brute_force(self):
        rng = np.random.default_rng(0)
        g = Gallery("full")
        history = []
        for _ in range(100):
            feat = rng.standard_normal(8)
            g.insert(1, feat)
            history.append(feat)
        for _ in range(20):
            query = rng.standard_normal(8)
            brute = min(np.linalg.norm(query - h) for h in history)
            assert g.min_distance(1, query) == pytest.approx(brute, abs=1e-9)

    def test_storage_counting(self):
        rng = np.random.default_rng(1)
        persons, bins, inserts = 5, 3, 200
        full = Gallery("full")
        binned = Gallery("orient", bins=bins)
        for i in range(inserts):
            feat = rng.standard_normal(4)
            full.insert(i % persons, feat)
            binned.insert(i % persons, feat, bin=int(rng.integers(bins)))
        assert full.stored_vectors() == inserts
        assert binned.stored_vectors() <= persons * bins


class ReferenceGallery:
    """Per-person dict-of-lists store searched by Python loops, used as the oracle."""

    def __init__(self, strategy, bins, seed):
        self.strategy = strategy
        self.bins = 1 if strategy == "averaged" else bins
        self.rng = np.random.default_rng(seed)
        self.vectors: dict[int, list[np.ndarray]] = {}
        self.slots: dict[int, list[list | None]] = {}

    def insert(self, person, feat, bin):
        if self.strategy == "full":
            self.vectors.setdefault(person, []).append(feat.copy())
            return
        if self.strategy == "averaged":
            target = 0
        elif self.strategy == "random":
            target = int(self.rng.integers(self.bins))
        else:
            target = bin
        slots = self.slots.setdefault(person, [None] * self.bins)
        if slots[target] is None:
            slots[target] = [feat.copy(), 1]
        else:
            mean, count = slots[target]
            slots[target] = [(count * mean + feat) / (count + 1), count + 1]
        self.vectors[person] = [s[0] for s in slots if s is not None]

    def min_distance(self, person, feat):
        return float(np.min(np.linalg.norm(np.stack(self.vectors[person]) - feat, axis=1)))

    def nearest_person(self, feat):
        best_person, best = None, np.inf
        for person in sorted(self.vectors):
            d = self.min_distance(person, feat)
            if d < best:
                best_person, best = person, d
        return best_person, best


def reference_appearance_likelihood(gallery, features, track_ids, d0_app):
    """Per-pair loop over min_distance with a KeyError floor, then per-row normalisation."""
    floor = np.exp(-d0_app)
    matrix = np.zeros((len(features), len(track_ids) + 1))
    for i, feat in enumerate(features):
        for j, person in enumerate(track_ids):
            try:
                matrix[i, j] = np.exp(-gallery.min_distance(person, feat))
            except KeyError:
                matrix[i, j] = floor
        matrix[i, -1] = floor
    for i in range(matrix.shape[0]):
        matrix[i] /= matrix[i].sum()
    return matrix


# Small integer coordinates make exact distance ties common.
grid_vectors = st.lists(st.integers(-2, 2), min_size=3, max_size=3).map(
    lambda v: np.array(v, dtype=np.float64)
)


class TestArrayStoreMatchesReference:
    @given(
        strategy=st.sampled_from(["full", "averaged", "random", "orient"]),
        bins=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        inserts=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3), grid_vectors), max_size=40
        ),
        queries=st.lists(grid_vectors, min_size=1, max_size=6),
        track_ids=st.lists(st.integers(0, 7), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_distances_and_nearest_match_loops(
        self, strategy, bins, seed, inserts, queries, track_ids
    ):
        from orientrack.association import appearance_likelihood

        g = Gallery(strategy, bins=bins, seed=seed)
        ref = ReferenceGallery(strategy, bins, seed)
        for person, bin_index, feat in inserts:
            g.insert(person, feat, bin=bin_index % bins)
            ref.insert(person, feat, bin_index % bins)

        expected = np.array(
            [
                [ref.min_distance(p, q) if p in ref.vectors else np.inf for p in track_ids]
                for q in queries
            ]
        ).reshape(len(queries), len(track_ids))
        distances = g.distances(queries, track_ids)
        np.testing.assert_array_equal(distances, expected)
        for i, q in enumerate(queries):
            for j, person in enumerate(track_ids):
                if person in ref.vectors:
                    assert g.min_distance(person, q) == distances[i, j]
                else:
                    with pytest.raises(KeyError):
                        g.min_distance(person, q)

        np.testing.assert_array_equal(
            appearance_likelihood(g, queries, track_ids, 1.5),
            reference_appearance_likelihood(ref, queries, track_ids, 1.5),
        )

        assert g.stored_vectors() == sum(len(v) for v in ref.vectors.values())
        assert np.unique(g._owners[: g._rows]).tolist() == sorted(ref.vectors)
        for q in queries:
            if ref.vectors:
                assert g.nearest_person(q) == ref.nearest_person(q)
            else:
                with pytest.raises(KeyError):
                    g.nearest_person(q)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_insert_rejects_non_finite(self, bad):
        g = Gallery("full")
        with pytest.raises(ValueError):
            g.insert(1, np.array([0.0, bad]))
        assert g.stored_vectors() == 0

    def test_query_rejects_non_finite(self):
        g = Gallery("averaged")
        g.insert(1, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            g.nearest_person(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            g.distances([np.array([0.0, np.inf])], [1])
