import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from orientrack import gallery as gallery_module
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
        rows = g._owners == 7
        assert list(g._vectors[rows][:, 0]) == [1.0, 2.0, 3.0]
        assert list(g._counts[rows]) == [1, 1, 1]

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

    # (0, 0) is nearest to one row; (1, 1) ties between persons 1 and 3.
    @pytest.mark.parametrize("query", [(0, 0), (1, 1), (3, -2)])
    def test_sequence_query_equals_array_query(self, query):
        g = Gallery("full")
        g.insert_block([3, 1, 2], np.array([[1.0, 2.0], [2.0, 1.0], [-1.0, 0.5]]))
        expected = g.nearest_person(np.array(query, dtype=np.float64))
        for same in (list(query), tuple(query), np.array(query, dtype=np.int64)):
            assert g.nearest_person(same) == expected


class TestBinCount:
    @pytest.mark.parametrize("strategy", ["random", "orient"])
    @pytest.mark.parametrize("bins", [2.5, float("nan"), float("inf")])
    def test_rejects_a_bin_count_that_is_not_an_integer(self, strategy, bins):
        with pytest.raises(ValueError, match="bin count"):
            Gallery(strategy, bins=bins)


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


def reference_distances(gallery, features, persons):
    """One ``np.linalg.norm`` per (feature, person) pair over the person's
    stored rows, then their minimum; ``inf`` for a person without rows."""
    vectors, owners = gallery._vectors, gallery._owners
    out = np.full((len(features), len(persons)), np.inf)
    for i, feat in enumerate(features):
        for j, person in enumerate(persons):
            rows = vectors[owners == person]
            if len(rows):
                out[i, j] = np.linalg.norm(rows - feat, axis=-1).min()
    return out


def reference_pair_distances(gallery, features, dets, persons):
    """``reference_distances``' entry ``[dets[k], k]`` for each pair k: one
    ``np.linalg.norm`` over the person's stored rows, then their minimum."""
    return np.array([reference_distances(gallery, [features[i]], [person])[0, 0]
                     for i, person in zip(dets, persons)])


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
        assert np.unique(g._owners).tolist() == sorted(ref.vectors)
        for q in queries:
            if ref.vectors:
                assert g.nearest_person(q) == ref.nearest_person(q)
            else:
                with pytest.raises(KeyError):
                    g.nearest_person(q)


    @given(
        strategy=st.sampled_from(["full", "averaged", "random", "orient"]),
        bins=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        # Persons may repeat within a block, and so may (person, bin) keys.
        blocks=st.lists(
            st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), grid_vectors),
                     max_size=6),
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_inserts_equal_single_inserts(self, strategy, bins, seed, blocks):
        g, singles = (Gallery(strategy, bins=bins, seed=seed) for _ in range(2))
        ref = ReferenceGallery(strategy, bins, seed)
        for block in blocks:
            persons = [person for person, _, _ in block]
            feats = np.array([feat for _, _, feat in block]).reshape(len(block), 3)
            g.insert_block(persons, feats, [b % bins for _, b, _ in block])
            for person, bin_index, feat in block:
                singles.insert(person, feat, bin_index % bins)
                ref.insert(person, feat, bin_index % bins)

        rows = g.stored_vectors()
        assert rows == singles.stored_vectors() == sum(len(v) for v in ref.vectors.values())
        np.testing.assert_array_equal(g._vectors[:rows], singles._vectors[:rows])
        np.testing.assert_array_equal(g._owners[:rows], singles._owners[:rows])
        np.testing.assert_array_equal(g._counts[:rows], singles._counts[:rows])
        assert g._row_of == singles._row_of
        for person, vectors in ref.vectors.items():
            stored = g._vectors[:rows][g._owners[:rows] == person]
            assert sorted(map(tuple, stored)) == sorted(map(tuple, vectors))
        assert g._rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("bins", [1, 2, 5, 9])
    def test_block_random_bins_are_the_single_draw_stream(self, bins):
        # insert_block draws rng.integers(bins, size=n); insert draws one at a time.
        block, single = np.random.default_rng(11), np.random.default_rng(11)
        drawn = block.integers(bins, size=50).tolist()
        assert drawn == [int(single.integers(bins)) for _ in range(50)]
        assert block.bit_generator.state == single.bit_generator.state


# Wide magnitudes, so that the order in which the squares are summed shows in
# the last bits.
wide_floats = st.floats(-1e100, 1e100) | st.floats(-10.0, 10.0)


class TestDistancesSummationOrder:
    @given(
        data=st.data(),
        # numpy sums a contiguous axis of 8 or more in 8 interleaved partial sums,
        # adds a tail after the last whole block of 8, and splits above 128.
        dim=st.one_of(st.integers(1, 40),
                      st.sampled_from([127, 128, 129, 136, 255, 256, 257, 300, 1031])),
        owners=st.lists(st.integers(0, 6), max_size=12),
        n_queries=st.integers(0, 4),
        # Persons 7 and 8 are never stored; any person may repeat.
        persons=st.lists(st.integers(0, 8), max_size=10),
    )
    @settings(max_examples=300, deadline=None)
    def test_distances_equal_per_pair_norm_bytes(self, data, dim, owners, n_queries, persons):
        vectors = data.draw(arrays(np.float64, (len(owners), dim), elements=wide_floats))
        queries = data.draw(arrays(np.float64, (n_queries, dim), elements=wide_floats))
        g = Gallery("full")
        g.insert_block(owners, vectors)
        distances = g.distances(queries, persons)
        expected = reference_distances(g, queries, persons)
        assert distances.shape == expected.shape
        assert distances.tobytes() == expected.tobytes()
        # nearest_person shares the distance arithmetic: the smallest id among
        # the stored persons at the minimum distance.
        stored = sorted(set(owners))
        if stored:
            for query, row in zip(queries, reference_distances(g, queries, stored)):
                best = row.min()
                assert g.nearest_person(query) == (stored[int(np.argmax(row == best))], best)


class TestGridTiesAboveEightDims:
    """Tie-heavy grid vectors at widths where numpy's own sum takes its
    eight-way block (8), a tail after the block (9) and a split (130)."""

    @pytest.mark.parametrize("dim", [8, 9, 130])
    @given(data=st.data(), owners=st.lists(st.integers(0, 5), max_size=12),
           n_queries=st.integers(1, 4), persons=st.lists(st.integers(0, 7), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_distances_and_nearest_match_references(self, dim, data, owners, n_queries, persons):
        grid = st.integers(-1, 1).map(float)
        vectors = data.draw(arrays(np.float64, (len(owners), dim), elements=grid))
        queries = data.draw(arrays(np.float64, (n_queries, dim), elements=grid))
        g = Gallery("full")
        ref = ReferenceGallery("full", 1, 0)
        g.insert_block(owners, vectors)
        for person, feat in zip(owners, vectors):
            ref.insert(person, feat, 0)
        distances = g.distances(queries, persons)
        assert distances.tobytes() == reference_distances(g, queries, persons).tobytes()
        for query in queries:
            if owners:
                assert g.nearest_person(query) == ref.nearest_person(query)
            else:
                with pytest.raises(KeyError):
                    g.nearest_person(query)


class TestInsertBlock:
    @pytest.mark.parametrize("strategy", ["averaged", "random", "orient"])
    def test_repeated_keys_equal_single_inserts(self, strategy):
        # Keys (4, 0) three times and (3, 0) twice: three rounds, one new row.
        persons = [4, 3, 4, 4, 3]
        feats = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 8.0], [1.0, 1.0], [5.0, 0.5]])
        g, singles = Gallery(strategy, bins=1), Gallery(strategy, bins=1)
        for gallery in (g, singles):
            gallery.insert(3, np.array([1.0, 2.0]), bin=0)
        g.insert_block(persons, feats, [0] * len(persons))
        for person, feat in zip(persons, feats):
            singles.insert(person, feat, bin=0)
        assert g.stored_vectors() == singles.stored_vectors() == 2
        np.testing.assert_array_equal(g._vectors[:2], singles._vectors[:2])
        np.testing.assert_array_equal(g._counts[:2], [3, 3])
        np.testing.assert_array_equal(g._vectors[1], (feats[0] + feats[2] + feats[3]) / 3)
        assert g._row_of == singles._row_of == {(3, 0): 0, (4, 0): 1}

    def test_full_takes_repeated_persons(self):
        g = Gallery("full")
        g.insert_block([4, 4], np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert g.stored_vectors() == 2

    def test_bad_block_is_rejected_before_any_write(self):
        g = Gallery("orient", bins=2)
        feats = np.array([[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ValueError, match="out of range"):
            g.insert_block([1, 2], feats, [0, 2])
        with pytest.raises(ValueError, match="explicit bin"):
            g.insert_block([1, 2], feats)
        with pytest.raises(ValueError, match="persons"):
            g.insert_block([1], feats, [0, 1])
        assert g.stored_vectors() == 0

    @pytest.mark.parametrize("strategy, persons, bins", [
        ("full", [1.5, 2.7], None),
        ("averaged", [1, np.nan], None),
        ("orient", [1, 2], [0.9, 2.5]),
        ("orient", [1, 2], [1, np.inf]),
        ("orient", [1.0, 2.0], [0.0, 1e19]),
    ])
    def test_non_integral_id_or_bin_is_rejected_before_any_write(self, strategy, persons, bins):
        g = Gallery(strategy, bins=3)
        with pytest.raises(ValueError, match="is not an integer"):
            g.insert_block(persons, np.ones((2, 2)), bins)
        assert g.stored_vectors() == 0
        # Nothing was written: a block of another width is still accepted.
        g.insert_block([1.0, 2.0], np.ones((2, 3)), [0.0, 2.0])
        assert g.stored_vectors() == 2 and g._owners.tolist() == [1, 2]

    def test_rejected_bin_leaves_the_dimension_unset(self):
        g = Gallery("orient", bins=2)
        with pytest.raises(ValueError, match="out of range"):
            g.insert_block([1, 2], np.ones((2, 2)), [0, 2])
        g.insert_block([1, 2], np.ones((2, 3)), [0, 1])
        assert g.stored_vectors() == 2


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


def stored_state(g):
    """What a gallery's later reads and inserts depend on."""
    rows = g.stored_vectors()
    return (g._vectors[:rows].tolist(), g._owners[:rows].tolist(), g._counts[:rows].tolist(),
            g._row_of, g._rng.bit_generator.state)


# Rows of one block: (person, bin, feature), persons 0-3.
kept_rows = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), grid_vectors), max_size=6)


class TestDiscard:
    def test_rows_keep_their_order_and_counts(self):
        g = Gallery("orient", bins=2)
        g.insert_block([1, 2, 1, 3, 2], [[1.0], [2.0], [3.0], [4.0], [5.0]], [0, 0, 1, 1, 1])
        g.insert(3, np.array([6.0]), bin=1)
        g.discard([2])
        assert g._owners.tolist() == [1, 1, 3]
        assert g._vectors[:, 0].tolist() == [1.0, 3.0, 5.0]
        assert g._counts.tolist() == [1, 1, 2]
        assert g._row_of == {(1, 0): 0, (1, 1): 1, (3, 1): 2}
        g.insert(3, np.array([8.0]), bin=1)
        assert g._vectors[2, 0] == 6.0 and g._counts[2] == 3

    @given(
        strategy=st.sampled_from(["full", "averaged", "random", "orient"]),
        bins=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        # Each block holds kept persons only, or (shifted by 4) discarded ones only.
        blocks=st.lists(st.tuples(st.booleans(), kept_rows), max_size=8),
        later=kept_rows,
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_a_gallery_of_the_kept_persons(self, strategy, bins, seed, blocks, later):
        g, kept = Gallery(strategy, bins=bins, seed=seed), Gallery(strategy, bins=bins, seed=seed)
        for dropped, block in blocks:
            persons = [person + 4 * dropped for person, _, _ in block]
            feats = np.array([feat for _, _, feat in block]).reshape(len(block), 3)
            g.insert_block(persons, feats, [b % bins for _, b, _ in block])
            if not dropped:
                kept.insert_block(persons, feats, [b % bins for _, b, _ in block])
            elif strategy == "random":
                # The draws ``g`` spent on the discarded rows (one per row).
                kept._rng.integers(bins, size=len(block))
        g.discard([4, 5, 6, 7])
        assert stored_state(g) == stored_state(kept)
        # Later inserts land where they land in a gallery that never held 4-7.
        for gallery in (g, kept):
            gallery.insert_block([p for p, _, _ in later],
                                 np.array([f for _, _, f in later]).reshape(len(later), 3),
                                 [b % bins for _, b, _ in later])
        assert stored_state(g) == stored_state(kept)

    @pytest.mark.parametrize("strategy", ["full", "averaged", "random", "orient"])
    def test_absent_person_is_a_no_op(self, strategy):
        g = Gallery(strategy, bins=3, seed=5)
        g.discard([1])
        assert g.stored_vectors() == 0
        g.insert_block([1, 2, 1], np.eye(3), [0, 1, 2])
        before = stored_state(g)
        g.discard([7])
        g.discard([])
        assert stored_state(g) == before

    @pytest.mark.parametrize("seed", range(4))
    def test_random_later_bins_ignore_the_discarded_persons(self, seed):
        g, never = Gallery("random", bins=5, seed=seed), Gallery("random", bins=5, seed=seed)
        g.insert_block([1, 2, 9, 9], np.arange(8.0).reshape(4, 2))
        never.insert_block([1, 2], np.arange(4.0).reshape(2, 2))
        never._rng.integers(5, size=2)  # the draws ``g`` spent on person 9's rows
        g.discard([9])
        for gallery in (g, never):
            gallery.insert_block(np.arange(20) % 4, np.ones((20, 2)))
        assert stored_state(g) == stored_state(never)


def assert_exact_rows(g):
    rows = g.stored_vectors()
    assert g._vectors.shape[0] == len(g._owners) == len(g._counts) == rows


class TestStoreHoldsExactlyItsRows:
    @given(
        strategy=st.sampled_from(["full", "averaged", "random", "orient"]),
        bins=st.integers(1, 4),
        blocks=st.lists(kept_rows, min_size=1, max_size=6),
        dropped=st.lists(st.integers(0, 3), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_after_inserts_and_a_discard(self, strategy, bins, blocks, dropped):
        g = Gallery(strategy, bins=bins, seed=3)
        for block in blocks:
            g.insert_block([p for p, _, _ in block],
                           np.array([f for _, _, f in block]).reshape(len(block), 3),
                           [b % bins for _, b, _ in block])
            assert_exact_rows(g)
        g.insert(9, np.ones(3), bin=0)
        assert_exact_rows(g)
        g.discard(dropped + [9])
        assert_exact_rows(g)
        assert not np.isin(g._owners, dropped + [9]).any()


class ReferenceGalleryWithDiscard(ReferenceGallery):
    def discard(self, persons):
        for person in persons:
            self.vectors.pop(person, None)
            self.slots.pop(person, None)


# One mutation: a block insert, a one-row insert or a discard; persons 0-4.
mutations = st.one_of(
    st.tuples(st.just("block"),
              st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), grid_vectors),
                       max_size=5)),
    st.tuples(st.just("insert"), st.tuples(st.integers(0, 4), st.integers(0, 3), grid_vectors)),
    st.tuples(st.just("discard"), st.lists(st.integers(0, 5), max_size=2)),
)


class TestSegmentsFollowMutations:
    """Reads between mutations reuse the owner segments; every append and
    discard must rebuild them before the next read."""

    @given(
        strategy=st.sampled_from(["full", "averaged", "random", "orient"]),
        bins=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        steps=st.lists(mutations, min_size=1, max_size=12),
        queries=st.lists(grid_vectors, min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_reads_after_every_mutation_match_the_loops(
        self, strategy, bins, seed, steps, queries
    ):
        g = Gallery(strategy, bins=bins, seed=seed)
        ref = ReferenceGalleryWithDiscard(strategy, bins, seed)
        persons = list(range(6))
        for kind, arg in steps:
            if kind == "block":
                g.insert_block([p for p, _, _ in arg],
                               np.array([f for _, _, f in arg]).reshape(len(arg), 3),
                               [b % bins for _, b, _ in arg])
                for person, bin_index, feat in arg:
                    ref.insert(person, feat, bin_index % bins)
            elif kind == "insert":
                person, bin_index, feat = arg
                g.insert(person, feat, bin=bin_index % bins)
                ref.insert(person, feat, bin_index % bins)
            else:
                g.discard(arg)
                ref.discard(arg)
            np.testing.assert_array_equal(g.distances(queries, persons),
                                          reference_distances(g, queries, persons))
            for q in queries:
                if ref.vectors:
                    assert g.nearest_person(q) == ref.nearest_person(q)
                else:
                    with pytest.raises(KeyError):
                        g.nearest_person(q)


def scan_nearest_person(g, feat):
    """``nearest_person`` without a screen: every row's distance, read in
    stable owner order, and the first row at the minimum."""
    order = np.argsort(g._owners, kind="stable")
    dist = np.linalg.norm(g._vectors[order] - feat, axis=-1)
    best = dist.argmin()
    return int(g._owners[order[best]]), float(dist[best])


def runtime_warnings(read, feat):
    """``read(feat)`` and the RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = read(feat)
    return result, [w for w in caught if issubclass(w.category, RuntimeWarning)]


# Ordinary values; magnitudes whose squares and products round in the
# subnormal range; and magnitudes whose distances overflow to inf and tie.
screen_scales = st.just(1.0) | (st.floats(-320, -150) | st.floats(150, 160)).map(
    lambda exponent: 10.0 ** exponent)


class TestScreenMatchesScan:
    """``nearest_person`` measures only the rows its matrix-vector screen
    keeps; it must return the scan's person and distance bytes."""

    @given(
        data=st.data(),
        strategy=st.sampled_from(["full", "averaged", "random", "orient"]),
        bins=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([1, 8, 9, 128, 129, 300]),
        scale=screen_scales,
        atom_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_reads_after_every_mutation_match_the_scan(
        self, data, strategy, bins, seed, dim, scale, atom_seed
    ):
        # Rows and queries are three small-integer atoms, each scaled and
        # maybe moved by one ulp in one coordinate: equal rows under
        # different owners, exact ties and last-bit neighbours.
        atoms = np.random.default_rng(atom_seed).integers(-2, 3, (3, dim)) * scale
        vectors = st.tuples(st.integers(0, 2), st.integers(-1, 1), st.integers(0, dim - 1))

        def vector(atom, ulps, coordinate):
            v = atoms[atom].copy()
            if ulps:
                v[coordinate] = np.nextafter(v[coordinate], ulps * np.inf)
            return v

        entries = st.tuples(st.integers(0, 4), st.integers(0, 2), vectors)
        steps = data.draw(st.lists(st.one_of(
            st.tuples(st.just("block"), st.lists(entries, min_size=1, max_size=6)),
            st.tuples(st.just("insert"), entries),
            st.tuples(st.just("discard"), st.lists(st.integers(0, 5), max_size=2)),
        ), min_size=1, max_size=10))
        queries = [vector(*q) for q in data.draw(st.lists(vectors, min_size=1, max_size=3))]
        g = Gallery(strategy, bins=bins, seed=seed)
        for kind, arg in steps:
            if kind == "block":
                g.insert_block([p for p, _, _ in arg], np.array([vector(*v) for _, _, v in arg]),
                               [b % bins for _, b, _ in arg])
            elif kind == "insert":
                person, bin_index, v = arg
                g.insert(person, vector(*v), bin=bin_index % bins)
            else:
                g.discard(arg)
            for q in queries:
                if not g.stored_vectors():
                    with pytest.raises(KeyError):
                        g.nearest_person(q)
                    continue
                expected, scan_warned = runtime_warnings(lambda f: scan_nearest_person(g, f), q)
                got, warned = runtime_warnings(g.nearest_person, q)
                assert got == expected
                assert np.float64(got[1]).tobytes() == np.float64(expected[1]).tobytes()
                if not scan_warned:
                    assert not warned

    def test_subnormal_squares_keep_every_tied_row(self):
        # Squares near 2^-1074 round by a whole subnormal step, so equal
        # exact distances can rank apart in the screen; the margin's
        # absolute term keeps them both.
        for a in np.geomspace(1e-163, 1e-161, 200):
            g = Gallery("full")
            g.insert_block([1, 0, 2], np.array([[a], [2 * a], [-a]]))
            for q in ([a], [2 * a], [0.0]):
                assert g.nearest_person(np.array(q)) == scan_nearest_person(g, np.array(q))

    def test_a_clear_winner_is_measured_alone(self, monkeypatch):
        # Distinct random rows leave one row within the margin, which is
        # measured without the block kernel.
        rng = np.random.default_rng(0)
        g = Gallery("full")
        g.insert_block(np.arange(1600) % 50, rng.standard_normal((1600, 8)))
        queries = rng.standard_normal((20, 8))
        expected = [scan_nearest_person(g, q) for q in queries]

        def block_kernel(a, b):
            raise AssertionError("more than one row passed the screen")

        monkeypatch.setattr(gallery_module, "_distance", block_kernel)
        assert [g.nearest_person(q) for q in queries] == expected


class TestPairDistancesMatchDistances:
    """The pair read gives, for each (detection, person) pair, the bytes of
    that pair's ``distances`` entry, for every strategy."""

    @given(
        data=st.data(),
        strategy=st.sampled_from(["full", "averaged", "random", "orient"]),
        bins=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        # numpy adds fewer than 8 values in a loop, and 8 or more in eight
        # partial sums, with a tail at 9 and 33.
        dim=st.sampled_from([2, 3, 8, 9, 16, 33]),
        # Uneven row counts: persons repeat, and 0 and 1 are often the same.
        owners=st.lists(st.integers(0, 5) | st.just(0), max_size=14),
        n_queries=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_pair_equals_its_distances_entry(
        self, data, strategy, bins, seed, dim, owners, n_queries
    ):
        g = Gallery(strategy, bins=bins, seed=seed)
        if owners:
            vectors = data.draw(arrays(np.float64, (len(owners), dim), elements=wide_floats))
            g.insert_block(owners, vectors,
                           data.draw(st.lists(st.integers(0, bins - 1), min_size=len(owners),
                                              max_size=len(owners))))
        queries = data.draw(arrays(np.float64, (n_queries, dim), elements=wide_floats))
        # Persons 6 and 7 are never stored; pairs may repeat.
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n_queries - 1), st.integers(0, 7)),
                                   max_size=12))
        dets = np.array([i for i, _ in pairs], dtype=np.int64)
        persons = np.array([p for _, p in pairs], dtype=np.int64)
        got = g.pair_distances(queries, dets, persons)
        expected = g.distances(queries, list(range(8)))[dets, persons]
        assert got.shape == (len(pairs),)
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == reference_pair_distances(g, queries, dets, persons).tobytes()
        assert np.isinf(got[~np.isin(persons, g._owners)]).all()

    def test_rejects_a_non_finite_feature(self):
        g = Gallery("full")
        g.insert(1, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            g.pair_distances(np.array([[np.nan, 0.0]]), np.array([0]), np.array([1]))
