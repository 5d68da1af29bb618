import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from orientrack import association
from orientrack.association import (
    CHI2_GATE,
    ParticleSet,
    appearance_likelihood,
    combine,
    effective_sample_size,
    position_likelihood,
    rbpf_step,
    systematic_resample,
)
from orientrack.filtering import (
    MEAS_MATRIX,
    TrackState,
    gated_squared_mahalanobis,
    initial_state,
    predict,
    squared_mahalanobis,
    update,
)
from orientrack.gallery import Gallery
from orientrack.io_formats import write_tracks
from orientrack.synth import SynthConfig, generate
from orientrack.tracker import TrackerConfig, run_sequence
from test_gallery import reference_pair_distances


def stacked(states):
    """The (T, 6) / (T, 6, 6) TrackState of a list of single-track states."""
    return TrackState(
        mean=np.array([s.mean for s in states]).reshape(-1, 6),
        cov=np.array([s.cov for s in states]).reshape(-1, 6, 6),
    )


def track_at(cx, cy, w=40.0, h=80.0, tight=True):
    state = initial_state(np.array([cx, cy, w, h]))
    if tight:
        state = TrackState(mean=state.mean, cov=state.cov * 1e-6)
    return state


class TestPositionLikelihood:
    def test_detection_at_prediction(self):
        # High-precision oracle: row = (1, e^-9) renormalized.
        matrix = position_likelihood(
            stacked([track_at(100, 100)]), [np.array([100.0, 100.0, 40.0, 80.0])],
            r=10.0, d0=9.0,
        )
        expected = np.array([1.0, math.exp(-9.0)])
        expected /= expected.sum()
        np.testing.assert_allclose(matrix[0], expected, atol=1e-12)
        assert matrix[0, 0] == pytest.approx(0.99988, abs=1e-5)

    def test_symmetric_tracks_get_equal_mass(self):
        tracks = [track_at(90, 100), track_at(110, 100)]
        matrix = position_likelihood(
            stacked(tracks), [np.array([100.0, 100.0, 40.0, 80.0])], r=10.0, d0=50.0
        )
        assert matrix[0, 0] == pytest.approx(matrix[0, 1], abs=1e-9)

    def test_gating_fallback_to_new_track(self):
        matrix = position_likelihood(
            stacked([track_at(0, 0)]), [np.array([5000.0, 5000.0, 40.0, 80.0])],
            r=10.0, d0=4.0,
        )
        np.testing.assert_allclose(matrix[0], [0.0, 1.0])

    def test_gate_applies_to_squared_distance(self):
        # r = 1 and a zero state covariance make S = I, so d^2 = dx^2.
        track = TrackState(mean=np.array([0.0, 0.0, 40.0, 80.0, 0.0, 0.0]), cov=np.zeros((6, 6)))
        inside, outside = np.sqrt(CHI2_GATE * (1 - 1e-9)), np.sqrt(CHI2_GATE * (1 + 1e-9))
        dets = [np.array([dx, 0.0, 40.0, 80.0]) for dx in (inside, outside)]
        matrix = position_likelihood(stacked([track]), dets, r=1.0, d0=4.0)
        assert matrix[0, 0] > 0.0
        assert matrix[1, 0] == 0.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        tracks = [track_at(*rng.uniform(0, 500, 2), tight=False) for _ in range(4)]
        dets = [np.concatenate([rng.uniform(0, 500, 2), [40, 80]]) for _ in range(6)]
        matrix = position_likelihood(stacked(tracks), dets)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)


class TestAppearanceLikelihood:
    def test_exact_gallery_hit_dominates(self):
        g = Gallery("averaged")
        g.insert(1, np.array([1.0, 0.0]))
        g.insert(2, np.array([-5.0, 0.0]))  # distance >= 5 from the query
        matrix = appearance_likelihood(g, [np.array([1.0, 0.0])], [1, 2], d0_app=5.0)
        # Oracle: softmin over (0, 6, 5) -> e^0 dominates the 3 columns.
        expected = np.array([1.0, math.exp(-6.0), math.exp(-5.0)])
        expected /= expected.sum()
        np.testing.assert_allclose(matrix[0], expected, atol=1e-12)
        assert matrix[0, 0] >= 0.7

    def test_equidistant_persons_get_equal_mass(self):
        g = Gallery("averaged")
        g.insert(1, np.array([1.0, 0.0]))
        g.insert(2, np.array([-1.0, 0.0]))
        matrix = appearance_likelihood(g, [np.array([0.0, 0.0])], [1, 2])
        assert matrix[0, 0] == pytest.approx(matrix[0, 1], abs=1e-12)

    def test_empty_galleries_are_uninformative(self):
        g = Gallery("averaged")
        matrix = appearance_likelihood(g, [np.array([1.0, 0.0])], [1, 2], d0_app=1.5)
        np.testing.assert_allclose(matrix[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


class TestCombine:
    def test_uniform_position_factor_cancels(self):
        pos = np.array([[0.5, 0.5]])
        app = np.array([[0.9, 0.1]])
        np.testing.assert_allclose(combine(pos, app, "pos_app"), [[0.9, 0.1]], atol=1e-12)

    def test_opposing_factors_cancel(self):
        # Oracle: products (0.16, 0.16) renormalize to (0.5, 0.5).
        pos = np.array([[0.8, 0.2]])
        app = np.array([[0.2, 0.8]])
        np.testing.assert_allclose(combine(pos, app, "pos_app"), [[0.5, 0.5]], atol=1e-12)

    def test_pos_only_passthrough(self):
        pos = np.array([[0.25, 0.75]])
        np.testing.assert_allclose(combine(pos, None, "pos_only"), pos, atol=1e-12)

    def test_app_only_passthrough(self):
        app = np.array([[0.6, 0.4]])
        np.testing.assert_allclose(combine(None, app, "app_only"), app, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            combine(np.ones((1, 2)) / 2, np.ones((1, 3)) / 3, "pos_app")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            combine(np.ones((1, 2)) / 2, None, "both")


class TestRbpfStep:
    def test_unambiguous_scenario_gives_identity_matching(self):
        matrix = np.array(
            [[0.999, 1e-9, 1e-3], [1e-9, 0.999, 1e-3]]
        )
        matrix /= matrix.sum(axis=1, keepdims=True)
        ps = ParticleSet.initial(20)
        rng = np.random.default_rng(0)
        for _ in range(5):
            ps, consensus = rbpf_step(ps, matrix, rng)
            assert list(consensus) == [0, 1]
        assert np.all(ps.assignments == [0, 1])

    def test_single_particle_argmax_is_greedy(self):
        class FirstColumnRng:
            # u = 0 picks the first column with mass that is not taken.
            def random(self, shape):
                return np.zeros(shape)

        matrix = np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1]])
        ps = ParticleSet.initial(1)
        ps2, consensus = rbpf_step(ps, matrix, FirstColumnRng())
        # Greedy: det 0 takes track 0; det 1 must take track 1 (a broken
        # taken-column mask would give [0, 0]).
        assert list(consensus) == [0, 1]

    def test_one_to_one_within_particles(self):
        rng = np.random.default_rng(1)
        matrix = rng.random((4, 4)) + 0.05
        matrix /= matrix.sum(axis=1, keepdims=True)
        ps = ParticleSet.initial(30)
        ps, _ = rbpf_step(ps, matrix, rng)
        new_col = matrix.shape[1] - 1
        for assignment in ps.assignments:
            real = [c for c in assignment if c != new_col]
            assert len(real) == len(set(real))

    def test_weights_stay_normalized(self):
        rng = np.random.default_rng(2)
        ps = ParticleSet.initial(20)
        for _ in range(50):
            matrix = rng.random((3, 4)) + 0.01
            matrix /= matrix.sum(axis=1, keepdims=True)
            ps, _ = rbpf_step(ps, matrix, rng)
            assert ps.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert (ps.weights >= 0).all()

    def test_sampling_frequencies_match_probabilities(self):
        # Monte-Carlo oracle: one detection, two equal tracks.
        eps = 1e-12
        matrix = np.array([[0.5, 0.5, eps]])
        matrix /= matrix.sum()
        rng = np.random.default_rng(3)
        counts = np.zeros(3)
        trials = 100_000
        for _ in range(trials):
            ps = ParticleSet.initial(1)
            _, consensus = rbpf_step(ps, matrix, rng)
            counts[consensus[0]] += 1
        assert counts[0] / trials == pytest.approx(0.5, abs=0.01)
        assert counts[1] / trials == pytest.approx(0.5, abs=0.01)

    def test_systematic_resample_preserves_distribution(self):
        # 2-outcome toy case: resampled frequencies track the weights.
        weights = np.array([0.3, 0.7])
        rng = np.random.default_rng(4)
        counts = np.zeros(2)
        trials = 100_000
        for _ in range(trials):
            counts += np.bincount(systematic_resample(weights, rng), minlength=2)
        fractions = counts / counts.sum()
        assert fractions[0] == pytest.approx(0.3, abs=0.02)
        assert fractions[1] == pytest.approx(0.7, abs=0.02)


def reference_squared_mahalanobis(state, z, r):
    """The one-pair innovation-covariance distance, squared."""
    S = MEAS_MATRIX @ state.cov @ MEAS_MATRIX.T + r * np.eye(4)
    innovation = z - MEAS_MATRIX @ state.mean
    return float(innovation @ np.linalg.solve(S, innovation))


def reference_position_likelihood(tracks, measurements, r, d0, gate=CHI2_GATE):
    """Per-pair loop over the one-pair distance, then per-row normalisation."""
    matrix = np.zeros((len(measurements), len(tracks) + 1))
    for i, z in enumerate(measurements):
        for j, track in enumerate(tracks):
            d = np.sqrt(reference_squared_mahalanobis(track, z, r))
            matrix[i, j] = 0.0 if d * d > gate else np.exp(-d)
        matrix[i, -1] = np.exp(-d0)
        matrix[i] /= matrix[i].sum()
    return matrix


def reference_rbpf_step(ps, matrix, rng):
    """One ``rng.choice`` call per (particle, detection), particle-major."""
    n_det, n_cols = matrix.shape
    new_col = n_cols - 1
    particles = len(ps.weights)
    assignments = np.full((particles, n_det), new_col, dtype=np.int64)
    weights = ps.weights.copy()
    for p in range(particles):
        taken: set[int] = set()
        for i in range(n_det):
            probs = matrix[i].copy()
            for col in taken:
                probs[col] = 0.0
            total = probs.sum()
            if total <= 0.0:
                rng.random()  # the row still uses up its uniform (draw contract)
                col = new_col
            else:
                col = int(rng.choice(n_cols, p=probs / total))
            assignments[p, i] = col
            weights[p] *= matrix[i, col]
            if col != new_col:
                taken.add(col)
    total = weights.sum()
    weights = np.full(particles, 1.0 / particles) if total <= 0.0 else weights / total
    consensus = assignments[int(np.argmax(weights))].copy()
    if effective_sample_size(weights) < particles / 2.0:
        assignments = assignments[systematic_resample(weights, rng)]
        weights = np.full(particles, 1.0 / particles)
    return ParticleSet(assignments=assignments, weights=weights), consensus


def random_tracks(rng, count, spread):
    """Tracks with full (correlated) covariances, as after a few KF cycles."""
    tracks = []
    for _ in range(count):
        mean = np.concatenate([rng.uniform(0, spread, 2), rng.uniform(10, 100, 2),
                               rng.normal(0, 2, 2)])
        basis = rng.normal(0, rng.uniform(0.1, 5.0), (6, 6))
        tracks.append(TrackState(mean=mean, cov=basis @ basis.T + 0.5 * np.eye(6)))
    return tracks


class TestBatchedMatchesReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trk=st.integers(0, 6),
        n_det=st.integers(0, 6),
        spread=st.sampled_from([5.0, 50.0, 500.0]),
        r=st.floats(0.5, 50.0),
        d0=st.floats(0.5, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_position_likelihood_equals_pair_loop(self, seed, n_trk, n_det, spread, r, d0):
        rng = np.random.default_rng(seed)
        tracks = random_tracks(rng, n_trk, spread)
        dets = [np.concatenate([rng.uniform(0, spread, 2), rng.uniform(10, 100, 2)])
                for _ in range(n_det)]
        squared = np.array([[reference_squared_mahalanobis(t, z, r) for t in tracks]
                            for z in dets])
        # Away from the gate a last-digit difference cannot flip a pair.
        assume(not np.any(np.abs(squared - CHI2_GATE) < 1e-9))
        expected = reference_position_likelihood(tracks, dets, r, d0)
        matrix = position_likelihood(stacked(tracks), dets, r, d0)
        assert matrix.shape == (n_det, n_trk + 1)
        np.testing.assert_array_equal(matrix == 0.0, expected == 0.0)
        np.testing.assert_allclose(matrix, expected, rtol=1e-12, atol=0.0)

    @given(
        data=st.data(),
        particles=st.integers(1, 8),
        # Up to 13 columns: numpy sums rows of 9 or more in blocks of 8.
        n_trk=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        frames=st.integers(1, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_rbpf_step_equals_choice_loop(self, data, particles, n_trk, seed, frames):
        mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
        ps = expected_ps = ParticleSet.initial(particles)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(frames):
            n_det = data.draw(st.integers(0, 6))
            matrix = data.draw(arrays(np.float64, (n_det, n_trk + 1), elements=mass))
            # NEW_TRACK keeps mass, as it does in every normalized row.
            matrix[:, -1] = data.draw(arrays(np.float64, n_det, elements=st.floats(1e-3, 1.0)))
            ps, consensus = rbpf_step(ps, matrix, rng)
            expected_ps, expected = reference_rbpf_step(expected_ps, matrix, reference_rng)
            np.testing.assert_array_equal(ps.assignments, expected_ps.assignments)
            np.testing.assert_array_equal(ps.weights, expected_ps.weights)
            np.testing.assert_array_equal(consensus, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def crowd_matrix(rng, n_det, n_trk, blocky, width, dense, empty, no_new):
    """A gated crowd's rows: each supports the ``width`` columns around a drawn
    track (banded) or that track's block of ``width`` columns (blocky).  A
    ``dense`` share of rows supports every column, an ``empty`` share none,
    and a ``no_new`` share has no NEW_TRACK mass, so it can run out of mass."""
    matrix = np.zeros((n_det, n_trk + 1))
    if n_trk:
        centre = rng.integers(0, n_trk, n_det)[:, None]
        cols = np.arange(n_trk)
        if blocky:
            support = cols // width == centre // width
        else:
            support = np.abs(cols - centre) < width
        support |= rng.random((n_det, 1)) < dense
        support &= rng.random((n_det, 1)) >= empty
        matrix[:, :-1] = np.where(support, rng.uniform(1e-3, 1.0, (n_det, n_trk)), 0.0)
    matrix[:, -1] = np.where(rng.random(n_det) < no_new, 0.0, rng.uniform(1e-3, 1.0, n_det))
    return matrix


def contested_rows(matrix):
    """The rows that share a real-track column with an earlier row."""
    support = matrix[:, :-1] > 0.0
    earlier = np.add.accumulate(support, axis=0) - support
    return np.flatnonzero(np.any(support & (earlier > 0), axis=1))


class TestContestedRedrawMatchesReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        particles=st.integers(1, 8),
        n_det=st.integers(0, 40),
        n_trk=st.integers(0, 40),
        blocky=st.booleans(),
        width=st.integers(1, 4),
        dense=st.sampled_from([0.0, 0.1, 1.0]),
        empty=st.sampled_from([0.0, 0.2]),
        no_new=st.sampled_from([0.0, 0.3, 1.0]),
        frames=st.integers(1, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_crowd_rows_equal_choice_loop(
        self, seed, particles, n_det, n_trk, blocky, width, dense, empty, no_new, frames
    ):
        shape = np.random.default_rng(seed)
        ps = expected_ps = ParticleSet.initial(particles)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(frames):
            matrix = crowd_matrix(shape, n_det, n_trk, blocky, width, dense, empty, no_new)
            ps, consensus = rbpf_step(ps, matrix, rng)
            expected_ps, expected = reference_rbpf_step(expected_ps, matrix, reference_rng)
            np.testing.assert_array_equal(ps.assignments, expected_ps.assignments)
            np.testing.assert_array_equal(ps.weights, expected_ps.weights)
            np.testing.assert_array_equal(consensus, expected)
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_chained_contested_rows_equal_choice_loop(self, seed):
        # Row 2 meets row 0 on column 0 and row 4 meets row 2 on column 2, a
        # chain; row 3 is uncontested and comes after the contested row 2.
        matrix = np.array([
            [0.8, 0.0, 0.0, 0.0, 0.0, 0.2],
            [0.0, 0.9, 0.0, 0.0, 0.0, 0.1],
            [0.5, 0.0, 0.4, 0.0, 0.0, 0.1],
            [0.0, 0.0, 0.0, 0.6, 0.0, 0.4],
            [0.0, 0.0, 0.7, 0.0, 0.1, 0.2],
        ])
        assert list(contested_rows(matrix)) == [2, 4]
        ps = expected_ps = ParticleSet.initial(8)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ps, consensus = rbpf_step(ps, matrix, rng)
        expected_ps, expected = reference_rbpf_step(expected_ps, matrix, reference_rng)
        np.testing.assert_array_equal(ps.assignments, expected_ps.assignments)
        np.testing.assert_array_equal(ps.weights, expected_ps.weights)
        np.testing.assert_array_equal(consensus, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_massless_first_row_takes_new_track_in_every_particle(self):
        # Rows 0, 1 and 2 are uncontested, so their first draws stand; row 1
        # has no mass at all, NEW_TRACK included.  Row 3 meets row 0's
        # support, so it is contested and redrawn.
        matrix = np.array([
            [0.6, 0.0, 0.0, 0.4],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.7, 0.3],
            [0.5, 0.3, 0.0, 0.2],
        ])
        ps = expected_ps = ParticleSet.initial(6)
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        ps, consensus = rbpf_step(ps, matrix, rng)
        expected_ps, expected = reference_rbpf_step(expected_ps, matrix, reference_rng)
        assert np.all(ps.assignments[:, 1] == 3)
        np.testing.assert_array_equal(ps.assignments, expected_ps.assignments)
        np.testing.assert_array_equal(ps.weights, expected_ps.weights)
        np.testing.assert_array_equal(consensus, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_rejects_a_row_sum_that_overflows(self):
        # Finite entries whose sum is inf would make every cdf NaN and pick
        # column 0 whether or not it has mass.
        matrix = np.array([[0.0, 1e308, 1e308, 1.0]])
        with pytest.raises(ValueError, match="finite sums"):
            rbpf_step(ParticleSet.initial(2), matrix, np.random.default_rng(0))


class TestTrackerWithReferenceSampler:
    def test_crowd_clip_writes_identical_tracks(self, monkeypatch):
        # A short clip of the 32-person circling crowd, whose gated frames
        # hold several contested rows and whose persons hold several
        # orientation-bin rows each.  The reference run samples with one
        # rng.choice per row and reads the gallery with one norm per pair.
        data = generate(SynthConfig(persons=32, frames=12, sigma_det=2.0, kappa=0.8,
                                    sigma=0.3, seed=0))
        config = TrackerConfig(mode="pos_app", gallery="orient", bins=5, particles=20,
                               q=2.0, seed=0)
        matrices, owners = [], []
        batched, segmented = association.rbpf_step, Gallery.pair_distances

        def recording(ps, matrix, rng):
            matrices.append(matrix)
            return batched(ps, matrix, rng)

        def recording_distances(gallery, features, dets, persons):
            owners.append(gallery._owners.copy())
            return segmented(gallery, features, dets, persons)

        def track():
            return write_tracks(run_sequence(config, data.det_text, data.features_text,
                                             data.keypoints_text))

        monkeypatch.setattr(association, "rbpf_step", recording)
        monkeypatch.setattr(Gallery, "pair_distances", recording_distances)
        text = track()
        assert max(len(contested_rows(m)) for m in matrices) > 2
        assert max(np.bincount(o).max() for o in owners if len(o)) > 1
        monkeypatch.setattr(association, "rbpf_step", reference_rbpf_step)
        monkeypatch.setattr(Gallery, "pair_distances", reference_pair_distances)
        assert track() == text


class TestRbpfDrawContract:
    def test_one_uniform_per_particle_and_detection(self):
        # Det 1 has mass only on track 0, which det 0 took: that row takes
        # NEW_TRACK at zero weight and still uses up its uniform.
        matrix = np.array([[1.0, 0.0], [1.0, 0.0]])
        rng, mirror = np.random.default_rng(5), np.random.default_rng(5)
        ps, consensus = rbpf_step(ParticleSet.initial(3), matrix, rng)
        mirror.random((3, 2))
        assert np.all(ps.assignments == [0, 1])
        assert list(consensus) == [0, 1]
        assert rng.bit_generator.state == mirror.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_rejects_non_finite_or_negative_matrix(self, bad):
        matrix = np.array([[0.5, 0.5], [0.2, 0.8]])
        matrix[1, 0] = bad
        with pytest.raises(ValueError):
            rbpf_step(ParticleSet.initial(4), matrix, np.random.default_rng(0))


def coasted_tracks(rng, count, spread, coast):
    """Tracks born at random boxes, then predicted up to ``coast`` times with
    no update, so their covariances grow and stretch along the velocity."""
    start = np.column_stack([rng.uniform(0, spread, (count, 2)), rng.uniform(10, 100, (count, 2))])
    state = initial_state(start)
    for _ in range(rng.integers(0, coast + 1)):
        state = predict(state, float(rng.uniform(0.01, 10.0)))
    if count and rng.random() < 0.5:
        state = update(state, start + rng.normal(0, 3, start.shape), float(rng.uniform(0.5, 50)))
    return state


def dense_position_likelihood(tracks, measurements, r, d0):
    """The dense form: every pair's distance from ``squared_mahalanobis``."""
    squared = squared_mahalanobis(tracks, measurements, r)
    matrix = np.empty((squared.shape[0], squared.shape[1] + 1))
    matrix[:, :-1] = np.where(squared > CHI2_GATE, 0.0, np.exp(-np.sqrt(squared)))
    matrix[:, -1] = np.exp(-d0)
    return association._normalize_rows(matrix)


class TestGateFirst:
    """The exact pre-gate keeps every pair the dense distances keep, and the
    gate-first matrices equal the dense ones up to rounding."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trk=st.integers(0, 6),
        n_det=st.integers(0, 6),
        spread=st.sampled_from([5.0, 50.0, 500.0, 5000.0]),
        coast=st.sampled_from([0, 5, 60, 400]),
        # Rank-one-heavy covariances, whose widest axis holds most of the trace.
        lopsided=st.booleans(),
        r=st.floats(0.5, 50.0),
        on_gate=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_pre_gate_keeps_every_pair_inside_the_gate(
        self, seed, n_trk, n_det, spread, coast, lopsided, r, on_gate
    ):
        rng = np.random.default_rng(seed)
        tracks = coasted_tracks(rng, n_trk, spread, coast)
        if lopsided:
            axes = rng.normal(size=(n_trk, 6, 1)) * rng.uniform(1, 1e3, (n_trk, 1, 1))
            tracks = TrackState(tracks.mean, axes @ axes.swapaxes(-1, -2) + 1e-3 * np.eye(6))
        dets = np.column_stack([rng.uniform(0, spread, (n_det, 2)),
                                rng.uniform(10, 100, (n_det, 2))])
        if on_gate and n_trk:
            # Each detection sits within 1e-9 of the gate of a drawn track,
            # along a column of the innovation covariance (where the
            # pre-gate's bound y_i^2 <= S_ii d^2 is an equality), its widest
            # axis, or a random one.
            for i in range(n_det):
                t = rng.integers(n_trk)
                S = tracks.cov[t, :4, :4] + r * np.eye(4)
                axis = (S[:, rng.integers(4)], np.linalg.eigh(S)[1][:, -1],
                        rng.normal(size=4))[rng.integers(3)]
                unit = squared_mahalanobis(TrackState(tracks.mean[t], tracks.cov[t]),
                                           tracks.mean[t, :4] + axis, r)[0, 0]
                scale = np.sqrt(CHI2_GATE / unit) * (1.0 + rng.uniform(-1e-9, 1e-9))
                dets[i] = tracks.mean[t, :4] + scale * axis
        dense = squared_mahalanobis(tracks, dets, r)
        kept_dets, kept_tracks, squared = gated_squared_mahalanobis(tracks, dets, CHI2_GATE, r)
        kept = np.zeros(dense.shape, dtype=bool)
        kept[kept_dets, kept_tracks] = True
        assert not np.any((dense <= CHI2_GATE) & ~kept)
        # The pair solve and the batched one round apart by up to about
        # cond(S) ulps, and coasted covariances reach cond(S) ~ 1e9.
        np.testing.assert_allclose(squared, dense[kept_dets, kept_tracks], rtol=1e-5, atol=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trk=st.integers(0, 7),
        n_det=st.integers(0, 7),
        spread=st.sampled_from([50.0, 300.0]),
        coast=st.sampled_from([0, 3, 30]),
        r=st.floats(0.5, 50.0),
        d0=st.floats(0.5, 10.0),
        d0_app=st.floats(0.5, 5.0),
        strategy=st.sampled_from(["full", "averaged", "random", "orient"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matrices_equal_the_dense_form(
        self, seed, n_trk, n_det, spread, coast, r, d0, d0_app, strategy
    ):
        rng = np.random.default_rng(seed)
        tracks = coasted_tracks(rng, n_trk, spread, coast)
        dets = np.column_stack([rng.uniform(0, spread, (n_det, 2)),
                                rng.uniform(10, 100, (n_det, 2))])
        # Away from the gate a last-digit difference cannot flip a pair.
        assume(not np.any(np.abs(squared_mahalanobis(tracks, dets, r) - CHI2_GATE) < 1e-9))
        ids = rng.permutation(20)[:n_trk] + 1
        g = Gallery(strategy, bins=3, seed=seed % 97)
        stored = [p for p in ids if rng.random() < 0.8]
        if stored:
            owners = rng.choice(stored, size=rng.integers(1, 12))
            g.insert_block(owners, rng.normal(0, 1, (len(owners), 8)),
                           rng.integers(0, 3, len(owners)))
        feats = rng.normal(0, 1, (n_det, 8))

        pos, dense_pos = (position_likelihood(tracks, dets, r, d0),
                          dense_position_likelihood(tracks, dets, r, d0))
        app = appearance_likelihood(g, feats, ids, d0_app, pos[:, :-1])
        dense_app = appearance_likelihood(g, feats, ids, d0_app)
        np.testing.assert_allclose(app.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(app[:, :-1][pos[:, :-1] == 0.0] == 0.0)
        for mode, got, expected in (
            ("pos_only", combine(pos, None, "pos_only"), combine(dense_pos, None, "pos_only")),
            ("pos_app", combine(pos, app, "pos_app"), combine(dense_pos, dense_app, "pos_app")),
        ):
            assert got.shape == expected.shape == (n_det, n_trk + 1), mode
            np.testing.assert_array_equal(got == 0.0, expected == 0.0, err_msg=mode)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0, err_msg=mode)

    def test_a_state_beyond_the_proven_variance_keeps_every_pair(self):
        # Covariances of 1e16-1e19 along one axis, against r of at most 50:
        # far beyond the 2^28 r that the pre-gate's rounding proof covers.
        # Each detection lies past the per-coordinate bound, so only the
        # variance check keeps it; at this condition number the dense solve
        # is rounding noise and puts some of these pairs inside the gate.
        rng = np.random.default_rng(7)
        inside = 0
        for _ in range(400):
            r = rng.uniform(0.5, 50.0)
            axis = rng.normal(size=6)
            axis /= np.linalg.norm(axis[:4])
            cov = 10.0 ** rng.uniform(16, 19) * np.outer(axis, axis) + 1e-3 * np.eye(6)
            S = cov[:4, :4] + r * np.eye(4)
            y = (axis[:4] * np.sqrt(2.0 * CHI2_GATE * np.trace(S))
                 + rng.normal(size=4) * rng.uniform(0, 10) * np.sqrt(r))
            if not np.any(y * y > 2.0 * CHI2_GATE * np.diag(S)):
                continue
            state = TrackState(np.zeros(6), cov)
            with np.errstate(invalid="ignore"):
                try:
                    dense = squared_mahalanobis(state, y, r)[0, 0]
                except np.linalg.LinAlgError:
                    continue
                dets, tracks, _ = gated_squared_mahalanobis(state, y, CHI2_GATE, r)
                got, expected = (position_likelihood(state, y, r, 5.0),
                                 dense_position_likelihood(state, y, r, 5.0))
            inside += not dense > CHI2_GATE
            assert dets.tolist() == tracks.tolist() == [0]
            # The pair solve and the batched one differ here in about the
            # ninth digit; NaN where the noise made d^2 negative.
            np.testing.assert_array_equal(got == 0.0, expected == 0.0)
            np.testing.assert_allclose(got, expected, rtol=1e-6, atol=0.0, equal_nan=True)
        assert inside

    def test_nan_reaches_the_sampler_as_in_the_dense_form(self):
        tracks = predict(initial_state(np.array(
            [[10.0, 10, 20, 40], [50, 50, 20, 40], [90, 10, 20, 40]])), 1.0)
        dets = np.array([[11.0, 10, 20, 40], [52, 50, 20, 40], [500, 500, 20, 40]])
        nan_det = dets.copy()
        nan_det[1, 0] = np.nan
        nan_cov = tracks.cov.copy()
        nan_cov[1, 0, :] = nan_cov[1, :, 0] = np.nan
        for state, z in ((tracks, nan_det), (TrackState(tracks.mean, nan_cov), dets)):
            with np.errstate(invalid="ignore"):
                got = position_likelihood(state, z, 10.0, 5.0)
                expected = dense_position_likelihood(state, z, 10.0, 5.0)
            assert np.isnan(expected).any()
            np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
            np.testing.assert_array_equal(got, expected)
            for matrix in (got, expected):
                with pytest.raises(ValueError, match="finite sums"):
                    rbpf_step(ParticleSet.initial(4), matrix, np.random.default_rng(0))
