import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orientrack.filtering import (
    MEAS_MATRIX,
    PROCESS_WEIGHTS,
    TRANSITION,
    TrackState,
    box_to_measurement,
    initial_state,
    mahalanobis,
    predict,
    squared_mahalanobis,
    update,
)


def random_state(rng):
    mean = rng.normal(0, 50, size=6)
    mean[2:4] = np.abs(mean[2:4]) + 5
    root = rng.normal(0, 2, size=(6, 6))
    return TrackState(mean=mean, cov=root @ root.T + 0.1 * np.eye(6))


def textbook_update(mean, cov, z, r):
    """Independent oracle: plain textbook Kalman update equations."""
    H = MEAS_MATRIX
    S = H @ cov @ H.T + r * np.eye(4)
    K = cov @ H.T @ np.linalg.inv(S)
    new_mean = mean + K @ (z - H @ mean)
    new_cov = (np.eye(6) - K @ H) @ cov
    return new_mean, new_cov


class TestPredict:
    def test_deterministic_cv_step(self):
        s = TrackState(mean=np.array([0.0, 0.0, 10.0, 20.0, 1.0, 2.0]), cov=np.eye(6))
        out = predict(s, q=0.0)
        np.testing.assert_allclose(out.mean, [1, 2, 10, 20, 1, 2])
        np.testing.assert_allclose(out.cov, TRANSITION @ s.cov @ TRANSITION.T)

    def test_stationary_mean_unchanged(self):
        s = TrackState(mean=np.array([5.0, 6.0, 10.0, 20.0, 0.0, 0.0]), cov=np.eye(6))
        np.testing.assert_allclose(predict(s, q=0.0).mean, s.mean)

    def test_two_steps_equal_dt2_transition(self):
        # Oracle: the dt=2 transition applied directly to the mean.
        rng = np.random.default_rng(0)
        s = random_state(rng)
        twice = predict(predict(s, q=0.0), q=0.0)
        F2 = TRANSITION @ TRANSITION
        np.testing.assert_allclose(twice.mean, F2 @ s.mean, atol=1e-9)
        np.testing.assert_allclose(twice.cov, F2 @ s.cov @ F2.T, atol=1e-9)


class TestUpdate:
    def test_perfect_measurement_limit(self):
        rng = np.random.default_rng(1)
        s = random_state(rng)
        z = np.array([100.0, 50.0, 30.0, 60.0])
        out = update(s, z, r=1e-12)
        np.testing.assert_allclose(out.mean[:4], z, atol=1e-6)

    def test_perfect_prior_limit(self):
        rng = np.random.default_rng(2)
        s = random_state(rng)
        s = TrackState(mean=s.mean, cov=s.cov * 1e-12)
        z = s.mean[:4] + np.array([5.0, -3.0, 2.0, 1.0])
        out = update(s, z, r=10.0)
        np.testing.assert_allclose(out.mean, s.mean, atol=1e-6)

    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_state(rng)
            z = rng.normal(0, 30, size=4)
            r = float(rng.uniform(0.1, 20))
            expected_mean, expected_cov = textbook_update(s.mean, s.cov, z, r)
            out = update(s, z, r)
            np.testing.assert_allclose(out.mean, expected_mean, atol=1e-9)
            np.testing.assert_allclose(out.cov, expected_cov, atol=1e-9)


class TestMahalanobis:
    def test_zero_innovation(self):
        rng = np.random.default_rng(4)
        s = random_state(rng)
        assert mahalanobis(s, s.mean[:4].copy(), r=5.0) == 0.0

    def test_identity_metric_equals_euclidean(self):
        mean = np.array([10.0, 20.0, 30.0, 60.0, 0.0, 0.0])
        s = TrackState(mean=mean, cov=np.zeros((6, 6)))
        z = mean[:4] + np.array([3.0, 4.0, 0.0, 0.0])
        assert mahalanobis(s, z, r=1.0) == pytest.approx(5.0, abs=1e-12)

    def test_matches_solve_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_state(rng)
            z = rng.normal(0, 30, size=4)
            r = float(rng.uniform(0.1, 20))
            S = MEAS_MATRIX @ s.cov @ MEAS_MATRIX.T + r * np.eye(4)
            nu = z - MEAS_MATRIX @ s.mean
            expected = float(np.sqrt(nu @ np.linalg.inv(S) @ nu))
            assert mahalanobis(s, z, r) == pytest.approx(expected, abs=1e-9)

    def test_scaled_identity_metric(self):
        mean = np.zeros(6)
        s = TrackState(mean=mean, cov=np.zeros((6, 6)))
        z = np.array([3.0, 4.0, 0.0, 0.0])
        sigma = 2.5
        assert mahalanobis(s, z, r=sigma**2) == pytest.approx(5.0 / sigma, abs=1e-12)


class TestCovarianceHealth:
    def test_psd_over_many_cycles(self):
        rng = np.random.default_rng(6)
        s = initial_state(np.array([100.0, 100.0, 40.0, 80.0]))
        for _ in range(1000):
            s = predict(s, q=float(rng.uniform(0.1, 5)))
            z = s.mean[:4] + rng.normal(0, 5, size=4)
            s = update(s, z, r=float(rng.uniform(0.5, 20)))
            assert np.allclose(s.cov, s.cov.T, atol=1e-9)
            assert np.linalg.eigvalsh(s.cov).min() >= -1e-9

    def test_noiseless_cv_target_converges(self):
        velocity = np.array([2.0, -1.0])
        position = np.array([100.0, 500.0])
        size = np.array([40.0, 80.0])
        s = initial_state(np.concatenate([position, size]))
        errors = []
        for _ in range(100):
            position = position + velocity
            s = predict(s, q=1e-6)
            s = update(s, np.concatenate([position, size]), r=1e-6)
            errors.append(np.linalg.norm(s.mean[:2] - position))
        assert max(errors[-20:]) < 1e-3


class TestMeasurementConversion:
    def test_round_trip(self):
        z = box_to_measurement(10.0, 20.0, 30.0, 60.0)
        np.testing.assert_allclose(z, [25.0, 50.0, 30.0, 60.0])

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_stacked_equals_per_row(self, seed, count):
        rng = np.random.default_rng(seed)
        boxes = np.column_stack([rng.normal(0, 500, (count, 2)),
                                 rng.uniform(0.1, 300, (count, 2))])
        stacked = box_to_measurement(*boxes.T)
        assert stacked.shape == (count, 4)
        for row, box in zip(stacked, boxes.tolist()):
            assert row.tobytes() == box_to_measurement(*box).tobytes()


class TestStackedMatchesPerRow:
    """A (T, ...) stack must give, row for row, the bits of T single-track calls."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 8),
        q=st.floats(0.01, 10.0),
        r=st.floats(0.01, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_initial_predict_update(self, seed, count, q, r):
        rng = np.random.default_rng(seed)
        states = [random_state(rng) for _ in range(count)]
        z = rng.normal(0, 50, size=(count, 4))
        stack = TrackState(
            mean=np.array([s.mean for s in states]).reshape(count, 6),
            cov=np.array([s.cov for s in states]).reshape(count, 6, 6),
        )
        born = initial_state(z)
        predicted = predict(stack, q)
        updated = update(predicted, z, r)
        assert born.mean.shape == predicted.mean.shape == updated.mean.shape == (count, 6)
        assert born.cov.shape == predicted.cov.shape == updated.cov.shape == (count, 6, 6)
        for t, state in enumerate(states):
            one_born = initial_state(z[t])
            one_predicted = predict(state, q)
            one_updated = update(one_predicted, z[t], r)
            for stacked, single in ((born, one_born), (predicted, one_predicted),
                                    (updated, one_updated)):
                assert np.array_equal(stacked.mean[t], single.mean)
                assert np.array_equal(stacked.cov[t], single.cov)


def product_predict(state, q):
    """The transition and process noise as full matrix products."""
    mean = state.mean @ TRANSITION.T
    cov = TRANSITION @ state.cov @ TRANSITION.T + q * np.diag(PROCESS_WEIGHTS)
    return TrackState(mean=mean, cov=(cov + cov.swapaxes(-1, -2)) / 2.0)


def product_update(state, z, r):
    """The Joseph-form update with every H product written out as a matrix product."""
    H = MEAS_MATRIX
    S = H @ state.cov @ H.T + r * np.eye(4)
    PHt = state.cov @ H.T
    K = np.linalg.solve(S.swapaxes(-1, -2), PHt.swapaxes(-1, -2)).swapaxes(-1, -2)
    mean = state.mean + (K @ (z - state.mean @ H.T)[..., None])[..., 0]
    IKH = np.eye(6) - K @ H
    cov = IKH @ state.cov @ IKH.swapaxes(-1, -2) + r * (K @ K.swapaxes(-1, -2))
    return TrackState(mean=mean, cov=(cov + cov.swapaxes(-1, -2)) / 2.0)


def product_squared_mahalanobis(states, z, r):
    means = states.mean.reshape(-1, 6) @ MEAS_MATRIX.T
    covs = states.cov.reshape(-1, 6, 6)
    S = MEAS_MATRIX @ covs @ MEAS_MATRIX.T + r * np.eye(4)
    innovations = z[None, :, :] - means[:, None, :]
    solved = np.linalg.solve(S, innovations.transpose(0, 2, 1))
    return np.einsum("tnk,tkn->nt", innovations, solved)


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSlicedFormsMatchProducts:
    """H = [I 0] applied by slicing must give the bytes of the matrix products."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 6),
        steps=st.integers(1, 40),
        q=st.floats(0.01, 10.0),
        r=st.floats(0.01, 50.0),
        whole=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_predict_update_chain_from_initial_state(self, seed, count, steps, q, r, whole):
        rng = np.random.default_rng(seed)
        start = np.column_stack([rng.uniform(-500, 500, (count, 2)),
                                 rng.uniform(5, 200, (count, 2))])
        velocity = np.column_stack([rng.normal(0, 3, (count, 2)), np.zeros((count, 2))])
        if whole:  # integer boxes and velocities: exact zeros in innovations and gains
            start, velocity = np.round(start), np.round(velocity)
        state = initial_state(start)
        for step in range(1, steps + 1):
            expected, state = product_predict(state, q), predict(state, q)
            assert same_bytes(state.mean, expected.mean)
            assert same_bytes(state.cov, expected.cov)
            z = start + step * velocity
            if not whole:
                z = z + rng.normal(0, 2, z.shape)
            assert same_bytes(squared_mahalanobis(state, z, r),
                              product_squared_mahalanobis(state, z, r))
            expected, state = product_update(state, z, r), update(state, z, r)
            assert same_bytes(state.mean, expected.mean)
            assert same_bytes(state.cov, expected.cov)
            assert same_bytes(state.cov, state.cov.swapaxes(-1, -2))
            # One track on its own takes the same path.
            one = update(predict(TrackState(state.mean[0], state.cov[0]), q), z[0], r)
            assert same_bytes(one.cov, product_update(
                product_predict(TrackState(state.mean[0], state.cov[0]), q), z[0], r).cov)
