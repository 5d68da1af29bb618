"""Constant-velocity Kalman filtering on bounding-box state.

State is (cx, cy, w, h, vx, vy) in pixels and pixels/frame; measurements are
(cx, cy, w, h).  The transition is linear, so the filter is an ordinary
Kalman filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATE_DIM = 6
MEAS_DIM = 4

TRANSITION = np.eye(STATE_DIM)
TRANSITION[0, 4] = 1.0
TRANSITION[1, 5] = 1.0

MEAS_MATRIX = np.zeros((MEAS_DIM, STATE_DIM))
MEAS_MATRIX[:4, :4] = np.eye(4)

# White-acceleration-style weighting: position/size components vs velocity.
PROCESS_WEIGHTS = np.array([0.25, 0.25, 0.25, 0.25, 1.0, 1.0])

INITIAL_COV_DIAG = np.array([10.0, 10.0, 10.0, 10.0, 100.0, 100.0])


@dataclass
class TrackState:
    """One track, (6,) mean and (6, 6) covariance, or a stack of T tracks,
    (T, 6) means and (T, 6, 6) covariances; every function here takes either."""

    mean: np.ndarray
    cov: np.ndarray  # symmetric PSD


def box_to_measurement(left, top, width, height) -> np.ndarray:
    """(left, top, width, height) to (cx, cy, w, h), elementwise: scalars give
    a (4,) row and ``box_to_measurement(*boxes.T)`` an (n, 4) block."""
    return np.array([left + width / 2.0, top + height / 2.0, width, height]).T


def initial_state(z: np.ndarray) -> TrackState:
    """State from a (4,) or (T, 4) first measurement: zero velocity, wide velocity prior."""
    z = np.asarray(z, dtype=float)
    mean = np.zeros(z.shape[:-1] + (STATE_DIM,))
    mean[..., :MEAS_DIM] = z
    cov = np.broadcast_to(np.diag(INITIAL_COV_DIAG), z.shape[:-1] + (STATE_DIM, STATE_DIM))
    return TrackState(mean=mean, cov=cov.copy())


def predict(state: TrackState, q: float = 1.0) -> TrackState:
    """One-step prediction under the dt=1 constant-velocity model."""
    mean = state.mean @ TRANSITION.T
    cov = TRANSITION @ state.cov @ TRANSITION.T + q * np.diag(PROCESS_WEIGHTS)
    return TrackState(mean=mean, cov=(cov + cov.swapaxes(-1, -2)) / 2.0)


def _innovation_cov(cov: np.ndarray, r: float) -> np.ndarray:
    """Innovation covariance of one (6, 6) state covariance or a (T, 6, 6) stack."""
    return MEAS_MATRIX @ cov @ MEAS_MATRIX.T + r * np.eye(MEAS_DIM)


def update(state: TrackState, z: np.ndarray, r: float = 10.0) -> TrackState:
    """Kalman update by one (4,) measurement per track; Joseph form keeps the covariance PSD."""
    S = _innovation_cov(state.cov, r)
    PHt = state.cov @ MEAS_MATRIX.T
    K = np.linalg.solve(S.swapaxes(-1, -2), PHt.swapaxes(-1, -2)).swapaxes(-1, -2)
    innovation = z - state.mean @ MEAS_MATRIX.T
    mean = state.mean + (K @ innovation[..., None])[..., 0]
    IKH = np.eye(STATE_DIM) - K @ MEAS_MATRIX
    cov = IKH @ state.cov @ IKH.swapaxes(-1, -2) + r * (K @ K.swapaxes(-1, -2))
    return TrackState(mean=mean, cov=(cov + cov.swapaxes(-1, -2)) / 2.0)


def squared_mahalanobis(
    states: TrackState, measurements: np.ndarray, r: float = 10.0
) -> np.ndarray:
    """Squared innovation-covariance distances of every measurement to every state.

    ``states`` is one track or a stack of T.  Returns an (n_measurements, T)
    matrix from one batched solve: each track's innovation covariance is
    solved against all measurements' innovations at once.
    """
    z = np.asarray(measurements, dtype=float).reshape(-1, MEAS_DIM)
    means = states.mean.reshape(-1, STATE_DIM) @ MEAS_MATRIX.T
    S = _innovation_cov(states.cov.reshape(-1, STATE_DIM, STATE_DIM), r)
    innovations = z[None, :, :] - means[:, None, :]  # (T, N, 4)
    solved = np.linalg.solve(S, innovations.transpose(0, 2, 1))  # (T, 4, N)
    return np.einsum("tnk,tkn->nt", innovations, solved)


def mahalanobis(state: TrackState, z: np.ndarray, r: float = 10.0) -> float:
    """Innovation-covariance-weighted distance between prediction and measurement."""
    return float(np.sqrt(squared_mahalanobis(state, z, r)[0, 0]))
