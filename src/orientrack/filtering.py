"""Constant-velocity Kalman filtering on bounding-box state.

State is (cx, cy, w, h, vx, vy) in pixels and pixels/frame; measurements are
(cx, cy, w, h).  The transition is linear, so the filter is an ordinary
Kalman filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    mean: np.ndarray  # (6,)
    cov: np.ndarray  # (6, 6) symmetric PSD


def box_to_measurement(left: float, top: float, width: float, height: float) -> np.ndarray:
    """Convert a (left, top, width, height) box to a (cx, cy, w, h) measurement."""
    return np.array([left + width / 2.0, top + height / 2.0, width, height])


def initial_state(z: np.ndarray) -> TrackState:
    """Track state from a first measurement: zero velocity, wide velocity prior."""
    mean = np.zeros(STATE_DIM)
    mean[:4] = z
    return TrackState(mean=mean, cov=np.diag(INITIAL_COV_DIAG.copy()))


def predict(state: TrackState, q: float = 1.0) -> TrackState:
    """One-step prediction under the dt=1 constant-velocity model."""
    mean = TRANSITION @ state.mean
    cov = TRANSITION @ state.cov @ TRANSITION.T + q * np.diag(PROCESS_WEIGHTS)
    return TrackState(mean=mean, cov=(cov + cov.T) / 2.0)


def _innovation_cov(cov: np.ndarray, r: float) -> np.ndarray:
    """Innovation covariance of one (6, 6) state covariance or a (T, 6, 6) stack."""
    return MEAS_MATRIX @ cov @ MEAS_MATRIX.T + r * np.eye(MEAS_DIM)


def update(state: TrackState, z: np.ndarray, r: float = 10.0) -> TrackState:
    """Kalman measurement update; Joseph form keeps the covariance PSD."""
    S = _innovation_cov(state.cov, r)
    K = np.linalg.solve(S.T, (state.cov @ MEAS_MATRIX.T).T).T
    innovation = z - MEAS_MATRIX @ state.mean
    mean = state.mean + K @ innovation
    IKH = np.eye(STATE_DIM) - K @ MEAS_MATRIX
    cov = IKH @ state.cov @ IKH.T + r * (K @ K.T)
    return TrackState(mean=mean, cov=(cov + cov.T) / 2.0)


def squared_mahalanobis(
    states: Sequence[TrackState], measurements: Sequence[np.ndarray], r: float = 10.0
) -> np.ndarray:
    """Squared innovation-covariance distances of every measurement to every state.

    Returns an (n_measurements, n_states) matrix from one batched solve: the
    states' predicted measurements are stacked into (T, 4), their innovation
    covariances into (T, 4, 4), and each covariance is solved against all
    measurements' innovations at once.
    """
    z = np.asarray(measurements, dtype=float).reshape(-1, MEAS_DIM)
    if not states:
        return np.zeros((len(z), 0))
    means = np.stack([s.mean for s in states]) @ MEAS_MATRIX.T
    S = _innovation_cov(np.stack([s.cov for s in states]), r)
    innovations = z[None, :, :] - means[:, None, :]  # (T, N, 4)
    solved = np.linalg.solve(S, innovations.transpose(0, 2, 1))  # (T, 4, N)
    return np.einsum("tnk,tkn->nt", innovations, solved)


def mahalanobis(state: TrackState, z: np.ndarray, r: float = 10.0) -> float:
    """Innovation-covariance-weighted distance between prediction and measurement."""
    return float(np.sqrt(squared_mahalanobis([state], [z], r)[0, 0]))
