"""Constant-velocity Kalman filtering on bounding-box state.

State is (cx, cy, w, h, vx, vy) in pixels and pixels/frame; measurements are
(cx, cy, w, h).  The transition is linear, so the filter is an ordinary
Kalman filter.

The measurement matrix is H = [I 0], so its products are applied as slices:
H P H^T is ``cov[..., :4, :4]``, (P H^T)^T is ``cov[..., :4, :]``, H x is
``mean[..., :4]`` and K H fills the first four columns of I - K H.  The terms
the products would add are exact zeros, so for a covariance that is exactly
symmetric and finite the slices give the bytes of the matrix products (a
non-finite entry would make its zero terms NaN, and (P H^T)^T reads the rows
of P where the product reads its columns).  ``predict`` and ``update`` return
exactly symmetric covariances, the average of the result and its transpose.
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

_PROCESS_COV = np.diag(PROCESS_WEIGHTS)
_MEAS_EYE = np.eye(MEAS_DIM)
_STATE_EYE = np.eye(STATE_DIM)
# ``gated_squared_mahalanobis``'s pre-gate is proven while every S_ii <= this times r.
_PREGATE_VARIANCE = 2.0 ** 28


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


def _symmetrized(cov: np.ndarray) -> np.ndarray:
    """``(cov + cov^T) / 2`` of a fresh (..., 6, 6) array, written into it."""
    cov += cov.swapaxes(-1, -2)
    cov /= 2.0
    return cov


def predict(state: TrackState, q: float = 1.0) -> TrackState:
    """One-step prediction under the dt=1 constant-velocity model."""
    mean = state.mean @ TRANSITION.T
    cov = TRANSITION @ state.cov @ TRANSITION.T
    cov += q * _PROCESS_COV
    return TrackState(mean=mean, cov=_symmetrized(cov))


def _innovation_cov(cov: np.ndarray, r: float) -> np.ndarray:
    """Innovation covariance H P H^T + r I of one (6, 6) state covariance or a (T, 6, 6) stack."""
    return cov[..., :MEAS_DIM, :MEAS_DIM] + r * _MEAS_EYE


def update(state: TrackState, z: np.ndarray, r: float = 10.0) -> TrackState:
    """Kalman update by one (4,) measurement per track; Joseph form keeps the covariance PSD.

    The gain K = P H^T S^-1 is solved as (S^-1 (P H^T)^T)^T, with S and P symmetric.
    """
    cov = state.cov
    K = np.linalg.solve(_innovation_cov(cov, r), cov[..., :MEAS_DIM, :]).swapaxes(-1, -2)
    innovation = z - state.mean[..., :MEAS_DIM]
    mean = state.mean + (K @ innovation[..., None])[..., 0]
    IKH = np.empty(K.shape[:-1] + (STATE_DIM,))
    IKH[...] = _STATE_EYE
    IKH[..., :MEAS_DIM] -= K
    joseph = IKH @ cov @ IKH.swapaxes(-1, -2)
    joseph += r * (K @ K.swapaxes(-1, -2))
    return TrackState(mean=mean, cov=_symmetrized(joseph))


def squared_mahalanobis(
    states: TrackState, measurements: np.ndarray, r: float = 10.0
) -> np.ndarray:
    """Squared innovation-covariance distances of every measurement to every state.

    ``states`` is one track or a stack of T.  Returns an (n_measurements, T)
    matrix from one batched solve: each track's innovation covariance is
    solved against all measurements' innovations at once.
    """
    z = np.asarray(measurements, dtype=float).reshape(-1, MEAS_DIM)
    means = states.mean.reshape(-1, STATE_DIM)[:, :MEAS_DIM]
    S = _innovation_cov(states.cov.reshape(-1, STATE_DIM, STATE_DIM), r)
    innovations = z[None, :, :] - means[:, None, :]  # (T, N, 4)
    solved = np.linalg.solve(S, innovations.transpose(0, 2, 1))  # (T, 4, N)
    return np.einsum("tnk,tkn->nt", innovations, solved)


def gated_squared_mahalanobis(
    states: TrackState, measurements: np.ndarray, gate: float, r: float = 10.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared distances of the (measurement, state) pairs that can lie within ``gate``.

    Returns ``(dets, tracks, squared)``: the pairs the pre-gate keeps, in
    row-major (measurement, state) order, and their squared distances from
    one stacked solve with an explicit (K, 4, 1) right-hand side.  A pair left
    out has a ``squared_mahalanobis`` entry above ``gate``; a kept pair's
    distance may still lie above it, and may differ from the dense entry in
    its last bits.

    Pre-gate: a pair is left out when y_i^2 > 2 gate S_ii for a coordinate i
    of its innovation y, with S = H P H^T + r I, while every S_ii <= 2^28 r;
    a state with a larger variance keeps every pair.  A NaN in y or in a
    variance S_ii keeps its pair, so its NaN distance reaches the caller as
    in the dense form; a NaN only off S's diagonal is not looked at.
    Proof that no pair the dense computation keeps is left out: P is
    symmetric PSD, so S's eigenvalues lie in [r, tr(S)], tr(S) <= 4 max S_ii
    <= 2^30 r, and exactly y_i^2 <= S_ii y^T S^-1 y (Cauchy-Schwarz in the
    S^-1 inner product).  The dense solve is LU with partial pivoting, so its
    x solves (S + E) x = y with |E| <= c u |S| <= c u tr(S), where c < 10^4
    for 4 x 4 systems (Higham, *Accuracy and Stability of Numerical
    Algorithms*, thm. 9.4 and lemma 9.6, growth factor <= 8) and u = 2^-53;
    that is |E| <= e r with e < 0.002.  As x^T S x >= r |x|^2,
    y^T x = x^T S x + x^T E x >= (1 - e) x^T S x, and as S_ii >= r,
    |y_i| <= |e_i^T S x| + |E x| <= (1 + e) sqrt(S_ii x^T S x).  Summing the
    four products y_j x_j moves y^T x by at most
    4u |y| |x| <= 4u (1 + e) tr(S) |x|^2 < 10^-6 x^T S x.  So a computed
    distance d^2 has y_i^2 <= (1 + e)^2 / (1 - e - 10^-6) S_ii d^2
    < 1.01 S_ii d^2, for the same y and S, and squaring y_i and scaling S_ii
    round by a relative u each: a pair whose computed distance is within
    ``gate`` has a computed y_i^2 within 1.02 gate S_ii; the factor 2 is the
    margin.
    """
    z = np.asarray(measurements, dtype=float).reshape(-1, MEAS_DIM)
    S = _innovation_cov(states.cov.reshape(-1, STATE_DIM, STATE_DIM), r)
    # (4, N, T), coordinate-major and C-ordered: the subtraction's inner loop
    # runs over the T tracks rather than over 4 coordinates.
    innovations = np.subtract(
        z.T[:, :, None], states.mean.reshape(-1, STATE_DIM)[:, :MEAS_DIM].T[:, None, :], order="C")
    variances = S.diagonal(axis1=1, axis2=2).T
    reach = variances * (2.0 * gate)
    if not np.maximum.reduce(variances, axis=None, initial=0.0) <= _PREGATE_VARIANCE * r:
        reach[:, ~(np.maximum.reduce(variances, axis=0) <= _PREGATE_VARIANCE * r)] = np.inf
    # Keep what is not far, rather than what is near: a NaN then keeps its pair.
    far = np.logical_or.reduce(innovations * innovations > reach[:, None, :], axis=0)
    dets, tracks = (~far).nonzero()
    kept = innovations[:, dets, tracks].T
    # take: a gather, cheaper per call than fancy indexing.
    solved = np.linalg.solve(S.take(tracks, axis=0), kept[:, :, None])
    return dets, tracks, (kept[:, None, :] @ solved)[:, 0, 0]


def mahalanobis(state: TrackState, z: np.ndarray, r: float = 10.0) -> float:
    """Innovation-covariance-weighted distance between prediction and measurement."""
    return float(np.sqrt(squared_mahalanobis(state, z, r)[0, 0]))
