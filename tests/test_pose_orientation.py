import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from orientrack.pose_orientation import (
    Orientation,
    OrientationUnavailable,
    TorsoPoints,
    fallback_bin,
    orientation_bin,
    orientation_bins,
    orientation_from_keypoints,
    s2t_ratio,
)

coordinate = st.floats(-1000, 1000, allow_nan=False)
confidence = st.floats(0.0, 1.0, allow_nan=False)


def torso(points, confidences=(1.0, 1.0, 1.0, 1.0)):
    (rs, ls, rh, lh) = points
    (c_rs, c_ls, c_rh, c_lh) = confidences
    return TorsoPoints(
        right_shoulder=(*rs, c_rs),
        left_shoulder=(*ls, c_ls),
        right_hip=(*rh, c_rh),
        left_hip=(*lh, c_lh),
    )


@st.composite
def torsos(draw):
    t = torso(
        points=[
            (draw(coordinate), draw(coordinate)),
            (draw(coordinate), draw(coordinate)),
            (draw(coordinate), draw(coordinate)),
            (draw(coordinate), draw(coordinate)),
        ],
        confidences=[draw(confidence) for _ in range(4)],
    )
    try:
        s2t_ratio(t)
    except OrientationUnavailable:
        assume(False)
    return t


def reflect_x(t: TorsoPoints, axis: float) -> TorsoPoints:
    def flip(p):
        x, y, c = p
        return (2 * axis - x, y, c)

    return TorsoPoints(
        right_shoulder=flip(t.right_shoulder),
        left_shoulder=flip(t.left_shoulder),
        right_hip=flip(t.right_hip),
        left_hip=flip(t.left_hip),
    )


def scale_about(t: TorsoPoints, factor: float, cx: float, cy: float) -> TorsoPoints:
    def scale(p):
        x, y, c = p
        return (cx + factor * (x - cx), cy + factor * (y - cy), c)

    return TorsoPoints(
        right_shoulder=scale(t.right_shoulder),
        left_shoulder=scale(t.left_shoulder),
        right_hip=scale(t.right_hip),
        left_hip=scale(t.left_hip),
    )


UNIT_ROUNDOFF = 2.0**-53


def points(t: TorsoPoints) -> list[tuple[float, float, float]]:
    return [t.right_shoulder, t.left_shoulder, t.right_hip, t.left_hip]


def torso_height(t: TorsoPoints) -> float:
    """The confidence-weighted hip-minus-shoulder height s2t_ratio divides by."""
    (_, y_rs, c_rs), (_, y_ls, c_ls), (_, y_rh, c_rh), (_, y_lh, c_lh) = points(t)

    def pair(c_a, c_b, delta):
        return (c_a + c_b) * delta if c_a > 0.0 and c_b > 0.0 else 0.0

    return (pair(c_rs, c_rh, y_rh - y_rs) + pair(c_ls, c_lh, y_lh - y_ls)) / (
        c_rs + c_ls + c_rh + c_lh
    )


def s2t_oracle(t: TorsoPoints) -> float | None:
    """The S2T formula written out apart from the library: the confidence-weighted
    right-minus-left width over ``torso_height``, None where it is unavailable."""
    (x_rs, _, c_rs), (x_ls, _, c_ls), (x_rh, _, c_rh), (x_lh, _, c_lh) = points(t)
    total = c_rs + c_ls + c_rh + c_lh
    if total <= 0.0:
        return None
    height = torso_height(t)
    if abs(height) < 1e-6:
        return None

    def pair(c_a, c_b, delta):
        return (c_a + c_b) * delta if c_a > 0.0 and c_b > 0.0 else 0.0

    return (pair(c_rs, c_ls, x_rs - x_ls) + pair(c_rh, c_lh, x_rh - x_lh)) / total / height


def scale_magnitude(t: TorsoPoints, factor: float, cx: float, cy: float) -> float:
    """The largest magnitude among the values scale_about forms."""
    values = [cx, cy]
    for (x, y, _), (sx, sy, _) in zip(points(t), points(scale_about(t, factor, cx, cy))):
        values += [factor * (x - cx), factor * (y - cy), sx, sy]
    return max(abs(v) for v in values)


class TestS2tRatio:
    def test_symmetric_torso_facing_camera(self):
        t = torso([(0, 0), (4, 0), (0, 8), (4, 8)])
        assert s2t_ratio(t) == pytest.approx(-0.5)

    def test_mirrored_torso_facing_away(self):
        t = torso([(4, 0), (0, 0), (4, 8), (0, 8)])
        assert s2t_ratio(t) == pytest.approx(0.5)

    def test_weighted_example(self):
        # Expected value recomputed with exact fractions:
        # w = (1.5*(-20) + 1.0*(-16)) / 2.5 = -18.4
        # h = (1.8*60 + 0.7*56) / 2.5 = 58.88
        # s2t = -18.4 / 58.88 = -0.3125
        t = torso(
            points=[(10, 100), (30, 102), (12, 160), (28, 158)],
            confidences=(1.0, 0.5, 0.8, 0.2),
        )
        assert s2t_ratio(t) == pytest.approx(-0.3125, abs=1e-12)

    def test_zero_confidence_mass(self):
        t = torso([(0, 0), (4, 0), (0, 8), (4, 8)], confidences=(0, 0, 0, 0))
        with pytest.raises(OrientationUnavailable):
            s2t_ratio(t)

    def test_degenerate_height(self):
        t = torso([(0, 0), (4, 0), (0, 0), (4, 0)])
        with pytest.raises(OrientationUnavailable):
            s2t_ratio(t)

    @given(torsos(), st.floats(-100, 100, allow_nan=False))
    def test_antisymmetry_under_x_reflection(self, t, axis):
        # Arbitrary axes introduce float rounding; the strict 1e-12 check
        # over well-conditioned torsos lives in the acceptance suite.
        assert s2t_ratio(reflect_x(t, axis)) == pytest.approx(
            -s2t_ratio(t), rel=1e-9, abs=1e-9
        )

    @given(
        torsos(),
        st.floats(0.01, 100, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
    )
    # A torso 1e-6 px high, just above the degeneracy guard: scale_about's
    # rounding of its y coordinates moves the ratio by 1.03e-9 relative.
    @example(torso([(0, 0), (1, 0), (0, 1e-6), (0, 0)], (1.0, 2.5e-273, 1.0, 0.0)), 19.0, 0.0, 9.0)
    def test_scale_invariance(self, t, factor, cx, cy):
        scaled = scale_about(t, factor, cx, cy)
        try:
            result = s2t_ratio(scaled)
        except OrientationUnavailable:
            return  # height may cross the degeneracy guard at tiny scales
        expected = s2t_ratio(t)
        # The rounding the two computations add, with u the unit roundoff:
        # - scale_about forms cx + factor * (x - cx) with three roundings, so
        #   each scaled coordinate is off by at most 3u*M', M' being the
        #   largest magnitude it forms (scale_magnitude).
        # - s2t_ratio's width and height are confidence-weighted means of
        #   coordinate differences, weights summing to at most 1.  Input
        #   errors move each by at most 2 * 3u*M'; its own roundings (the
        #   difference, the weight sum and product, the pair sum and the
        #   division by the total) add at most 16u*M on a torso whose
        #   largest coordinate magnitude is M.
        # - w / h with w and h each off by d moves by d * (1 + |s|) / |h|.
        # So |result - expected| <= 22u * (1 + |s|) * (M'/|h'| + M/|h|) to
        # first order; the test allows 48u, over twice that.  Torsos whose
        # coordinates are small next to their height keep rel=1e-9.
        m = max(abs(v) for x, y, _ in points(t) for v in (x, y))
        bound = 48 * UNIT_ROUNDOFF * (1 + abs(expected)) * (
            scale_magnitude(t, factor, cx, cy) / abs(torso_height(scaled))
            + m / abs(torso_height(t))
        )
        assert result == pytest.approx(expected, rel=1e-9, abs=max(1e-9, bound))

    @given(torsos(), st.integers(0, 3), coordinate, coordinate)
    def test_zero_confidence_keypoint_is_irrelevant(self, t, index, new_x, new_y):
        fields = ["right_shoulder", "left_shoulder", "right_hip", "left_hip"]
        values = {f: getattr(t, f) for f in fields}
        x, y, _ = values[fields[index]]
        values[fields[index]] = (x, y, 0.0)
        zeroed = TorsoPoints(**values)
        try:
            baseline = s2t_ratio(zeroed)
        except OrientationUnavailable:
            # Must stay unavailable no matter where the dead keypoint moves.
            values[fields[index]] = (new_x, new_y, 0.0)
            with pytest.raises(OrientationUnavailable):
                s2t_ratio(TorsoPoints(**values))
            return
        values[fields[index]] = (new_x, new_y, 0.0)
        assert s2t_ratio(TorsoPoints(**values)) == baseline


class TestOrientationBin:
    def test_worked_example(self):
        # floor((-0.3125 + 1) / 2 * 2) = floor(0.6875) = 0
        assert orientation_bin(-0.3125, bins=2, smax=1.0) == 0

    def test_positive_half(self):
        assert orientation_bin(0.5, bins=2, smax=1.0) == 1

    def test_upper_boundary_clamp(self):
        assert orientation_bin(1.0, bins=2, smax=1.0) == 1

    def test_single_bin(self):
        assert orientation_bin(123.0, bins=1, smax=1.0) == 0

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.integers(1, 9),
    )
    def test_monotone(self, a, b, bins):
        lo, hi = min(a, b), max(a, b)
        assert orientation_bin(lo, bins) <= orientation_bin(hi, bins)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            orientation_bin(0.0, bins=0)
        with pytest.raises(ValueError):
            orientation_bin(0.0, bins=2, smax=0.0)


class TestOrientationFromKeypoints:
    def test_valid_keypoints(self):
        kp = np.zeros((18, 3))
        kp[2] = (4, 0, 1)  # right shoulder
        kp[5] = (0, 0, 1)  # left shoulder
        kp[8] = (4, 8, 1)  # right hip
        kp[11] = (0, 8, 1)  # left hip
        orientation = orientation_from_keypoints(kp, bins=2)
        assert orientation == Orientation(s2t=0.5, bin=1, valid=True)

    def test_missing_torso_falls_back_to_middle_bin(self):
        orientation = orientation_from_keypoints(np.zeros((18, 3)), bins=5)
        assert not orientation.valid
        assert orientation.bin == fallback_bin(5) == 2
        assert math.isnan(orientation.s2t)


# A few repeated values make equal (degenerate) heights and zero confidences
# common; 1e-7 and 2e-6 put torso heights on both sides of the epsilon.
block_coordinate = st.one_of(
    st.sampled_from([0.0, 1e-7, 2e-6, 1.0, -4.0, 250.0]), st.floats(-1000, 1000)
)
block_confidence = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def keypoint_blocks(draw):
    n = draw(st.integers(0, 40))
    xy = draw(arrays(np.float64, (n, 18, 2), elements=block_coordinate))
    c = draw(arrays(np.float64, (n, 18, 1), elements=block_confidence))
    return np.concatenate([xy, c], axis=2)


class TestOrientationBinsMatchScalar:
    @given(
        block=keypoint_blocks(),
        bins=st.integers(1, 9),
        smax=st.one_of(st.sampled_from([0.1, 1.0, 2.5]), st.floats(0.01, 10.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_row_equals_orientation_from_keypoints(self, block, bins, smax):
        got, valid = orientation_bins(block, bins, smax)
        expected = [orientation_from_keypoints(row, bins, smax) for row in block]
        assert got.dtype == np.int64 and got.shape == valid.shape == (len(block),)
        assert got.tolist() == [o.bin for o in expected]
        assert valid.tolist() == [o.valid for o in expected]

    def test_each_case_of_the_scalar_form(self):
        rows = np.zeros((6, 18, 3))
        for row, (rs, ls, rh, lh) in zip(rows, [
            ((4, 0, 1), (0, 0, 1), (4, 8, 1), (0, 8, 1)),  # s2t 0.5
            ((40, 0, 1), (0, 0, 1), (40, 8, 1), (0, 8, 1)),  # s2t 5 > smax
            ((-40, 0, 1), (0, 0, 1), (-40, 8, 1), (0, 8, 1)),  # s2t -5 < -smax
            ((4, 0, 0), (0, 0, 0), (4, 8, 0), (0, 8, 0)),  # zero confidence mass
            ((4, 3, 1), (0, 3, 1), (4, 3, 1), (0, 3, 1)),  # degenerate height
            ((4, 0, 1), (9, 9, 0), (4, 8, 0.5), (0, 8, 1)),  # s2t 0.5, left shoulder unobserved
        ]):
            row[[2, 5, 8, 11]] = [rs, ls, rh, lh]
        got, valid = orientation_bins(rows, bins=5)
        expected = [orientation_from_keypoints(row, bins=5) for row in rows]
        assert got.tolist() == [o.bin for o in expected] == [3, 4, 0, 2, 2, 3]
        assert valid.tolist() == [o.valid for o in expected]
        assert valid.tolist() == [True, True, True, False, False, True]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            orientation_bins(np.zeros((1, 18, 3)), bins=0)
        with pytest.raises(ValueError):
            orientation_bins(np.zeros((1, 18, 3)), bins=2, smax=0.0)


class TestScalarFormMatchesNumpyRows:
    """``orientation_from_keypoints`` reads the torso as Python floats; its
    S2T must equal ``s2t_ratio`` of the torso built from the numpy rows."""

    @given(block=keypoint_blocks(), bins=st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_s2t_equals_numpy_row_torso_bit_for_bit(self, block, bins):
        for k in block:
            got = orientation_from_keypoints(k, bins)
            assert type(got.s2t) is float
            try:
                expected = s2t_ratio(TorsoPoints(*(tuple(k[i]) for i in (2, 5, 8, 11))))
            except OrientationUnavailable:
                assert not got.valid and math.isnan(got.s2t)
                continue
            assert got.valid
            assert np.float64(got.s2t).tobytes() == np.float64(expected).tobytes()


@st.composite
def torso_blocks(draw):
    """(n, 18, 3) blocks whose twelve torso values are each drawn, the other
    keypoints zero: ``keypoint_blocks`` gives most entries one shared fill value."""
    n = draw(st.integers(0, 10))
    block = np.zeros((n, 18, 3))
    block[:, [2, 5, 8, 11], :2] = draw(
        arrays(np.float64, (n, 4, 2), elements=block_coordinate, fill=st.nothing()))
    block[:, [2, 5, 8, 11], 2] = draw(
        arrays(np.float64, (n, 4), elements=block_confidence, fill=st.nothing()))
    return block


class TestS2tOracle:
    """Each form's S2T against ``s2t_oracle``, the formula transcribed in this
    file: the three forms share one row rule, so comparing them with each other
    no longer checks its arithmetic."""

    @given(
        block=st.one_of(keypoint_blocks(), torso_blocks()),
        bins=st.integers(1, 9),
        smax=st.one_of(st.sampled_from([0.1, 1.0, 2.5]), st.floats(0.01, 10.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_form_equals_the_oracle_bit_for_bit(self, block, bins, smax):
        got_bins, got_valid = orientation_bins(block, bins, smax)
        for k, got_bin, got_ok in zip(block, got_bins.tolist(), got_valid.tolist()):
            t = TorsoPoints(*(tuple(k[i].tolist()) for i in (2, 5, 8, 11)))
            expected = s2t_oracle(t)
            scalar = orientation_from_keypoints(k, bins, smax)
            if expected is None:
                with pytest.raises(OrientationUnavailable):
                    s2t_ratio(t)
                assert not scalar.valid and not got_ok and got_bin == fallback_bin(bins)
                continue
            assert np.float64(s2t_ratio(t)).tobytes() == np.float64(expected).tobytes()
            assert np.float64(scalar.s2t).tobytes() == np.float64(expected).tobytes()
            assert scalar.valid and got_ok
            assert got_bin == scalar.bin == orientation_bin(expected, bins, smax)


def keypoints_with(rs, ls, rh, lh):
    kp = np.zeros((18, 3))
    kp[[2, 5, 8, 11]] = [rs, ls, rh, lh]
    return kp


class TestNonFiniteTorso:
    """A NaN on an observed keypoint leaves the orientation unavailable; an
    infinite ratio is clamped like any ratio beyond smax."""

    @pytest.mark.parametrize("torso_values", [
        ((np.nan, 0, 1), (0, 0, 1), (4, 8, 1), (0, 8, 1)),  # NaN width
        ((4, 0, 1), (0, 0, 1), (4, np.nan, 1), (0, 8, 1)),  # NaN height
        ((4, 0, 1), (0, 0, np.nan), (4, 8, 1), (0, 8, 1)),  # NaN confidence
    ])
    def test_nan_is_unavailable_in_every_form(self, torso_values):
        with pytest.raises(OrientationUnavailable):
            s2t_ratio(TorsoPoints(*torso_values))
        kp = keypoints_with(*torso_values)
        orientation = orientation_from_keypoints(kp, bins=5)
        assert not orientation.valid and orientation.bin == 2 and math.isnan(orientation.s2t)
        got, valid = orientation_bins(np.stack([kp, kp]), bins=5)
        assert got.tolist() == [2, 2] and valid.tolist() == [False, False]

    def test_nan_on_an_unobserved_keypoint_is_ignored(self):
        torso_values = ((4, 0, 1), (np.nan, np.nan, 0), (4, 8, 1), (0, 8, 1))
        assert s2t_ratio(TorsoPoints(*torso_values)) == 0.5
        got, valid = orientation_bins(keypoints_with(*torso_values)[None], bins=5)
        assert got.tolist() == [3] and valid.tolist() == [True]

    @pytest.mark.parametrize("x, expected_bin", [(np.inf, 4), (-np.inf, 0)])
    def test_infinite_ratio_takes_the_clamped_bin(self, x, expected_bin):
        torso_values = ((x, 0, 1), (0, 0, 1), (4, 8, 1), (0, 8, 1))
        assert s2t_ratio(TorsoPoints(*torso_values)) == x
        kp = keypoints_with(*torso_values)
        assert orientation_from_keypoints(kp, bins=5) == Orientation(s2t=x, bin=expected_bin, valid=True)
        got, valid = orientation_bins(kp[None], bins=5)
        assert got.tolist() == [expected_bin] and valid.tolist() == [True]
