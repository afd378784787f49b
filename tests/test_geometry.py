import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellplace.geometry import (Pose, compose, dh_transform, frame_from_pose,
                                frame_is_valid, frames_from_poses, invert,
                                pose_from_frame, rot_x, rot_y, rot_z,
                                wrap_angle)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def random_rotation(rng):
    frame = compose(rot_z(rng.uniform(-math.pi, math.pi)),
                    rot_y(rng.uniform(-math.pi, math.pi)),
                    rot_x(rng.uniform(-math.pi, math.pi)))
    frame[:3, 3] = rng.uniform(-500, 500, size=3)
    return frame


class TestWrapAngle:
    def test_three_halves_pi(self):
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_boundary_included_on_the_right(self):
        assert wrap_angle(math.pi) == math.pi

    def test_left_boundary_excluded(self):
        assert wrap_angle(-math.pi) == math.pi

    @pytest.mark.parametrize("turns", [-3, -2, -1, 1, 2, 3])
    def test_doubles_next_to_multiples_of_pi(self, turns):
        # the 81 doubles nearest turns * pi, against the exact reduction
        # that math.remainder computes; wrap_angle(-pi + 1 ulp) used to
        # return pi + 1 ulp
        below = above = turns * math.pi
        thetas = [below]
        for _ in range(40):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            thetas += [below, above]
        exact = [math.remainder(t, 2.0 * math.pi) for t in thetas]
        exact = [math.pi if r == -math.pi else r for r in exact]
        assert [wrap_angle(t) for t in thetas] == exact
        assert wrap_angle(np.array(thetas)).tolist() == exact
        assert all(-math.pi < w <= math.pi for w in exact)

    def test_scalars_exact_at_any_size(self):
        # without fmod's exact reduction first, the rounded 2pi n is off by
        # more than a turn from about 4.7e17
        rng = np.random.default_rng(6)
        sizes = np.exp(rng.uniform(math.log(2.0 ** 52), math.log(1e300), 2000))
        thetas = np.concatenate([sizes, -sizes]).tolist()
        exact = [math.remainder(t, 2.0 * math.pi) for t in thetas]
        exact = [math.pi if r == -math.pi else r for r in exact]
        assert [wrap_angle(t) for t in thetas] == exact
        assert all(-math.pi < w <= math.pi for w in exact)

    def test_negative_zero_and_infinity(self):
        assert math.copysign(1.0, wrap_angle(-0.0)) == 1.0
        with np.errstate(invalid="ignore"):
            assert math.isnan(wrap_angle(math.inf))

    @given(st.floats(min_value=-2.0 ** 52, max_value=2.0 ** 52))
    def test_in_range_below_two_to_the_52(self, theta):
        assert -math.pi < wrap_angle(theta) <= math.pi

    def test_scalars_give_floats_and_arrays_arrays(self):
        assert type(wrap_angle(4.0)) is float
        wrapped = wrap_angle(np.full((2, 3), 4.0))
        assert wrapped.shape == (2, 3)
        assert np.all(wrapped == wrap_angle(4.0))

    @given(angles)
    def test_idempotent(self, theta):
        once = wrap_angle(theta)
        assert wrap_angle(once) == once

    @given(angles)
    def test_congruent_and_in_range(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w - theta), 0.0, abs_tol=1e-9)


class TestDhTransform:
    def test_all_zero_is_identity(self):
        assert np.allclose(dh_transform(0, 0, 0, 0, 0), np.eye(4), atol=0)

    def test_shoulder_row(self):
        # theta=0, d=-400, a=25, alpha=pi/2: hand-composed product of the four
        # elementary matrices — translation (25, 0, -400) with Rx(pi/2).
        expected = np.array([
            [1.0, 0.0, 0.0, 25.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -400.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        assert np.allclose(dh_transform(0.0, -400.0, 25.0, math.pi / 2),
                           expected, atol=1e-15)

    def test_rotated_link_row(self):
        # theta=pi/2, a=455: Rz(pi/2) then x-offset, i.e. translation (0, 455, 0).
        expected = np.array([
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 455.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        assert np.allclose(dh_transform(math.pi / 2, 0.0, 455.0, 0.0),
                           expected, atol=1e-12)

    def test_matches_elementary_product(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta, d, a, alpha, phi = rng.uniform(-3, 3, size=5)
            via_product = compose(rot_z(theta + phi),
                                  _translate(0, 0, d), _translate(a, 0, 0),
                                  rot_x(alpha))
            assert np.allclose(dh_transform(theta, d, a, alpha, phi),
                               via_product, atol=1e-12)

    def test_output_is_always_a_frame(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            frame = dh_transform(*rng.uniform(-400, 400, size=5))
            assert frame_is_valid(frame)


def _translate(x, y, z):
    frame = np.eye(4)
    frame[:3, 3] = (x, y, z)
    return frame


class TestPoseConversions:
    def test_zero_pose_is_identity(self):
        assert np.allclose(frame_from_pose(Pose()), np.eye(4), atol=0)

    def test_pure_translation(self):
        frame = frame_from_pose(Pose(100.0, 200.0, 300.0))
        assert np.allclose(frame[:3, 3], [100, 200, 300], atol=0)
        assert np.allclose(frame[:3, :3], np.eye(3), atol=0)

    def test_pure_z_rotation(self):
        assert np.allclose(frame_from_pose(Pose(a=math.pi / 2)),
                           rot_z(math.pi / 2), atol=1e-15)

    def test_identity_gives_zero_pose(self):
        pose = pose_from_frame(np.eye(4))
        assert pose.as_array() == pytest.approx(np.zeros(6), abs=0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            pose = Pose(*rng.uniform(-500, 500, size=3),
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(-1.4, 1.4),
                        rng.uniform(-math.pi, math.pi))
            back = pose_from_frame(frame_from_pose(pose))
            assert np.allclose(back.as_array(), pose.as_array(), atol=1e-9)

    def test_batched_frames_survive_a_pose_round_trip(self):
        rng = np.random.default_rng(4)
        poses = np.column_stack([rng.uniform(-500, 500, (1000, 3)),
                                 rng.uniform(-math.pi, math.pi, 1000),
                                 rng.uniform(-1.4, 1.4, 1000),
                                 rng.uniform(-math.pi, math.pi, 1000)])
        frames = frames_from_poses(poses.reshape(10, 100, 6))
        assert frames.shape == (10, 100, 4, 4)
        for pose, frame in zip(poses, frames.reshape(-1, 4, 4)):
            assert frame_is_valid(frame)
            assert np.array_equal(frame, frame_from_pose(Pose(*pose)))
            assert np.allclose(pose_from_frame(frame).as_array(), pose,
                               rtol=0.0, atol=1e-9)

    def test_singular_convention(self):
        pose = pose_from_frame(rot_y(math.pi / 2))
        assert pose.b == pytest.approx(math.pi / 2)
        assert pose.c == 0.0

    def test_frame_pose_frame_identity_near_singularity(self):
        frame = compose(rot_z(0.7), rot_y(math.pi / 2 - 1e-9), rot_x(-1.2))
        again = frame_from_pose(pose_from_frame(frame))
        assert np.allclose(again, frame, atol=1e-6)


class TestComposeInvert:
    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            frame = random_rotation(rng)
            assert np.allclose(compose(frame, invert(frame)), np.eye(4),
                               atol=1e-12)

    def test_identity_neutral(self):
        rng = np.random.default_rng(6)
        frame = random_rotation(rng)
        assert np.allclose(compose(np.eye(4), frame), frame, atol=0)

    def test_composition_preserves_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            product = compose(random_rotation(rng), random_rotation(rng))
            rot = product[:3, :3]
            assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-12

    def test_double_inverse(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            frame = random_rotation(rng)
            assert np.allclose(invert(invert(frame)), frame, atol=1e-12)
