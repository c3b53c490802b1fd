"""Unit and property tests for repro.geometry.quaternion and pose."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import Pose, Quaternion, Vec3

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def assert_close(a, b, tol=1e-9):
    assert (a - b).norm() <= tol


class TestQuaternionBasics:
    def test_identity_rotation_is_noop(self):
        v = Vec3(1, 2, 3)
        assert_close(Quaternion.identity().rotate(v), v)

    def test_yaw_rotation_rotates_x_to_y(self):
        q = Quaternion.from_yaw(math.pi / 2)
        rotated = q.rotate(Vec3(1, 0, 0))
        assert_close(rotated, Vec3(0, 1, 0))

    def test_rotate_inverse_undoes_rotate(self):
        q = Quaternion.from_euler(0.2, -0.3, 1.1)
        v = Vec3(1, -2, 0.5)
        assert_close(q.rotate_inverse(q.rotate(v)), v)

    def test_euler_roundtrip(self):
        roll, pitch, yaw = 0.1, -0.25, 2.0
        q = Quaternion.from_euler(roll, pitch, yaw)
        r, p, y = q.to_euler()
        assert r == pytest.approx(roll, abs=1e-9)
        assert p == pytest.approx(pitch, abs=1e-9)
        assert y == pytest.approx(yaw, abs=1e-9)

    def test_rotation_matrix_matches_rotate(self):
        q = Quaternion.from_euler(0.3, 0.2, -0.8)
        v = Vec3(0.5, -1.0, 2.0)
        matrix_result = q.rotation_matrix() @ v.to_array()
        np.testing.assert_allclose(matrix_result, q.rotate(v).to_array(), atol=1e-9)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Quaternion(0, 0, 0, 0).normalized()


class TestQuaternionProperties:
    @given(angles, angles, angles)
    def test_from_euler_is_unit(self, roll, pitch, yaw):
        assert Quaternion.from_euler(roll, pitch, yaw).norm() == pytest.approx(1.0, abs=1e-9)

    @given(angles, angles, angles)
    def test_rotation_preserves_norm(self, roll, pitch, yaw):
        q = Quaternion.from_euler(roll, pitch, yaw)
        v = Vec3(1.0, -2.0, 0.5)
        assert q.rotate(v).norm() == pytest.approx(v.norm(), rel=1e-9)

    @given(st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 4) | st.tuples(angles, angles, angles))
    def test_yaw_is_the_euler_yaw_bit_for_bit(self, parts):
        q = Quaternion(*parts) if len(parts) == 4 else Quaternion.from_euler(*parts)
        assert q.yaw.hex() == q.to_euler()[2].hex()

    @given(angles)
    def test_composition_of_yaws_adds_angles(self, yaw):
        a = Quaternion.from_yaw(yaw / 2)
        v = Vec3(1.0, -2.0, 0.5)
        assert_close(a.rotate(a.rotate(v)), Quaternion.from_yaw(yaw).rotate(v), tol=1e-6)


class TestPose:
    def test_identity_pose_transform_is_noop(self):
        p = Pose.identity()
        assert p.inverse_transform_point(Vec3(1, 2, 3)) == Vec3(1, 2, 3)

    def test_transform_and_inverse_roundtrip(self):
        pose = Pose(Vec3(10, -5, 2), Quaternion.from_yaw(0.6))
        point = Vec3(1, 2, 3)
        world_point = pose.position + pose.orientation.rotate(point)
        assert_close(pose.inverse_transform_point(world_point), point)

    def test_translation_only(self):
        pose = Pose.at(Vec3(5, 5, 5))
        assert pose.inverse_transform_point(Vec3(6, 5, 5)) == Vec3(1, 0, 0)

    def test_distance_between_poses(self):
        a = Pose.at(Vec3(0, 0, 0))
        b = Pose.at(Vec3(3, 4, 0))
        assert a.distance_to(b) == pytest.approx(5.0)
