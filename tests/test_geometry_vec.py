"""Unit and property tests for repro.geometry.vec."""


import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import Vec3

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec3, finite, finite, finite)


class TestConstruction:
    def test_zero(self):
        assert Vec3.zero() == Vec3(0.0, 0.0, 0.0)

    def test_unit_axes_are_orthonormal(self):
        x, y, z = Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)
        assert x.dot(y) == 0.0
        assert x.cross(y) == z
        assert z.norm() == 1.0

    def test_from_array_roundtrip(self):
        v = Vec3.from_array([1.5, -2.0, 3.25])
        assert v.to_tuple() == (1.5, -2.0, 3.25)
        np.testing.assert_allclose(v.to_array(), [1.5, -2.0, 3.25])

    def test_from_array_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Vec3.from_array([1.0, 2.0])

    def test_iteration_order(self):
        assert list(Vec3(1, 2, 3)) == [1, 2, 3]


class TestArithmetic:
    def test_add_sub(self):
        assert Vec3(1, 2, 3) + Vec3(4, 5, 6) == Vec3(5, 7, 9)
        assert Vec3(4, 5, 6) - Vec3(1, 2, 3) == Vec3(3, 3, 3)

    def test_scalar_multiplication_commutes(self):
        assert 2.0 * Vec3(1, 2, 3) == Vec3(1, 2, 3) * 2.0 == Vec3(2, 4, 6)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Vec3(1, 1, 1) / 0.0

    def test_negation(self):
        assert -Vec3(1, -2, 3) == Vec3(-1, 2, -3)


class TestNormsAndProducts:
    def test_norm_of_pythagorean_triple(self):
        assert Vec3(3, 4, 0).norm() == pytest.approx(5.0)

    def test_horizontal_norm_ignores_z(self):
        assert Vec3(3, 4, 100).horizontal_norm() == pytest.approx(5.0)

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError):
            Vec3.zero().normalized()

    def test_cross_is_anticommutative(self):
        a, b = Vec3(1, 2, 3), Vec3(-2, 0.5, 4)
        assert a.cross(b) == -(b.cross(a))

    def test_distance_is_symmetric(self):
        a, b = Vec3(1, 2, 3), Vec3(4, 6, 3)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a)) == pytest.approx(5.0)


class TestHelpers:
    def test_lerp_endpoints_and_midpoint(self):
        a, b = Vec3(0, 0, 0), Vec3(2, 4, 6)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b
        assert a.lerp(b, 0.5) == Vec3(1, 2, 3)

    def test_clamp_norm_shortens_long_vectors(self):
        clamped = Vec3(10, 0, 0).clamp_norm(3.0)
        assert clamped.norm() == pytest.approx(3.0)

    def test_clamp_norm_keeps_short_vectors(self):
        v = Vec3(1, 1, 0)
        assert v.clamp_norm(5.0) == v

    def test_clamp_norm_rejects_negative(self):
        with pytest.raises(ValueError):
            Vec3(1, 0, 0).clamp_norm(-1.0)

    def test_with_z_replaces_only_z(self):
        assert Vec3(1, 2, 3).with_z(9.0) == Vec3(1, 2, 9)


class TestProperties:
    @given(vectors, vectors)
    def test_addition_commutes(self, a, b):
        assert ((a + b) - (b + a)).norm() <= 1e-6

    @given(vectors)
    def test_norm_non_negative(self, v):
        assert v.norm() >= 0.0

    @given(vectors, vectors)
    def test_triangle_inequality(self, a, b):
        assert (a + b).norm() <= a.norm() + b.norm() + 1e-6

    @given(vectors)
    def test_normalized_has_unit_norm(self, v):
        if v.norm() > 1e-6:
            assert v.normalized().norm() == pytest.approx(1.0, abs=1e-9)

    @given(vectors, vectors)
    def test_dot_symmetry(self, a, b):
        assert a.dot(b) == pytest.approx(b.dot(a), rel=1e-9, abs=1e-6)

    @given(vectors, vectors)
    def test_cross_orthogonal_to_operands(self, a, b):
        c = a.cross(b)
        assert abs(c.dot(a)) <= 1e-3 * max(1.0, a.norm() * b.norm())
        assert abs(c.dot(b)) <= 1e-3 * max(1.0, a.norm() * b.norm())

    @given(vectors, st.floats(min_value=0.0, max_value=100.0))
    def test_clamp_norm_never_exceeds_limit(self, v, limit):
        assert v.clamp_norm(limit).norm() <= limit + 1e-6
