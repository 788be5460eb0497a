import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidphase import states
from braidphase.yangbaxter import RParams
from oracles import basis_image_formula

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestBasisState:
    def test_first_and_last(self):
        assert np.array_equal(states.basis_state("000"),
                              np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=complex))
        assert np.array_equal(states.basis_state("111"),
                              np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=complex))

    def test_fourth_vector(self):
        v = states.basis_state("011")
        assert v[3] == 1.0 and np.sum(np.abs(v)) == 1.0

    def test_bad_label(self):
        for label in ("愛", "0", "012", "0000"):
            with pytest.raises(ValueError):
                states.basis_state(label)


class TestApplyR:
    def test_identity_at_half_pi(self):
        for label in states.BASIS_LABELS:
            v = states.basis_state(label)
            out = states.apply_r(RParams(np.pi / 2, 0.77), v)
            assert np.allclose(out, v, atol=1e-15)

    def test_image_of_all_zeros(self):
        theta, phi = 0.8, 0.3
        out = states.apply_r(RParams(theta, phi), states.basis_state("000"))
        c = np.cos(theta) * np.exp(1j * phi) / np.sqrt(3)
        expected = np.zeros(8, dtype=complex)
        expected[0] = np.sin(theta)
        expected[0b011] = expected[0b101] = expected[0b110] = -c
        assert np.allclose(out, expected, atol=1e-15)

    def test_image_of_all_ones(self):
        theta, phi = 1.1, 2.4
        out = states.apply_r(RParams(theta, phi), states.basis_state("111"))
        c = np.cos(theta) * np.exp(-1j * phi) / np.sqrt(3)
        expected = np.zeros(8, dtype=complex)
        expected[0b111] = np.sin(theta)
        expected[0b001] = c
        expected[0b010] = -c
        expected[0b100] = c
        assert np.allclose(out, expected, atol=1e-15)

    @given(angles, angles)
    def test_norm_preserved_on_all_basis_inputs(self, theta, phi):
        for label in states.BASIS_LABELS:
            out = states.apply_r(RParams(theta, phi), states.basis_state(label))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_matrix_matches_formula_templates(self):
        worst = 0.0
        for theta in np.linspace(0, 2 * np.pi, 9):
            for phi in np.linspace(0, 2 * np.pi, 7):
                for label in states.BASIS_LABELS:
                    out = states.apply_r(RParams(theta, phi), states.basis_state(label))
                    ref = basis_image_formula(label, theta, phi)
                    worst = max(worst, np.abs(out - ref).max())
        assert worst <= 1e-12

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            states.apply_r(RParams(0.1, 0.1), np.ones(4))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            states.apply_r(RParams(0.1, 0.1), np.ones(8))


class TestFormulaTemplates:
    def test_templates_are_normalized(self):
        for theta in (0.0, 0.5, 1.9):
            for label in states.BASIS_LABELS:
                v = basis_image_formula(label, theta, 0.9)
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_bad_label(self):
        with pytest.raises(ValueError):
            basis_image_formula("020", 0.1, 0.1)
