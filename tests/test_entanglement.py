import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidphase import cli, entanglement, linalg, states
from braidphase.yangbaxter import RParams, r_matrix
from oracles import (concurrence, concurrence_svd, one_vs_rest_sq, partial_trace,
                     three_tangle)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

# angles where the three-tangle 4 l1 l2 is small but nonzero, so the small
# Wootters value l2 must survive; 3.14159 ends the README sweep
_OFFSETS = (1e-8, 1.2e-7, 1.8e-6, 3e-5)
NEAR_TANGLE_ZEROS = (list(_OFFSETS) + [np.pi - d for d in _OFFSETS]
                     + [np.pi / 2 + d for d in _OFFSETS] + [3.14159])

CLOSED_FORMS = (entanglement.tangle_closed_form,
                entanglement.pair_concurrence_closed_form,
                entanglement.one_vs_rest_sq_closed_form)


def ghz():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    return v


def w_state():
    v = np.zeros(8, dtype=complex)
    v[0b001] = v[0b010] = v[0b100] = 1 / np.sqrt(3)
    return v


def wootters_reference(rho):
    """Independent oracle: eigenvalues of rho rho~ through numpy's solver."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    product = rho @ yy @ rho.conj() @ yy
    lam = np.sqrt(np.abs(np.real(np.linalg.eigvals(product))))
    lam = np.sort(lam)[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


class TestThreeTangle:
    def test_product_state(self):
        assert three_tangle(states.basis_state("000")) == 0.0

    def test_ghz_is_one(self):
        # d1 = 1/4, d2 = d3 = 0 by direct coefficient substitution
        assert three_tangle(ghz()) == pytest.approx(1.0, abs=1e-15)

    def test_w_state_is_zero(self):
        assert three_tangle(w_state()) == pytest.approx(0.0, abs=1e-15)

    def test_ghz_point_for_all_inputs(self):
        for label in states.BASIS_LABELS:
            out = states.apply_r(RParams(np.pi / 6, 0.9), states.basis_state(label))
            assert three_tangle(out) == pytest.approx(1.0, abs=1e-9)


class TestClosedForms:
    def test_tangle_landmarks(self):
        assert entanglement.tangle_closed_form(np.pi / 6) == pytest.approx(1.0, abs=1e-15)
        assert entanglement.tangle_closed_form(np.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert entanglement.tangle_closed_form(0.0) == 0.0

    def test_pair_landmarks(self):
        assert entanglement.pair_concurrence_closed_form(np.pi / 6) == pytest.approx(
            0.0, abs=1e-15)
        assert entanglement.pair_concurrence_closed_form(np.pi / 2) == pytest.approx(
            0.0, abs=1e-15)
        assert entanglement.pair_concurrence_closed_form(0.0) == pytest.approx(2 / 3)

    def test_one_vs_rest_landmarks(self):
        assert entanglement.one_vs_rest_sq_closed_form(0.0) == pytest.approx(8 / 9)
        assert entanglement.one_vs_rest_sq_closed_form(np.pi / 2) == pytest.approx(
            0.0, abs=1e-30)

    @pytest.mark.parametrize("form", CLOSED_FORMS, ids=lambda form: form.__name__)
    def test_grid_is_bitwise_the_float_route(self, form):
        # the README sweep grid, 2,001 angles over [0, pi], and large angles
        thetas = np.concatenate([np.linspace(0.0, 3.14159, 121),
                                 np.linspace(0.0, np.pi, 2001), [7.0, -7.0, 1e308]])
        values = form(thetas)
        assert values.shape == thetas.shape and np.isfinite(values).all()
        for theta, value in zip(thetas.tolist(), values):
            alone = form(theta)
            assert type(alone) is float
            assert np.float64(alone).tobytes() == value.tobytes(), theta


def bell_diagonal(rng, weights):
    """sum_i w_i |Bell_i><Bell_i| in a random local basis u_A x u_B."""
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0],
                     [0, 1, -1, 0]], dtype=complex).T / np.sqrt(2)
    u_a, u_b = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                for _ in range(2))
    u = np.kron(u_a, u_b) @ bell
    return (u * weights) @ u.conj().T


class TestConcurrence:
    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert concurrence(rho) == 0.0

    def test_singlet_is_maximal(self):
        v = np.zeros(4, dtype=complex)
        v[1], v[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_w_type_reduction(self):
        out = states.apply_r(RParams(0.0, 1.3), states.basis_state("000"))
        rho = np.outer(out, out.conj())
        rho_ab = partial_trace(rho, (0, 1), 3)
        assert concurrence(rho_ab) == pytest.approx(2 / 3, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_reference_route(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        rho = partial_trace(np.outer(v, v.conj()), (0, 1), 3)
        mine = concurrence(rho)
        reference = wootters_reference(rho)
        # the reference route square-roots eigenvalue noise on the exact-zero
        # modes, so it only resolves the value to ~1e-8
        assert mine == pytest.approx(reference, abs=1e-7)

    @pytest.mark.parametrize("weights", [(0.7, 0.3, 0.0, 0.0), (0.0, 0.45, 0.55, 0.0)])
    def test_bell_diagonal_rank_two(self, weights):
        # sum_i w_i |Bell_i><Bell_i| has C = max(0, 2 w_max - 1), and a local
        # unitary u_A x u_B keeps it; at rank 2 K^dag K is 2 x 2
        rho = bell_diagonal(np.random.default_rng(1), weights)
        assert concurrence(rho) == pytest.approx(2 * max(weights) - 1, abs=1e-12)

    @pytest.mark.parametrize("weights", [(0.7, 0.2, 0.1, 0.0), (0.3, 0.3, 0.25, 0.15)])
    def test_rank_above_two_rejected(self, weights):
        # the package kernel takes the 4 x 2 factors of pure-state pairs
        with pytest.raises(ValueError, match="density matrix has rank above 2"):
            concurrence(bell_diagonal(np.random.default_rng(2), weights))

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(4, dtype=complex))
        with pytest.raises(ValueError):
            concurrence(np.diag([2.0, -1.0, 0, 0]).astype(complex))


class TestConcurrenceInvariants:
    """The kernel reads l1 - l2 from two invariants of each 2 x 2 K; the
    oracle takes the singular values of K from numpy.linalg.svd. Both carry
    an error of about 1e-16 l1, and l1 <= 1 on unit states."""

    def test_matches_svd_on_random_pair_factors(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(2000, 4, 2)) + 1j * rng.normal(size=(2000, 4, 2))
        w /= np.sqrt(np.sum(w.real ** 2 + w.imag ** 2, axis=(1, 2)))[:, None, None]
        assert np.abs(entanglement._concurrence(w) - concurrence_svd(w)).max() <= 1e-15

    def test_matches_svd_near_tangle_zeros(self):
        kets = [states.apply_r(RParams(theta, 0.3), states.basis_state(label))
                for theta in NEAR_TANGLE_ZEROS for label in states.BASIS_LABELS]
        w = np.concatenate([entanglement._factor(np.array(kets), pair)
                            for pair in entanglement.PAIRS])
        assert np.abs(entanglement._concurrence(w) - concurrence_svd(w)).max() <= 1e-15

    def test_landmark_states_are_exact(self):
        # no pair of GHZ or |000> is entangled, exactly; the W state as built,
        # with amplitudes x = fl(1/sqrt 3), has C = 2 x^2, which comes out
        # correctly rounded, 2 ulps above 2/3
        x = Fraction(w_state()[1].real)
        for state, exact in ((ghz(), 0.0), (w_state(), float(2 * x * x)),
                             (states.basis_state("000"), 0.0)):
            rep = entanglement.full_report(state)
            assert (rep.c_ab, rep.c_bc, rep.c_ac) == (exact,) * 3
        assert float(2 * x * x) == pytest.approx(2 / 3, abs=5e-16)

    def test_product_state_divides_by_no_zero(self):
        # K = 0 for every pair of |000>: C is 0.0 with no warning, not NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = entanglement.full_report(states.basis_state("000"))
        assert rep == (0.0,) * 8


class TestOneVsRest:
    def test_product_state(self):
        assert one_vs_rest_sq(states.basis_state("000"), "A") == 0.0

    def test_ghz(self):
        assert one_vs_rest_sq(ghz(), "A") == pytest.approx(1.0, abs=1e-12)

    def test_w_type_point(self):
        out = states.apply_r(RParams(0.0, 0.4), states.basis_state("000"))
        assert one_vs_rest_sq(out, "A") == pytest.approx(8 / 9, abs=1e-12)

    def test_all_cuts_agree_on_generated_states(self):
        out = states.apply_r(RParams(1.0, 0.3), states.basis_state("011"))
        values = [one_vs_rest_sq(out, w) for w in ("A", "B", "C")]
        assert max(values) - min(values) <= 1e-10

    def test_bad_cut_label(self):
        with pytest.raises(ValueError):
            one_vs_rest_sq(ghz(), "D")


class TestFullReport:
    def test_ghz_report(self):
        rep = entanglement.full_report(ghz())
        assert rep.tau_abc == pytest.approx(1.0, abs=1e-12)
        for c in (rep.c_ab, rep.c_bc, rep.c_ac):
            assert c == pytest.approx(0.0, abs=1e-10)
        for c2 in (rep.c2_a_bc, rep.c2_b_ac, rep.c2_c_ab):
            assert c2 == pytest.approx(1.0, abs=1e-12)

    def test_w_report(self):
        rep = entanglement.full_report(w_state())
        assert rep.tau_abc == pytest.approx(0.0, abs=1e-12)
        for c in (rep.c_ab, rep.c_bc, rep.c_ac):
            assert c == pytest.approx(2 / 3, abs=1e-12)

    @given(angles, angles, st.sampled_from(states.BASIS_LABELS))
    def test_monogamy_residual(self, theta, phi, label):
        out = states.apply_r(RParams(theta, phi), states.basis_state(label))
        rep = entanglement.full_report(out)
        assert rep.monogamy_residual <= 1e-8

    @given(angles, st.sampled_from(states.BASIS_LABELS))
    def test_phase_independence(self, theta, label):
        reports = [
            entanglement.full_report(
                states.apply_r(RParams(theta, phi), states.basis_state(label)))
            for phi in (0.0, 1.1, 4.4)
        ]
        for field in ("tau_abc", "c_ab", "c_bc", "c_ac",
                      "c2_a_bc", "c2_b_ac", "c2_c_ab"):
            vals = [getattr(r, field) for r in reports]
            assert max(vals) - min(vals) <= 1e-10

    def test_validates_the_state_once(self, monkeypatch):
        state = states.apply_r(RParams(0.7, 1.3), states.basis_state("011"))
        calls = {"as_state": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(states, "as_state")
        entanglement.full_report(state)
        assert calls == {"as_state": 1}

    def test_readme_sweep_and_entangle_solve_no_eigenproblem(self, monkeypatch, capsys):
        # each pair concurrence comes from two invariants of its 2 x 2 K, so
        # neither the README sweep's stack nor the entangle command calls eigh
        shapes = []
        original = linalg.eigh

        def recording(a):
            shapes.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(linalg, "eigh", recording)
        thetas = np.linspace(0.0, 3.14159, 121)
        entanglement.full_report(states.apply_r(RParams(thetas, 0.0),
                                                states.basis_state("000")))
        assert cli.main(["entangle", "--theta", "0.5236", "--phi", "0",
                         "--input", "000"]) == 0
        assert capsys.readouterr().out
        assert shapes == []

    def test_monogamy_residual_of_random_states(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2000, 8)) + 1j * rng.normal(size=(2000, 8))
        w /= np.linalg.norm(w, axis=1)[:, None]
        assert entanglement.full_report(w).monogamy_residual.max() <= 2.3e-15

    @given(st.integers(0, 2 ** 31 - 1))
    def test_reductions_are_the_partial_trace(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        w /= np.linalg.norm(w, axis=1)[:, None]
        rho = w[:, :, None] * w.conj()[:, None, :]
        for keep in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2)):
            assert np.array_equal(entanglement._reduced(w, keep), partial_trace(rho, keep, 3))


class TestCurveAgreement:
    def test_small_grid(self):
        for theta in np.linspace(0, np.pi, 7):
            out = states.apply_r(RParams(theta, 0.9), states.basis_state("010"))
            rep = entanglement.full_report(out)
            assert rep.tau_abc == pytest.approx(
                entanglement.tangle_closed_form(theta), abs=1e-9)
            assert rep.c_ab == pytest.approx(
                entanglement.pair_concurrence_closed_form(theta), abs=1e-9)
            assert rep.c2_a_bc == pytest.approx(
                entanglement.one_vs_rest_sq_closed_form(theta), abs=1e-9)

    def test_tangle_equals_ckw_difference(self):
        # independent computation paths for the same quantity
        for theta, phi, label in ((0.4, 0.0, "000"), (1.2, 2.0, "101"), (2.7, 1.0, "110")):
            out = states.apply_r(RParams(theta, phi), states.basis_state(label))
            rep = entanglement.full_report(out)
            ckw = rep.c2_a_bc - rep.c_ab ** 2 - rep.c_ac ** 2
            assert rep.tau_abc == pytest.approx(ckw, abs=1e-8)

    def test_near_tangle_zeros(self):
        for theta in NEAR_TANGLE_ZEROS:
            for label in states.BASIS_LABELS:
                out = states.apply_r(RParams(theta, 0.3), states.basis_state(label))
                rep = entanglement.full_report(out)
                pair = entanglement.pair_concurrence_closed_form(theta)
                for c in (rep.c_ab, rep.c_bc, rep.c_ac):
                    assert c == pytest.approx(pair, abs=1e-9)
                assert rep.monogamy_residual <= 1e-8


class TestStackedConcurrence:
    def test_readme_sweep_grid_bitwise(self):
        # the README sweep: theta in [0, 3.14159], 121 steps, phi = 0, input 000
        pairs = []
        for theta in np.linspace(0.0, 3.14159, 121):
            v = states.apply_r(RParams(theta, 0.0), states.basis_state("000"))
            rho = np.outer(v, v.conj())
            pairs.extend(partial_trace(rho, keep, 3)
                         for keep in ((0, 1), (1, 2), (0, 2)))
        stacked = concurrence(np.stack(pairs))
        assert stacked.shape == (len(pairs),)
        for c, rho2 in zip(stacked, pairs):
            assert c == concurrence(rho2)

    def test_bad_slice_named(self):
        good = np.diag([1.0, 0, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="density matrix 2 does not have unit trace"):
            concurrence(np.stack([good, good, 2 * good]))


class TestTwoQubitClosure:
    def test_concurrence_curve(self):
        for theta in np.linspace(0, np.pi, 9):
            r = r_matrix("two_qubit", RParams(theta, 0.8))
            for k in range(4):
                col = r[:, k]
                rho = np.outer(col, col.conj())
                c = concurrence(rho)
                assert c == pytest.approx(abs(np.sin(2 * theta)), abs=1e-10)
