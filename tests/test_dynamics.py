import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from braidphase import braid, dynamics, entanglement, linalg, yangbaxter
from braidphase.dynamics import DriveParams
from braidphase.yangbaxter import RParams
from oracles import hamiltonian_from_r, three_tangle

angles = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


class TestHamiltonian:
    def test_vanishes_at_half_pi(self):
        h = dynamics.hamiltonian(DriveParams(theta=np.pi / 2, phi=0.7))
        assert np.linalg.norm(h) < 1e-15

    def test_hermitian(self):
        h = dynamics.hamiltonian(DriveParams(theta=0.8, phi=1.9, phi_dot=2.0))
        assert np.linalg.norm(h - h.conj().T) < 1e-12

    def test_matches_finite_difference_oracle(self):
        d = DriveParams(theta=0.7, phi=0.2, phi_dot=1.3)
        h = dynamics.hamiltonian(d)
        h_fd = hamiltonian_from_r(d, dt=1e-5)
        assert np.linalg.norm(h - h_fd) <= 1e-7

    def test_finite_difference_hermitian_to_truncation(self):
        d = DriveParams(theta=1.1, phi=0.5)
        h_fd = hamiltonian_from_r(d, dt=1e-4)
        assert np.linalg.norm(h_fd - h_fd.conj().T) <= 1e-7

    def test_finite_difference_vanishes_at_half_pi(self):
        h_fd = hamiltonian_from_r(DriveParams(theta=np.pi / 2, phi=0.3), dt=1e-4)
        assert np.linalg.norm(h_fd) <= 1e-7

    def test_dt_validation(self):
        d = DriveParams(theta=0.5, phi=0.5)
        for dt in (0.0, -1e-6, 2e-3):
            with pytest.raises(ValueError):
                hamiltonian_from_r(d, dt=dt)

    def test_drive_params_validation(self):
        with pytest.raises(ValueError):
            DriveParams(theta=0.1, phi=0.1, hbar=0.0)
        with pytest.raises(ValueError):
            DriveParams(theta=np.nan, phi=0.1)

    def test_scaling_in_hbar_and_rate(self):
        base = dynamics.hamiltonian(DriveParams(theta=0.9, phi=0.4))
        scaled = dynamics.hamiltonian(DriveParams(theta=0.9, phi=0.4, phi_dot=2.5, hbar=3.0))
        assert np.linalg.norm(scaled - 7.5 * base) < 1e-12


def expanded_hamiltonian(d):
    """The generator built at one angle from its three phi-independent parts,
    each written from the spin lifts in the grouping of its definition."""
    S1P, S2P, S3P = dynamics.S1P, dynamics.S2P, dynamics.S3P
    S1M, S2M, S3M = dynamics.S1M, dynamics.S2M, dynamics.S3M
    S1_3, S2_3, S3_3 = dynamics.S1_3, dynamics.S2_3, dynamics.S3_3
    pp = 2 * S2_3 @ S1P @ S3P + S1P @ S2P + S2P @ S3P
    mm = 2 * S2_3 @ S1M @ S3M + S1M @ S2M + S2M @ S3M
    diag = (2 * (S1_3 + S2_3 + S3_3) + 2 * S2_3 @ (S1P @ S3M + S1M @ S3P)
            - (S1P @ S2M + S2P @ S3M + S1M @ S2P + S2M @ S3P))
    em = np.exp(-1j * d.phi)
    f1 = d.hbar * d.phi_dot * np.sin(d.theta) * np.cos(d.theta) / np.sqrt(3.0)
    f2 = d.hbar * d.phi_dot * np.cos(d.theta) ** 2 / 3
    return f1 * (em * pp + np.conj(em) * mm) + f2 * diag


class TestHamiltonianGrid:
    """H over grids of drive angles: hamiltonian() at each angle, evaluated on
    the operators' support only, and _doublet_blocks over the whole grid,
    evaluated on the block entries only, each bitwise equal to the
    whole-matrix oracle (compressed, with its structure checked at every grid
    point, for the blocks)."""

    @pytest.mark.parametrize("steps", [1, 800])
    def test_bitwise_equal_to_per_point_calls(self, steps):
        for theta in (1.0472, 2.1):
            phis = 2 * np.pi * np.arange(steps) / steps
            grid = oracles.hamiltonian_grid(theta, phis)
            for k in range(steps):
                d = DriveParams(theta, 2 * np.pi * k / steps)
                h = dynamics.hamiltonian(d)
                assert np.array_equal(h, grid[k])
                assert np.array_equal(h, expanded_hamiltonian(d))

    def test_wide_phi_range_bitwise(self):
        for phi in np.random.default_rng(3).uniform(-50.0, 50.0, 65):
            d = DriveParams(0.7, float(phi))
            assert np.array_equal(dynamics.hamiltonian(d), expanded_hamiltonian(d))

    def test_support_bitwise_equal_to_whole_matrix_expression(self):
        # at 0, pi/2, pi and 3pi/2 a part of e^{-i phi} is 0 or -0, which the
        # sign bits of H's entries carry
        phis = np.concatenate([np.pi / 2 * np.arange(4), np.linspace(-7.0, 7.0, 101)])
        support = (dynamics.I_PLUS != 0) | (dynamics.I_MINUS != 0) | (dynamics.I_3 != 0)
        assert support.sum() == 32
        for theta, phi_dot, hbar in ((1.0472, 1.0, 1.0), (2.6, -2.5, 0.7), (0.0, 1.0, 3.0)):
            whole = oracles.hamiltonian_grid(theta, phis, phi_dot, hbar)
            for phi, w in zip(phis, whole):
                h = dynamics.hamiltonian(DriveParams(theta, float(phi), phi_dot, hbar))
                assert h[support].tobytes() == w[support].tobytes()
                assert np.all(h[~support] == 0)

    def test_patched_operator_reaches_the_generator(self, monkeypatch):
        # the support is read from the operators at each call, so an entry
        # that a patched operator adds off it shows in H
        mutant = dynamics.I_3.copy()
        mutant[0, 7] = 1.0
        monkeypatch.setattr(dynamics, "I_3", mutant)
        h = dynamics.hamiltonian(DriveParams(0.9, 0.4))
        assert h[0, 7] == 2 * np.cos(0.9) ** 2 / 3


    @pytest.mark.parametrize("steps", [100, 800, 2000, 10 ** 4])
    def test_blocks_bitwise_equal_to_the_compressed_whole_matrix(self, steps):
        phis = 2 * np.pi * np.arange(steps) / steps
        for theta in (1.0472, 0.3, 2.1, 1.56, 0.0, -7.0, 1e300):
            for phi_dot, hbar in ((1.0, 1.0), (-2.5, 0.7)):
                blocks = dynamics._doublet_blocks(theta, phis, phi_dot, hbar)
                oracle = oracles.compress(oracles.hamiltonian_grid(theta, phis, phi_dot, hbar))
                assert blocks.shape == (steps, 2, 2, 2)
                assert blocks.tobytes() == oracle.tobytes(), (theta, phi_dot)

    def test_blocks_at_random_drives_bitwise_equal_to_compressed_hamiltonian(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            d = DriveParams(rng.uniform(-7.0, 7.0), rng.uniform(-50.0, 50.0),
                            rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0))
            blocks = dynamics._doublet_blocks(d.theta, np.array([d.phi]), d.phi_dot, d.hbar)
            assert blocks.tobytes() == oracles.compress(dynamics.hamiltonian(d)[None]).tobytes()

    @pytest.mark.parametrize("name,entry,message", [
        ("I_3", (5, 0), "I_3 row 5 is not +1 times row 3;"),
        ("I_PLUS", (0, 7), "I_PLUS mixes even and odd parity;"),
        ("I_MINUS", (1, 2), "I_MINUS column 2 is not -1 times column 1;"),
    ])
    def test_patched_operator_is_checked_by_the_blocks(self, monkeypatch, name, entry, message):
        # the operators are read and checked at each call
        mutant = getattr(dynamics, name).copy()
        mutant[entry] += 1e-300
        monkeypatch.setattr(dynamics, name, mutant)
        with pytest.raises(linalg.NumericalError, match="^" + re.escape(message)):
            dynamics._doublet_blocks(0.9, np.array([0.4]), 1.0, 1.0)

    def test_patched_parity_table_reaches_the_blocks(self, monkeypatch):
        # braid's table is read at each call: a mask that flags an entry
        # I_PLUS uses makes I_PLUS parity-mixing
        blocks, mask = braid._PARITY_BLOCKS[8]
        mutant = mask.copy()
        mutant[tuple(np.argwhere(dynamics.I_PLUS != 0)[0])] = True
        monkeypatch.setattr(braid, "_PARITY_BLOCKS", {**braid._PARITY_BLOCKS, 8: (blocks, mutant)})
        with pytest.raises(linalg.NumericalError, match="^I_PLUS mixes even and odd parity;"):
            dynamics._doublet_blocks(0.9, np.array([0.4]), 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            dynamics._doublet_blocks(0.5, np.array([0.1, np.nan]), 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            dynamics._doublet_blocks(np.inf, np.array([0.1]), 1.0, 1.0)

    def test_drive_validated_once(self, monkeypatch):
        # a DriveParams was checked when it was made; the blocks check their own
        d = DriveParams(theta=0.9, phi=1.1)
        calls = []
        check = dynamics._check_drive
        monkeypatch.setattr(dynamics, "_check_drive",
                            lambda *args: calls.append(args) or check(*args))
        dynamics.hamiltonian(d)
        assert len(calls) == 0
        dynamics._doublet_blocks(0.9, np.array([1.1, 1.2]), 1.0, 1.0)
        assert len(calls) == 1


class TestSu2Ops:
    def test_operators_built_once(self):
        for d in (DriveParams(theta=0.9, phi=1.1), DriveParams(theta=2.0, phi=0.3)):
            ops = dynamics.su2_ops(d)
            assert ops.i_plus is dynamics.I_PLUS
            assert ops.i_minus is dynamics.I_MINUS
            assert ops.i_3 is dynamics.I_3
        for m in (dynamics.I_PLUS, dynamics.I_MINUS, dynamics.I_3):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 1.0

    def test_nilpotent_ladders(self):
        ops = dynamics.su2_ops(DriveParams(theta=0.9, phi=1.1))
        assert np.linalg.norm(ops.i_plus @ ops.i_plus) == 0.0
        assert np.linalg.norm(ops.i_minus @ ops.i_minus) == 0.0

    def test_minus_is_dagger_of_plus(self):
        ops = dynamics.su2_ops(DriveParams(theta=0.9, phi=1.1))
        assert np.linalg.norm(ops.i_minus - ops.i_plus.conj().T) <= 1e-15

    def test_field_coefficients(self):
        d = DriveParams(theta=0.9, phi=1.1, phi_dot=1.7, hbar=2.0)
        ops = dynamics.su2_ops(d)
        expected = (2.0 * 1.7 * np.sin(0.9) * np.cos(0.9) * np.exp(-1.1j) / np.sqrt(3))
        assert ops.b_plus == pytest.approx(expected, abs=1e-15)
        assert ops.b_minus == pytest.approx(np.conj(expected), abs=1e-15)
        assert ops.b_3 == pytest.approx(2 / 3 * 2.0 * 1.7 * np.cos(0.9) ** 2)

    def test_cartan_commutator(self):
        res = dynamics.ladder_residuals()["residuals"]
        assert res["cartan_commutator"] <= 1e-12

    def test_decomposition_reproduces_hamiltonian(self):
        d = DriveParams(theta=1.3, phi=0.2, phi_dot=0.7)
        ops = dynamics.su2_ops(d)
        split = ops.b_plus * ops.i_plus + ops.b_minus * ops.i_minus + ops.b_3 * ops.i_3
        assert linalg.frobenius_norms([dynamics.hamiltonian(d) - split])[0] <= 1e-10

    def test_ladder_normalization_finding(self):
        # the unit-normalized bracket fails; the triple-normalized one holds
        ladder = dynamics.ladder_residuals()
        res, misread = ladder["residuals"], ladder["misreadings"]
        assert misread["ladder_plus_unit"] == pytest.approx(2 * np.sqrt(6), abs=1e-12)
        assert misread["ladder_minus_unit"] == pytest.approx(2 * np.sqrt(6), abs=1e-12)
        assert res["ladder_plus_triple"] <= 1e-12
        assert res["ladder_minus_triple"] <= 1e-12

    def test_i3_squared_findings(self):
        ladder = dynamics.ladder_residuals()
        res, misread = ladder["residuals"], ladder["misreadings"]
        # exact global identity: I3^2 = (9/4) projector onto the doublet span
        assert res["i3_squared_projector_identity"] <= 1e-12
        assert res["i3_squared_nine_quarters_span"] <= 1e-12
        assert misread["i3_squared_quarter_global"] == pytest.approx(
            np.sqrt(4 * 2 ** 2 + 4 * 0.25 ** 2), abs=1e-12)
        assert misread["i3_squared_quarter_span"] == pytest.approx(4.0, abs=1e-12)


# operator: (its image on each sector's doublet range, its normalization):
# J+- = I+-/sqrt(3) is sigma+-, and J3 = I3/3 is sigma_z/2
SIGMA_IMAGES = {
    "I_PLUS": (np.array([[0.0, 1.0], [0.0, 0.0]]), dynamics.SQRT3),
    "I_MINUS": (np.array([[0.0, 0.0], [1.0, 0.0]]), dynamics.SQRT3),
    "I_3": (np.array([[0.5, 0.0], [0.0, -0.5]]), 3.0),
}


def compressed_images():
    """Each operator, read at call time, on each sector's doublet range by the
    route of H's blocks (its _SOURCES entries times _WEIGHTS), normalized:
    shape (2, 2, 2), sector first."""
    sources = dynamics._SOURCES
    return {name: getattr(dynamics, name)[sources[:, :, None], sources[:, None, :]]
            * dynamics._WEIGHTS / norm for name, (_, norm) in SIGMA_IMAGES.items()}


def lifted_images():
    """The same images through the orthonormal pairs of _LIFT: L^dag op L."""
    lift = dynamics._LIFT
    return {name: lift.transpose(0, 2, 1) @ getattr(dynamics, name) @ lift / norm
            for name, (_, norm) in SIGMA_IMAGES.items()}


def within_ulps(images, ulps):
    """Whether every image is within ``ulps`` units in the last place of its
    sigma, entry by entry, in both sectors (0 ulps: equal)."""
    return all(np.all(np.abs(images[name] - sigma) <= ulps * np.spacing(np.abs(sigma)))
               for name, (sigma, _) in SIGMA_IMAGES.items())


class TestSigmaImages:
    """H on each sector's doublet range is a spin-1/2 in a field: its
    operators' images there are the Pauli ladder and sigma_z / 2."""

    def test_compressed_images_are_exact(self):
        images = compressed_images()
        assert within_ulps(images, 0)
        for name, (sigma, _) in SIGMA_IMAGES.items():
            assert np.all(images[name] == sigma), name

    def test_lifted_images_within_one_ulp(self):
        assert within_ulps(lifted_images(), 1)

    def test_nudged_i3_fails(self, monkeypatch):
        # two ulps of the |000> diagonal of I_3 (1.5) outlast the division by
        # 3 and break the exact image; four break the lifted one
        for ulps, images, allowed in ((2, compressed_images, 0), (4, lifted_images, 1)):
            with monkeypatch.context() as m:
                op = dynamics.I_3.copy()
                op[0, 0] += ulps * np.spacing(op[0, 0].real)
                m.setattr(dynamics, "I_3", op)
                assert not within_ulps(images(), allowed)
            assert within_ulps(images(), allowed)


def r_ratio(theta, phi):
    """R(theta, phi) R(theta, 0)^dag of the three-qubit system: the evolution
    from phi = 0 that H = i hbar dR/dt R^dag generates."""
    def r(at):
        return yangbaxter.r_matrix(yangbaxter.THREE_QUBIT, RParams(theta, at))
    return r(phi) @ r(0.0).conj().T


def driven_evolution(theta, phi_end, steps, phi_dot, hbar):
    """The time-ordered midpoint product of exp(-i H dt / hbar) over a drive
    from phi = 0 to ``phi_end`` in ``steps`` equal steps, each exponential
    from a numpy.linalg.eigh of H at the step's midpoint."""
    dt = phi_end / phi_dot / steps
    u = np.eye(8, dtype=complex)
    for k in range(steps):
        w, v = np.linalg.eigh(dynamics.hamiltonian(
            DriveParams(theta, phi_dot * (k + 0.5) * dt, phi_dot, hbar)))
        u = (v * np.exp(-1j * w * dt / hbar)) @ v.conj().T @ u
    return u


class TestDrivenEvolution:
    """The drive is never adiabatic: the Schroedinger evolution under H is
    exactly R(phi) R(0)^dag, whatever phi_dot and hbar, so a state leaves its
    level and comes back only when the loop closes."""

    def test_product_converges_to_the_r_ratio_at_any_rate(self):
        exact = r_ratio(1.0472, np.pi)
        errors = {steps: [np.abs(driven_evolution(1.0472, np.pi, steps, phi_dot, hbar)
                                 - exact).max()
                          for phi_dot, hbar in ((1.0, 1.0), (2.5, 0.7))]
                  for steps in (200, 400)}
        for rates in errors.values():
            assert rates[0] == pytest.approx(rates[1], abs=1e-14)
        assert errors[200][0] == pytest.approx(1.67e-5, rel=0.01)
        assert errors[400][0] == pytest.approx(4.19e-6, rel=0.01)
        # a midpoint rule: twice the steps, a quarter of the error
        assert errors[200][0] / errors[400][0] == pytest.approx(4.0, rel=0.01)

    @pytest.mark.parametrize("theta, fidelity", [(1.0472, 0.2500), (2.1, 0.2549),
                                                 (0.3, 0.9127)])
    def test_fixture_leaves_its_level(self, theta, fidelity):
        # fixture 5, carried by the evolution to phi = pi, against fixture 5 there
        start, there = (dynamics.eigenstate_fixture(5, theta, phi) for phi in (0.0, np.pi))
        assert abs(np.vdot(there, r_ratio(theta, np.pi) @ start)) ** 2 == pytest.approx(
            fidelity, abs=5e-5)
        if theta == 1.0472:
            carried = driven_evolution(theta, np.pi, 400, 1.0, 1.0) @ start
            assert abs(np.vdot(there, carried)) ** 2 == pytest.approx(fidelity, abs=5e-5)

    def test_loop_closes_on_the_identity(self):
        # 2.3e-16 measured: the rounding of R at phi = 2 pi, about one ulp of 1
        assert np.abs(r_ratio(1.0472, 2 * np.pi) - np.eye(8)).max() <= 2 * np.spacing(1.0)
        closed = driven_evolution(1.0472, 2 * np.pi, 400, 1.0, 1.0)
        assert np.abs(closed - np.eye(8)).max() <= 2e-5


class TestFixtures:
    def test_chi1_vector(self):
        v = dynamics.eigenstate_fixture(1, 0.7, 1.9)
        expected = np.zeros(8, dtype=complex)
        expected[0b011], expected[0b110] = -1 / np.sqrt(2), 1 / np.sqrt(2)
        assert np.array_equal(v, expected)

    @given(angles, angles, st.integers(1, 8))
    def test_normalized(self, theta, phi, i):
        v = dynamics.eigenstate_fixture(i, theta, phi)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_index_validation(self):
        with pytest.raises(ValueError):
            dynamics.eigenstate_fixture(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            dynamics.eigenstate_fixture(9, 0.1, 0.1)

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_eigen_equations(self, i):
        d = DriveParams(theta=0.9, phi=1.1)
        h = dynamics.hamiltonian(d)
        v = dynamics.eigenstate_fixture(i, d.theta, d.phi)
        e = dynamics.fixture_energy(i, d)
        assert np.linalg.norm(h @ v - e * v) <= 1e-10

    def test_level_membership(self):
        d = DriveParams(theta=0.9, phi=1.1)
        e = np.cos(0.9)
        assert dynamics.fixture_energy(5, d) == pytest.approx(-e)
        assert dynamics.fixture_energy(7, d) == pytest.approx(-e)
        assert dynamics.fixture_energy(6, d) == pytest.approx(e)
        assert dynamics.fixture_energy(8, d) == pytest.approx(e)
        assert all(dynamics.fixture_energy(i, d) == 0.0 for i in (1, 2, 3, 4))

    def test_zero_level_fixtures_are_phase_free_and_annihilated(self):
        for theta in (0.4, 2.0):
            h = dynamics.hamiltonian(DriveParams(theta=theta, phi=0.6))
            for i in (1, 2, 3, 4):
                a = dynamics.eigenstate_fixture(i, theta, 0.0)
                b = dynamics.eigenstate_fixture(i, theta, 5.1)
                assert np.array_equal(a, b)
                assert np.linalg.norm(h @ a) <= 1e-10

    def test_zero_level_entanglement(self):
        # each zero-level state is one maximally entangled pair times a spectator
        theta = 1.3
        pair_of = {1: "c_ac", 2: "c_ac", 3: "c_ab", 4: "c_bc"}
        for i, field in pair_of.items():
            v = dynamics.eigenstate_fixture(i, theta, 0.7)
            rep = entanglement.full_report(v)
            assert rep.tau_abc <= 1e-10
            assert getattr(rep, field) == pytest.approx(1.0, abs=1e-10)

    def test_doublet_three_tangles(self):
        # half-angle tangles, with the angle roles swapped between the pairs
        theta, phi = 0.9, 1.1
        s, c = np.sin(theta / 2), np.cos(theta / 2)
        outer = 16 * np.sqrt(3) / 9
        for i, expected in ((5, outer * abs(c * s ** 3)),
                            (6, outer * abs(s * c ** 3)),
                            (7, outer * abs(s * c ** 3)),
                            (8, outer * abs(c * s ** 3))):
            v = dynamics.eigenstate_fixture(i, theta, phi)
            assert three_tangle(v) == pytest.approx(expected, abs=1e-12)
            rep = entanglement.full_report(v)
            ckw = rep.c2_a_bc - rep.c_ab ** 2 - rep.c_ac ** 2
            assert ckw == pytest.approx(expected, abs=1e-8)


class TestSpectrum:
    def test_degeneracy_pattern(self):
        rep = dynamics.spectrum(DriveParams(theta=np.pi / 3, phi=0.4))
        assert sorted(rep.degeneracy_pattern) == [2, 2, 4]
        assert rep.degeneracy_pattern == (2, 4, 2)

    def test_closed_form_eigenvalues(self):
        rep = dynamics.spectrum(DriveParams(theta=np.pi / 3, phi=0.4))
        assert rep.closed_form_match <= 1e-10
        assert np.allclose(rep.eigenvalues,
                           [-0.5, -0.5, 0, 0, 0, 0, 0.5, 0.5], atol=1e-10)

    def test_flat_at_half_pi(self):
        rep = dynamics.spectrum(DriveParams(theta=np.pi / 2, phi=1.0))
        assert np.allclose(rep.eigenvalues, np.zeros(8), atol=1e-14)
        assert rep.degeneracy_pattern == (8,)
        assert max(rep.projector_residuals) <= 1e-8

    def test_fixture_residuals(self):
        rep = dynamics.spectrum(DriveParams(theta=0.9, phi=1.1))
        assert max(rep.fixture_residuals) <= 1e-10

    def test_projector_match(self):
        for theta in (0.5, 2.4):
            rep = dynamics.spectrum(DriveParams(theta=theta, phi=0.8))
            assert max(rep.projector_residuals) <= 1e-8

    def test_kernel_projector_built_once(self, monkeypatch):
        # bitwise the Gram-Schmidt projector of the kernel vectors and
        # read-only; spectrum then builds one projector per cluster, of the
        # fixtures that span it, and none of the kernel
        vectors = [np.eye(8)[c] - sign * np.eye(8)[s] for c, s, sign in dynamics._SAME]
        kernel = dynamics._kernel()
        assert kernel.tobytes() == dynamics._span_projector(vectors).tobytes()
        assert dynamics._kernel() is kernel
        with pytest.raises(ValueError, match="read-only"):
            kernel[0, 0] = 1.0
        built = []
        original = dynamics._span_projector

        def recording(vectors):
            built.append(len(vectors))
            return original(vectors)

        monkeypatch.setattr(dynamics, "_span_projector", recording)
        rep = dynamics.spectrum(DriveParams(theta=0.9, phi=1.1))
        assert built == list(rep.degeneracy_pattern) == [2, 4, 2]

    @pytest.mark.parametrize("hbar,phi_dot", [(1.0, 1.0), (1e-150, -1.0), (1.0, 1e150)])
    def test_sweep_against_the_closed_forms(self, hbar, phi_dot):
        # the eigenprojectors (lifted block eigenvectors, and the exact kernel
        # for the zero level) against the fixtures' spans, and the eigenvalues
        # against the closed forms, over theta across both crossings of the
        # flat point, several turns and both signs of cos(theta)
        scale = hbar * abs(phi_dot)
        for theta in np.linspace(-7.0, 7.0, 201):
            for phi in (0.0, 1.3, 4.4):
                rep = dynamics.spectrum(DriveParams(theta, phi, phi_dot, hbar))
                assert max(rep.projector_residuals) <= 1e-14, (theta, phi)
                assert rep.closed_form_match <= 1e-15 * scale, (theta, phi)
                assert sum(rep.degeneracy_pattern) == 8
                assert all(type(n) is int for n in rep.degeneracy_pattern)
