import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidphase import braid, cli, linalg, yangbaxter
from braidphase.yangbaxter import (
    RParams,
    SingularParameterError,
    SpectralParam,
    r_matrix,
    ybe_residual,
)
from oracles import (
    abs_det,
    kron_route_residual,
    r_from_spectral,
    rational_r,
    theta_from_spectral,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestRParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RParams(np.inf, 0.0)
        with pytest.raises(ValueError):
            RParams([0.1, np.nan], 0.0)

    def test_theta_grid(self):
        p = RParams([0.5, 7.0], -1.0)
        assert isinstance(p.theta, np.ndarray) and p.theta.dtype == float
        for theta, phi in ((np.zeros((2, 2)), 0.0), (0.1, np.zeros(2))):
            with pytest.raises(ValueError):
                RParams(theta, phi)
        with pytest.raises(ValueError):  # the held grid is read-only
            p.theta[0] = 1.0
        # compared and hashed by identity, so a grid never raises there
        assert p != RParams([0.5, 7.0], -1.0) and len({p, p}) == 1


class TestSpectralParam:
    def test_accepts_unit_circle(self):
        SpectralParam(np.exp(0.3j))

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            SpectralParam(1.5 + 0j)

    def test_branch(self):
        assert theta_from_spectral(SpectralParam(1.0 + 0j)) == pytest.approx(np.pi / 2)
        assert theta_from_spectral(SpectralParam(np.exp(1j * np.pi / 4))) == pytest.approx(
            np.pi / 4)


class TestRMatrix:
    def test_identity_at_half_pi(self):
        for phi in (0.0, 1.2):
            r = r_matrix(yangbaxter.THREE_QUBIT, RParams(np.pi / 2, phi))
            assert np.linalg.norm(r - np.eye(8)) < 1e-15

    def test_pure_generator_at_zero(self):
        r = r_matrix(yangbaxter.THREE_QUBIT, RParams(0.0, 0.0))
        assert np.linalg.norm(r - braid.build_braidset(0.0).mcal) < 1e-15

    @pytest.mark.parametrize("system,dim", [("two_qubit", 4), ("three_qubit", 8)])
    def test_unitarity_grid(self, system, dim):
        eye = np.eye(dim)
        worst = 0.0
        for theta in np.linspace(0, 2 * np.pi, 11, endpoint=False):
            for phi in np.linspace(0, 2 * np.pi, 11, endpoint=False):
                r = r_matrix(system, RParams(theta, phi))
                worst = max(worst, np.linalg.norm(r.conj().T @ r - eye))
        assert worst <= 1e-12

    @given(angles, angles, angles)
    def test_composition_identity(self, theta, theta2, phi):
        # products stay in span{I, mcal}: R(t) R(t') =
        # (sin t sin t' - cos t cos t') I + sin(t + t') mcal
        mcal = braid.build_braidset(phi).mcal
        lhs = (r_matrix("three_qubit", RParams(theta, phi))
               @ r_matrix("three_qubit", RParams(theta2, phi)))
        rhs = ((np.sin(theta) * np.sin(theta2) - np.cos(theta) * np.cos(theta2))
               * np.eye(8)
               + (np.sin(theta) * np.cos(theta2) + np.cos(theta) * np.sin(theta2))
               * mcal)
        assert np.linalg.norm(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("system", yangbaxter.SYSTEMS)
    def test_theta_grid_slices_bitwise_equal_to_solo(self, system):
        thetas = np.random.default_rng(3).uniform(-np.pi, np.pi, 121)
        for phi in (0.0, 1.3):
            stack = r_matrix(system, RParams(thetas, phi))
            assert stack.shape == (121,) + r_matrix(system, RParams(0.0, phi)).shape
            for theta, r in zip(thetas, stack):
                assert np.array_equal(r, r_matrix(system, RParams(float(theta), phi)))

    def test_determinant_modulus(self):
        for system in yangbaxter.SYSTEMS:
            for theta, phi in ((0.3, 0.7), (2.2, 4.1)):
                r = r_matrix(system, RParams(theta, phi))
                assert abs(abs_det(r) - 1.0) <= 1e-10

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            r_matrix("four_qubit", RParams(0.1, 0.1))


class TestRFromSpectral:
    def test_identity_point(self):
        r = r_from_spectral("three_qubit", SpectralParam(1.0 + 0j), 0.4)
        assert np.linalg.norm(r - np.eye(8)) < 1e-15

    def test_matches_angle_route(self):
        x = SpectralParam(np.exp(1j * np.pi / 4))
        r1 = r_from_spectral("three_qubit", x, 0.9)
        r2 = r_matrix("three_qubit", RParams(np.pi / 4, 0.9))
        assert np.linalg.norm(r1 - r2) <= 1e-12

    def test_agreement_on_random_parameters(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 50:
            a = rng.uniform(-np.pi, np.pi)
            if abs(np.cos(a)) < 1e-3:
                continue
            count += 1
            x = SpectralParam(np.exp(1j * a))
            r1 = r_from_spectral("two_qubit", x, 1.3)
            r2 = r_matrix("two_qubit", RParams(np.pi / 2 - a, 1.3))
            assert np.linalg.norm(r1 - r2) <= 1e-12

    def test_singular_parameter_rejected(self):
        with pytest.raises(SingularParameterError):
            r_from_spectral("three_qubit", SpectralParam(1j), 0.0)


class TestYbeResidual:
    def test_identity_point_trivial(self):
        one = SpectralParam(1.0 + 0j)
        assert ybe_residual("two_qubit", one, one, 0.3) < 1e-15

    def test_two_qubit_rational_closes(self):
        x = SpectralParam(np.exp(1j * np.pi / 6))
        y = SpectralParam(np.exp(1j * np.pi / 8))
        assert ybe_residual("two_qubit", x, y, 0.7) <= 1e-10

    def test_two_qubit_rational_closes_for_random_parameters(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            a, b = rng.uniform(-np.pi, np.pi, 2)
            if min(abs(np.cos(a)), abs(np.cos(b)), abs(np.cos(a + b))) < 1e-3:
                continue
            checked += 1
            res = ybe_residual("two_qubit", SpectralParam(np.exp(1j * a)),
                               SpectralParam(np.exp(1j * b)), 1.9)
            assert res <= 1e-10

    def test_three_qubit_residual_is_reported_not_asserted(self):
        # the overlapping-triple lifts break the closure; record, don't gate
        x = SpectralParam(np.exp(1j * np.pi / 6))
        y = SpectralParam(np.exp(1j * np.pi / 8))
        res = ybe_residual("three_qubit", x, y, 0.7)
        assert np.isfinite(res) and res >= 0.0
        lifted = np.kron(braid.build_braidset(0.7).mcal, np.eye(2))
        shifted = np.kron(np.eye(2), braid.build_braidset(0.7).mcal)
        sandwich = np.linalg.norm(lifted @ shifted @ lifted - shifted)
        assert sandwich > 1.0  # the algebra deficit behind the nonzero residual

    def test_unitary_family_violates_multiplicative_form(self):
        x = SpectralParam(np.exp(1j * np.pi / 6))
        y = SpectralParam(np.exp(1j * np.pi / 8))
        assert ybe_residual("two_qubit", x, y, 0.7, family="unitary") > 1.0

    def test_singular_composite_rejected(self):
        # arg(x) + arg(y) = pi/2 makes x*y singular for the theta map
        x = SpectralParam(np.exp(1j * np.pi / 4))
        with pytest.raises(SingularParameterError):
            ybe_residual("two_qubit", x, x, 0.0)

    def test_rational_r_rejects_zero(self):
        with pytest.raises(ValueError):
            rational_r("two_qubit", 0.0, 0.0)

    def test_unknown_family_rejected(self):
        one = SpectralParam(1.0 + 0j)
        with pytest.raises(ValueError):
            ybe_residual("two_qubit", one, one, 0.0, family="other")


def sampled_pairs(count, seed=23):
    """Spectral pairs away from the singular points, as the ybe command samples
    them, drawn pair by pair; ``seed`` may be a Generator, which is then used."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    while len(xs) < count:
        a, b = rng.uniform(-np.pi, np.pi, 2)
        if min(abs(np.cos(a)), abs(np.cos(b)), abs(np.cos(a + b))) < 1e-3:
            continue
        xs.append(SpectralParam(np.exp(1j * a)))
        ys.append(SpectralParam(np.exp(1j * b)))
    return xs, ys


SYSTEM_FAMILIES = [(s, f) for s in yangbaxter.SYSTEMS for f in ("rational", "unitary")]


def within_oracle(residuals, oracle):
    """The word expansion matches the product route to 1e-14 of max(1, r)."""
    residuals, oracle = np.asarray(residuals), np.asarray(oracle)
    return bool(np.all(np.abs(residuals - oracle) <= 1e-14 * np.maximum(1.0, oracle)))


class TestStackedYbeResidual:
    @pytest.mark.parametrize("system,family", SYSTEM_FAMILIES)
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
    def test_stack_matches_per_pair_calls(self, system, family, count):
        xs, ys = sampled_pairs(count)
        stacked = ybe_residual(system, xs, ys, 0.9, family=family)
        assert stacked.shape == (count,)
        single = [ybe_residual(system, x, y, 0.9, family=family) for x, y in zip(xs, ys)]
        kron = [kron_route_residual(system, x, y, 0.9, family) for x, y in zip(xs, ys)]
        assert all(isinstance(r, float) for r in single)
        assert stacked.tolist() == single
        assert within_oracle(stacked, kron)

    @pytest.mark.parametrize("system,family", SYSTEM_FAMILIES)
    def test_phi_grid_slices_bitwise_equal_to_scalar_calls(self, system, family):
        xs, ys = sampled_pairs(65)
        phis = np.array([0.0, 0.9, -2.5, 1e3])
        grid = ybe_residual(system, xs, ys, phis, family=family)
        assert grid.shape == (4, 65)
        for phi, row in zip(phis, grid):
            assert np.array_equal(row, ybe_residual(system, xs, ys, phi, family=family))
        # one pair over the grid is the column of that pair
        one = ybe_residual(system, xs[64], ys[64], phis, family=family)
        assert one.shape == (4,) and np.array_equal(one, grid[:, 64])

    def test_generator_built_once_per_phi(self, monkeypatch):
        # 130 pairs span three blocks of 64; each phi's generator is built once
        built, generator = [], yangbaxter._generator
        monkeypatch.setattr(yangbaxter, "_generator",
                            lambda system, phi: built.append(phi) or generator(system, phi))
        xs, ys = sampled_pairs(130)
        ybe_residual("three_qubit", xs, ys, [0.0, 0.9])
        assert built == [0.0, 0.9]

    @pytest.mark.parametrize("dim", [4, 8])
    @pytest.mark.parametrize("family", ["rational", "unitary"])
    def test_random_generator_matches_product_route(self, monkeypatch, dim, family):
        # no braid relation is assumed: any complex G gives the product route's value
        rng = np.random.default_rng(dim)
        gen = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        monkeypatch.setattr(yangbaxter, "_generator", lambda system, phi: gen)
        xs, ys = sampled_pairs(65)
        words = ybe_residual("two_qubit", xs, ys, 0.0, family=family)
        kron = [kron_route_residual("two_qubit", x, y, 0.0, family) for x, y in zip(xs, ys)]
        assert np.median(kron) > 1.0  # far from a closing equation: nothing cancels
        assert within_oracle(words, kron)

    def test_mutant_generator_fails_the_two_qubit_gate(self, monkeypatch, capsys):
        minus, plus, zero = braid._M_PARTS
        monkeypatch.setattr(braid, "_M_PARTS", (minus, 2 * plus, zero))
        assert cli.main(["ybe", "--samples", "50", "--phi-samples", "5", "--seed", "0"]) == 1
        worst = json.loads(capsys.readouterr().out)["residual_summary"]["two_qubit_rational_max"]
        rng = np.random.default_rng(0)
        xs, ys = cli._sample_spectral_pairs(rng, 50)
        kron = max(kron_route_residual("two_qubit", x, y, phi, "rational")
                   for phi in rng.uniform(0.0, 2 * np.pi, 5) for x, y in zip(xs, ys))
        assert worst > 1.0 and within_oracle(worst, kron)

    def test_memory_does_not_grow_with_pairs_times_phis(self):
        def peak(count, phi_count):
            xs, ys = sampled_pairs(count)
            phis = np.linspace(0.0, 6.0, phi_count)
            tracemalloc.start()
            ybe_residual("three_qubit", xs, ys, phis)
            used = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return used

        peak(50, 5)  # first call outside the measurement
        assert peak(1000, 20) <= 1.5 * peak(50, 5)

    def test_mismatched_lengths_rejected(self):
        xs, ys = sampled_pairs(3)
        with pytest.raises(ValueError):
            ybe_residual("two_qubit", xs, ys[:2], 0.0)

    def test_bad_member_rejected(self):
        xs, ys = sampled_pairs(3)
        with pytest.raises(TypeError):
            ybe_residual("two_qubit", xs, ys[:2] + [0.5], 0.0)
        singular = SpectralParam(np.exp(1j * np.pi / 4))
        with pytest.raises(SingularParameterError):
            ybe_residual("two_qubit", xs + [singular], ys + [singular], 0.0)

    def test_non_finite_phi_rejected(self):
        one = SpectralParam(1.0 + 0j)
        for family in ("rational", "unitary"):
            for phi in (np.nan, [0.1, np.inf], np.zeros((2, 2))):
                with pytest.raises(ValueError):
                    ybe_residual("two_qubit", one, one, phi, family=family)


class TestUnitarityResiduals:
    @pytest.mark.parametrize("system", yangbaxter.SYSTEMS)
    @pytest.mark.parametrize("count", [1, 64, 65, 130])
    def test_stack_matches_per_angle_loop(self, system, count):
        rng = np.random.default_rng(count)
        thetas = rng.uniform(0.0, 2 * np.pi, count)
        eye = np.eye(4 if system == "two_qubit" else 8, dtype=complex)
        for phi in rng.uniform(0.0, 2 * np.pi, 3):
            loop = []
            for theta in thetas:
                r = r_matrix(system, RParams(theta, phi))
                loop.append(linalg.frobenius_norms([r.conj().T @ r - eye])[0])
            stacked = yangbaxter.unitarity_residuals(yangbaxter._generator(system, phi), thetas)
            assert stacked.tolist() == loop
            assert max(stacked) == max(loop) <= 1e-12

    @pytest.mark.parametrize("system", yangbaxter.SYSTEMS)
    @pytest.mark.parametrize("count, angles", [(5, 13), (3, 30), (70, 1)])
    def test_generator_stack_bitwise_equal_to_solo(self, system, count, angles):
        # count x angles crosses a block boundary of 64 pairs
        rng = np.random.default_rng(count)
        phis = rng.uniform(0.0, 2 * np.pi, count)
        thetas = rng.uniform(0.0, 2 * np.pi, angles)
        stacked = yangbaxter.unitarity_residuals(yangbaxter._generator(system, phis), thetas)
        assert stacked.shape == (count, angles)
        for row, phi in zip(stacked, phis.tolist()):
            solo = yangbaxter.unitarity_residuals(yangbaxter._generator(system, phi), thetas)
            assert row.tolist() == solo.tolist()

    @pytest.mark.parametrize("system, builder", [
        ("two_qubit", "build_m4"), ("three_qubit", "build_braidset")])
    def test_generator_built_once(self, monkeypatch, capsys, system, builder):
        # verify-algebra builds each phi once, and its unitarity check runs on
        # each block of 64 phi as one stack of those builds
        built, checked = [], []
        original, unitarity = getattr(braid, builder), yangbaxter.unitarity_residuals

        def counting(phi):
            built.append(original(phi))
            return built[-1]

        def recording(gen, thetas):
            checked.append(gen)
            return unitarity(gen, thetas)

        monkeypatch.setattr(braid, builder, counting)
        monkeypatch.setattr(yangbaxter, "unitarity_residuals", recording)
        assert cli.main(["verify-algebra", "--phi-samples", "70", "--seed", "5"]) == 0
        capsys.readouterr()
        # two blocks, 64 and 6 angles; per block: two_qubit, three_qubit
        gens = [b if builder == "build_m4" else b.mcal for b in built]
        stacks = checked[yangbaxter.SYSTEMS.index(system)::2]
        assert len(gens) == 70 and len(checked) == 4 and [len(s) for s in stacks] == [64, 6]
        assert np.concatenate(stacks).tobytes() == np.array(gens).tobytes()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            yangbaxter.unitarity_residuals(braid.build_m4(0.0), [0.1, np.inf])
        with pytest.raises(ValueError):
            yangbaxter.unitarity_residuals(braid.build_m4(0.0), [np.nan])


class TestSpectralPairDraw:
    def test_batched_draw_consumes_the_stream_as_pair_by_pair(self):
        # the same pairs, and the same generator state after them, as the
        # pair-by-pair loop, over seeds whose draws include rejections
        rejected = 0
        for seed in range(1000):
            count = 1 + seed % 40
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            xs, ys = cli._sample_spectral_pairs(rng, count)
            ref_xs, ref_ys = sampled_pairs(count, ref)
            assert [p.x for p in xs] == [p.x for p in ref_xs]
            assert [p.x for p in ys] == [p.x for p in ref_ys]
            assert rng.uniform() == ref.uniform()
            unrejected = np.random.default_rng(seed)
            unrejected.uniform(size=2 * count + 1)
            rejected += unrejected.bit_generator.state != ref.bit_generator.state
        assert rejected
