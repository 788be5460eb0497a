import ast
import inspect
import pathlib
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidphase import linalg
from braidphase.braid import build_braidset, build_m4
from oracles import abs_det, partial_trace

SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def naive_matmul(a, b):
    n, m = a.shape[0], b.shape[1]
    out = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            acc = 0j
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    """A triple-loop product (no BLAS) as an oracle: checked against @, then
    used to square the braid generator."""

    @pytest.mark.parametrize("phi", [0.0, np.pi / 4, 1.3])
    def test_braid_generator_squares_to_minus_identity(self, phi):
        m = build_m4(phi)
        expected = naive_matmul(m, m)
        assert np.allclose(expected, -np.eye(4), atol=1e-15)
        assert np.allclose(m @ m, expected, atol=1e-15)

    def test_against_naive_product(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, (3, 5))
        b = random_complex(rng, (5, 2))
        assert np.allclose(a @ b, naive_matmul(a, b), atol=1e-13)


class TestKron:
    def test_left_factor_most_significant(self):
        # |00x><11x| lifts the generator's (0,3) entry to (2a+x, 2b+x): the
        # braid lifts put the left factor of M otimes I on the most significant
        # qubits, as np.kron does
        phi = 0.83
        bs = build_braidset(phi)
        for lifted in (bs.a8, np.kron(bs.m4, np.eye(2))):
            assert lifted[0, 6] == pytest.approx(np.exp(-1j * phi))
            assert lifted[1, 7] == pytest.approx(np.exp(-1j * phi))
            assert lifted[0, 3] == 0
        for lifted in (bs.b8, np.kron(np.eye(2), bs.m4)):
            assert lifted[0, 3] == pytest.approx(np.exp(-1j * phi))
            assert lifted[4, 7] == pytest.approx(np.exp(-1j * phi))
            assert lifted[0, 6] == 0


class TestEigh:
    def test_identity_spectrum(self):
        dec = linalg.eigh(np.eye(2, dtype=complex))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0], atol=0)

    def test_pauli_spectrum(self):
        dec = linalg.eigh(SIGMA_Y)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_drive_generator_spectrum(self):
        from braidphase.dynamics import DriveParams, hamiltonian

        h = hamiltonian(DriveParams(theta=np.pi / 3, phi=0.2))
        dec = linalg.eigh(h)
        expected = [-0.5, -0.5, 0, 0, 0, 0, 0.5, 0.5]
        assert np.allclose(dec.eigenvalues, expected, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_drive_generator_spectrum_at_extreme_scale(self, scale):
        # at 1e-200 the squared norm underflows and at 1e200 it overflows:
        # neither may read as a zero matrix or stop the iteration early
        from braidphase.dynamics import DriveParams, hamiltonian

        h = hamiltonian(DriveParams(theta=np.pi / 3, phi=0.2))
        dec = linalg.eigh(scale * h)
        expected = [-0.5, -0.5, 0, 0, 0, 0, 0.5, 0.5]
        assert np.allclose(dec.eigenvalues / scale, expected, atol=1e-12)

    @pytest.mark.parametrize("k", [-700, 700])
    def test_power_of_two_scale_is_exact(self, k):
        # each matrix is solved at the power-of-two scale of its largest
        # entry, so the scale of the input moves no bit of the result
        for stack in (mixed_stack(np.random.default_rng(8), 40, 8),
                      wilson_grid(steps=16)):
            dec = linalg.eigh(stack)
            scaled = linalg.eigh(stack * 2.0 ** k)
            assert np.array_equal(scaled.eigenvalues, dec.eigenvalues * 2.0 ** k)
            assert np.array_equal(scaled.eigenvectors, dec.eigenvectors)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8])
    def test_reconstruction_over_seeds(self, dim):
        tol = 1e-10
        for seed in range(100):
            rng = np.random.default_rng(seed)
            z = random_complex(rng, (dim, dim))
            a = (z + z.conj().T) / 2
            dec = linalg.eigh(a)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.linalg.norm(a - rebuilt) <= 10 * tol * np.linalg.norm(a)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_numpy_and_stays_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([2, 4, 8]))
        z = random_complex(rng, (dim, dim))
        a = (z + z.conj().T) / 2
        dec = linalg.eigh(a)
        assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(a), atol=1e-11)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(gram - np.eye(dim)).max() < 1e-10
        for k in range(dim):
            v = dec.eigenvectors[:, k]
            assert np.linalg.norm(a @ v - dec.eigenvalues[k] * v) <= 1e-10 * max(
                np.linalg.norm(a), 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_close_eigenvalues_stay_apart(self, seed):
        # eigenvalues 4.2e-12 apart are distinct: neither averaged into one
        # value nor given mixed eigenvectors. The bound is the solver's stop
        # target, 1e-12 of the norm, in both the values and the residuals.
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(random_complex(rng, (4, 4)))[0]
        a = (u * [0.0, 0.0, 4.2e-12, 0.444]) @ u.conj().T
        dec = linalg.eigh(a)
        bound = 1e-12 * np.linalg.norm(a)
        assert np.abs(dec.eigenvalues - np.linalg.eigvalsh(a)).max() <= bound
        for k in range(4):
            v = dec.eigenvectors[:, k]
            assert np.linalg.norm(a @ v - dec.eigenvalues[k] * v) <= bound

    def test_degenerate_subspace_is_orthonormal(self):
        # fourfold zero eigenvalue plus two exact doublets
        from braidphase.dynamics import DriveParams, hamiltonian

        h = hamiltonian(DriveParams(theta=0.9, phi=1.7))
        dec = linalg.eigh(h)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(gram - np.eye(8)).max() < 1e-12

    def test_zero_matrix(self):
        dec = linalg.eigh(np.zeros((3, 3), dtype=complex))
        assert np.array_equal(dec.eigenvalues, np.zeros(3))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.eigh(np.zeros((2, 3), dtype=complex))


def mixed_stack(rng, count, dim):
    """Hermitian matrices: dense random ones alternating with ones whose
    small-integer spectra repeat, so slices differ in cluster structure and
    in the number of sweeps they need."""
    out = np.empty((count, dim, dim), dtype=complex)
    for k in range(count):
        z = random_complex(rng, (dim, dim))
        if k % 2:
            q = np.linalg.qr(z)[0]
            out[k] = (q * rng.integers(-2, 3, dim)) @ q.conj().T
        else:
            out[k] = (z + z.conj().T) / 2
    return out


def wilson_grid(theta=1.0472, steps=800):
    from braidphase.dynamics import DriveParams, hamiltonian

    return np.stack([hamiltonian(DriveParams(theta, 2 * np.pi * k / steps))
                     for k in range(steps)])


def parity_blocks(grid):
    """The (2B, 4, 4) even and odd parity blocks of a (B, 8, 8) grid of H,
    interleaved per grid point: a stack of degenerate 4 x 4 matrices."""
    even, odd = np.array([0, 3, 5, 6]), np.array([1, 2, 4, 7])
    return np.stack([grid[:, even[:, None], even], grid[:, odd[:, None], odd]],
                    axis=1).reshape(-1, 4, 4)


def assert_bitwise_equal(dec, other):
    assert np.array_equal(dec.eigenvalues, other.eigenvalues)
    assert np.array_equal(dec.eigenvectors, other.eigenvectors)


class TestStackedEigh:
    @pytest.mark.parametrize("count", [1, 7, 64, 65, 255, 256, 257, 800, 1600])
    def test_slices_bitwise_equal_to_solo(self, count):
        stack = mixed_stack(np.random.default_rng(count), count, 4)
        dec = linalg.eigh(stack)
        assert dec.eigenvalues.shape == (count, 4)
        assert dec.eigenvectors.shape == (count, 4, 4)
        for k in range(count):
            solo = linalg.eigh(stack[k])
            assert np.array_equal(dec.eigenvalues[k], solo.eigenvalues)
            assert np.array_equal(dec.eigenvectors[k], solo.eigenvectors)

    def test_odd_dimension_slices_bitwise_equal_to_solo(self):
        # 455 3 x 3 matrices make a block; 460 cross its edge
        stack = mixed_stack(np.random.default_rng(3), 460, 3)
        dec = linalg.eigh(stack)
        for k in range(len(stack)):
            solo = linalg.eigh(stack[k])
            assert np.array_equal(dec.eigenvalues[k], solo.eigenvalues)
            assert np.array_equal(dec.eigenvectors[k], solo.eigenvectors)

    def test_degenerate_slices_bitwise_equal_to_solo(self):
        stack = wilson_grid(steps=130)[::2]
        dec = linalg.eigh(stack)
        for k in range(len(stack)):
            solo = linalg.eigh(stack[k])
            assert np.array_equal(dec.eigenvalues[k], solo.eigenvalues)
            assert np.array_equal(dec.eigenvectors[k], solo.eigenvectors)

    def test_non_finite_entry_rejected(self):
        stack = mixed_stack(np.random.default_rng(3), 65, 4)
        stack[64, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.eigh(stack)
        stack[64, 1, 2] = 0.0
        stack[3, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            linalg.eigh(stack)

    def test_non_hermitian_slice_named(self):
        stack = mixed_stack(np.random.default_rng(4), 70, 4)
        stack[66, 0, 1] += 1.0
        with pytest.raises(ValueError, match="matrix 66 is not Hermitian"):
            linalg.eigh(stack)

    def test_zero_slice(self):
        stack = mixed_stack(np.random.default_rng(5), 9, 4)
        stack[6] = 0.0
        dec = linalg.eigh(stack)
        assert np.array_equal(dec.eigenvalues[6], np.zeros(4))
        assert np.array_equal(dec.eigenvectors[6], np.eye(4))
        solo = linalg.eigh(stack[7])
        assert np.array_equal(dec.eigenvalues[7], solo.eigenvalues)

    def test_sweep_budget_exhausted(self, monkeypatch):
        stack = mixed_stack(np.random.default_rng(6), 5, 8)
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(linalg.NumericalError):
            linalg.eigh(stack)
        with pytest.raises(linalg.NumericalError):
            linalg.eigh(stack[0])

    def test_wilson_grid_matches_numpy(self):
        grid = wilson_grid()
        dec = linalg.eigh(grid)
        # numpy.linalg is a test oracle only
        assert np.abs(dec.eigenvalues - np.linalg.eigvalsh(grid)).max() <= 1e-13
        # each parity block holds one state at -cos theta and one at +cos
        # theta; their projectors are free of the eigenvectors' phases
        blocks = parity_blocks(grid)
        dec = linalg.eigh(blocks)
        oracle_values, oracle_vectors = np.linalg.eigh(blocks)
        assert np.abs(dec.eigenvalues - oracle_values).max() <= 1e-13
        for k, sign in ((0, -1), (3, 1)):
            assert np.allclose(dec.eigenvalues[:, k], sign * np.cos(1.0472), atol=1e-13)
            ours, theirs = dec.eigenvectors[:, :, k], oracle_vectors[:, :, k]
            projector = ours[:, :, None] * ours[:, None, :].conj()
            oracle = theirs[:, :, None] * theirs[:, None, :].conj()
            assert np.abs(projector - oracle).max() <= 1e-12

    @pytest.mark.parametrize("per_block", ["three", "all"])
    def test_block_size_moves_no_bit(self, monkeypatch, per_block):
        # three matrices per block put block edges everywhere; one block
        # holds the whole stack
        for stack in (parity_blocks(wilson_grid()),
                      mixed_stack(np.random.default_rng(3), 460, 3)):
            dec = linalg.eigh(stack)
            count = 3 if per_block == "three" else len(stack)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_BLOCK_ENTRIES", count * stack.shape[-1] ** 2)
                assert_bitwise_equal(linalg.eigh(stack), dec)

    def test_memory_layout_moves_no_bit(self):
        stack = mixed_stack(np.random.default_rng(12), 300, 4)
        dec = linalg.eigh(stack)
        assert_bitwise_equal(linalg.eigh(np.asfortranarray(stack)), dec)
        assert_bitwise_equal(linalg.eigh(stack[::-1]), linalg.EigenDecomposition(
            dec.eigenvalues[::-1], dec.eigenvectors[::-1]))

    def test_kernel_has_no_lapack_call_and_no_matrix_product(self):
        # the bits come from elementwise IEEE operations only: package code
        # never reaches numpy.linalg, and a Jacobi round multiplies no matrices
        package = pathlib.Path(linalg.__file__).parent
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    names = [f"{node.value.id}.{node.attr}"]
                else:
                    continue
                for name in names:
                    assert name.split(".")[:2] not in (["np", "linalg"],
                                                       ["numpy", "linalg"]), path
        kernel = ast.parse(textwrap.dedent(inspect.getsource(linalg._jacobi)))
        for node in ast.walk(kernel):
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("matmul", "dot", "einsum", "tensordot", "vdot"))


class TestPartialTrace:
    """The partial-trace oracle that the entanglement reductions are checked
    against, on states reduced by hand."""

    def test_product_state(self):
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        rho = np.outer(v, v.conj())
        reduced = partial_trace(rho, (0, 1), 3)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(reduced, expected, atol=0)

    def test_ghz_reduction(self):
        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        reduced = partial_trace(rho, (0, 1), 3)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5  # (|00><00| + |11><11|)/2 by hand
        assert np.allclose(reduced, expected, atol=1e-15)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_trace_preserving_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        v = random_complex(rng, 8)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        for keep in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]:
            reduced = partial_trace(rho, keep, 3)
            assert abs(np.trace(reduced).real - 1.0) < 1e-12
            dec = linalg.eigh(reduced)
            assert dec.eigenvalues.min() >= -1e-10

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6) / 6, (0,), 3)

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(8) / 8, (3,), 3)

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(8, dtype=complex), (0,), 3)


class TestFrobenius:
    """frobenius_norms, the package's one norm: one norm per slice of a stack."""

    def test_zero_distance(self):
        assert linalg.frobenius_norms([np.eye(3) - np.eye(3)]).tolist() == [0.0]

    def test_pauli_distance(self):
        # four entries of modulus 2 -> sqrt(4 * 4) = 2 sqrt(2)
        assert linalg.frobenius_norms([SIGMA_Y - (-SIGMA_Y)])[0] == pytest.approx(
            2 * np.sqrt(2), abs=1e-15)

    def test_hermitian_braid_square(self):
        from braidphase.braid import build_braidset

        bs = build_braidset(1.9)
        assert linalg.frobenius_norms([bs.mbb @ bs.mbb - np.eye(8)])[0] < 1e-14

    @pytest.mark.parametrize("k", [-600, 600])
    def test_power_of_two_scale_is_exact(self, k):
        # no square overflows or underflows: the norm scales bitwise with the stack
        stack = random_complex(np.random.default_rng(8), (5, 4, 4))
        stack[1, 2, 3] = 0.0
        scaled = linalg.frobenius_norms(np.ldexp(1.0, k) * stack)
        assert np.array_equal(scaled, np.ldexp(linalg.frobenius_norms(stack), k))


class TestAbsDet:
    """The elimination oracle the determinant tests rely on, against numpy."""

    def test_hand_values(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert abs_det(a) == pytest.approx(2.0, abs=1e-14)
        assert abs_det(np.zeros((2, 2), dtype=complex)) == 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, (4, 4))
        assert abs_det(a) == pytest.approx(abs(np.linalg.det(a)), rel=1e-10)
