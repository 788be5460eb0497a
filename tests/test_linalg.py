import ast
import inspect
import itertools
import pathlib
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidphase import dynamics, linalg
from braidphase.braid import build_braidset, build_m4
from oracles import abs_det, eigh_reference, partial_trace

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
        # H on the doublet range of each parity sector: one state at each of
        # -cos theta and +cos theta
        dec = linalg.eigh(wilson_blocks(np.pi / 3, phis=[0.2]))
        assert np.allclose(dec.eigenvalues, [[-0.5, 0.5]] * 2, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_drive_generator_spectrum_at_extreme_scale(self, scale):
        # at 1e-200 the squared norm underflows and at 1e200 it overflows:
        # neither may read as a zero matrix or skip the rotation
        dec = linalg.eigh(scale * wilson_blocks(np.pi / 3, phis=[0.2]))
        assert np.allclose(dec.eigenvalues / scale, [[-0.5, 0.5]] * 2, atol=1e-12)

    @pytest.mark.parametrize("k", [-700, 700])
    def test_power_of_two_scale_is_exact(self, k):
        # each matrix is solved at the power-of-two scale of its largest
        # entry, so the scale of the input moves no bit of the result
        for stack in (mixed_stack(np.random.default_rng(8), 40),
                      wilson_blocks(steps=16)):
            dec = linalg.eigh(stack)
            scaled = linalg.eigh(stack * 2.0 ** k)
            assert np.array_equal(scaled.eigenvalues, dec.eigenvalues * 2.0 ** k)
            assert np.array_equal(scaled.eigenvectors, dec.eigenvectors)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8])
    def test_reconstruction_over_seeds(self, count):
        # each slice of a stack of ``count`` matrices
        tol = 1e-10
        for seed in range(100):
            rng = np.random.default_rng(seed)
            z = random_complex(rng, (count, 2, 2))
            a = (z + z.conj().transpose(0, 2, 1)) / 2
            dec = linalg.eigh(a)
            for k, (values, vectors) in enumerate(zip(*dec)):
                rebuilt = (vectors * values) @ vectors.conj().T
                assert np.linalg.norm(a[k] - rebuilt) <= 10 * tol * np.linalg.norm(a[k])

    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_numpy_and_stays_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        z = random_complex(rng, (2, 2))
        a = (z + z.conj().T) / 2
        dec = linalg.eigh(a)
        assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(a), atol=1e-11)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(gram - np.eye(2)).max() < 1e-10
        for k in range(2):
            v = dec.eigenvectors[:, k]
            assert np.linalg.norm(a @ v - dec.eigenvalues[k] * v) <= 1e-10 * max(
                np.linalg.norm(a), 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_close_eigenvalues_stay_apart(self, seed):
        # eigenvalues 4.2e-12 apart are distinct: neither averaged into one
        # value nor given mixed eigenvectors. The bound is the solver's stop
        # target, 1e-12 of the norm, in both the values and the residuals.
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(random_complex(rng, (2, 2)))[0]
        a = (u * [0.444, 0.444 + 4.2e-12]) @ u.conj().T
        dec = linalg.eigh(a)
        bound = 1e-12 * np.linalg.norm(a)
        assert np.abs(dec.eigenvalues - np.linalg.eigvalsh(a)).max() <= bound
        for k in range(2):
            v = dec.eigenvectors[:, k]
            assert np.linalg.norm(a @ v - dec.eigenvalues[k] * v) <= bound

    def test_degenerate_subspace_is_orthonormal(self):
        # a doubly degenerate eigenvalue in a random basis
        rng = np.random.default_rng(9)
        for value in rng.normal(size=20):
            u = np.linalg.qr(random_complex(rng, (2, 2)))[0]
            dec = linalg.eigh((u * [value, value]) @ u.conj().T)
            assert np.abs(dec.eigenvalues - value).max() <= 1e-15 * (1 + abs(value))
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - np.eye(2)).max() < 1e-12

    def test_zero_matrix(self):
        dec = linalg.eigh(np.zeros((2, 2), dtype=complex))
        assert np.array_equal(dec.eigenvalues, np.zeros(2))
        assert np.array_equal(dec.eigenvectors, np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.eigh(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("shape", [(3, 3), (8, 8), (5, 4, 4), (2,), (1, 1, 2, 2)])
    def test_rejects_other_shapes(self, shape):
        # the kernel takes 2 x 2 matrices only; any other shape is one
        # ValueError naming it, checked before the entries are
        with pytest.raises(ValueError) as raised:
            linalg.eigh(np.full(shape, np.nan, dtype=complex))
        message = str(raised.value)
        assert str(shape) in message and "\n" not in message


def mixed_stack(rng, count):
    """Hermitian 2 x 2 matrices: dense random ones alternating with ones whose
    small-integer spectra repeat, so slices differ in structure, and some are
    degenerate."""
    out = np.empty((count, 2, 2), dtype=complex)
    for k in range(count):
        z = random_complex(rng, (2, 2))
        if k % 2:
            q = np.linalg.qr(z)[0]
            out[k] = (q * rng.integers(-2, 3, 2)) @ q.conj().T
        else:
            out[k] = (z + z.conj().T) / 2
    return out


def wilson_blocks(theta=1.0472, steps=800, phis=None):
    """The (2 len(phis), 2, 2) blocks of H on the doublet range of each parity
    sector, interleaved per grid point: the stack berry_wilson solves. The
    grid is ``steps`` equal drive angles unless ``phis`` names them."""
    if phis is None:
        phis = 2 * np.pi * np.arange(steps) / steps
    phis = np.asarray(phis, dtype=float)
    return dynamics._doublet_blocks(theta, phis, 1.0, 1.0).reshape(-1, 2, 2)


def assert_bitwise_equal(dec, other):
    assert np.array_equal(dec.eigenvalues, other.eigenvalues)
    assert np.array_equal(dec.eigenvectors, other.eigenvectors)


def assert_slices_bitwise_equal_to_solo(stack):
    dec = linalg.eigh(stack)
    for k in range(len(stack)):
        assert_bitwise_equal(linalg.EigenDecomposition(dec.eigenvalues[k],
                                                       dec.eigenvectors[k]),
                             linalg.eigh(stack[k]))


# The kernel's functions, read by the static checks of TestStackedEigh.
KERNEL = (linalg.eigh, linalg._plane_norms)

REDUCTIONS = {"sum", "prod", "max", "min", "amax", "amin", "all", "any", "mean",
              "argmax", "argmin", "cumsum", "count_nonzero"}

TRAILING_AXIS_CALLS = {"argsort", "sort", "take_along_axis", "diagonal", "trace",
                       "swapaxes", "moveaxis"}


class TestStackedEigh:
    @pytest.mark.parametrize("count", [1, 7, 64, 65, 255, 256, 257, 800, 1600])
    def test_slices_bitwise_equal_to_solo(self, count):
        stack = mixed_stack(np.random.default_rng(count), count)
        dec = linalg.eigh(stack)
        assert dec.eigenvalues.shape == (count, 2)
        assert dec.eigenvectors.shape == (count, 2, 2)
        assert_slices_bitwise_equal_to_solo(stack)

    def test_diagonal_and_rotated_slices_bitwise_equal_to_solo(self):
        # slices already diagonal within the stop target (every third, some
        # of them zero) between slices that take the rotation; 1024 matrices
        # make a block, and 1030 cross its edge
        rng = np.random.default_rng(3)
        stack = mixed_stack(rng, 1030)
        count = len(stack[::3])
        entries = rng.uniform(0.5, 2.0, (count, 2)) * rng.choice([-1.0, 1.0], (count, 2))
        stack[::3] = entries[:, :, None] * np.eye(2)
        stack[::3, 0, 1] = 1e-14 * random_complex(rng, count)
        stack[::3, 1, 0] = stack[::3, 0, 1].conj()
        stack[::33] = 0.0
        assert_slices_bitwise_equal_to_solo(stack)
        # a slice within the target is its own diagonal, with identity vectors
        diagonal = np.diagonal(stack[::3], axis1=1, axis2=2).real
        order = np.argsort(diagonal, axis=1, kind="stable")
        dec = linalg.eigh(stack[::3])
        assert np.array_equal(dec.eigenvalues, np.take_along_axis(diagonal, order, axis=1))
        assert np.array_equal(dec.eigenvectors, np.eye(2)[order].transpose(0, 2, 1))

    def test_degenerate_slices_bitwise_equal_to_solo(self):
        # doubly degenerate slices in random bases, and exact multiples of
        # the identity
        rng = np.random.default_rng(11)
        q = np.linalg.qr(random_complex(rng, (65, 2, 2)))[0]
        values = rng.integers(-2, 3, 65)[:, None, None] * np.ones((1, 1, 2))
        stack = (q * values) @ q.conj().transpose(0, 2, 1)
        stack[::5] = values[::5] * np.eye(2)
        assert_slices_bitwise_equal_to_solo(stack)

    def test_non_finite_entry_rejected(self):
        stack = mixed_stack(np.random.default_rng(3), 65)
        stack[64, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.eigh(stack)
        stack[64, 1, 0] = 0.0
        stack[3, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            linalg.eigh(stack)

    def test_non_hermitian_slice_named(self):
        stack = mixed_stack(np.random.default_rng(4), 70)
        stack[66, 0, 1] += 1.0
        with pytest.raises(ValueError, match="matrix 66 is not Hermitian"):
            linalg.eigh(stack)

    def test_zero_slice(self):
        stack = mixed_stack(np.random.default_rng(5), 9)
        stack[6] = 0.0
        dec = linalg.eigh(stack)
        assert np.array_equal(dec.eigenvalues[6], np.zeros(2))
        assert np.array_equal(dec.eigenvectors[6], np.eye(2))
        solo = linalg.eigh(stack[7])
        assert np.array_equal(dec.eigenvalues[7], solo.eigenvalues)

    def test_matrix_off_diagonal_after_its_rotation_raises(self, monkeypatch):
        # with a stop target of 0 the rounding the rotation leaves fails the
        # check after it
        stack = mixed_stack(np.random.default_rng(6), 5)
        monkeypatch.setattr(linalg, "_TARGET", 0.0)
        with pytest.raises(linalg.NumericalError, match="off diagonal"):
            linalg.eigh(stack)
        with pytest.raises(linalg.NumericalError, match="off diagonal"):
            linalg.eigh(stack[0])

    def test_wilson_grid_matches_numpy(self):
        # each doublet-range block holds one state at -cos theta and one at
        # +cos theta; their projectors are free of the eigenvectors' phases
        blocks = wilson_blocks()
        dec = linalg.eigh(blocks)
        # numpy.linalg is a test oracle only
        oracle_values, oracle_vectors = np.linalg.eigh(blocks)
        assert np.abs(dec.eigenvalues - oracle_values).max() <= 1e-13
        for k, sign in ((0, -1), (1, 1)):
            assert np.allclose(dec.eigenvalues[:, k], sign * np.cos(1.0472), atol=1e-13)
            ours, theirs = dec.eigenvectors[:, :, k], oracle_vectors[:, :, k]
            projector = ours[:, :, None] * ours[:, None, :].conj()
            oracle = theirs[:, :, None] * theirs[:, None, :].conj()
            assert np.abs(projector - oracle).max() <= 1e-12

    @pytest.mark.parametrize("per_block", ["three", "all"])
    def test_block_size_moves_no_bit(self, monkeypatch, per_block):
        # three matrices per block put block edges everywhere; one block
        # holds the whole stack
        for stack in (wilson_blocks(), mixed_stack(np.random.default_rng(3), 460)):
            dec = linalg.eigh(stack)
            count = 3 if per_block == "three" else len(stack)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_BLOCK_ENTRIES", count * 4)
                assert_bitwise_equal(linalg.eigh(stack), dec)

    def test_memory_layout_moves_no_bit(self):
        stack = mixed_stack(np.random.default_rng(12), 300)
        dec = linalg.eigh(stack)
        assert_bitwise_equal(linalg.eigh(np.asfortranarray(stack)), dec)
        assert_bitwise_equal(linalg.eigh(stack[::-1]), linalg.EigenDecomposition(
            dec.eigenvalues[::-1], dec.eigenvectors[::-1]))

    def test_kernel_has_no_lapack_call_and_no_matrix_product(self):
        # the bits come from elementwise IEEE operations only: package code
        # never reaches numpy.linalg, and the rotation multiplies no matrices
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
        for kernel in KERNEL:
            tree = ast.parse(textwrap.dedent(inspect.getsource(kernel)))
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
                assert not (isinstance(node, ast.Attribute)
                            and node.attr in ("matmul", "dot", "einsum", "tensordot", "vdot"))

    def test_kernel_reduces_over_the_leading_axis_only(self):
        # a matrix's entries are planes of the leading axis, so a reduction
        # over any later axis would run one short inner loop per matrix:
        # every reduction names axis=0 or takes none (a whole-array pass), and
        # nothing sorts, gathers or reads a diagonal along a trailing axis
        for kernel in KERNEL:
            tree = ast.parse(textwrap.dedent(inspect.getsource(kernel)))
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                name, owner = node.func.attr, node.func.value
                assert name not in TRAILING_AXIS_CALLS, (kernel.__name__, name)
                if name not in REDUCTIONS:
                    continue
                positional = 1 if isinstance(owner, ast.Name) and owner.id == "np" else 0
                assert len(node.args) <= positional, (kernel.__name__, name)
                for keyword in node.keywords:
                    if keyword.arg == "axis":
                        assert (isinstance(keyword.value, ast.Constant)
                                and keyword.value.value == 0), (kernel.__name__, name)


def assert_same_bits(dec, other):
    """Equal shapes and equal bytes: stricter than array_equal, which takes
    -0.0 for 0.0."""
    for ours, theirs in zip(dec, other):
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


class TestAgainstReference:
    """The entry-plane kernel against the frozen row-and-column kernel of
    oracles.eigh_reference, byte for byte."""

    @pytest.mark.parametrize("theta", [1.0472, 0.80, 1.35, 1.79, 2.34, 2.1, 0.3, 1.56])
    @pytest.mark.parametrize("steps", [100, 800, 10 ** 4])
    def test_wilson_blocks(self, theta, steps):
        blocks = wilson_blocks(theta, steps)
        assert_same_bits(linalg.eigh(blocks), eigh_reference(blocks))

    @pytest.mark.parametrize("count", [1, 2, 1023, 1024, 1025, 2049])
    def test_mixed_stacks_across_block_edges(self, count):
        stack = mixed_stack(np.random.default_rng(count), count)
        assert_same_bits(linalg.eigh(stack), eigh_reference(stack))
        assert_same_bits(linalg.eigh(stack[0]), eigh_reference(stack[0]))

    def test_diagonal_zero_and_degenerate_slices(self):
        # within-target off-diagonal pairs, exact zeros (signed too),
        # degenerate slices, exact multiples of the identity and real slices,
        # whose rotations have sines with zero parts
        rng = np.random.default_rng(21)
        stack = mixed_stack(rng, 1100)
        stack[::3] = rng.uniform(-2.0, 2.0, (len(stack[::3]), 2))[:, :, None] * np.eye(2)
        stack[::3, 0, 1] = 1e-14 * random_complex(rng, len(stack[::3]))
        stack[::3, 1, 0] = stack[::3, 0, 1].conj()
        stack[1::7] = stack[1::7].real
        stack[2::7] = 1j * np.array([[0, -1], [1, 0]]) * stack[2::7, 1, 0].imag[:, None, None]
        q = np.linalg.qr(random_complex(rng, (len(stack[4::9]), 2, 2)))[0]
        stack[4::9] = (q * rng.integers(-2, 3, (len(q), 1, 1))) @ q.conj().transpose(0, 2, 1)
        stack[5::11] = rng.integers(-2, 3, (len(stack[5::11]), 1, 1)) * np.eye(2)
        stack[::13] = 0.0
        stack[6::13] = -0.0
        stack[7::13] = complex(-0.0, -0.0)
        stack[8::13] = np.array([[0.0, complex(-0.0, -0.0)], [-0.0, 0.0]])
        assert_same_bits(linalg.eigh(stack), eigh_reference(stack))
        assert_same_bits(linalg.eigh(np.zeros((3, 2, 2), dtype=complex)),
                         eigh_reference(np.zeros((3, 2, 2), dtype=complex)))

    def test_every_sign_of_zero(self):
        # a + a^dag is halved on its float view, which keeps a -0 part that a
        # complex / 2 would make +0: over every pattern of signed zeros among
        # small entries, the bytes stay those of the frozen / 2 kernel
        diagonal, parts = [0.0, -0.0, 1.0, -1.0, 2.0], [0.0, -0.0, 1.0, -1.0, 0.5, -2.0]
        mats = []
        for d0, d1, i0, i1, re, im, re_sign, im_sign in itertools.product(
                diagonal, diagonal, [0.0, -0.0], [0.0, -0.0], parts, parts, [1, -1], [1, -1]):
            # the lower entry conjugates the upper one, up to the signs of its zeros
            low = complex(re or re_sign * 0.0, -im or im_sign * 0.0)
            mats.append([[complex(d0, i0), complex(re, im)], [low, complex(d1, i1)]])
        stack = np.array(mats)
        assert_same_bits(linalg.eigh(stack), eigh_reference(stack))

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_scaled_by_a_power_of_two(self, k):
        for stack in (mixed_stack(np.random.default_rng(13), 300), wilson_blocks(steps=100)):
            scaled = np.ldexp(1.0, k) * stack
            assert_same_bits(linalg.eigh(scaled), eigh_reference(scaled))

    def test_fortran_and_reversed_layouts(self):
        stack = mixed_stack(np.random.default_rng(14), 1500)
        for layout in (np.asfortranarray(stack), stack[::-1], stack.transpose(0, 2, 1).conj()):
            assert_same_bits(linalg.eigh(layout), eigh_reference(layout))

    @pytest.mark.parametrize("entries", [2, 4])
    def test_plane_norms_are_frobenius_norms(self, entries):
        # the kernel's norm sums the leading axis of (n, B) planes; for n <= 4
        # numpy sums a row of a (B, n) stack in that same order, at every
        # scale from subnormal to 2**300
        rng = np.random.default_rng(entries)
        exponents = rng.integers(-300, 301, (4000, entries)).astype(float)
        stack = random_complex(rng, (4000, entries)) * 2.0 ** exponents
        stack[::5] *= 2.0 ** -780  # entries down among the subnormals
        stack[1::5, 0] = 5e-324
        stack[2::5] = 0.0
        assert np.any((np.abs(stack.real) < 2.2e-308) & (stack.real != 0))
        assert np.array_equal(linalg._plane_norms(stack.T.copy()), linalg.frobenius_norms(stack))


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
            # numpy.linalg is a test oracle only
            assert np.linalg.eigvalsh(reduced).min() >= -1e-10

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
