"""Reference routines that only the tests use, as independent oracles."""

import numpy as np

from braidphase import braid, dynamics, entanglement, linalg, states, yangbaxter
from braidphase.dynamics import DriveParams
from braidphase.yangbaxter import RParams, SpectralParam

# Admission tolerance of the density-matrix check, and the depth below zero at
# which an eigenvalue of rho is a negative one rather than rounding noise.
TOL = 1e-10

# Relative floor under which an eigenvalue of rho is treated as an exact zero;
# keeping the noise there would give rho a spurious rank.
RANK_CLAMP = 1e-13


def abs_det(a) -> float:
    """|det a| via Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    mod = 1.0
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) == 0.0:
            return 0.0
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
        mod *= abs(a[k, k])
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k + 1:])
    return float(mod)


def partial_trace(rho, keep, n_qubits: int, tol: float = 1e-10) -> np.ndarray:
    """Reduced density matrix on the kept qubits, of one matrix or a stack.

    Qubit 0 is the most significant index of the 2**n_qubits basis ordering.
    ``keep`` is an iterable of distinct qubit indices; the output subsystem
    order follows the sorted kept indices. The input must be a density matrix
    (Hermitian, unit trace) within ``tol``, or a (B, dim, dim) stack of them,
    which gives the stack of reductions, each slice bitwise equal to the
    reduction of its matrix alone.
    """
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n_qubits for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n_qubits} qubits")
    stack, stacked = as_density_stack(rho, 2 ** n_qubits, tol)

    tensor = stack.reshape([len(stack)] + [2] * (2 * n_qubits))
    traced = [k for k in range(n_qubits) if k not in keep]
    for axis in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=1 + axis, axis2=1 + axis + (tensor.ndim - 1) // 2)
    d = 2 ** len(keep)
    return tensor.reshape((-1, d, d) if stacked else (d, d))


def as_density_stack(rho, dim: int, tol: float):
    """(stack, stacked): a dim x dim density matrix, or a stack, as (B, dim, dim).

    Each matrix must be finite, Hermitian and of unit trace within ``tol``;
    the whole stack is checked at once, and a bad matrix is named by its index.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (dim, dim) or rho.ndim not in (2, 3):
        raise ValueError(f"density matrix has shape {rho.shape}, expected "
                         f"{(dim, dim)} or a stack of them")
    stack, stacked = rho.reshape(-1, dim, dim), rho.ndim == 3
    linalg.reject_slices(~np.isfinite(stack).all(axis=(1, 2)), stacked,
                         "density matrix", "contains non-finite entries")
    scale = linalg.frobenius_norms(stack)
    skew = linalg.frobenius_norms(stack - stack.conj().transpose(0, 2, 1))
    linalg.reject_slices(skew > tol * np.maximum(scale, 1.0), stacked, "density matrix",
                         "is not Hermitian within tolerance")
    trace = np.trace(stack, axis1=1, axis2=2)
    linalg.reject_slices((np.abs(trace.real - 1.0) > tol) | (np.abs(trace.imag) > tol),
                         stacked, "density matrix",
                         "does not have unit trace within tolerance")
    return stack, stacked


def concurrence(rho2):
    """Wootters concurrence of a two-qubit density matrix of rank at most 2,
    or of a (B, 4, 4) stack, through the package's kernel, which reads two
    invariants of each pair's 2 x 2 K: after the density-matrix check, each
    matrix is factored as rho = W W^dag over its two largest eigenpairs
    (numpy.linalg is a test oracle only), with the eigenvalues under
    RANK_CLAMP of the largest set to exact zeros. A matrix of higher rank is
    rejected: the kernel takes pure-state pair factors."""
    stack, stacked = as_density_stack(rho2, 4, TOL)
    eig, vectors = np.linalg.eigh(stack)  # ascending
    low = eig[:, 0] < -TOL
    if low.any():
        raise ValueError(f"matrix has eigenvalue {eig[low][0, 0]} below -{TOL}")
    floor = RANK_CLAMP * np.maximum(eig[:, -1:], 0.0)
    roots = np.sqrt(np.where(eig < floor, 0.0, eig))
    linalg.reject_slices(roots[:, 1] > 0.0, stacked, "density matrix", "has rank above 2")
    c = entanglement._concurrence(vectors[:, :, 2:] * roots[:, None, 2:])
    return c if stacked else float(c[0])


def concurrence_svd(w) -> np.ndarray:
    """Wootters concurrence l_1 - l_2 of each two-qubit state w w^dag of a
    (B, 4, 2) stack of factors, with l_1 >= l_2 the singular values of each
    K = w^dag (sigma_y x sigma_y) w* from numpy.linalg.svd: a route
    independent of the package's kernel, which reads two invariants of K."""
    sigma_y = np.array([[0, -1j], [1j, 0]])
    k = np.conj(np.swapaxes(w, 1, 2)) @ np.kron(sigma_y, sigma_y) @ np.conj(w)
    values = np.linalg.svd(k, compute_uv=False)  # descending
    return values[:, 0] - values[:, 1]


def three_tangle(state):
    """Residual tangle 4|d1 - 2 d2 + 4 d3| of a pure three-qubit state, or of
    a (B, 8) stack, through the package's kernel after the state check."""
    v = states.as_state(state)
    tau = entanglement._three_tangle(v.reshape(-1, 8))
    return tau if v.ndim == 2 else float(tau[0])


def one_vs_rest_sq(state, which: str):
    """Squared concurrence 2 (1 - tr rho_which^2) between one qubit of a pure
    three-qubit state (or of a (B, 8) stack) and the remaining pair."""
    if which not in entanglement.QUBITS:
        raise ValueError(f"which must be one of {tuple(entanglement.QUBITS)}, "
                         f"got {which!r}")
    v = states.as_state(state)
    c2 = entanglement._one_vs_rest_sq(v.reshape(-1, 8), entanglement.QUBITS[which])
    return c2 if v.ndim == 2 else float(c2[0])


def m4_transcribed(phi: float) -> np.ndarray:
    """A direct entrywise transcription variant of the 4x4 generator.

    Its (2,1) and (3,3) entries contradict the operator construction, which
    forces -1 and 0 there, so it is never used to build anything: it lies
    exactly sqrt(5) from braid.build_m4 (test_braid.TestTranscriptions).
    """
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)
    return np.array([
        [0, 0, 0, em],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-ep, 0, 0, 1],
    ], dtype=complex)


def kron_route_residual(system, x, y, phi, family) -> float:
    """Yang-Baxter residual of one pair from whole braid matrices lifted by
    np.kron and multiplied out: R12(x) R23(xy) R12(y) - R23(y) R12(xy) R23(x)."""
    if family == "rational":
        build = lambda xv: rational_r(system, xv, phi)
    else:
        build = lambda xv: r_from_spectral(system, SpectralParam(xv), phi)
    eye2 = np.eye(2, dtype=complex)
    r_x, r_xy, r_y = build(x.x), build(x.x * y.x), build(y.x)
    lift12 = lambda r: np.kron(r, eye2)
    lift23 = lambda r: np.kron(eye2, r)
    lhs = lift12(r_x) @ lift23(r_xy) @ lift12(r_y)
    rhs = lift23(r_y) @ lift12(r_xy) @ lift23(r_x)
    return float(linalg.frobenius_norms([lhs - rhs])[0])


def parity_words(gen: np.ndarray, phi: float) -> np.ndarray:
    """A - B, AA - BB and ABA - BAB of A = gen otimes I_2, B = I_2 otimes gen
    for one generator, each on its even and odd parity blocks, flattened to
    (3, 2 h^2): an entry off the blocks that is not exactly 0 raises
    NumericalError naming phi. The one-phi route of yangbaxter._parity_words."""
    a, b = (np.multiply.outer(p, q).transpose(0, 2, 1, 3).reshape(2 * len(gen), -1)
            for p, q in ((gen, braid.IDENTITY_2), (braid.IDENTITY_2, gen)))  # np.kron(p, q)
    words = np.stack([a - b, a @ a - b @ b, a @ b @ a - b @ a @ b])
    blocks, mixing = braid._PARITY_BLOCKS[len(a)]
    if np.any(words[:, mixing] != 0):
        raise linalg.NumericalError(
            f"Yang-Baxter words at phi = {float(phi)!r} join even and odd basis indices; "
            f"cannot split them into parity blocks")
    return words[:, blocks[:, :, None], blocks[:, None, :]].reshape(3, -1)


def ybe_grid_per_phi(system: str, xs, ys, phis) -> np.ndarray:
    """ybe_residual's (len(phis), len(xs)) rational grid on ``system``, with
    the generator and its words built one phi at a time by parity_words and
    each pair's (1, 3) @ (3, E) product taken alone."""
    coeffs = yangbaxter._pair_coefficients(xs, ys)
    grid = np.empty((len(phis), len(xs)))
    for row, phi in zip(grid, phis):
        words = parity_words(yangbaxter._generator(system, phi), phi)
        row[:] = [linalg.frobenius_norms(c[None] @ words)[0] for c in coeffs]
    return grid


def theta_from_spectral(x: SpectralParam) -> float:
    """Branch theta = pi/2 - arg(x), arg in (-pi, pi]; x = 1 maps to the identity."""
    if not isinstance(x, SpectralParam):
        raise TypeError("x must be a SpectralParam")
    return float(np.pi / 2 - np.angle(x.x))


def r_from_spectral(system: str, x: SpectralParam, phi: float) -> np.ndarray:
    """Unitary braid matrix at theta = pi/2 - arg(x), built by r_matrix."""
    return yangbaxter.r_matrix(system, RParams(theta_from_spectral(x), phi))


def rational_r(system: str, x: complex, phi: float) -> np.ndarray:
    """Baxterized rational matrix ((x+1/x)/2) I + ((x-1/x)/2) * generator(phi),
    for any nonzero complex x. The generator is looked up in the package at
    call time, so a generator patched there reaches this route too."""
    x = complex(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    gen = yangbaxter._generator(system, phi)
    eye = np.eye(gen.shape[0], dtype=complex)
    return ((x + 1 / x) / 2) * eye + ((x - 1 / x) / 2) * gen


def basis_image_formula(label: str, theta: float, phi: float) -> np.ndarray:
    """Hand-coded linear-combination template for the image of |klm>.

    Independent of the matrix path, to cross-check apply_r entrywise.
    Coefficients are sin(theta), +-cos(theta)/sqrt(3) and the same scaled by
    e^{+-i phi}.
    """
    s = np.sin(theta)
    c = np.cos(theta) / np.sqrt(3)
    em = np.exp(-1j * phi)
    ep = np.exp(1j * phi)
    table = {
        "000": {"000": s, "011": -c * ep, "101": -c * ep, "110": -c * ep},
        "001": {"001": s, "010": -c, "100": -c, "111": -c * ep},
        "010": {"010": s, "001": c, "100": -c, "111": c * ep},
        "011": {"011": s, "000": c * em, "101": -c, "110": c},
        "100": {"100": s, "001": c, "010": c, "111": -c * ep},
        "101": {"101": s, "000": c * em, "011": c, "110": -c},
        "110": {"110": s, "000": c * em, "011": -c, "101": c},
        "111": {"111": s, "001": c * em, "010": -c * em, "100": c * em},
    }
    if label not in table:
        raise ValueError(f"bad basis label {label!r}")
    v = np.zeros(8, dtype=complex)
    for target, coeff in table[label].items():
        v[int(target, 2)] = coeff
    return v


def hamiltonian_from_r(d: DriveParams, dt: float = 1e-5) -> np.ndarray:
    """Finite-difference generator i hbar (dR/dt) R^dag, accurate to O(dt^2).

    Independent of dynamics.hamiltonian(): only the braid matrix enters.
    """
    if not isinstance(d, DriveParams):
        raise TypeError("d must be a DriveParams")
    if not (0 < dt <= 1e-3):
        raise ValueError(f"dt must lie in (0, 1e-3], got {dt}")

    def r(phi):
        return yangbaxter.r_matrix(yangbaxter.THREE_QUBIT, RParams(d.theta, phi))

    dr = (r(d.phi + d.phi_dot * dt) - r(d.phi - d.phi_dot * dt)) / (2 * dt)
    return 1j * d.hbar * dr @ r(d.phi).conj().T


def hamiltonian_grid(theta: float, phis, phi_dot: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """The drive generator f1 (e^{-i phi} I+ + e^{i phi} I-) + f2 I3 as whole
    8x8 matrices, one per drive angle of ``phis``: shape (len(phis), 8, 8).

    Evaluated on every entry at once, not on the operators' support, and
    looks the operators up at call time.
    """
    em = np.exp(-1j * np.asarray(phis, dtype=float))[:, None, None]
    f1 = hbar * phi_dot * np.sin(theta) * np.cos(theta) / np.sqrt(3.0)
    f2 = 2 * hbar * phi_dot * np.cos(theta) ** 2 / 3
    return f1 * (em * dynamics.I_PLUS + np.conj(em) * dynamics.I_MINUS) + f2 * dynamics.I_3


def compress(hams: np.ndarray) -> np.ndarray:
    """The (B, 2, 2, 2) blocks (grid point, sector, row, column) of a (B, 8, 8)
    H stack on the doublet range, after checking with != at every grid point
    that no entry mixes the parities and that every copy rule holds; else
    NumericalError names the grid point."""
    mixed = np.any(hams[:, braid._PARITY_BLOCKS[8][1]] != 0, axis=1)
    if mixed.any():
        raise linalg.NumericalError(f"H mixes even and odd parity at grid point "
                                    f"{np.argmax(mixed)}")
    off_range = np.zeros(len(hams), dtype=bool)
    for copy, source, sign in dynamics._SAME:
        for m in (hams, np.swapaxes(hams, 1, 2)):
            off_range |= np.any(m[:, :, copy] != sign * m[:, :, source], axis=1)
    if off_range.any():
        raise linalg.NumericalError(f"H leaves the doublet range at grid point "
                                    f"{np.argmax(off_range)}")
    sources = dynamics._SOURCES
    return hams[:, sources[:, :, None], sources[:, None, :]] * dynamics._WEIGHTS


def dense_line_integral(i: int, theta: float, steps: int) -> float:
    """The analytic Berry line integral over all eight basis columns: each
    grid point's fixture against a rolled copy of the grid, phi = 2*pi
    identified with 0.

    Looks up dynamics.fixture_batch at call time, so a patched batch reaches
    this route and berry_analytic alike.
    """
    phis = np.linspace(0.0, 2 * np.pi, steps + 1)
    batch = dynamics.fixture_batch(i, theta, np.exp(-1j * phis[:-1]))
    rolled = np.vstack([batch[1:], batch[:1]])
    overlaps = np.einsum("ij,ij->i", batch.conj(), rolled)
    return float(-np.sum(np.angle(overlaps)))


def eigh_reference(a) -> linalg.EigenDecomposition:
    """The Jacobi kernel as it was before its entries became planes, frozen
    as a bitwise oracle: rows and columns of (B, 2, 2) stacks, per-row norms
    through linalg.frobenius_norms, fancy-index row and column updates and a
    stable argsort. Still no numpy.linalg call and no matrix product. The
    stop and Hermitian tolerances are read from linalg at call time."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2:] != (2, 2):
        raise ValueError(f"eigh takes a 2 x 2 matrix or a (B, 2, 2) stack, "
                         f"got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    raw = a.reshape(-1, 2, 2)
    peak = np.maximum(np.abs(raw.real), np.abs(raw.imag)).max(axis=(1, 2), initial=0.0)
    exponent = np.frexp(peak)[1]
    stack = np.empty_like(raw)
    stack.real = np.ldexp(raw.real, -exponent[:, None, None])
    stack.imag = np.ldexp(raw.imag, -exponent[:, None, None])
    scale = linalg.frobenius_norms(stack)
    skew = linalg.frobenius_norms(stack - stack.conj().transpose(0, 2, 1))
    linalg.reject_slices(skew > linalg._HERMITIAN_TOL * scale, a.ndim == 3, "matrix",
                         "is not Hermitian within tolerance")

    values = np.zeros((len(stack), 2))
    vectors = np.broadcast_to(np.eye(2, dtype=complex), stack.shape).copy()
    block = 1024
    for lo in range(0, len(stack), block):
        live = lo + np.flatnonzero(peak[lo:lo + block] > 0.0)
        if live.size:
            sub = stack[live]
            tv = _rotate_reference((sub + sub.conj().transpose(0, 2, 1)) / 2,
                                   linalg._TARGET * scale[live])
            lam = np.diagonal(tv[:, :2], axis1=1, axis2=2).real
            order = np.argsort(lam, axis=1, kind="stable")
            values[live] = np.ldexp(np.take_along_axis(lam, order, axis=1),
                                    exponent[live, None])
            vectors[live] = np.take_along_axis(tv[:, 2:], order[:, None, :], axis=2)
    return linalg.EigenDecomposition(values.reshape(a.shape[:-1]), vectors.reshape(a.shape))


def _rotate_reference(t: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """One Jacobi rotation [[c, s], [-conj(s), c]] of each matrix of a
    (B, 2, 2) Hermitian stack whose off-diagonal mass is above its ``stop``;
    returns a (B, 4, 2) stack, the matrices on top of their rotations."""
    tv = np.empty((4, 2, len(t)), dtype=complex)
    tv[:2] = t.transpose(1, 2, 0)
    tv[2:] = np.eye(2)[:, :, None]
    todo = linalg.frobenius_norms(tv[[0, 1], [1, 0]].T) > stop
    if not todo.any():
        return tv.transpose(2, 0, 1)
    every = todo.all()
    sub = tv if every else tv[..., todo]
    p, q = pq = np.array([[0], [1]])
    tpq = sub[p, q]
    mod = np.abs(tpq)
    dp, dq = sub[pq, pq].real
    tau = (dq - dp) / (2 * mod)
    tan = np.where(tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
    c = 1.0 / np.hypot(1.0, tan)
    s = tan * c * (tpq / mod)
    sc = s.conj()
    xp, xq = sub[p], sub[q]
    sub[p] = c[:, None] * xp - s[:, None] * xq
    sub[q] = sc[:, None] * xp + c[:, None] * xq
    yp, yq = sub[:, p], sub[:, q]
    sub[:, p] = c * yp - sc * yq
    sub[:, q] = s * yp + c * yq
    if not np.all(linalg.frobenius_norms(sub[[0, 1], [1, 0]].T) <= stop[todo]):
        raise linalg.NumericalError("a Jacobi rotation left a 2 x 2 matrix off diagonal")
    if not every:
        tv[..., todo] = sub
    return tv.transpose(2, 0, 1)
