"""Reference routines that only the tests use, as independent oracles."""

import numpy as np

from braidphase import linalg
from braidphase.yangbaxter import SpectralParam, r_from_spectral, rational_r


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
    stack, stacked = linalg.as_density_stack(rho, 2 ** n_qubits, tol)

    tensor = stack.reshape([len(stack)] + [2] * (2 * n_qubits))
    traced = [k for k in range(n_qubits) if k not in keep]
    for axis in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=1 + axis, axis2=1 + axis + (tensor.ndim - 1) // 2)
    d = 2 ** len(keep)
    return tensor.reshape((-1, d, d) if stacked else (d, d))


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
