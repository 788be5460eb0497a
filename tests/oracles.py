"""Reference routines that only the tests use, as independent oracles."""

import numpy as np


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
