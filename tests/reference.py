"""Eigenvalue reference route for symplectic spectra, and test fixtures.

The library takes the partially transposed spectrum of a two-mode covariance
matrix in closed form (cfomech.entanglement.pt_spectrum_batch).  The tests
hold it to this route, which reads the spectrum off numpy's eigenvalues of
Omega V for a symmetric 2n x 2n matrix of any n, or an (N, 2n, 2n) stack, in
the convention of cfomech.entanglement (vacuum variance 1/2).
"""

import numpy as np

from cfomech.entanglement import PHYSICALITY_TOL

#: Partial transposition of the second mechanical mode (momentum flip).
MOMENTUM_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])

#: Partial transposition as a sign pattern: V * PT_SIGNS equals
#: MOMENTUM_FLIP @ V @ MOMENTUM_FLIP exactly.
PT_SIGNS = np.outer(np.diag(MOMENTUM_FLIP), np.diag(MOMENTUM_FLIP))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Symplectic spectrum, ascending, of a symmetric 2n x 2n matrix, or of
    each matrix of an (N, 2n, 2n) stack.

    The eigenvalues of Omega V come in pairs +-i*nu for symmetric positive
    semidefinite V; the nu are recovered from the absolute imaginary parts,
    matching near-degenerate pairs by sorting.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim not in (2, 3) or V.shape[-1] != V.shape[-2] or V.shape[-1] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    scale = np.maximum(1.0, np.abs(V).max(axis=(-2, -1)))
    if np.any(np.abs(V - np.swapaxes(V, -1, -2)).max(axis=(-2, -1)) > 1e-8 * scale):
        raise ValueError("covariance matrix is not symmetric within tolerance")
    vals = np.linalg.eigvals(symplectic_form(V.shape[-1] // 2) @ V)
    return np.sort(np.abs(vals.imag), axis=-1)[..., ::2].copy()


def physicality_check(V: np.ndarray) -> bool:
    """True iff the minimum symplectic eigenvalue is >= 1/2 - PHYSICALITY_TOL."""
    return bool(symplectic_eigenvalues(V)[0] >= 0.5 - PHYSICALITY_TOL)


def two_mode_squeezed_covariance(r: float, nbar: float = 0.0) -> np.ndarray:
    """Two-mode squeezed (thermal) state with squeezing parameter r.

    Diagonal blocks (nbar + 1/2)*cosh(2r)*I, off-diagonal
    (nbar + 1/2)*sinh(2r)*diag(1, -1); the vacuum case has E_N = 2r.
    """
    c = (nbar + 0.5) * np.cosh(2.0 * r)
    s = (nbar + 0.5) * np.sinh(2.0 * r)
    return np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])
