"""Gaussian entanglement measures on quadrature covariance matrices.

Convention: quadratures carry vacuum variance 1/2, so a physical state has
every symplectic eigenvalue >= 1/2, separability after partial transposition
means nu_min >= 1/2, and the logarithmic negativity is max(0, -ln(2*nu_min)).
"""

from __future__ import annotations

import numpy as np

from .errors import PhysicalityError

#: Uncertainty-principle slack used by the physicality gates.
PHYSICALITY_TOL = 1e-8

#: Log-negativity values below this are numerical dust and report as 0.
NEGATIVITY_CLAMP = 1e-12

#: Error text for a covariance matrix that fails the physicality gate.
UNPHYSICAL = "covariance matrix violates the uncertainty principle"

#: Partial transposition of the second mechanical mode (momentum flip).
MOMENTUM_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


#: Symplectic form of the two mechanical modes, built once.
TWO_MODE_FORM = symplectic_form(2)

#: Partial transposition as a sign pattern: V * PT_SIGNS equals
#: MOMENTUM_FLIP @ V @ MOMENTUM_FLIP exactly.
PT_SIGNS = np.outer(np.diag(MOMENTUM_FLIP), np.diag(MOMENTUM_FLIP))


def _check_symmetric(V: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """V as a float array, checked to be one square matrix of even dimension,
    or an (N, 2n, 2n) stack of them, each symmetric within tolerance."""
    V = np.asarray(V, dtype=float)
    if V.ndim not in (2, 3) or V.shape[-1] != V.shape[-2] or V.shape[-1] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    scale = np.maximum(1.0, np.abs(V).max(axis=(-2, -1)))
    if np.any(np.abs(V - np.swapaxes(V, -1, -2)).max(axis=(-2, -1)) > tol * scale):
        raise ValueError("covariance matrix is not symmetric within tolerance")
    return V


def _symplectic_spectra(V: np.ndarray) -> np.ndarray:
    n = V.shape[-1] // 2
    omega = TWO_MODE_FORM if n == 2 else symplectic_form(n)
    vals = np.linalg.eigvals(omega @ V)
    return np.sort(np.abs(vals.imag), axis=-1)[..., ::2].copy()


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Symplectic spectrum, ascending, of a symmetric 2n x 2n matrix, or of
    each matrix of an (N, 2n, 2n) stack.

    The eigenvalues of Omega V come in pairs +-i*nu for symmetric positive
    semidefinite V; the nu are recovered from the absolute imaginary parts,
    matching near-degenerate pairs by sorting.
    """
    return _symplectic_spectra(_check_symmetric(V))


def physicality_check(V: np.ndarray, tol: float = PHYSICALITY_TOL) -> bool:
    """True iff the minimum symplectic eigenvalue is >= 1/2 - tol."""
    return bool(symplectic_eigenvalues(V)[0] >= 0.5 - tol)


def mechanical_submatrix(V6: np.ndarray) -> np.ndarray:
    """Top-left 4x4 block: the reduced state of the two mechanical modes, of
    one covariance matrix or of each matrix of a stack."""
    V6 = _check_symmetric(V6)
    if V6.shape[-1] < 4:
        raise ValueError("expected at least a two-mode covariance matrix")
    return V6[..., :4, :4].copy()


def pt_spectrum_batch(V4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physicality gate and partially transposed spectrum of an (N, 4, 4)
    stack of symmetric two-mode covariance matrices.

    Returns a boolean array, true where the smallest symplectic eigenvalue is
    >= 1/2 - PHYSICALITY_TOL, and the smallest symplectic eigenvalue of each
    matrix after the momentum of the second mode is flipped.  One eigenvalue
    call over the stack [V4; V4_pt] gives both.
    """
    nus = _symplectic_spectra(np.concatenate([V4, V4 * PT_SIGNS]))[:, 0]
    nu_full, nu_pt = np.split(nus, 2)
    return nu_full >= 0.5 - PHYSICALITY_TOL, nu_pt


def min_symplectic_eigenvalue_pt(V4: np.ndarray):
    """Minimum symplectic eigenvalue after partial transposition, as a float
    for one 4x4 matrix or as an (N,) array for an (N, 4, 4) stack.

    The input must be physical two-mode covariance matrices, or
    PhysicalityError is raised; the momentum of the second mode is flipped
    and the smaller symplectic eigenvalue of each transposed matrix is
    returned.  Values below 1/2 witness entanglement.
    """
    V4 = _check_symmetric(V4)
    if V4.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 two-mode covariance matrix")
    physical, nu_pt = pt_spectrum_batch(V4.reshape(-1, 4, 4))
    if not physical.all():
        raise PhysicalityError(UNPHYSICAL)
    return float(nu_pt[0]) if V4.ndim == 2 else nu_pt


def log_negativity_from_nu(nu_min):
    """Map post-transposition minimum symplectic eigenvalues to E_N: a float
    for a scalar, an array for an array."""
    value = -np.log(2.0 * np.asarray(nu_min, dtype=float))
    value = np.where(value < NEGATIVITY_CLAMP, 0.0, value)
    return float(value) if value.ndim == 0 else value


def log_negativity(V4: np.ndarray) -> float:
    """Logarithmic negativity max(0, -ln(2*nu_min)) of a two-mode state."""
    return log_negativity_from_nu(min_symplectic_eigenvalue_pt(V4))


def initial_covariance(nbar1: float, nbar2: float) -> np.ndarray:
    """Separable start: each resonator thermal, the cavity in vacuum."""
    if nbar1 < 0 or nbar2 < 0:
        raise ValueError("thermal occupancies must be nonnegative")
    return np.diag([nbar1 + 0.5, nbar1 + 0.5, nbar2 + 0.5, nbar2 + 0.5, 0.5, 0.5])


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
