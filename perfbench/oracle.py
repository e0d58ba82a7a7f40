"""Independent reference for the seeded workloads, and the row comparison.

The oracle rebuilds the drift and diffusion matrices from the raw parameters,
solves the steady state with scipy's Bartels-Stewart solver instead of the
package's kron form, and propagates with one Van Loan block exponential per
grid step instead of the package's squared sub-steps. Stability uses the same
criterion as the package: spectral abscissa below -1e-9 * ||A||_F.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

#: A row passes when its status matches exactly, |EN - EN_ref| <= EN_ATOL and
#: |nu - nu_ref| <= NU_RTOL * nu_ref. Both are 35x tighter than the 3.5e-5
#: E_N error that the two-mode invariant formula makes on fig2a.
EN_ATOL = 1e-6
NU_RTOL = 1e-6

STABILITY_TOL = 1e-9
NEGATIVITY_CLAMP = 1e-12

_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


def state_space(*, G1, G2, kappa1, kappa2, gamma1, gamma2, Delta, rB, theta,
                nbar1, nbar2):
    """Drift A and diffusion D in the (q1, p1, q2, p2, X, Y) ordering."""
    cross = 2.0 * math.sqrt(kappa1 * kappa2) * rB
    kt = max(kappa1 + kappa2 - cross * math.cos(theta), 0.0)
    dt = Delta - cross * math.sin(theta)
    g1, g2 = gamma1 / 2.0, gamma2 / 2.0
    A = np.array([
        [-g1, 0, 0, 0, 0, -G1],
        [0, -g1, 0, 0, -G1, 0],
        [0, 0, -g2, 0, 0, G2],
        [0, 0, 0, -g2, -G2, 0],
        [0, -G1, 0, G2, -kt, dt],
        [-G1, 0, -G2, 0, -dt, -kt],
    ], dtype=float)
    D = np.diag([gamma1 * (nbar1 + 0.5)] * 2 + [gamma2 * (nbar2 + 0.5)] * 2 + [kt] * 2)
    return A, D


def stable(A) -> bool:
    return float(np.linalg.eigvals(A).real.max()) < -STABILITY_TOL * float(np.linalg.norm(A))


def nu_pt(V) -> float:
    """Smaller symplectic eigenvalue of the partially transposed mechanical block."""
    W = _FLIP @ V[:4, :4] @ _FLIP
    return float(np.abs(np.linalg.eigvals(_OMEGA @ W).imag).min())


def log_negativity(nu: float) -> float:
    value = -math.log(2.0 * nu)
    return 0.0 if value < NEGATIVITY_CLAMP else value


def steady(A, D):
    """(stable, EN, nu) of the stationary state; EN and nu are None if unstable."""
    if not stable(A):
        return False, None, None
    V = solve_continuous_lyapunov(A, -D)
    nu = nu_pt(0.5 * (V + V.T))
    return True, log_negativity(nu), nu


def evolve_peak(A, D, nbar1, nbar2, t):
    """Sweep row (status, peak EN, min nu) of a transient from the separable
    thermal-vacuum state on the uniform grid t."""
    n = A.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n], block[:n, n:], block[n:, n:] = -A, D, A.T
    F = expm(block * (t[1] - t[0]))
    M = F[n:, n:].T
    Q = M @ F[:n, n:]
    Q = 0.5 * (Q + Q.T)
    V = np.diag([nbar1 + 0.5] * 2 + [nbar2 + 0.5] * 2 + [0.5] * 2)
    nus = [nu_pt(V)]
    for _ in t[1:]:
        V = M @ V @ M.T + Q
        V = 0.5 * (V + V.T)
        nus.append(nu_pt(V))
    nu = min(nus)
    flag = "stable" if stable(A) else "unstable"
    return (f"{flag}|", max(log_negativity(x) for x in nus), nu)


def row_matches(row, ref) -> bool:
    status, en, nu = row
    ref_status, ref_en, ref_nu = ref
    if status != ref_status or (en is None) != (ref_en is None) \
            or (nu is None) != (ref_nu is None):
        return False
    if en is not None and not abs(en - ref_en) <= EN_ATOL:
        return False
    return nu is None or abs(nu - ref_nu) <= NU_RTOL * abs(ref_nu)
