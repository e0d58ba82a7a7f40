"""State-space form of the linearized dynamics and covariance propagation.

The quadrature vector is ordered (dq1, dp1, dq2, dp2, dX, dY): two mechanical
modes then the cavity.  The first moments obey du/dt = A u + n with drift A and
a diagonal diffusion matrix D for the noise vector n.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    DivergenceError,
    NumericalError,
    StabilityError,
    UnsupportedRegimeError,
)
from .params import EffectiveModel

#: Relative spectral-abscissa band inside which a system is reported marginal.
STABILITY_TOL = 1e-9

#: Relative residual contract for the steady-state solve.
LYAPUNOV_RTOL = 1e-10

#: Norm cap per elementary propagation substep, ||A||*h <= this.
STEP_NORM_CAP = 0.1

#: Grid intervals closer than this many ulps of t share one interval map;
#: linspace rounding moves its steps by about one ulp.
GRID_STEP_ULPS = 4


@dataclass(frozen=True)
class StateSpace:
    """Drift and diffusion matrices of one model instance, or (N, 6, 6) stacks
    of them for N models."""

    A: np.ndarray
    D: np.ndarray


def state_space_batch(models: Sequence[EffectiveModel]) -> StateSpace:
    """(N, 6, 6) drift and diffusion stacks of N models, in the
    (dq1, dp1, dq2, dp2, dX, dY) ordering.

    The diffusion matrix is diagonal: gamma_j*(nbar_j + 1/2) twice per
    mechanical mode, kappa_tilde twice for the cavity.
    """
    G1, G2, kt, dt, g1, g2, n1, n2 = np.array(
        [(m.G1, m.G2, m.kappa_tilde, m.delta_tilde, m.gamma1, m.gamma2, m.nbar1, m.nbar2)
         for m in models], dtype=float).reshape(-1, 8).T
    A = np.zeros((len(G1), 6, 6))
    A[:, 0, 0] = A[:, 1, 1] = -(g1 / 2.0)
    A[:, 2, 2] = A[:, 3, 3] = -(g2 / 2.0)
    A[:, 4, 4] = A[:, 5, 5] = -kt
    A[:, 0, 5] = A[:, 1, 4] = A[:, 4, 1] = A[:, 5, 0] = -G1
    A[:, 2, 5] = A[:, 4, 3] = G2
    A[:, 3, 4] = A[:, 5, 2] = -G2
    A[:, 4, 5] = dt
    A[:, 5, 4] = -dt
    D = np.zeros_like(A)
    D[:, 0, 0] = D[:, 1, 1] = g1 * (n1 + 0.5)
    D[:, 2, 2] = D[:, 3, 3] = g2 * (n2 + 0.5)
    D[:, 4, 4] = D[:, 5, 5] = kt
    return StateSpace(A=A, D=D)


def state_space(m: EffectiveModel) -> StateSpace:
    ss = state_space_batch([m])
    return StateSpace(A=ss.A[0], D=ss.D[0])


def drift_matrix(m: EffectiveModel) -> np.ndarray:
    """6x6 drift matrix in the (dq1, dp1, dq2, dp2, dX, dY) ordering."""
    return state_space(m).A


def diffusion_matrix(m: EffectiveModel) -> np.ndarray:
    """Diagonal 6x6 diffusion matrix: gamma_j*(nbar_j + 1/2) twice per
    mechanical mode, kappa_tilde twice for the cavity."""
    return state_space(m).D


def stability_batch(A: np.ndarray, tol: float = STABILITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Spectral abscissa and eigenvalue stability verdict of each matrix of an
    (N, n, n) stack, from one eigenvalue call.

    A matrix is stable iff its spectral abscissa is below -tol*||A||_F;
    systems inside the band count as marginal, not stable.
    """
    abscissa = np.linalg.eigvals(A).real.max(axis=-1)
    return abscissa, abscissa < -tol * np.linalg.norm(A, axis=(-2, -1))


def spectral_abscissa(A: np.ndarray) -> float:
    """Largest real part of the spectrum of A."""
    return float(stability_batch(A[None])[0][0])


def stability_eigen(A: np.ndarray, tol: float = STABILITY_TOL) -> bool:
    """Eigenvalue stability test: true iff the spectral abscissa is below
    -tol*||A||.  Systems inside the band count as marginal, not stable."""
    return bool(stability_batch(A[None], tol)[1][0])


def stability_analytic(m: EffectiveModel) -> bool:
    """Closed-form stability test for equal mechanical dampings:

        G2^2 > G1^2 - (kappa_tilde*gamma/2) * [1 + 4*delta_tilde^2 /
                                                   (gamma + 2*kappa_tilde)^2]

    Raises UnsupportedRegimeError for gamma1 != gamma2; use stability_eigen
    there.
    """
    if m.gamma1 != m.gamma2:
        raise UnsupportedRegimeError(
            "closed-form stability assumes equal mechanical dampings; "
            "use stability_eigen instead")
    return stability_margin(m) > 0.0


def stability_margin(m: EffectiveModel) -> float:
    """Signed gap of the closed-form stability inequality (positive = stable)."""
    if m.gamma1 != m.gamma2:
        raise UnsupportedRegimeError(
            "closed-form stability assumes equal mechanical dampings")
    gamma = m.gamma1
    kt, dt = m.kappa_tilde, m.delta_tilde
    if kt * gamma == 0.0:
        correction = 0.0
    else:
        correction = 0.5 * kt * gamma * (1.0 + 4.0 * dt * dt / (gamma + 2.0 * kt) ** 2)
    return m.G2 ** 2 - m.G1 ** 2 + correction


def _transpose(X: np.ndarray) -> np.ndarray:
    return np.swapaxes(X, -1, -2)


def _lyapunov_operator(A: np.ndarray) -> np.ndarray:
    """Stack of kron(I, A) + kron(A, I): the matrix of X -> A X + X A^T acting
    on the column-major vec(X), one per matrix of the (N, n, n) stack A."""
    N, n, _ = A.shape
    op = np.zeros((N, n, n, n, n))  # op[k, i, a, j, b] sits at row i*n + a, column j*n + b
    for i in range(n):
        op[:, i, :, i, :] = A
    for a in range(n):
        op[:, :, a, :, a] += A
    return op.reshape(N, n * n, n * n)


def _solve_lyapunov_once(op: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # column-major vectorization: vec(X)[j*n + i] = X[i, j]
    N, n, _ = rhs.shape
    x = np.linalg.solve(op, -_transpose(rhs).reshape(N, n * n, 1))
    V = _transpose(x.reshape(N, n, n))
    return 0.5 * (V + _transpose(V))


def _refined_solution(op: np.ndarray, A: np.ndarray, D: np.ndarray) -> np.ndarray:
    V = _solve_lyapunov_once(op, D)
    return V + _solve_lyapunov_once(op, A @ V + V @ _transpose(A) + D)


def steady_state_batch(ss: StateSpace) -> tuple[np.ndarray, list[str | None]]:
    """Stationary covariances V[k] solving A[k] V + V A[k]^T = -D[k] for an
    (N, n, n) stack of strictly stable systems, with a per-system error.

    Each system is solved through the dense linearization of the Lyapunov
    equation (kron form, 36 unknowns for the full system) with one
    iterative-refinement pass, all N in one batched linear solve.  The relative
    residual ||A V + V A^T + D||_F / ||D||_F must come out below the contract
    value, or below the double-precision floor eps*||A||*||V||/||D|| for
    strongly amplifying systems.  A system that misses it, or whose linear
    system is singular, gets the text of a NumericalError carrying a condition
    estimate in place of None; its V is not meaningful.
    """
    A, D = ss.A, ss.D
    N = len(A)
    op = _lyapunov_operator(A)
    singular = np.zeros(N, dtype=bool)
    try:
        V = _refined_solution(op, A, D)
    except np.linalg.LinAlgError:
        # one singular system fails the whole batched solve: solve one by one
        V = np.full_like(D, np.nan)
        for k in range(N):
            try:
                V[k] = _refined_solution(op[k:k + 1], A[k:k + 1], D[k:k + 1])[0]
            except np.linalg.LinAlgError:
                singular[k] = True
    norm_D = np.linalg.norm(D, axis=(-2, -1))
    rel = np.linalg.norm(A @ V + V @ _transpose(A) + D, axis=(-2, -1)) / norm_D
    eps = np.finfo(float).eps
    floor = 100.0 * eps * np.linalg.norm(A, axis=(-2, -1)) \
        * np.linalg.norm(V, axis=(-2, -1)) / norm_D
    errors: list[str | None] = [None] * N
    for k in np.flatnonzero(singular | (rel >= np.maximum(LYAPUNOV_RTOL, floor))):
        cond = np.linalg.cond(op[k])
        errors[k] = (f"Lyapunov linear system is singular (cond ~ {cond:.3g})" if singular[k]
                     else f"Lyapunov residual {rel[k]:.3g} above tolerance (cond ~ {cond:.3g})")
    return V, errors


def steady_state_covariance(ss: StateSpace) -> np.ndarray:
    """Stationary covariance V solving A V + V A^T = -D for one system.

    Raises StabilityError unless A is strictly stable, and NumericalError when
    the solve misses the residual contract of steady_state_batch.
    """
    abscissa, stable = stability_batch(ss.A[None])
    if not stable[0]:
        raise StabilityError(
            "drift matrix is not strictly stable "
            f"(spectral abscissa {abscissa[0]:.6g})")
    V, errors = steady_state_batch(StateSpace(A=ss.A[None], D=ss.D[None]))
    if errors[0] is not None:
        raise NumericalError(errors[0])
    return V[0]


def transition_and_noise(A: np.ndarray, D: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step map of the covariance recursion V -> M V M^T + Q.

    M = exp(A dt) and Q = int_0^dt exp(A s) D exp(A^T s) ds are read off a
    single exponential of the augmented block matrix

        [[-A, D], [0, A^T]] * dt

    whose top-right block, left-multiplied by M, is the noise integral.  Q is
    symmetrized; it is positive semidefinite up to rounding.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = A.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -A
    block[:n, n:] = D
    block[n:, n:] = A.T
    F = expm(block * dt)
    M = F[n:, n:].T
    Q = M @ F[:n, n:]
    return M, 0.5 * (Q + Q.T)


def _interval_map(A: np.ndarray, D: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Map covering a full grid interval, assembled by squaring the elementary
    map so the elementary step obeys the norm cap.  Squaring is the exact
    semigroup composition, so the interval map stays exact up to rounding."""
    norm_A = float(np.linalg.norm(A))
    doublings = 0
    if norm_A * dt > STEP_NORM_CAP:
        doublings = int(math.ceil(math.log2(norm_A * dt / STEP_NORM_CAP)))
    # overflow here means the system diverges over this interval; the caller
    # turns the resulting non-finite entries into a DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        M, Q = transition_and_noise(A, D, dt / 2 ** doublings)
        for _ in range(doublings):
            Q = M @ Q @ M.T + Q
            Q = 0.5 * (Q + Q.T)
            M = M @ M
    return M, Q


def propagate(ss: StateSpace, V0: np.ndarray, t_grid) -> np.ndarray:
    """(T, n, n) stack of the covariance matrices at the T requested times,
    starting from V0 at t = 0.

    The grid must be strictly increasing and start at or after 0.  Each grid
    point is reached exactly through the interval map; symmetry is re-enforced
    after every application.  An interval that equals the previous map's
    interval within GRID_STEP_ULPS ulps of t, as the steps of a linspace grid
    do, reuses that map, so a uniform grid costs one matrix exponential.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and start at >= 0")
    V0 = np.asarray(V0, dtype=float)
    if V0.shape != ss.A.shape:
        raise ValueError("V0 shape does not match the drift matrix")

    out = np.empty((t_grid.size,) + V0.shape)
    V = 0.5 * (V0 + V0.T)
    t_prev = 0.0
    step_map = None  # (interval, M, Q) of the map in use
    for step, t in enumerate(t_grid):
        dt = float(t - t_prev)
        if dt > 0.0:
            if step_map is None or abs(dt - step_map[0]) > GRID_STEP_ULPS * math.ulp(t):
                step_map = (dt, *_interval_map(ss.A, ss.D, dt))
            _, M, Q = step_map
            with np.errstate(over="ignore", invalid="ignore"):
                V = M @ V @ M.T + Q
            V = 0.5 * (V + V.T)
        if not np.all(np.isfinite(V)):
            raise DivergenceError(
                f"non-finite covariance at t = {t:.6g} (grid index {step})",
                step=step)
        out[step] = V
        t_prev = float(t)
    return out
