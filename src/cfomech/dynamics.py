"""State-space form of the linearized dynamics and covariance propagation.

The quadrature vector is ordered (dq1, dp1, dq2, dp2, dX, dY): two mechanical
modes then the cavity.  The first moments obey du/dt = A u + n with drift A and
a diagonal diffusion matrix D for the noise vector n.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

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


def state_space_batch(models: Sequence[EffectiveModel]) -> tuple[np.ndarray, np.ndarray]:
    """(N, 6, 6) drift and diffusion stacks (A, D) of N models, in the
    (dq1, dp1, dq2, dp2, dX, dY) ordering.

    The diffusion matrix is diagonal: gamma_j*(nbar_j + 1/2) twice per
    mechanical mode, kappa_tilde twice for the cavity.  A bath too hot for
    double precision gives an infinite entry, which the solve or the
    propagation reports for its point.
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
    with np.errstate(over="ignore"):
        D[:, 0, 0] = D[:, 1, 1] = g1 * (n1 + 0.5)
        D[:, 2, 2] = D[:, 3, 3] = g2 * (n2 + 0.5)
    D[:, 4, 4] = D[:, 5, 5] = kt
    return A, D


def state_space(m: EffectiveModel) -> tuple[np.ndarray, np.ndarray]:
    """6x6 drift and diffusion matrices (A, D) of one model, as
    state_space_batch builds them."""
    A, D = state_space_batch([m])
    return A[0], D[0]


def stability_batch(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral abscissa and eigenvalue stability verdict of each matrix of an
    (N, n, n) stack, from one eigenvalue call.

    A matrix is stable iff its spectral abscissa is below -STABILITY_TOL
    times ||A||_F; systems inside the band count as marginal, not stable.
    """
    abscissa = np.linalg.eigvals(A).real.max(axis=-1)
    return abscissa, abscissa < -STABILITY_TOL * np.linalg.norm(A, axis=(-2, -1))


def stability_eigen(A: np.ndarray) -> bool:
    """Eigenvalue stability test of one matrix, as stability_batch makes it:
    systems inside the band count as marginal, not stable."""
    return bool(stability_batch(A[None])[1][0])


def stability_margin(m: EffectiveModel) -> float:
    """Signed gap of the closed-form stability inequality for equal mechanical
    dampings gamma (positive = stable):

        G2^2 > G1^2 - (kappa_tilde*gamma/2) * [1 + 4*delta_tilde^2 /
                                                   (gamma + 2*kappa_tilde)^2]

    At gamma = 0 one Bogoliubov mode of the mechanics decouples from the
    cavity and keeps its undamped oscillation, so the system is at best
    marginal and the gap is never positive.

    Raises UnsupportedRegimeError for gamma1 != gamma2; use stability_eigen
    there.
    """
    if m.gamma1 != m.gamma2:
        raise UnsupportedRegimeError(
            "closed-form stability assumes equal mechanical dampings; "
            "use stability_eigen instead")
    gamma = m.gamma1
    kt, dt = m.kappa_tilde, m.delta_tilde
    if gamma == 0.0:
        return min(0.0, m.G2 ** 2 - m.G1 ** 2)
    correction = 0.5 * kt * gamma * (1.0 + 4.0 * dt * dt / (gamma + 2.0 * kt) ** 2)
    return m.G2 ** 2 - m.G1 ** 2 + correction


def _transpose(X: np.ndarray) -> np.ndarray:
    return np.swapaxes(X, -1, -2)


#: Upper triangle (vech) of a symmetric 6x6 matrix; vech position of each entry.
_IU, _JU = np.triu_indices(6)
_VECH_INDEX = np.zeros((6, 6), dtype=int)
_VECH_INDEX[_IU, _JU] = _VECH_INDEX[_JU, _IU] = np.arange(21)


def _vech_operator_basis() -> np.ndarray:
    """(36, 441) tensor T: A.reshape(N, 36) @ T stacks the 21x21 matrices
    L6 (I (x) A + A (x) I) D6 of X -> A X + X A^T on vech(X).  Row p, at
    (i, j) = (_IU[p], _JU[p]), sums A[i, b] X[b, j] + A[j, b] X[i, b] over b.
    Filled in place: einsum temporaries raised the peak memory of a run."""
    p, b = np.divmod(np.arange(21 * 6), 6)
    T = np.zeros((6, 6, 21, 21))
    T[_IU[p], b, p, _VECH_INDEX[b, _JU[p]]] = 1.0
    T[_JU[p], b, p, _VECH_INDEX[_IU[p], b]] += 1.0  # 2 where both terms meet (i = j)
    return T.reshape(36, 441)


_VECH_OPERATOR_BASIS = _vech_operator_basis()


def _solve_lyapunov_once(op: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    x = np.linalg.solve(op, -rhs[:, _IU, _JU, None])[..., 0]
    return x[:, _VECH_INDEX]


def _refined_solution(op: np.ndarray, A: np.ndarray, D: np.ndarray) -> np.ndarray:
    V = _solve_lyapunov_once(op, D)
    return V + _solve_lyapunov_once(op, A @ V + V @ _transpose(A) + D)


def steady_state_batch(A: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Stationary covariances V[k] solving A[k] V + V A[k]^T = -D[k] for an
    (N, 6, 6) stack of strictly stable systems, with a per-system error.

    Each system is solved as a linear system on the 21 entries of the upper
    triangle of the symmetric V (vech form), with one iterative-refinement
    pass, all N in one batched linear solve.  V is linear in D, so each D
    enters scaled by a power of 2 near 1/max|D| and V is scaled back, both
    exactly: a hot bath overflows neither the solve nor the norms.  The
    relative residual ||A V + V A^T + D||_F / ||D||_F must come out below the
    contract value, or below the double-precision floor eps*||A||*||V||/||D||
    for strongly amplifying systems.  A system that misses it, or whose linear
    system is singular, gets the text of a NumericalError carrying a condition
    estimate in place of None, and one whose V overflows once scaled back
    gets a text naming the overflow; such a V is not meaningful.
    """
    N = len(A)
    # reshape(N, 36), not (N, -1): a chunk with no stable point is (0, 6, 6)
    op = (A.reshape(N, 36) @ _VECH_OPERATOR_BASIS).reshape(N, 21, 21)
    shift = np.frexp(np.abs(D).max(axis=(-2, -1)))[1][:, None, None]
    D = np.ldexp(D, -shift)
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
    floor = 100.0 * np.finfo(float).eps * np.linalg.norm(A, axis=(-2, -1)) \
        * np.linalg.norm(V, axis=(-2, -1)) / norm_D
    # an infinite D (a bath too hot for double precision) solves to NaN, and a
    # V too large for double precision overflows here; both are reported below
    with np.errstate(over="ignore"):
        V = np.ldexp(V, shift)
    overflow = ~np.isfinite(V).all(axis=(-2, -1))
    errors: list[str | None] = [None] * N
    for k in np.flatnonzero(singular | overflow | ~(rel < np.maximum(LYAPUNOV_RTOL, floor))):
        if overflow[k] and not singular[k]:
            errors[k] = "stationary covariance overflows double precision"
            continue
        cond = np.linalg.cond(op[k])
        errors[k] = (f"Lyapunov linear system is singular (cond ~ {cond:.3g})" if singular[k]
                     else f"Lyapunov residual {rel[k]:.3g} above tolerance (cond ~ {cond:.3g})")
    return V, errors


def steady_state_covariance(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Stationary covariance V solving A V + V A^T = -D for one system.

    Raises StabilityError unless A is strictly stable, and NumericalError when
    the solve fails as steady_state_batch reports it.
    """
    abscissa, stable = stability_batch(A[None])
    if not stable[0]:
        raise StabilityError(
            "drift matrix is not strictly stable "
            f"(spectral abscissa {abscissa[0]:.6g})")
    V, errors = steady_state_batch(A[None], D[None])
    if errors[0] is not None:
        raise NumericalError(errors[0])
    return V[0]


def transition_and_noise(A: np.ndarray, D: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step map of the covariance recursion V -> M V M^T + Q, for
    one system or for each system of an (N, n, n) stack, with one step dt or
    an (N,) array of them.

    M = exp(A dt) and Q = int_0^dt exp(A s) D exp(A^T s) ds are read off a
    single exponential of the augmented block matrix

        [[-A, D], [0, A^T]] * dt

    whose top-right block, left-multiplied by M, is the noise integral.  Q is
    linear in D, so D enters scaled by 2^-s to the size of A and Q is scaled
    back exactly: a hot bath does not set expm's rounding.  Q is symmetrized
    (positive semidefinite up to rounding); a stack takes one expm call.
    """
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0):
        raise ValueError("dt must be positive")
    n = A.shape[-1]
    shift = np.maximum(0, np.frexp(np.abs(D).max(axis=(-2, -1)))[1]
                       - np.frexp(np.abs(A).max(axis=(-2, -1)))[1])[..., None, None]
    block = np.zeros(A.shape[:-2] + (2 * n, 2 * n))
    block[..., :n, :n] = -A
    block[..., :n, n:] = np.ldexp(D, -shift)
    block[..., n:, n:] = _transpose(A)
    F = expm(block * dt[..., None, None])
    M = _transpose(F[..., n:, n:])
    Q = np.ldexp(M @ F[..., :n, n:], shift)
    return M, 0.5 * (Q + _transpose(Q))


def _interval_maps(A: np.ndarray, D: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Maps covering a full grid interval for each system of the stack,
    assembled by squaring the elementary map so each system's elementary step
    obeys the norm cap.  Squaring is the exact semigroup composition, so the
    interval maps stay exact up to rounding.  Each system keeps its own
    doubling count; the squaring rounds skip systems that are done."""
    norm_A = np.linalg.norm(A, axis=(-2, -1))
    doublings = np.zeros(len(norm_A), dtype=int)
    over = norm_A * dt > STEP_NORM_CAP
    doublings[over] = np.ceil(np.log2(norm_A[over] * dt / STEP_NORM_CAP))
    # overflow here means the system diverges over this interval; the caller
    # reports the resulting non-finite entries
    with np.errstate(over="ignore", invalid="ignore"):
        M, Q = transition_and_noise(A, D, dt / 2.0 ** doublings)
        for r in range(doublings.max(initial=0)):
            k = doublings > r
            Mk, Qk = M[k], Q[k]
            Qk = Mk @ Qk @ _transpose(Mk) + Qk
            Q[k] = 0.5 * (Qk + _transpose(Qk))
            M[k] = Mk @ Mk
    return M, Q


def propagate_batch(A: np.ndarray, D: np.ndarray, V0: np.ndarray,
                    t_grid) -> tuple[np.ndarray, np.ndarray]:
    """(N, T, n, n) stack of the covariance matrices of the N systems of the
    drift and diffusion stacks A and D at the T requested times, starting
    from V0[k] at t = 0, and for each system the first grid index whose
    covariance is non-finite, or -1.

    The grid must be strictly increasing and start at or after 0.  Each grid
    point is reached exactly through the interval map; symmetry is re-enforced
    after every application.  An interval that equals the previous maps'
    interval within GRID_STEP_ULPS ulps of t, as the steps of a linspace grid
    do, reuses those maps, so a uniform grid costs one matrix exponential call
    for the whole stack.  Entries from a system's first non-finite index on
    are not meaningful.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and start at >= 0")
    V0 = np.asarray(V0, dtype=float)
    if V0.shape != A.shape:
        raise ValueError("V0 shape does not match the drift matrix")

    out = np.empty((len(V0), t_grid.size) + V0.shape[1:])
    t_prev = 0.0
    step_map = None  # (interval, M, Q) of the maps in use
    # a start or a map too hot for double precision overflows: the non-finite
    # entries are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        V = 0.5 * (V0 + _transpose(V0))
        for step, t in enumerate(t_grid):
            dt = float(t - t_prev)
            if dt > 0.0:
                if step_map is None or abs(dt - step_map[0]) > GRID_STEP_ULPS * math.ulp(t):
                    step_map = (dt, *_interval_maps(A, D, dt))
                _, M, Q = step_map
                V = M @ V @ _transpose(M) + Q
                V = 0.5 * (V + _transpose(V))
            out[:, step] = V
            t_prev = float(t)
    finite = np.isfinite(out).all(axis=(-2, -1))
    return out, np.where(finite.all(axis=1), -1, finite.argmin(axis=1))


def propagation_failure(t_grid, step: int) -> DivergenceError:
    """The error of a propagation whose covariance first turns non-finite at
    grid index step."""
    return DivergenceError(
        f"non-finite covariance at t = {float(t_grid[step]):.6g} (grid index {step})",
        step=step)


def propagate(A: np.ndarray, D: np.ndarray, V0: np.ndarray, t_grid) -> np.ndarray:
    """(T, n, n) stack of the covariance matrices of one system at the T
    requested times, starting from V0 at t = 0, as propagate_batch computes
    it.  Raises DivergenceError at the first non-finite covariance."""
    covs, first_bad = propagate_batch(A[None], D[None], np.asarray(V0, dtype=float)[None],
                                      t_grid)
    if first_bad[0] >= 0:
        raise propagation_failure(t_grid, int(first_bad[0]))
    return covs[0]
