"""Reference routes for the steady-state solve and symplectic spectra, and
test fixtures.

Every model the library builds is phase-insensitive: its drift A and
diffusion D, and so every covariance V, are realifications of complex 3x3
matrices (realify).  The library solves the Lyapunov equation A V + V A^T =
-D on the 9 real coordinates of the Hermitian H that V realifies
(cfomech.dynamics.steady_state_batch), in one solve, on the coordinates of
the complex drift and Hermitian diffusion that define the model
(cfomech.dynamics.state_space_coordinates).  coordinates reads them off a
realified A and D here, and drifts_of realifies drift coordinates by
realify.  The tests hold it to
the kron form here, which solves for all n*n entries of vec(V) and keeps one
refinement pass of its own, and to the vech form, the kron form restricted
to the 21 entries of the upper triangle of a symmetric V.  Where the drift
and diffusion are real up to diag(1, 1, i), the library solves on 6 of the 9
coordinates; the tests hold it there to the plain 9x9 solve here
(hermitian_steady_state), bit for bit.

The library resolves a chunk of sweep points to columns of numpy arrays
(cfomech.experiments.resolve_chunk).  The tests hold it to the scalar
resolution here, one point at a time in Python floats and math.

The library takes the partially transposed spectrum of a two-mode covariance
matrix from the closed forms of its Hermitian 2x2 form
(cfomech.entanglement.pt_spectrum).  The tests hold it to the
eigenvalue route here, which reads the spectrum off numpy's eigenvalues of
Omega V for a symmetric 2n x 2n matrix of any n, or an (N, 2n, 2n) stack, in
the convention of cfomech.entanglement (vacuum variance 1/2).

The library takes the stability verdicts of a large stack of drifts from a
Routh-Hurwitz certificate and its mirror first
(cfomech.dynamics.stability_batch).  The tests hold both to the eigenvalue
route here (routh_against_eigen).

Four batched kernels of the library take lean forms of plain ones: the
interval maps sum the Taylor polynomial on the right half of Van Loan's
block only (cfomech.dynamics.expm with the identity's last columns), the
Routh column writes M's entries into one contiguous complex array, a
propagation step symmetrizes by a transposed copy and an add, and Dekker's
split runs in reused buffers.  The tests hold each to its plain form here
bit for bit: horner_expm, routh_column_1j, apply_add and
two_product_allocating.

The library fills the samples of each run of equal grid intervals by
doubling (cfomech.dynamics.propagate_batch).  The tests hold it to the
sequential stepper here, which applies the interval maps once per grid
interval, and both to the 50-digit maps here: Van Loan's block exponential
(Van Loan 1978, IEEE TAC 23:395) taken by mpmath.expm (van_loan_maps).
"""

import math

import mpmath
import numpy as np

from cfomech import dynamics, params
from cfomech.entanglement import _SPLITTER as SPLITTER, PHYSICALITY_TOL
from cfomech.errors import ConfigError
from cfomech.params import EffectiveModel

#: Partial transposition of the second mechanical mode (momentum flip).
MOMENTUM_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])

#: Partial transposition as a sign pattern: V * PT_SIGNS equals
#: MOMENTUM_FLIP @ V @ MOMENTUM_FLIP exactly.
PT_SIGNS = np.outer(np.diag(MOMENTUM_FLIP), np.diag(MOMENTUM_FLIP))


def kron_lyapunov_operator(A: np.ndarray) -> np.ndarray:
    """Stack of kron(I, A) + kron(A, I): the matrix of X -> A X + X A^T acting
    on the column-major vec(X), one per matrix of the (N, n, n) stack A."""
    N, n, _ = A.shape
    op = np.zeros((N, n, n, n, n))  # op[k, i, a, j, b] sits at row i*n + a, column j*n + b
    for i in range(n):
        op[:, i, :, i, :] = A
    for a in range(n):
        op[:, :, a, :, a] += A
    return op.reshape(N, n * n, n * n)


def kron_steady_state(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solutions V[k] of A[k] V + V A[k]^T = -D[k] for an (N, n, n) stack,
    from the kron form with one iterative-refinement pass, symmetrized."""
    N, n, _ = A.shape
    op = kron_lyapunov_operator(A)

    def solve_once(rhs):
        # column-major vectorization: vec(X)[j*n + i] = X[i, j]
        x = np.linalg.solve(op, -np.swapaxes(rhs, -1, -2).reshape(N, n * n, 1))
        V = np.swapaxes(x.reshape(N, n, n), -1, -2)
        return 0.5 * (V + np.swapaxes(V, -1, -2))

    V = solve_once(D)
    return V + solve_once(A @ V + V @ np.swapaxes(A, -1, -2) + D)


def vech_lyapunov_operator(A: np.ndarray) -> np.ndarray:
    """The kron-form operator restricted to symmetric X, on vech(X), the upper
    triangle in np.triu_indices order: L_n kron_lyapunov_operator(A) D_n with
    elimination matrix L_n and duplication matrix D_n."""
    n = A.shape[-1]
    iu, ju = np.triu_indices(n)
    duplication = np.zeros((n * n, len(iu)))
    duplication[ju * n + iu, np.arange(len(iu))] = 1.0
    duplication[iu * n + ju, np.arange(len(iu))] = 1.0
    return kron_lyapunov_operator(A)[:, ju * n + iu] @ duplication


def hermitian_steady_state(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(N, 9) Hermitian coordinates h of the stationary covariances of the
    (N, 18) drift and (N, 9) diffusion coordinates (m, d): one batched solve
    of the 9x9 operator m @ _LYAPUNOV_BASIS on all 9 coordinates, with m and
    d each taken at unit size and h scaled back, as the library scales them,
    whatever the structure of the drift."""
    e_m = np.frexp(np.abs(m).max(axis=1))[1]
    e_d = np.frexp(np.abs(d).max(axis=1))[1]
    m, d = np.ldexp(m, -e_m[:, None]), np.ldexp(d, -e_d[:, None])
    op = (m @ dynamics._LYAPUNOV_BASIS).reshape(-1, 9, 9)
    return np.ldexp(np.linalg.solve(op, -d[..., None])[..., 0], (e_d - e_m)[:, None])


def marginal_model(gamma: float, **kw) -> EffectiveModel:
    # the Bogoliubov mode that decouples from the cavity at G1 < G2 is damped
    # by gamma/2 alone, so gamma sets the spectral abscissa
    fields = dict(G1=0.9e5, G2=1e5, kappa_tilde=1e5, delta_tilde=0.0,
                  gamma1=gamma, gamma2=gamma, nbar1=0.0, nbar2=0.0)
    return EffectiveModel(**{**fields, **kw})


#: Stable steady points within 10x of the marginal band's edge.
MARGINAL_MODELS = {
    "marginal_hot_detuned": marginal_model(1e-3, nbar1=100.0, nbar2=50.0, delta_tilde=2e4),
    "marginal_kappa_tilde_zero": marginal_model(2e-3, kappa_tilde=0.0),
}


def routh_against_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(certified, refuted, stable): the Routh-Hurwitz certificate, its
    mirror and the eigenvalue verdict of each drift of the (N, 18) stack of
    coordinates m, checked: the certificate may leave a stable drift
    unsettled, but never certifies one that the eigenvalues call marginal or
    unstable, and the mirror never calls not stable one that they call
    stable."""
    certified = dynamics._routh_certificate(m)
    refuted = dynamics._routh_instability(m)
    stable = dynamics.spectral_abscissa(drifts_of(m))[1]
    assert not (certified & ~stable).any(), np.flatnonzero(certified & ~stable)
    assert not (refuted & stable).any(), np.flatnonzero(refuted & stable)
    return certified, refuted, stable


def band_edge(m: np.ndarray) -> np.ndarray:
    """Which drifts of an (N, 18) stack of coordinates have a spectral
    abscissa within 2*ROUTH_MARGIN*||A||_F of 0: a margin's width beyond the
    band edge that neither Routh verdict settles."""
    A = drifts_of(m)
    abscissa = dynamics.spectral_abscissa(A)[0]
    return np.abs(abscissa) <= 2.0 * dynamics.ROUTH_MARGIN * np.linalg.norm(A, axis=(-2, -1))


def horner_expm(X: np.ndarray) -> np.ndarray:
    """exp(X) of each matrix of a stack by the degree-16 Horner sum F = I +
    (X @ F) / k on the whole matrix: cfomech.dynamics.expm's sum with no
    E, whose right half transition_and_noise reads."""
    eye = np.eye(X.shape[-1])
    F = np.broadcast_to(eye, X.shape).copy()
    for k in range(16, 0, -1):
        F = (X @ F) / k + eye
    return F


def routh_column_1j(m: np.ndarray, shift: float) -> np.ndarray:
    """cfomech.dynamics._routh_column with M's entries formed as m[:, :9] +
    1j*m[:, 9:] and transposed, a strided (9, N) view."""
    m = dynamics._unit_size(m, axis=-1)[0]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        norm = np.sqrt(2.0 * (m * m).sum(axis=1))
        m[:, [0, 4, 8]] += (shift * norm)[:, None]
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = (m[:, :9] + 1j * m[:, 9:]).T
        minor0 = m11 * m22 - m12 * m21
        minor1 = m10 * m22 - m12 * m20
        minor2 = m10 * m21 - m11 * m20
        a = -(m00 + m11 + m22)
        b = minor0 + m00 * m22 - m02 * m20 + m00 * m11 - m01 * m10
        c = m01 * minor1 - m00 * minor0 - m02 * minor2
        q5 = 2.0 * a.real
        q4 = 2.0 * b.real + a.real * a.real + a.imag * a.imag
        q3 = 2.0 * (c.real + a.real * b.real + a.imag * b.imag)
        q2 = b.real * b.real + b.imag * b.imag + 2.0 * (a.real * c.real + a.imag * c.imag)
        q1 = 2.0 * (b.real * c.real + b.imag * c.imag)
        q0 = c.real * c.real + c.imag * c.imag
        r4 = q4 - q3 / q5
        s4 = q2 - q1 / q5
        r3 = q3 - q5 * s4 / r4
        s3 = q1 - q5 * q0 / r4
        r2 = s4 - r4 * s3 / r3
        r1 = s3 - r3 * q0 / r2
        return np.array([q5, r4, r3, r2, r1, q0])


def apply_add(M: np.ndarray, Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """cfomech.dynamics._apply into a new array, symmetrized as np.add(W,
    W^T): M V M^T + Q, with the same overflow redo and halving."""
    with np.errstate(over="ignore", invalid="ignore"):
        W = dynamics._product(M, V)
        W += Q
        redo = ~np.isfinite(W).reshape(len(W), -1).all(axis=1)
        if redo.any():
            M, e = dynamics._unit_size(M[redo])
            W[redo] = np.ldexp(dynamics._product(M, V[redo]), 2 * e[..., None, None]) + Q[redo]
        W *= 0.5
        return np.add(W, np.swapaxes(W, -1, -2))


def two_product_allocating(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cfomech.entanglement._two_product with a new array for each step."""
    p = x * y
    xs, ys = SPLITTER * x, SPLITTER * y
    xh, yh = xs - (xs - x), ys - (ys - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def realify(Z) -> np.ndarray:
    """Realification of a complex n x n matrix, or of an (N, n, n) stack, in
    the quadrature ordering (q1, p1, q2, p2, ...): the complex amplitudes are
    (b1^dagger, b2, ...), so Re Z acts on the q and Im Z on (-p1, p2, ...)."""
    Z = np.asarray(Z, dtype=complex)
    n = Z.shape[-1]
    q, p = 2 * np.arange(n), 2 * np.arange(n) + 1
    sign = np.r_[-1.0, np.ones(n - 1)]  # y = sign * p
    X = np.zeros(Z.shape[:-2] + (2 * n, 2 * n))
    X[..., q[:, None], q] = Z.real
    X[..., p[:, None], p] = Z.real * np.outer(sign, sign)
    X[..., p[:, None], q] = Z.imag * sign[:, None]
    X[..., q[:, None], p] = -Z.imag * sign
    return X


def complex_coordinates(M) -> np.ndarray:
    """(N, 18) coordinates of an (N, 3, 3) stack of complex matrices, in the
    order of cfomech.dynamics.state_space_coordinates: Re M[j, k] at 3 j + k,
    Im M[j, k] at 9 + 3 j + k."""
    M = np.asarray(M, dtype=complex)
    return np.concatenate([M.real.reshape(-1, 9), M.imag.reshape(-1, 9)], axis=1)


def drifts_of(m: np.ndarray) -> np.ndarray:
    """(N, 6, 6) realifications (realify) of the complex 3x3 matrices whose
    coordinates are the rows of m; an infinite coordinate stays in place."""
    M = np.zeros((len(m), 3, 3), dtype=complex)
    M.real, M.imag = m[:, :9].reshape(-1, 3, 3), m[:, 9:].reshape(-1, 3, 3)
    return realify(M)


def coordinates(A: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, d): the (N, 18) coordinates of the complex drifts and the (N, 9)
    of the Hermitian diffusions that the (N, 6, 6) stacks A and D realify,
    each the mean of its paired entries (cfomech.entanglement's maps)."""
    with np.errstate(invalid="ignore"):  # an infinite entry reads NaN
        return (A.reshape(len(A), 36) @ dynamics._COMPLEX[1],
                D.reshape(len(D), 36) @ dynamics._HERMITIAN[1])


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


def propagate_stepwise(A: np.ndarray, D: np.ndarray, V0: np.ndarray,
                       t_grid) -> tuple[np.ndarray, np.ndarray]:
    """propagate_batch's (covariances, first_bad) of an (N, n, n) stack by
    sequential steps: the library's step V -> M V M^T + Q, symmetrized
    (dynamics._apply), once per grid interval, with the interval maps of
    dynamics.transition_and_noise built afresh whenever an interval leaves
    the one in use by more than GRID_STEP_ULPS ulps of t.  The grid is taken
    as valid."""
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.empty((len(V0), t_grid.size) + V0.shape[1:])
    t_prev = 0.0
    step_map = None  # (interval, M, Q) of the maps in use
    with np.errstate(over="ignore", invalid="ignore"):
        V = 0.5 * (V0 + np.swapaxes(V0, -1, -2))
        for step, t in enumerate(t_grid):
            dt = float(t - t_prev)
            if dt > 0.0:
                if step_map is None or abs(dt - step_map[0]) > (
                        dynamics.GRID_STEP_ULPS * math.ulp(t)):
                    step_map = (dt, *dynamics.transition_and_noise(A, D, dt))
                V = dynamics._apply(*step_map[1:], V)
            out[:, step] = V
            t_prev = float(t)
    finite = np.isfinite(out).all(axis=(-2, -1))
    return out, np.where(finite.all(axis=1), -1, finite.argmin(axis=1))


#: Working precision of the 50-digit references.
ORACLE_DPS = 50

_PT_SIGNS = (1, 1, 1, -1)
_TWO_MODE_FORM = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


def oracle_nu_pt(V4) -> mpmath.mpf:
    """Smallest symplectic eigenvalue of the 4x4 V4 with the second momentum
    flipped, at ORACLE_DPS digits: the smallest |Im| of the eigenvalues of
    Omega V_pt."""
    with mpmath.workdps(ORACLE_DPS):
        V_pt = mpmath.matrix([[mpmath.mpf(V4[i][j]) * _PT_SIGNS[i] * _PT_SIGNS[j]
                               for j in range(4)] for i in range(4)])
        vals = mpmath.eig(mpmath.matrix(_TWO_MODE_FORM) * V_pt, left=False, right=False)
        return min(abs(mpmath.im(v)) for v in vals)


def van_loan_maps(A, D, dt: float):
    """M = exp(A dt) and Q = int_0^dt exp(A s) D exp(A^T s) ds at ORACLE_DPS
    digits, read off mpmath.expm of [[-A, D], [0, A^T]] dt."""
    n = len(A)
    with mpmath.workdps(ORACLE_DPS):
        block = mpmath.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                block[i, j] = -mpmath.mpf(float(A[i, j])) * dt
                block[i, n + j] = mpmath.mpf(float(D[i, j])) * dt
                block[n + i, n + j] = mpmath.mpf(float(A[j, i])) * dt
        F = mpmath.expm(block)
        M = F[n:, n:].T
        return M, M * F[:n, n:]


def stack_models(models) -> EffectiveModel:
    """The column model of a list of models: one EffectiveModel whose fields
    are (N,) arrays, the form the batched stages take."""
    return EffectiveModel(*np.concatenate([m.columns() for m in models], axis=1))


def state_space_batch(model: EffectiveModel) -> tuple[np.ndarray, np.ndarray]:
    """(N, 6, 6) drift and diffusion stacks (A, D) of a column model: the
    library's realifications of its coordinates (state_space_realified of
    state_space_coordinates), which the library itself forms only for the
    eigenvalue route and propagation."""
    return tuple(map(dynamics.state_space_realified, dynamics.state_space_coordinates(model)))


def point_columns(names, points) -> np.ndarray:
    """The (len(names), N) axis values of N override dicts keyed by names:
    the points as cfomech.experiments.resolve_chunk takes them."""
    return np.array([[p[name] for p in points] for name in names],
                    dtype=float).reshape(len(names), len(points))


def scalar_cavity_params(kappa1, kappa2, rB, theta, Delta):
    """kappa_tilde and delta_tilde of one point in Python floats, with the
    checks and texts of cfomech.params.effective_cavity_params."""
    if not 0.0 <= rB <= 1.0:
        raise ValueError("rB must lie in [0, 1]")
    if kappa1 < 0 or kappa2 < 0:
        raise ValueError("cavity decays must be nonnegative")
    e = math.frexp(max(kappa1, kappa2))[1]  # at unit size, as the library takes it
    root = math.ldexp(math.sqrt(math.ldexp(kappa1, -e) * math.ldexp(kappa2, -e)), e)
    cross = 2.0 * (root * rB)
    kappa_tilde = kappa1 + kappa2 - cross * math.cos(theta)
    delta_tilde = Delta - cross * math.sin(theta)
    if kappa_tilde < 0.0:
        if kappa_tilde < -8 * math.ulp(kappa1 + kappa2):
            raise ValueError("negative effective cavity decay")
        kappa_tilde = 0.0
    return kappa_tilde, delta_tilde


def scalar_resolve(cfg, overrides: dict) -> tuple[tuple[float, ...], str]:
    """The 8 model fields (EffectiveModel order) and the RWA verdict of one
    point, resolved in Python floats, with the checks and texts of
    cfomech.experiments.resolve_chunk, in the same order."""
    drive = cfg.uses_drive_block
    if drive and ("ratio" in overrides or "G1" in overrides or "G2" in overrides):
        raise ConfigError("coupling axes need the direct G1/G2 entry path")
    if "ratio" in overrides and "G1" in overrides:
        raise ConfigError("a G1 axis conflicts with a ratio axis, which sets G1")
    if cfg.temperatureK is not None and ("nbar1" in overrides or "nbar2" in overrides):
        raise ConfigError("occupancy axes conflict with temperatureK")
    if cfg.detuningLock and "Delta" in overrides:
        raise ConfigError("a Delta axis conflicts with detuningLock, which sets Delta")
    values = {"gamma1": cfg.gamma1, "gamma2": cfg.gamma2, "kappa1": cfg.kappa1,
              "kappa2": cfg.kappa2, "G1": cfg.G1, "G2": cfg.G2, "Delta": cfg.Delta,
              "rB": cfg.rB, "theta": cfg.theta, "nbar1": cfg.nbar1, "nbar2": cfg.nbar2}
    values.update((name, float(value)) for name, value in overrides.items())
    kappa1, kappa2 = values["kappa1"], values["kappa2"]
    rB, theta, Delta = values["rB"], values["theta"], values["Delta"]
    if cfg.detuningLock:
        Delta = -scalar_cavity_params(kappa1, kappa2, rB, theta, 0.0)[1]
    if cfg.temperatureK is not None:
        nbar1 = params.thermal_occupancy(cfg.omega1, cfg.temperatureK)
        nbar2 = params.thermal_occupancy(cfg.omega2, cfg.temperatureK)
    else:
        nbar1 = values["nbar1"] if values["nbar1"] is not None else 0.0
        nbar2 = values["nbar2"] if values["nbar2"] is not None else 0.0
    if drive:
        G1, G2 = params.effective_couplings(
            cfg.g1, cfg.g2, params.drive_amplitude(cfg.P1, kappa1, cfg.omegaL1),
            params.drive_amplitude(cfg.P2, kappa1, cfg.omegaL2),
            cfg.omega1, cfg.omega2, Delta, kappa1, kappa2)
    else:
        G1 = values["ratio"] * values["G2"] if "ratio" in values else values["G1"]
        G2 = values["G2"]
    kappa_tilde, delta_tilde = scalar_cavity_params(kappa1, kappa2, rB, theta, Delta)
    fields = (abs(G1), abs(G2), kappa_tilde, delta_tilde, values["gamma1"], values["gamma2"],
              nbar1, nbar2)
    EffectiveModel(*map(float, fields))  # the model's own checks
    if cfg.omega1 is None or cfg.omega2 is None:
        return fields, "unknown"
    return fields, params.rwa_validity(G1, G2, kappa1, kappa2, cfg.omega1, cfg.omega2,
                                       threshold=cfg.rwaThreshold)
