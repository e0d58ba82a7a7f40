"""State-space form of the linearized dynamics and covariance propagation.

The quadrature vector is ordered (dq1, dp1, dq2, dp2, dX, dY): two mechanical
modes then the cavity.  The first moments obey du/dt = A u + n with drift A and
a diagonal diffusion matrix D for the noise vector n.  The model is
phase-insensitive: A and D realify a complex 3x3 drift M and a Hermitian D_c
(see cfomech.entanglement), whose coordinates define the model: the steady path
runs on them, the eigenvalue route and propagation on A and D.

The model is homogeneous in its rates: scaling them all by 2^k scales A and D
by 2^k and time by 2^-k and leaves every covariance unchanged.  Every kernel
whose result depends on the size of the rates reads its arrays at unit size
(_unit_size), so no result depends on the unit of time.
"""

from __future__ import annotations

import math

import numpy as np

from .entanglement import _EPS, _check_phase_insensitive, _realification_maps
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

#: Intervals within this many ulps of t of their run's first share its maps
#: (propagate_batch); linspace rounding moves its steps by about one ulp.
GRID_STEP_ULPS = 4


#: Maps to and from the coordinates of the realifications of the 3x3
#: Hermitian matrices (9) and of all complex 3x3 matrices (18) on the
#: quadratures: the drift A realifies a complex M, the diffusion D and every
#: covariance V a Hermitian D_c and H.
_HERMITIAN = _realification_maps(3, hermitian=True)
_COMPLEX = _realification_maps(3, hermitian=False)


def state_space_coordinates(model: EffectiveModel) -> tuple[np.ndarray, np.ndarray]:
    """(N, 18) coordinates m of the complex drifts M and (N, 9) coordinates d
    of the Hermitian diffusions D_c of a column model's N models (N = 1 for
    floats), in _COMPLEX's and _HERMITIAN's orders, with M = [[-gamma1/2, 0,
    i G1], [0, -gamma2/2, -i G2], [-i G1, -i G2, -kappa_tilde - i
    delta_tilde]] and D_c = diag(gamma1 (nbar1 + 1/2), gamma2 (nbar2 + 1/2),
    kappa_tilde): the only place a rate enters the model.  A bath too hot
    for double precision gives an infinite d, reported by solve or propagation."""
    G1, G2, kt, dt, g1, g2, n1, n2 = vars(model).values()  # floats, or (N,) columns
    m, d = np.zeros((np.size(G1), 18)), np.zeros((np.size(G1), 9))
    # Re M[j, k] at 3 j + k and Im M[j, k] at 9 + 3 j + k; D_c[j, j] at 0, 3 and 5
    m[:, 0], m[:, 4], m[:, 8] = -(g1 / 2.0), -(g2 / 2.0), -kt
    m[:, 11], m[:, 14], m[:, 15], m[:, 16], m[:, 17] = G1, -G2, -G1, -G2, -dt
    with np.errstate(over="ignore"):
        d[:, 0], d[:, 3], d[:, 5] = g1 * (n1 + 0.5), g2 * (n2 + 0.5), kt
    return m, d


def state_space_realified(x: np.ndarray) -> np.ndarray:
    """Exact (N, 6, 6) realifications, ordered (dq1, dp1, dq2, dp2, dX, dY), of
    (N, 18) drift or (N, 9) diffusion coordinates, as state_space_coordinates
    gives them; a non-finite coordinate spreads to all 36 entries."""
    with np.errstate(invalid="ignore"):  # inf * 0 reads NaN
        return (x @ (_COMPLEX if x.shape[-1] == 18 else _HERMITIAN)[0]).reshape(-1, 6, 6)


def state_space(m: EffectiveModel) -> tuple[np.ndarray, np.ndarray]:
    """6x6 drift and diffusion matrices (A, D) of one model: its coordinates realified."""
    A, D = map(state_space_realified, state_space_coordinates(m))
    return A[0], D[0]


def _unit_size(X: np.ndarray, axis=(-2, -1)) -> tuple[np.ndarray, np.ndarray]:
    """X*2^-e and e for a matrix or each matrix of a stack (each vector with
    axis = -1), e the binary exponent of its largest entry: exact, the largest
    entry in [0.5, 1) (e = 0 if zero or non-finite), so no square over- or underflows."""
    e = np.frexp(np.abs(X).max(axis=axis, keepdims=True))[1]
    return np.ldexp(X, -e), e.squeeze(axis)


def spectral_abscissa(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N,) spectral abscissae of an (N, n, n) stack from one eigenvalue call,
    and the (N,) eigenvalue stability verdicts read from them: stable iff
    below -STABILITY_TOL times ||A||_F, both taken at A's unit size, so
    systems inside the band count as marginal, not stable, in any unit of
    time.  A matrix with a non-finite entry has a NaN abscissa, not stable."""
    try:
        abscissa = np.linalg.eigvals(A).real.max(axis=-1)
    except np.linalg.LinAlgError:
        # a non-finite entry fails the whole batched call: leave those out
        finite = np.isfinite(A).all(axis=(-2, -1))
        abscissa = np.full(len(A), np.nan)
        abscissa[finite] = np.linalg.eigvals(A[finite]).real.max(axis=-1)
    A, e = _unit_size(A)  # ||A||_F below as np.linalg.norm takes it on real input
    return abscissa, np.ldexp(abscissa, -e) < -STABILITY_TOL * np.sqrt((A * A).sum(axis=(-2, -1)))


#: Margin of the Routh-Hurwitz verdicts, relative to ||A||_F: the
#: certificate calls a drift stable only where its spectral abscissa lies
#: below -(STABILITY_TOL + ROUTH_MARGIN)*||A||_F, and its mirror calls one
#: not stable only where it lies above (ROUTH_MARGIN - STABILITY_TOL)*||A||_F;
#: the band edge between them is left to the eigenvalues.  A real
#: eigenvalue of M is a double root of p*conj(p), which the rounding of its
#: coefficients moves by up to about sqrt(eps) of the scale: with no margin
#: the certificate's edge wandered by up to 3 times STABILITY_TOL*||A||_F on
#: gamma scans at kappa_tilde = 0 (it left drifts at 4 times the band edge
#: unsettled; an error of the other sign would call marginal drifts stable).
#: 2^-20 is about 300 times that error, and still certifies every fig2 point.
ROUTH_MARGIN = 2.0 ** -20

#: Stacks of at least this many drifts take the Routh-Hurwitz verdicts
#: first.  On a 2-vCPU x86-64 VM the certificate costs 55-90 us at N = 1
#: against 20-25 us for eigvals, breaks even between N = 8 and 16, and takes
#: 130-230 us against 1400-1800 us at N = 256.  The evolve_sweep grid's one
#: point chunk, 225 models at 51 samples, takes 208-216 us against 991-1034
#: us for eigvals: the certificate settles the stable models, its mirror the
#: unstable ones (65 unstable models alone take 139-153 us against 292-346
#: us; min of 9 x 500 calls in 3 processes), and only the band edge (1 drift
#: in 225) reaches eigvals.  The fig3 presets' chunk of 5 models stays below it.
CERTIFICATE_MIN_STACK = 64

def _routh_column(m: np.ndarray, shift: float) -> np.ndarray:
    """(6, N) first column, below its leading 1, of the Routh array
    (Gantmacher, The Theory of Matrices, vol. 2, ch. XV) of the
    characteristic polynomial of the realification A of each complex 3x3
    drift M of an (N, 18) stack of coordinates, shifted by shift times
    ||A||_F, with no eigenvalue call.

    The eigenvalues of A are those of M and their conjugates, the roots of
    the real sextic p*conj(p) for the cubic p(x) = det(xI - M) = x^3 + a x^2
    + b x + c.  M enters at unit size (_unit_size), so no coefficient over-
    or underflows, and shifted by shift times the scaled ||A||_F =
    sqrt(2)*||m||.  M's entries are written into one contiguous (9, N)
    complex array, a row per entry, as the real and imaginary parts of its
    coordinates.  A non-finite drift spreads NaN or inf to the column.
    """
    m = _unit_size(m, axis=-1)[0]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        norm = np.sqrt(2.0 * (m * m).sum(axis=1))
        m[:, [0, 4, 8]] += (shift * norm)[:, None]  # Re diag M
        entries = np.empty((9, len(m)), dtype=complex)
        entries.real, entries.imag = m[:, :9].T, m[:, 9:].T
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = entries
        # a = -tr M, b the sum of its principal 2x2 minors, c = -det M
        minor0 = m11 * m22 - m12 * m21
        minor1 = m10 * m22 - m12 * m20
        minor2 = m10 * m21 - m11 * m20
        a = -(m00 + m11 + m22)
        b = minor0 + m00 * m22 - m02 * m20 + m00 * m11 - m01 * m10
        c = m01 * minor1 - m00 * minor0 - m02 * minor2
        # the real sextic p*conj(p) = x^6 + q5 x^5 + ... + q0
        q5 = 2.0 * a.real
        q4 = 2.0 * b.real + a.real * a.real + a.imag * a.imag
        q3 = 2.0 * (c.real + a.real * b.real + a.imag * b.imag)
        q2 = b.real * b.real + b.imag * b.imag + 2.0 * (a.real * c.real + a.imag * c.imag)
        q1 = 2.0 * (b.real * c.real + b.imag * c.imag)
        q0 = c.real * c.real + c.imag * c.imag
        # the first column q5, r4, r3, r2, r1, q0; s4 and s3 are the second
        # entries of the rows of r4 and r3
        r4 = q4 - q3 / q5
        s4 = q2 - q1 / q5
        r3 = q3 - q5 * s4 / r4
        s3 = q1 - q5 * q0 / r4
        r2 = s4 - r4 * s3 / r3
        r1 = s3 - r3 * q0 / r2
        return np.array([q5, r4, r3, r2, r1, q0])


def _routh_certificate(m: np.ndarray) -> np.ndarray:
    """(N,) stability certificates of an (N, 18) stack of drift coordinates:
    all six Routh entries of the sextic shifted right by (STABILITY_TOL +
    ROUTH_MARGIN)*||A||_F positive.  A zero or NaN entry, or a non-finite
    drift, leaves a drift uncertified, not unstable."""
    return (_routh_column(m, STABILITY_TOL + ROUTH_MARGIN) > 0.0).all(axis=0)


def _routh_instability(m: np.ndarray) -> np.ndarray:
    """(N,) instability certificates, the certificate's mirror: the six
    Routh entries of the sextic shifted left by (ROUTH_MARGIN -
    STABILITY_TOL)*||A||_F all finite and nonzero, with a sign change, so a
    root lies right of that shift.  A zero or non-finite entry leaves a
    drift unsettled."""
    column = _routh_column(m, STABILITY_TOL - ROUTH_MARGIN)
    return (np.isfinite(column).all(axis=0) & (column != 0.0).all(axis=0)
            & (column < 0.0).any(axis=0))


def stability_batch(m: np.ndarray) -> np.ndarray:
    """(N,) stability verdicts of the drifts of an (N, 18) stack of
    coordinates, as spectral_abscissa gives them on their realifications:
    systems inside the band count as marginal, not stable, and a drift with
    a non-finite entry is not stable.

    A stack of at least CERTIFICATE_MIN_STACK drifts takes the verdicts of
    the drifts that the Routh-Hurwitz certificate settles from it, then
    those of the others that its mirror settles as not stable; only the
    band edge and non-finite drifts take one eigenvalue call.  A smaller
    stack takes them all from the eigenvalues.
    """
    if len(m) < CERTIFICATE_MIN_STACK:
        return spectral_abscissa(state_space_realified(m))[1]
    stable = _routh_certificate(m)
    if not stable.all():
        unsettled = (~stable).nonzero()[0]
        unsettled = unsettled[~_routh_instability(m.take(unsettled, axis=0))]
        if len(unsettled):
            stable[unsettled] = spectral_abscissa(
                state_space_realified(m.take(unsettled, axis=0)))[1]
    return stable


def stability_eigen(A: np.ndarray) -> bool:
    """Eigenvalue stability test of one matrix, as spectral_abscissa gives
    it: systems inside the band count as marginal, not stable."""
    return bool(spectral_abscissa(A[None])[1][0])


def stability_margin(m: EffectiveModel) -> float:
    """Signed gap of the closed-form stability inequality for equal mechanical
    dampings gamma (positive = stable):

        G2^2 > G1^2 - (kappa_tilde*gamma/2) * [1 + 4*delta_tilde^2 /
                                                   (gamma + 2*kappa_tilde)^2]

    At gamma = 0 one Bogoliubov mode of the mechanics decouples from the
    cavity and keeps its undamped oscillation, so the system is at best
    marginal and the gap is never positive.  The gap is homogeneous of degree
    2 in the rates: it is taken at unit size (as _unit_size takes matrices)
    and scaled back exactly, so beyond double precision it reads inf of its
    sign, and below it 0, so that stableAnalytic reads false there.

    Raises UnsupportedRegimeError for gamma1 != gamma2; use stability_eigen
    there.
    """
    if m.gamma1 != m.gamma2:
        raise UnsupportedRegimeError(
            "closed-form stability assumes equal mechanical dampings; "
            "use stability_eigen instead")
    rates = (m.G1, m.G2, m.kappa_tilde, m.delta_tilde, m.gamma1)
    e = math.frexp(max(map(abs, rates)))[1]
    G1, G2, kt, dt, gamma = (math.ldexp(x, -e) for x in rates)
    s = gamma + 2.0 * kt  # kt/s and gamma/s are at most 1: no term is 0/0
    gap = (min(0.0, G2 * G2 - G1 * G1) if gamma == 0.0 else
           G2 * G2 - G1 * G1 + 0.5 * kt * gamma + 2.0 * dt * dt * (kt / s) * (gamma / s))
    half = math.ldexp(1.0, e - 1)  # 4^e = 4*half^2, with half a double for any rate
    return 4.0 * gap * half * half


def _transpose(X: np.ndarray) -> np.ndarray:
    return X.swapaxes(-1, -2)


def _lyapunov_basis() -> np.ndarray:
    """(18, 81) tensor T: m @ T stacks the 9x9 matrices of H -> M H + H
    M^dagger on the Hermitian coordinates, for the coordinates m of M, that
    is of V -> A V + V A^T on the covariances that Hermitian H realify, for
    the A that M realifies.  Its entries are 0, +-1 and +-2, and each 9x9
    entry sums at most two terms, so it comes out the same in any summation
    order."""
    embed, project, _ = _HERMITIAN
    drifts = _COMPLEX[0].reshape(18, 1, 6, 6)
    basis = embed.reshape(1, 9, 6, 6)
    images = drifts @ basis + basis @ _transpose(drifts)  # [drift, column, 6, 6]
    return _transpose(images.reshape(18, 9, 36) @ project).reshape(18, 81)


_LYAPUNOV_BASIS = _lyapunov_basis()


#: h * h @ _WEIGHTS is ||h @ _HERMITIAN[0]||_F^2: the embedding's rows have disjoint support.
_WEIGHTS = (_HERMITIAN[0] ** 2).sum(axis=1)

#: Where M's and D_c's coordinates _PHASES vanish, as at delta_tilde = 0, S^dagger M S and
#: S^dagger D_c S are real for S = diag(1, 1, i), so S^dagger H S is too: H's coordinates 2, 4
#: and 6 vanish.  _FORMS: (basis, weights) of the solve on all 9, and on _KEPT.
_PHASES = np.array([2, 5, 6, 7, 9, 10, 12, 13, 17]), np.array([2, 4, 6])
_KEPT = np.array([0, 1, 3, 5, 7, 8])
_FORMS = ((_LYAPUNOV_BASIS, _WEIGHTS),
          (np.ascontiguousarray(_LYAPUNOV_BASIS.reshape(18, 9, 9)[:, _KEPT[:, None], _KEPT]
                                .reshape(18, 36)), _WEIGHTS[_KEPT]))


def _residual_error(rel: float, op: np.ndarray) -> str:
    return f"Lyapunov residual {rel:.3g} above tolerance (cond ~ {np.linalg.cond(op):.3g})"


def steady_state_batch(m: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """(N, 9) Hermitian coordinates h of the stationary covariances V[k] =
    h[k] @ _HERMITIAN[0] solving A[k] V + V A[k]^T = -D[k] for the (N, 18)
    and (N, 9) coordinates (m, d) of strictly stable systems, as
    state_space_coordinates gives them, with a per-system error.

    The N systems M H + H M^dagger = -D_c, op h = -d on the coordinates, take
    one batched solve at m's and d's unit size (_unit_size), h scaled back
    exactly, so no unit of time or hot bath overflows the solve or the norms.
    Where every m and d is zero at _PHASES (a NaN is not), as at delta_tilde =
    0, the solve, the residual and the norms take the 6 coordinates _KEPT and
    h's other 3 are exact zeros.  The residual ||op h + d|| / ||d||, in the
    norms of the realifications (_WEIGHTS), must fall below LYAPUNOV_RTOL or
    the floor 100*eps*||A||*||h||/||d||.  A system that misses it, or whose
    linear system is singular, gets a NumericalError text with a condition
    estimate of the operator solved in place of None, and one whose h
    overflows once scaled back a text naming it; such an h is not meaningful.
    """
    N = len(m)
    real = not (np.count_nonzero(m[:, _PHASES[0]]) or np.count_nonzero(d[:, _PHASES[1]]))
    basis, weights = _FORMS[real]
    m, a = _unit_size(m, axis=-1)
    d, e = _unit_size(d[:, _KEPT] if real else d, axis=-1)
    op = (m @ basis).reshape(N, len(weights), len(weights))
    singular = set()  # a singular system's h stays NaN, so its residual fails too
    try:
        h = np.linalg.solve(op, -d[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular system fails the whole batched solve: solve one by one
        h = np.full_like(d, np.nan)
        for k in range(N):
            try:
                h[k] = np.linalg.solve(op[k:k + 1], -d[k:k + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                singular.add(k)
    # an h too large for double precision, or one from an infinite d, is not
    # finite: reported below; ||A||_F^2 is 2*||m||^2, each m filling 2 entries of A
    with np.errstate(over="ignore", invalid="ignore"):
        r = (op @ h[..., None])[..., 0] + d
        norm_r, norm_h, norm_d = np.sqrt(np.array([r, h, d]) ** 2 @ weights)
        rel = norm_r / norm_d
        floor = 100.0 * _EPS * np.sqrt(2.0 * (m * m).sum(axis=1)) * norm_h / norm_d
        h = np.ldexp(h, (e - a)[:, None])
    finite = np.isfinite(h).all(axis=1)
    errors: list[str | None] = [None] * N
    for k in (~(finite & (rel < np.maximum(LYAPUNOV_RTOL, floor)))).nonzero()[0].tolist():
        errors[k] = (f"Lyapunov linear system is singular (cond ~ {np.linalg.cond(op[k]):.3g})"
                     if k in singular else _residual_error(rel[k], op[k]) if finite[k]
                     else "stationary covariance overflows double precision")
    if not real:
        return h, errors
    coordinates = np.zeros((N, 9))  # the other 3 are exact zeros
    coordinates[:, _KEPT] = h
    return coordinates, errors


def steady_state_covariance(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Stationary covariance V solving A V + V A^T = -D for one system.

    Raises ValueError unless A and D realify a complex drift and a Hermitian
    diffusion to STRUCTURE_RTOL relative, naming the defect, then
    StabilityError unless A is strictly stable, and NumericalError when the
    solve fails as steady_state_batch reports it or V misses its contract on
    A and D, whose phase-sensitive part the coordinates cannot see.
    """
    A, D = A[None], D[None]
    _check_phase_insensitive(A, _COMPLEX, "drift matrix")
    _check_phase_insensitive(D, _HERMITIAN, "diffusion matrix")
    abscissa, stable = spectral_abscissa(A)
    if not stable[0]:
        raise StabilityError(
            "drift matrix is not strictly stable "
            f"(spectral abscissa {abscissa[0]:.6g})")
    with np.errstate(invalid="ignore"):  # an infinite D reads NaN here, reported below
        m, d = A.reshape(1, 36) @ _COMPLEX[1], D.reshape(1, 36) @ _HERMITIAN[1]
    h, errors = steady_state_batch(m, d)
    if errors[0] is not None:
        raise NumericalError(errors[0])
    (A, a), (D, e) = _unit_size(A[0]), _unit_size(D[0])
    V = (np.ldexp(h[0], a - e) @ _HERMITIAN[0]).reshape(6, 6)  # at A's and D's unit size
    rel = np.linalg.norm(A @ V + V @ A.T + D) / np.linalg.norm(D)
    floor = 100.0 * _EPS * np.linalg.norm(A) * np.linalg.norm(V) / np.linalg.norm(D)
    if not rel < max(LYAPUNOV_RTOL, floor):
        op = (A.reshape(36) @ _COMPLEX[1] @ _LYAPUNOV_BASIS).reshape(9, 9)
        raise NumericalError(_residual_error(rel, op))
    return np.ldexp(V, e - a)


def expm(X: np.ndarray, E: np.ndarray | None = None) -> np.ndarray:
    """exp(X) E of a matrix or of each matrix of a stack, E the identity if
    not given: the degree-16 Taylor polynomial of exp(X) times E, summed over
    the whole stack by Horner's rule F = E + (X @ F) / k, with no scaling,
    each term written in place into one of two buffers of X @ E's shape.  A
    column of F sees only its own column of E, so for E a block of the
    identity's columns F is that block of exp(X), to the bit.  Precondition:
    each X has 1-norm at most 0.45, where the remainder is below 1e-20, or X
    @ X = 0, where the sum is E + X E exactly; transition_and_noise's blocks
    are one or the other."""
    if E is None:
        E = np.eye(X.shape[-1])
    shape = X.shape[:-1] + E.shape[-1:]
    F, term = np.empty(shape), np.empty(shape)
    F[...] = E
    for k in range(16, 0, -1):
        np.matmul(X, F, out=term)
        term /= k
        term += E
        F, term = term, F
    return F


def transition_and_noise(A: np.ndarray, D: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """Exact maps (M, Q) of the covariance recursion V -> M V M^T + Q over
    dt, for one system or each system of an (N, n, n) stack, with one dt or
    an (N,) array of them: M = exp(A dt), Q = int_0^dt exp(A s) D exp(A^T s) ds.

    Each system takes the least d with ||A||_F h <= STEP_NORM_CAP at A's unit
    size (_unit_size), h = dt 2^-d; M(h) and Q(h) are read off the right
    half of the exponential of Van Loan's block [[-A, D'], [0, A^T]] h (Van
    Loan 1978, IEEE TAC 23:395), whose top-right block left-multiplied by
    M(h) is the noise integral: expm's action on the identity's last n
    columns, which halves each Horner product and gives that half's bits.
    The maps are then squared d times (_square): sorted once by d, largest
    first, each round squares a leading slice of the systems, which are put
    back in their order at the end.  Q is linear in D, so D enters as D', scaled to A's
    exponent by a power of 2 if larger, and Q is scaled back exactly: a hot
    bath does not set expm's rounding.  As max|D'| < 2 max|A| and a row or
    column of A sums to at most sqrt(n) ||A||_F, each block has 1-norm at
    most (2 + sqrt(n)) STEP_NORM_CAP, in expm's precondition for n = 6; a
    zero drift is not subdivided and its block is nilpotent.  Q is
    symmetric; a non-finite drift, or a system diverging over dt, gives
    non-finite maps for the caller to report.
    """
    dt = np.asarray(dt, dtype=float)
    if not np.all((dt > 0) & (dt < math.inf)):  # NaN fails both comparisons
        raise ValueError("dt must be positive and finite")
    shape, n = A.shape, A.shape[-1]
    A, D = A.reshape(-1, n, n), D.reshape(-1, n, n)
    steps = np.broadcast_to(dt, shape[:-2]).ravel()
    (A_unit, a), (mantissa, t) = _unit_size(A), np.frexp(steps)
    norm = np.sqrt((A_unit * A_unit).sum(axis=(-2, -1)))  # ||A||_F as spectral_abscissa takes it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.maximum(0, np.ceil(np.log2(norm * mantissa / STEP_NORM_CAP)) + a + t)
        doublings = np.where(np.isfinite(norm) & (norm > 0.0), d, 0).astype(int)
        shift = np.maximum(0, _unit_size(D)[1] - a)[:, None, None]
        block = np.zeros((len(A), 2 * n, 2 * n))
        block[:, :n, :n] = -A
        block[:, :n, n:] = np.ldexp(D, -shift)
        block[:, n:, n:] = _transpose(A)
        block *= np.ldexp(steps, -doublings)[:, None, None]
        F = expm(block, np.eye(2 * n, n, -n))  # the right half of exp(block)
        M = _transpose(F[:, n:])
        Q = np.ldexp(M @ F[:, :n], shift - 1)  # halved before it symmetrizes, as in _apply
        Q = Q + _transpose(Q)
        order = np.argsort(-doublings, kind="stable")
        M_sorted, Q_sorted = M[order], Q[order]
        for r in range(doublings.max(initial=0)):
            k = np.count_nonzero(doublings > r)  # the leading k systems, once sorted
            M_sorted[:k], Q_sorted[:k] = _square(M_sorted[:k], Q_sorted[:k])
        M[order], Q[order] = M_sorted, Q_sorted
    return M.reshape(shape), Q.reshape(shape)


def _product(M: np.ndarray, V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """M V M^T of V (N, n, n) and M (N, n, n), or of V (N, m, n, n) and M (N, 1,
    n, n), with M V written to out if given."""
    n, rows = M.shape[-1], math.prod(V.shape[1:-1])
    # the right factor as one (m n, n) @ (n, n) product per system
    X = (np.matmul(M, V, out=out).reshape(len(V), rows, n)
         @ np.ascontiguousarray(_transpose(M)).reshape(-1, n, n))
    return X.reshape(V.shape)


def _apply(M: np.ndarray, Q: np.ndarray, V: np.ndarray, out: np.ndarray | None = None
           ) -> np.ndarray:
    """M V M^T + Q, symmetrized, for each system of a stack: the covariances V
    carried over the interval of the maps (M, Q), written to out if given,
    which must not overlap V: out holds M V first, and M V M^T + Q is the
    only array of V's size that a step allocates.  The halved W = M V M^T +
    Q is symmetrized as W^T + W, one transposed copy into out and one
    contiguous add: the sums of W + W^T, commuted."""
    W = _product(M, V, out)
    W += Q
    if not np.isfinite(W).all():
        # terms that cancel overflow early: redo those systems with M at unit
        # size (_unit_size), scaled back exactly (no bit of a finite W changes)
        redo = ~np.isfinite(W).reshape(len(W), -1).all(axis=1)
        M, e = _unit_size(M[redo])
        W[redo] = np.ldexp(_product(M, V[redo]), 2 * e[..., None, None]) + Q[redo]
    W *= 0.5  # each term halved first: no finite W overflows its sum
    if out is None:
        out = np.empty_like(W)
    out[...] = _transpose(W)
    out += W
    return out


def _square(M: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M M, M Q M^T + Q): the maps over twice the interval of (M, Q), exactly."""
    return M @ M, _apply(M, Q, Q)


def interval_maps(A: np.ndarray, D: np.ndarray, t_grid) -> list[tuple]:
    """The runs of a time grid, each as (start, length, P, S): its first
    grid index, its number of intervals and the (N, n, n) maps (P, S) =
    transition_and_noise(A, D, dt) over its interval dt, for the N systems
    of the drift and diffusion stacks A and D.

    The grid must be finite, strictly increasing and start at or after 0.
    Its intervals, the first from t = 0, fall into runs: maximal stretches
    of intervals within GRID_STEP_ULPS ulps of t of their run's first, as
    the steps of a linspace grid are.  A run takes one transition_and_noise
    call for the whole stack, so a uniform grid costs one expm call; a grid
    of the one time t = 0 has no run.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if not np.isfinite(t_grid).all() or t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be finite, strictly increasing and start at >= 0")
    T, runs = t_grid.size, []
    intervals = np.diff(t_grid, prepend=0.0)
    tolerance = GRID_STEP_ULPS * np.spacing(t_grid)
    start = int(t_grid[0] == 0.0)
    # a map too hot for double precision overflows: propagate_runs reports it
    with np.errstate(over="ignore", invalid="ignore"):
        while start < T:
            dt = intervals[start]
            off = np.abs(intervals[start:] - dt) > tolerance[start:]
            run = int(off.argmax()) if off.any() else T - start
            runs.append((start, run, *transition_and_noise(A, D, dt)))
            start += run
    return runs


def propagate_runs(V0: np.ndarray, runs: list[tuple], T: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(N, T, n, n) stack of the covariance matrices of N systems at the T
    times of a grid, starting from V0[k] at t = 0, filled from the grid's
    runs as interval_maps gives them (or the rows of their maps for a slice
    of its systems), and for each system the first grid index whose
    covariance is non-finite, or -1.

    Each run fills its samples by doubling, as transition_and_noise
    squares: its first is P V P^T + S of the sample before it, then while
    samples remain, (P, S) over n intervals carry its first n samples n
    intervals on in one batched step and are squared.  A run of L intervals
    takes 1 + ceil(log2 L) steps; each sample is exact up to rounding and
    exactly symmetric, and a system's samples depend on its own maps and
    start alone.  A sample counts as non-finite where one weighted sum of
    its entries is: one product with the whole stack.  Entries from a
    system's first non-finite index on are not meaningful.
    """
    out = np.empty((len(V0), T) + V0.shape[1:])
    # a start or a map too hot for double precision overflows: the non-finite
    # entries are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        V = 0.5 * V0[:, None]
        V = V + _transpose(V)  # the start, at t = 0, halved first as _apply does
        out[:, :1] = V  # the t = 0 sample, if sampled
        for start, run, P, S in runs:
            P, S = P[:, None], S[:, None]
            _apply(P, S, out[:, start - 1:start] if start else V, out[:, start:start + 1])
            n = 1  # (P, S) map n intervals on, and the run's first n samples are filled
            while n < run:
                if n > 1:
                    P, S = _square(P, S)
                m = min(n, run - n)
                _apply(P, S, out[:, start:start + m], out[:, start + n:start + n + m])
                n += m
        # one sum per sample, each entry weighted by a power of 2 of at most
        # 1/size: finite entries cannot overflow it, an inf or NaN spreads to it
        size = math.prod(V0.shape[1:])
        weight = np.full(size, 2.0 ** -(size - 1).bit_length())
        finite = np.isfinite(out.reshape(len(out), T, size) @ weight)
    return out, np.where(finite.all(axis=1), -1, finite.argmin(axis=1))


def propagate_batch(A: np.ndarray, D: np.ndarray, V0: np.ndarray,
                    t_grid) -> tuple[np.ndarray, np.ndarray]:
    """(N, T, n, n) stack of the covariance matrices of the N systems of the
    drift and diffusion stacks A and D at the T requested times, starting
    from V0[k] at t = 0, and for each system the first grid index whose
    covariance is non-finite, or -1: propagate_runs of the grid's
    interval_maps."""
    V0 = np.asarray(V0, dtype=float)
    if V0.shape != A.shape:
        raise ValueError("V0 shape does not match the drift matrix")
    return propagate_runs(V0, interval_maps(A, D, t_grid), np.size(t_grid))


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
