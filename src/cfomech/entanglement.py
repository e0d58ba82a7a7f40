"""Gaussian entanglement measures on quadrature covariance matrices.

Convention: quadratures carry vacuum variance 1/2, so a physical state has
every symplectic eigenvalue >= 1/2, separability after partial transposition
means nu_min >= 1/2, and the logarithmic negativity is max(0, -ln(2*nu_min)).

The pipeline scores two-mode states with pt_spectrum_batch, which takes both
symplectic spectra of each 4x4 matrix in closed form, with no eigen-solver:
the local standard form (Simon 2000, PRL 84:2726; Duan, Giedke, Cirac and
Zoller 2000, PRL 84:2722) and the two-mode invariants (Serafini, Illuminati
and De Siena 2004, J. Phys. B 37:L21), arranged so that the only differences
of large terms are the margins sqrt(ab) - s_i between the local and cross
correlations.  Where a margin is small its rounding would reach nu, so the
invariants are then evaluated in double-double arithmetic.  Where a margin
is within UNRESOLVED_MARGIN * eps * ||V||_F of 0 the matrix is singular to
rounding: its spectra are unresolved (UNRESOLVED), neither a number nor a
violation of the uncertainty principle.  The physicality gate likewise
counts only a violation that rounding of V's entries cannot explain
(GATE_ROUNDING).  This is the package's only spectrum route; the tests hold
it to the eigenvalues of Omega V (tests/reference.py).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, PhysicalityError

#: Uncertainty-principle slack used by the physicality gates.
PHYSICALITY_TOL = 1e-8

#: Log-negativity values below this are numerical dust and report as 0.
NEGATIVITY_CLAMP = 1e-12

#: Error text for a covariance matrix that fails the physicality gate.
UNPHYSICAL = "covariance matrix violates the uncertainty principle"

#: A two-mode spectrum is unresolved where a margin sqrt(ab) - s_i of the
#: local standard form (see pt_spectrum_batch) is within this many
#: eps*||V4||_F of 0.  The margins' own rounding error reached 22
#: eps*||V4||_F on 3000 random states with local squeezing up to e^3; the
#: transients that drift out of the physical set (undamped mechanics) sit at
#: 645-679 and the benchmark workloads at 3.1e4 or more.
UNRESOLVED_MARGIN = 100.0

#: Below this many eps*||V4||_F, a margin's rounding (up to about 22 of them)
#: could move nu by more than about 2e-8 relative, so both spectra are then
#: taken from the invariants in double-double arithmetic (_dd_spectra).
#: About 2% of the samples of an evolve sweep and 0.4% of steady points fall
#: below it.
COMPENSATED_MARGIN = 1e9

#: The physicality gate fails only where nu_full is below 1/2 -
#: PHYSICALITY_TOL by more than this many times its shift under one-ulp
#: changes of V's entries.  Near a pure, strongly squeezed state that shift
#: grows like eps*||V||^2 and passes the tolerance: a two-mode squeezed
#: vacuum stored as doubles falls 2.7e-5 short of 1/2 at r = 7.  The
#: undamped transients that drift out of the physical set fall short of
#: 1/2 by 35 to 58 times their shift.
GATE_ROUNDING = 10.0

#: Error text for a covariance matrix whose spectra are unresolved: it is
#: singular to within rounding, so nu_minus cannot be told from 0.
UNRESOLVED = "partially transposed spectrum unresolved: covariance matrix singular to rounding"

#: Flat indices in a 4x4 matrix [[A, C], [C^T, B]] of its 10 distinct
#: entries, in the order a11 b11 a12 b12 a22 b22 c11 c12 c21 c22.
_ENTRIES = np.array([0, 10, 1, 11, 5, 15, 2, 3, 6, 7])

#: Position among those entries of V[i][j].
_ENTRY_OF = [[_ENTRIES.tolist().index(4 * min(i, j) + max(i, j)) for j in range(4)]
             for i in range(4)]

#: The 2x2 minors of rows (0, 1) at column pairs ordered to carry the sign of
#: their Laplace term, then those of rows (2, 3) at the complementary pairs.
#: The minor of rows (i, i+1) at columns (j, k) is V[i][j] V[i+1][k] -
#: V[i][k] V[i+1][j]; _MINOR_X * _MINOR_Y lists the 12 first products, then
#: the 12 second ones.
_MINORS = [(0, (0, 1)), (0, (2, 0)), (0, (0, 3)), (0, (1, 2)), (0, (3, 1)), (0, (2, 3)),
           (2, (2, 3)), (2, (1, 3)), (2, (1, 2)), (2, (0, 3)), (2, (0, 2)), (2, (0, 1))]
_MINOR_X = np.array([_ENTRY_OF[i][j] for i, (j, k) in _MINORS]
                    + [_ENTRY_OF[i][k] for i, (j, k) in _MINORS])
_MINOR_Y = np.array([_ENTRY_OF[i + 1][k] for i, (j, k) in _MINORS]
                    + [_ENTRY_OF[i + 1][j] for i, (j, k) in _MINORS])

#: Dekker's splitter 2^27 + 1: splits a double into two 26-bit halves.
_SPLITTER = 134217729.0

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _two_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x*y as p + e exactly, by Dekker's splitting (Numer. Math. 18:224, 1971)."""
    p = x * y
    xs, ys = _SPLITTER * x, _SPLITTER * y
    xh, yh = xs - (xs - x), ys - (ys - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _two_sum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x + y as s + e exactly (Knuth, TAOCP vol. 2, 4.2.2)."""
    s = x + y
    z = s - x
    return s, (x - (s - z)) + (y - z)


def _dd_sum(his: list, los: list) -> tuple[np.ndarray, np.ndarray]:
    """Sum of the double-double numbers his[k] + los[k], as hi + lo."""
    total, carry = his[0], los[0]
    for hi, lo in zip(his[1:], los[1:]):
        total, err = _two_sum(total, hi)
        carry = carry + err + lo
    return _two_sum(total, carry)


def _dd_spectra(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared smaller symplectic eigenvalues, before and after the partial
    transposition, of symmetric 4x4 matrices given as (10, N) entry columns
    in _ENTRIES order, from the invariants evaluated in double-double
    arithmetic: det V by the Laplace expansion in the 2x2 minors of rows
    (0, 1) and (2, 3), Delta = det A + det B +- 2 det C from three of those
    minors, and the discriminant Delta^2 - 4 det V.  Each is good to a few
    ulps of itself however near singular the matrix is."""
    p, e = _two_product(entries[_MINOR_X], entries[_MINOR_Y])
    hi, lo = _two_sum(p[:12], -p[12:])
    lo += e[:12] - e[12:]
    q, f = _two_product(hi[:6], hi[6:])
    f += hi[:6] * lo[6:] + lo[:6] * hi[6:]
    det_hi, det_lo = _dd_sum(q, f)
    out = []
    for sign in (2.0, -2.0):  # det C enters Delta with + before the transposition
        delta_hi, delta_lo = _dd_sum([hi[0], hi[6], sign * hi[5]], [lo[0], lo[6], sign * lo[5]])
        sq_hi, sq_lo = _two_product(delta_hi, delta_hi)
        disc, _ = _dd_sum([sq_hi, -4.0 * det_hi], [sq_lo + 2.0 * delta_hi * delta_lo, -4.0 * det_lo])
        out.append(2.0 * det_hi / (delta_hi + np.sqrt(np.maximum(disc, 0.0))))
    return out[0], out[1]


def pt_spectrum_batch(V4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physicality gate and partially transposed spectrum of an (N, 4, 4)
    stack of symmetric two-mode covariance matrices, in closed form.

    Each matrix [[A, C], [C^T, B]] is brought to the local standard form
    [[a I, C'], [C'^T, b I]] by the symplectic S = adj(X + sqrt(det X) I) /
    sqrt((tr X + 2 sqrt(det X)) sqrt(det X)) on each local block X (Simon
    2000, PRL 84:2726).  With s1 >= s2 the singular values of C' (s1 from the
    sum of the 2x2 SVD, s2 = |det C'| / s1) and g = sqrt(ab), det V =
    (g - s1)(g + s1)(g - s2)(g + s2), and the smaller symplectic eigenvalue
    is nu^2 = 2 det V / (Delta + sqrt(Delta^2 - 4 det V)) with Delta = a^2 +
    b^2 -+ 2 det C', minus after transposition (Serafini, Illuminati and De
    Siena 2004, J. Phys. B 37:L21).  Delta and the discriminant are sums of
    nonnegative terms and of the margins g - s_i, so the margins are the only
    differences of large terms; where one is small (COMPENSATED_MARGIN) both
    spectra come from _dd_spectra instead.  Matrices are first scaled by a
    power of 4, which is exact, so nothing overflows.

    Returns a boolean array, false where the smallest symplectic eigenvalue
    is below 1/2 - PHYSICALITY_TOL by more than rounding of the entries can
    explain (GATE_ROUNDING), and the smallest symplectic eigenvalue of each
    matrix after the momentum of the second mode is flipped.  Where a margin
    is within UNRESOLVED_MARGIN * eps * ||V4||_F of 0 neither spectrum is
    resolved: the gate passes and the latter is NaN (see UNRESOLVED).  A
    margin below that belongs to a matrix that is not positive definite,
    which fails the gate.
    """
    entries = np.asarray(V4, dtype=float).reshape(-1, 16)[:, _ENTRIES].T
    half = np.frexp(np.abs(entries).max(axis=0))[1] // 2
    entries = np.ldexp(entries, -2 * half)
    x11, x12, x22 = entries[:6].reshape(3, 2, -1)  # the local blocks A and B side by side
    c11, c12, c21, c22 = entries[6:]
    with np.errstate(invalid="ignore", divide="ignore"):  # NaN: not positive definite
        a_b = np.sqrt(x11 * x22 - x12 * x12)
        t = np.sqrt((x11 + x22 + 2.0 * a_b) * a_b)
        (u1, v1), (u2, v2), (u3, v3) = (x22 + a_b) / t, -x12 / t, (x11 + a_b) / t
        m11, m12 = u1 * c11 + u2 * c21, u1 * c12 + u2 * c22
        m21, m22 = u2 * c11 + u3 * c21, u2 * c12 + u3 * c22
        p, q = m11 * v1 + m12 * v2, m11 * v2 + m12 * v3
        r, s = m21 * v1 + m22 * v2, m21 * v2 + m22 * v3
        root_e, root_f = np.hypot(p + s, q - r), np.hypot(p - s, q + r)
        s1 = 0.5 * (root_e + root_f)
        det_c = p * s - q * r
        s2 = np.abs(det_c) / np.maximum(s1, _TINY)
        a, b = a_b
        g = np.sqrt(a * b)
        e1, e2 = g - s1, g - s2
        # the margin in units of eps*||V4||_F, summed elementwise so that a
        # matrix gets the same bits alone as in a stack
        local_sq = x11 * x11 + x22 * x22 + 2.0 * (x12 * x12)
        ulp = _EPS * np.sqrt(
            local_sq[0] + local_sq[1] + 2.0 * (c11 * c11 + c12 * c12 + c21 * c21 + c22 * c22))
        margin = np.minimum(e1, e2) / ulp
        unresolved = np.abs(margin) <= UNRESOLVED_MARGIN
        resolved = margin > UNRESOLVED_MARGIN
        det_v = e1 * (g + s1) * e2 * (g + s2)
        # Delta and its discriminant with +2 s1 s2, then with -2 s1 s2, using
        # a + b - s1 - s2 = (sqrt a - sqrt b)^2 + e1 + e2, s1 - s2 = min(root_e, root_f)
        amb2, apb = (a - b) ** 2, a + b
        delta_plus = amb2 + 2.0 * (a * b + s1 * s2)
        disc_plus = amb2 * apb * apb + 4.0 * (a * s1 + b * s2) * (a * s2 + b * s1)
        delta_minus = amb2 + 2.0 * (g * e1 + s1 * e2)
        disc_minus = (amb2 * (amb2 / (np.sqrt(a) + np.sqrt(b)) ** 2 + e1 + e2)
                      * (apb + s1 + s2) + (apb * np.minimum(root_e, root_f)) ** 2)
        den_plus = delta_plus + np.sqrt(disc_plus)
        den_minus = delta_minus + np.sqrt(disc_minus)
        nu2_plus, nu2_minus = 2.0 * det_v / den_plus, 2.0 * det_v / den_minus
        # det C' < 0: the transposition turns -2 s1 s2 into +2 s1 s2
        flips = det_c < 0.0
        nu2_full = np.where(flips, nu2_minus, nu2_plus)
        nu2_pt = np.where(flips, nu2_plus, nu2_minus)
        near = np.flatnonzero(resolved & (margin < COMPENSATED_MARGIN))
        if near.size:
            nu2_full[near], nu2_pt[near] = _dd_spectra(entries[:, near])
        nu_full = np.ldexp(np.sqrt(nu2_full), 2 * half)
        nu_pt = np.ldexp(np.sqrt(nu2_pt), 2 * half)
        violates = nu_full < 0.5 - PHYSICALITY_TOL
        if violates.any():
            # relative shift of nu_full when V's entries move by an ulp:
            # through the margins, and through Delta - sqrt(disc) near a pure state
            shift = 1.0 / margin + 2.0 * g * ulp / np.where(flips, den_minus, den_plus)
            violates &= nu_full * (1.0 + GATE_ROUNDING * shift) < 0.5 - PHYSICALITY_TOL
    nu_pt[~resolved] = np.nan
    return unresolved | (resolved & ~violates), nu_pt


def min_symplectic_eigenvalue_pt(V4: np.ndarray):
    """Minimum symplectic eigenvalue after partial transposition, as a float
    for one 4x4 matrix or as an (N,) array for an (N, 4, 4) stack.

    The input must be symmetric to 1e-8 relative, or ValueError is raised,
    and physical, or PhysicalityError is raised; the momentum of the second
    mode is flipped and the smaller symplectic eigenvalue of each transposed
    matrix is returned, or NumericalError raised where it is unresolved.
    Values below 1/2 witness entanglement.
    """
    V4 = np.asarray(V4, dtype=float)
    if V4.ndim not in (2, 3) or V4.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 two-mode covariance matrix")
    scale = np.maximum(1.0, np.abs(V4).max(axis=(-2, -1)))
    if np.any(np.abs(V4 - np.swapaxes(V4, -1, -2)).max(axis=(-2, -1)) > 1e-8 * scale):
        raise ValueError("covariance matrix is not symmetric within tolerance")
    physical, nu_pt = pt_spectrum_batch(V4.reshape(-1, 4, 4))
    if not physical.all():
        raise PhysicalityError(UNPHYSICAL)
    if np.isnan(nu_pt).any():
        raise NumericalError(UNRESOLVED)
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

