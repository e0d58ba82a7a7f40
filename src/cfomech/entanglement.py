"""Gaussian entanglement measures on quadrature covariance matrices.

Convention: quadratures carry vacuum variance 1/2, so a physical state has
every symplectic eigenvalue >= 1/2, separability after partial transposition
means nu_min >= 1/2, and the logarithmic negativity is max(0, -ln(2*nu_min)).

Every state the model makes is phase-insensitive: the quadratures (q1, p1,
q2, p2, ...) are the real parts q and the imaginary parts (-p1, p2, ...) of
the complex amplitudes (b1^dagger, b2, ...), and a covariance matrix is the
realification [[Re H, -Im H], [Im H, Re H]] of a Hermitian H (the U(n)
structure of Simon, Mukunda and Dutta 1994, PRA 49:1567).  A two-mode block
is then [[a I, C], [C^T, b I]] with C = [[Re c, -Im c], [-Im c, -Re c]],
where (a, b, c) = (H11, H22, H12), and both of its symplectic spectra have
closed forms (the two-mode squeezed thermal case of Adesso, Serafini and
Illuminati 2004, PRA 70:022318).  pt_spectrum scores the pipeline's
two-mode states with them, with no eigen-solver; their only difference of
large terms is delta = ab - |c|^2, taken from Dekker's exact products.
Where delta is within UNRESOLVED_MARGIN * eps * (ab + |c|^2) of 0 the
matrix is singular to rounding: its spectra are unresolved (UNRESOLVED),
neither a number nor a violation of the uncertainty principle.  The
physicality gate likewise counts only a violation that rounding of V's
entries cannot explain (GATE_ROUNDING).  This is the package's only
spectrum route; the tests hold it to the eigenvalues of Omega V
(tests/reference.py).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, PhysicalityError

#: Uncertainty-principle slack used by the physicality gates.
PHYSICALITY_TOL = 1e-8

#: Log-negativity values below this are numerical dust and report as 0.
NEGATIVITY_CLAMP = 1e-12

#: Relative tolerance, against max(1, max|X|), of the symmetry and
#: phase-insensitivity checks on the matrices the public functions take.
STRUCTURE_RTOL = 1e-8

#: Error text for a covariance matrix that fails the physicality gate.
UNPHYSICAL = "covariance matrix violates the uncertainty principle"

#: A two-mode spectrum is unresolved where delta = ab - |c|^2 (see
#: pt_spectrum) is within this many eps*(ab + |c|^2) of 0.  One-ulp
#: changes of the entries move delta by up to 2.6 of those, and its own
#: rounding is below 0.9 (measured on 2000 and 3000 locally rotated
#: two-mode squeezed thermal states); the G1 = G2 weak-damping steady state
#: sits at 0.99, the undamped transients that drift out of the physical set
#: at 2.1e3 or more, the benchmark workloads at 8.7e4 or more and a hot
#: product state at 1/eps.
UNRESOLVED_MARGIN = 100.0

#: The physicality gate fails only where nu_full is below 1/2 -
#: PHYSICALITY_TOL by more than this many times its relative shift under
#: one-ulp changes of V's entries, 1/margin with margin = delta / (eps*(ab +
#: |c|^2)).  Measured: one-ulp changes move nu_full by up to 2.4/margin, and
#: two-mode squeezed vacua stored as doubles fall up to 1.5/margin short of
#: 1/2; the undamped transient of `cfomech evolve --set G1=1e4 G2=1e4
#: gamma1=0 gamma2=0 Delta=1e3 tMax=10` falls 170/margin short at t = 10.
GATE_ROUNDING = 10.0

#: Error text for a covariance matrix whose spectra are unresolved: it is
#: singular to within rounding, so nu_minus cannot be told from 0.
UNRESOLVED = "partially transposed spectrum unresolved: covariance matrix singular to rounding"

#: Dekker's splitter 2^27 + 1: splits a double into two 26-bit halves.
_SPLITTER = 134217729.0

_EPS = np.finfo(float).eps


def _realification_maps(n_modes: int,
                        hermitian: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(embed, project, defect) for the realifications of complex n x n
    matrices Z in the quadrature ordering (q1, p1, q2, p2, ...), with Re Z
    acting on the q and Im Z on (-p1, p2, ...).  Z runs over the basis E_jj,
    E_jk + E_kj and i(E_jk - E_kj) (j < k) of the Hermitian matrices, so the
    coordinates are the real upper triangle of Z then the imaginary parts
    above its diagonal, or else over E_jk then i E_jk.  h @ embed is the
    flattened realification of the coordinates h.  X.reshape(-1, 4 n^2) @
    project reads the coordinates of X, each the mean of two paired entries
    (both in the upper triangle for a Hermitian Z, whose realification is
    symmetric), so they come out the same in any summation order; and
    X.reshape(-1, 4 n^2) @ defect is X minus the realification of those."""
    n = n_modes
    units = np.eye(n * n).reshape(n, n, n, n)  # units[j, k] = E_jk
    if hermitian:
        j, k = np.triu_indices(n)
        upper = j != k
        Z = np.concatenate([units[j, k] + units[k, j] * upper[:, None, None],
                            1j * (units[j, k] - units[k, j])[upper]])
    else:
        Z = np.concatenate([units, 1j * units]).reshape(-1, n, n)
    realified = np.block([[Z.real, -Z.imag], [Z.imag, Z.real]])
    # from (Re, Im) order to the quadrature order, flipping the sign of p1
    order = np.r_[0:2 * n:2, 1:2 * n:2]
    signs = np.r_[np.ones(n), -1.0, np.ones(n - 1)]
    embed = np.empty_like(realified)
    embed[:, order[:, None], order] = realified * np.outer(signs, signs)
    embed = embed.reshape(len(Z), -1)
    read = embed * np.triu(np.ones((2 * n, 2 * n))).ravel() if hermitian else embed
    project = (read / (read * embed).sum(axis=1, keepdims=True)).T
    return embed, project, np.eye(4 * n * n) - project @ embed


def _check_phase_insensitive(X: np.ndarray, maps: tuple[np.ndarray, ...], name: str) -> None:
    """Raise ValueError, naming the worst entry, unless every matrix of the
    stack X is within STRUCTURE_RTOL * max(1, max|X|) of the realification
    of its own coordinates under maps (see _realification_maps)."""
    flat = X.reshape(len(X), maps[2].shape[0])
    with np.errstate(invalid="ignore"):  # an infinite entry reads NaN here, no defect
        defect = np.abs(flat @ maps[2])
    bad = defect.max(axis=1) > STRUCTURE_RTOL * np.abs(flat).max(axis=1, initial=1.0)
    if bad.any():
        worst = defect[np.argmax(bad)]
        i, j = np.divmod(int(np.argmax(worst)), X.shape[-1])
        raise ValueError(f"{name} is not phase-insensitive within tolerance "
                         f"(entry ({i}, {j}) is off by {worst.max():.3g})")


#: The two-mode maps: coordinates (a, Re c, b, Im c) of H = [[a, c], [c*, b]].
_TWO_MODE = _realification_maps(2, hermitian=True)


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


def pt_spectrum(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physicality gate and partially transposed spectrum of an (N, 4) stack
    of the coordinates (a, Re c, Im c, b) of phase-insensitive two-mode
    covariance matrices, in closed form.

    With delta = ab - |c|^2 = sqrt(det V), the smaller symplectic eigenvalue
    after the transposition is nu_pt = 2 delta / ((a + b) + sqrt((a - b)^2 +
    4|c|^2)) and before it nu_full = 2 delta / (|a - b| + sqrt((a - b)^2 + 4
    delta)).  delta is the only difference of large terms; ab and |c|^2
    enter it as exact products and sums, so it is good to a few ulps of
    itself.  (a, b, c) are first scaled by a power of 2, which is exact, so
    nothing overflows.

    Returns a boolean array, false where nu_full is below 1/2 -
    PHYSICALITY_TOL by more than rounding of the entries can explain
    (GATE_ROUNDING), and nu_pt of each matrix.  Where delta is within
    UNRESOLVED_MARGIN * eps * (ab + |c|^2) of 0 neither spectrum is
    resolved: the gate passes and nu_pt is NaN (see UNRESOLVED).  A delta
    below that, or a + b <= 0, belongs to a matrix that is not positive
    definite, which fails the gate.
    """
    # NaN and inf below belong to a matrix that is not positive definite
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        shift = np.frexp(np.abs(coords).max(axis=1))[1]
        h = np.ldexp(coords.T, -shift)
        a, b = h[0], h[3]
        # ab, (Re c)^2 and (Im c)^2 as exact sums p + e
        p, e = _two_product(h[:3], h[[3, 1, 2]])
        c2, c2_err = _two_sum(p[1], p[2])
        delta = (p[0] - c2) + (((e[0] - e[1]) - e[2]) - c2_err)
        # delta in units of its rounding under one-ulp changes of the entries
        margin = delta / (_EPS * (p[0] + c2))
        apb, amb = a + b, np.abs(a - b)
        unresolved = (apb > 0.0) & (np.abs(margin) <= UNRESOLVED_MARGIN)
        resolved = (apb > 0.0) & (margin > UNRESOLVED_MARGIN)
        nu_pt = np.ldexp(2.0 * delta / (apb + np.sqrt(amb * amb + 4.0 * c2)), shift)
        nu_full = np.ldexp(2.0 * delta / (amb + np.sqrt(amb * amb + 4.0 * delta)), shift)
        violates = nu_full * (1.0 + GATE_ROUNDING / margin) < 0.5 - PHYSICALITY_TOL
    return unresolved | (resolved & ~violates), np.where(resolved, nu_pt, np.nan)


def two_mode_coordinates(V4: np.ndarray) -> np.ndarray:
    """(..., 4) coordinates (a, Re c, Im c, b) of (..., 4, 4) two-mode blocks,
    each the mean of its paired entries: the asymmetry and phase-sensitive
    part that propagation leaves (below 4e-11 relative) drop out; NaN where non-finite."""
    with np.errstate(invalid="ignore"):
        return np.reshape(V4, np.shape(V4)[:-2] + (16,)) @ _TWO_MODE[1][:, [0, 1, 3, 2]]


def min_symplectic_eigenvalue_pt(V4: np.ndarray):
    """Minimum symplectic eigenvalue after partial transposition, as a float
    for one 4x4 matrix or as an (N,) array for an (N, 4, 4) stack.

    The input must be symmetric and phase-insensitive (see the module
    docstring) to STRUCTURE_RTOL relative, or ValueError is raised naming
    the defect, and physical, or PhysicalityError is raised; the momentum of
    the second mode is flipped and the smaller symplectic eigenvalue of each
    transposed matrix is returned, or NumericalError raised where it is
    unresolved.  Values below 1/2 witness entanglement.
    """
    V4 = np.asarray(V4, dtype=float)
    if V4.ndim not in (2, 3) or V4.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 two-mode covariance matrix")
    scale = np.maximum(1.0, np.abs(V4).max(axis=(-2, -1)))
    if np.any(np.abs(V4 - np.swapaxes(V4, -1, -2)).max(axis=(-2, -1)) > STRUCTURE_RTOL * scale):
        raise ValueError("covariance matrix is not symmetric within tolerance")
    _check_phase_insensitive(V4.reshape(-1, 4, 4), _TWO_MODE, "covariance matrix")
    physical, nu_pt = pt_spectrum(two_mode_coordinates(V4.reshape(-1, 4, 4)))
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


def initial_covariance(nbar1, nbar2) -> np.ndarray:
    """Separable start: each resonator thermal, the cavity in vacuum; an
    (N, 6, 6) stack for (N,) arrays of occupancies."""
    if np.any(nbar1 < 0) or np.any(nbar2 < 0):
        raise ValueError("thermal occupancies must be nonnegative")
    diagonal = np.stack(np.broadcast_arrays(nbar1, nbar1, nbar2, nbar2, 0.0, 0.0), axis=-1)
    V = np.zeros(diagonal.shape + (6,))
    V[..., range(6), range(6)] = diagonal + 0.5
    return V

