"""The effective quantities entering the linearized dynamics, derived from
the raw parameters of a run configuration.

All rates and frequencies are rates in s^-1.  Values quoted in the source
literature as "Hz" are used literally, with no 2*pi conversion; the dynamics
depend only on ratios of these quantities, and the kernels read them at unit
size (cfomech.dynamics), so this choice fixes the time axis and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError

#: Reduced Planck constant and Boltzmann constant in SI units, exact by the
#: 2019 SI definitions (the values scipy.constants gives, bit for bit).
hbar = 6.62607015e-34 / (2 * math.pi)
k_B = 1.380649e-23

#: Verdict threshold for the rotating-wave validity ratio (order-of-magnitude
#: reading of "much smaller than"); configurable at call sites.
RWA_THRESHOLD = 0.1


@dataclass(frozen=True)
class EffectiveModel:
    """The closed set of quantities entering the quadrature dynamics, of one
    model (floats) or of a chunk of N models (every field an (N,) array, a
    struct of arrays).

    Couplings are stored as nonnegative reals; coupling phases are absorbable
    by quadrature rotations and are dropped at construction.
    """

    G1: float | np.ndarray
    G2: float | np.ndarray
    kappa_tilde: float | np.ndarray
    delta_tilde: float | np.ndarray
    gamma1: float | np.ndarray
    gamma2: float | np.ndarray
    nbar1: float | np.ndarray
    nbar2: float | np.ndarray

    def __post_init__(self):
        G1, G2, kt, _, g1, g2, n1, n2 = (self.columns() < 0).any(axis=1).tolist()
        if G1 or G2:
            raise ValueError("couplings must be nonnegative reals")
        if kt:
            raise ValueError("effective cavity decay must be nonnegative")
        if g1 or g2:
            raise ValueError("mechanical dampings must be nonnegative")
        if n1 or n2:
            raise ValueError("thermal occupancies must be nonnegative")

    def columns(self) -> np.ndarray:
        """(8, N) array of the fields in order, N = 1 for a model of floats."""
        return np.array([self.G1, self.G2, self.kappa_tilde, self.delta_tilde,
                         self.gamma1, self.gamma2, self.nbar1, self.nbar2],
                        dtype=float).reshape(8, -1)


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Mean thermal phonon number 1/(exp(hbar*omega/kB*T) - 1).

    Exactly 0 at zero temperature, and inf where hbar*omega/kB*T underflows
    to 0; stable for both small and large hbar*omega/kB*T.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    if temperature == 0.0:
        return 0.0
    x = hbar * omega / (k_B * temperature)
    if x == 0.0:
        return math.inf
    if x < 1.0:
        return 1.0 / math.expm1(x)
    return math.exp(-x) / (-math.expm1(-x))


def drive_amplitude(P: float, kappa1: float, omegaL: float) -> float:
    """Cavity drive amplitude sqrt(2 * P * kappa1 / (hbar * omegaL))."""
    if P < 0:
        raise ValueError("pump power must be nonnegative")
    if kappa1 <= 0:
        raise ValueError("kappa1 must be positive")
    if omegaL <= 0:
        raise ValueError("laser frequency must be positive")
    return math.sqrt(2.0 * P * kappa1 / (hbar * omegaL))


def effective_couplings(
    g1: float,
    g2: float,
    E1: float,
    E2: float,
    omega1: float,
    omega2: float,
    Delta: float,
    kappa1: float,
    kappa2: float,
) -> tuple[complex, complex]:
    """Drive-enhanced couplings of the two resonators to the cavity.

    G1 = g1*E1 / (omega1 - Delta + i*(kappa1+kappa2))
    G2 = g2*E2 / (-omega2 - Delta + i*(kappa1+kappa2))
    """
    den1 = complex(omega1 - Delta, kappa1 + kappa2)
    den2 = complex(-omega2 - Delta, kappa1 + kappa2)
    if den1 == 0 or den2 == 0:
        raise SingularityError("coupling denominator vanishes")
    return g1 * E1 / den1, g2 * E2 / den2


def effective_cavity_params(kappa1, kappa2, rB, theta, Delta):
    """Feedback-modified cavity decay and detuning for a loop of net
    reflection coefficient rB (all loop losses, rB = 1 the ideal lossless
    loop) and loop phase theta.

    kappa_tilde = kappa1 + kappa2 - 2*sqrt(kappa1*kappa2)*rB*cos(theta)
    delta_tilde = Delta - 2*sqrt(kappa1*kappa2)*rB*sin(theta)

    kappa_tilde >= 0 for rB <= 1 by Cauchy-Schwarz; rounding dust below zero is
    clamped.  Each argument is a float or an (N,) array, and so is each
    result, elementwise: + - * / and sqrt are correctly rounded in numpy as in
    math, and cos and sin are math's (per_value), so a point gives the same
    bits alone or in a column.  Any invalid point raises.
    """
    if not _all((0.0 <= rB) & (rB <= 1.0)):
        raise ValueError("rB must lie in [0, 1]")
    if _any((kappa1 < 0) | (kappa2 < 0)):
        raise ValueError("cavity decays must be nonnegative")
    # rates beyond double precision give inf or nan, as with Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        # sqrt(kappa1*kappa2) at unit size: no unit of time over- or underflows it
        e = np.frexp(np.maximum(kappa1, kappa2))[1]
        root = np.ldexp(np.sqrt(np.ldexp(kappa1, -e) * np.ldexp(kappa2, -e)), e)
        cos, sin = per_value(lambda t: (math.cos(t), math.sin(t)), theta)
        cross = 2.0 * (root * rB)
        kappa_tilde = kappa1 + kappa2 - cross * cos
        delta_tilde = Delta - cross * sin
        if _any(kappa_tilde < 0.0):
            if _any(kappa_tilde < -8 * np.spacing(kappa1 + kappa2)):
                raise ValueError("negative effective cavity decay")
            kappa_tilde = np.where(kappa_tilde < 0.0, 0.0, kappa_tilde)[()]  # floats stay floats
    return kappa_tilde, delta_tilde


def _any(mask) -> bool:
    """Whether any entry holds, for a comparison of floats or of arrays:
    np.any without its overhead at one point."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _all(mask) -> bool:
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


def per_value(fn, *args):
    """fn(*values) at each point of args, floats or (N,) arrays: fn's result
    for floats, else an (N,) array per result of fn.  fn, a function of
    floats, is called once per distinct tuple of values, told apart by their
    bits (so 0.0 and -0.0 stay apart).  This keeps math's functions and
    Python's complex arithmetic on columns, whose bits numpy's vector kernels
    need not match."""
    if not any(isinstance(x, np.ndarray) for x in args):
        return fn(*args)
    columns = np.stack(np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in args)),
                       axis=-1)
    keys = columns.view(np.int64)  # one column sorts as numbers, far faster than rows
    _, first, inverse = np.unique(keys[:, 0] if len(args) == 1 else keys, axis=0,
                                  return_index=True, return_inverse=True)
    out = np.array([fn(*x) for x in columns[first].tolist()])[inverse.reshape(-1)]
    return tuple(out.T) if out.ndim == 2 else out


def rwa_validity(
    G1: complex, G2: complex, kappa1: float, kappa2: float, omega1: float, omega2: float,
    threshold: float = RWA_THRESHOLD,
) -> str:
    """Verdict of the rotating-wave check: couplings and cavity decays must be
    small against the mechanical frequencies and their difference.

    The ratio max(|G1|, |G2|, kappa1, kappa2) / min(omega1, omega2, |omega1 -
    omega2|) reads "valid" below threshold, "marginal" below 1 and "invalid"
    from 1 on.  The check never blocks a simulation, its verdict travels with
    the outputs as metadata.
    """
    numer = max(abs(G1), abs(G2), kappa1, kappa2)
    denom = min(omega1, omega2, abs(omega1 - omega2))
    ratio = math.inf if denom == 0 else numer / denom
    if ratio < threshold:
        return "valid"
    return "marginal" if ratio < 1.0 else "invalid"
