"""The effective quantities entering the linearized dynamics, derived from
the raw parameters of a run configuration.

All rates and frequencies are rates in s^-1.  Values quoted in the source
literature as "Hz" are used literally, with no 2*pi conversion; the dynamics
depend only on ratios of these quantities, so this choice fixes the time axis
and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.constants import hbar, k as k_B

from .errors import SingularityError

#: Verdict threshold for the rotating-wave validity ratio (order-of-magnitude
#: reading of "much smaller than"); configurable at call sites.
RWA_THRESHOLD = 0.1


@dataclass(frozen=True)
class EffectiveModel:
    """The closed set of quantities entering the quadrature dynamics.

    Couplings are stored as nonnegative reals; coupling phases are absorbable
    by quadrature rotations and are dropped at construction.
    """

    G1: float
    G2: float
    kappa_tilde: float
    delta_tilde: float
    gamma1: float
    gamma2: float
    nbar1: float
    nbar2: float

    def __post_init__(self):
        if self.G1 < 0 or self.G2 < 0:
            raise ValueError("couplings must be nonnegative reals")
        if self.kappa_tilde < 0:
            raise ValueError("effective cavity decay must be nonnegative")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("mechanical dampings must be nonnegative")
        if self.nbar1 < 0 or self.nbar2 < 0:
            raise ValueError("thermal occupancies must be nonnegative")


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Mean thermal phonon number 1/(exp(hbar*omega/kB*T) - 1).

    Exactly 0 at zero temperature; stable for both small and large
    hbar*omega/kB*T.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    if temperature == 0.0:
        return 0.0
    x = hbar * omega / (k_B * temperature)
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


def effective_cavity_params(
    kappa1: float, kappa2: float, rB: float, theta: float, Delta: float
) -> tuple[float, float]:
    """Feedback-modified cavity decay and detuning for a loop of net
    reflection coefficient rB (all loop losses, rB = 1 the ideal lossless
    loop) and loop phase theta.

    kappa_tilde = kappa1 + kappa2 - 2*sqrt(kappa1*kappa2)*rB*cos(theta)
    delta_tilde = Delta - 2*sqrt(kappa1*kappa2)*rB*sin(theta)

    kappa_tilde >= 0 for rB <= 1 by Cauchy-Schwarz; rounding dust below zero is
    clamped.
    """
    if not 0.0 <= rB <= 1.0:
        raise ValueError("rB must lie in [0, 1]")
    if kappa1 < 0 or kappa2 < 0:
        raise ValueError("cavity decays must be nonnegative")
    cross = 2.0 * math.sqrt(kappa1 * kappa2) * rB
    kappa_tilde = kappa1 + kappa2 - cross * math.cos(theta)
    delta_tilde = Delta - cross * math.sin(theta)
    if kappa_tilde < 0.0:
        if kappa_tilde < -8 * math.ulp(kappa1 + kappa2):
            raise ValueError("negative effective cavity decay")
        kappa_tilde = 0.0
    return kappa_tilde, delta_tilde


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


def effective_model(
    G1: complex, G2: complex, kappa1: float, kappa2: float, rB: float, theta: float,
    Delta: float, gamma1: float, gamma2: float, nbar1: float, nbar2: float,
) -> EffectiveModel:
    """The model of couplings G1, G2, given directly or derived from the
    drive block, whose phases are dropped, with the cavity parameters
    reshaped by the feedback loop."""
    kappa_tilde, delta_tilde = effective_cavity_params(kappa1, kappa2, rB, theta, Delta)
    return EffectiveModel(
        G1=abs(G1), G2=abs(G2),
        kappa_tilde=kappa_tilde, delta_tilde=delta_tilde,
        gamma1=gamma1, gamma2=gamma2, nbar1=nbar1, nbar2=nbar2,
    )
