"""50-digit reference for the steady-state pipeline.

The oracle solves the kron-form Lyapunov system of a model's drift and
diffusion matrices with mpmath at 50 significant digits, then takes nu_minus
from the eigenvalues of Omega V_pt.  Against it, the rounding of the
double-precision solve and spectrum shows as a relative error in nu_minus,
whose bound each test states.  About 0.2 s per point.
"""

import mpmath
import pytest

from cfomech import dynamics
from cfomech.experiments import evaluate_steady_batch, preset_config, resolve_point
from cfomech.params import EffectiveModel

ORACLE_DPS = 50

#: Relative nu_minus error allowed against the oracle at the pinned points;
#: the largest measured is 1.8e-8, at the 5b peak.
ORACLE_NU_RTOL = 1e-7

#: The same at G1 = G2, where the Lyapunov operator has cond ~ 1e16; the
#: measured error is 2.5e-5.
ORACLE_NU_RTOL_EQUAL_COUPLINGS = 1e-4

_N = 6
_PT_SIGNS = (1, 1, 1, -1)
_TWO_MODE_FORM = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


def oracle_nu_minus(model: EffectiveModel) -> mpmath.mpf:
    """nu_minus of the stationary state, at ORACLE_DPS digits: the kron-form
    Lyapunov system (A X + X A^T = -D on the column-major vec(X)) solved by
    mpmath.lu_solve, then the smallest |Im| of the eigenvalues of
    Omega V_pt, V_pt the mechanical block with the second momentum flipped."""
    ss = dynamics.state_space(model)
    with mpmath.workdps(ORACLE_DPS):
        A = [[mpmath.mpf(float(x)) for x in row] for row in ss.A]
        op = mpmath.zeros(_N * _N, _N * _N)
        rhs = mpmath.matrix(_N * _N, 1)
        for i in range(_N):
            for j in range(_N):
                r = j * _N + i  # vec(X)[j*n + i] = X[i, j]
                rhs[r] = -mpmath.mpf(float(ss.D[i, j]))
                for k in range(_N):
                    op[r, j * _N + k] += A[i][k]
                    op[r, k * _N + i] += A[j][k]
        x = mpmath.lu_solve(op, rhs)
        V_pt = mpmath.matrix([[(x[j * _N + i] + x[i * _N + j]) / 2 * _PT_SIGNS[i] * _PT_SIGNS[j]
                               for j in range(4)] for i in range(4)])
        vals = mpmath.eig(mpmath.matrix(_TWO_MODE_FORM) * V_pt, left=False, right=False)
        return min(abs(mpmath.im(v)) for v in vals)


def fig2_model(ratio: float, rB: float) -> EffectiveModel:
    # the fig2c operating point of the acceptance criteria
    return EffectiveModel(G1=ratio * 1e5, G2=1e5, kappa_tilde=1e5 * (1.0 - rB),
                          delta_tilde=0.0, gamma1=10.0, gamma2=10.0, nbar1=0.0, nbar2=0.0)


def relative_nu_error(model: EffectiveModel) -> float:
    out = evaluate_steady_batch([model])[0]
    assert out.error is None
    nu = oracle_nu_minus(model)
    return float(abs(mpmath.mpf(out.nu_minus) - nu) / nu)


def test_oracle_gives_the_thermal_value_without_coupling():
    # decoupled modes stay thermal: nu_minus = min(nbar_j) + 1/2 exactly
    model = EffectiveModel(G1=0.0, G2=0.0, kappa_tilde=1e3, delta_tilde=50.0,
                           gamma1=10.0, gamma2=4.0, nbar1=2.0, nbar2=0.25)
    assert abs(oracle_nu_minus(model) - mpmath.mpf("0.75")) < mpmath.mpf(10) ** -40


@pytest.mark.parametrize("model", [
    # fig2a's smallest nu_minus (~5.3e-3)
    pytest.param(resolve_point(preset_config("fig2a"),
                               {"theta": -0.3141592653589793, "rB": 0.9075}).model,
                 id="fig2a_min_nu"),
    # ideal feedback, kappa_tilde = 0
    pytest.param(resolve_point(preset_config("fig2c"), {"ratio": 0.99, "rB": 1.0}).model,
                 id="kappa_tilde_zero"),
    # the peak of the rB = 0.95 curve that criterion 5b looks for
    pytest.param(fig2_model(0.9989, 0.95), id="5b_peak"),
])
def test_steady_nu_matches_oracle(model):
    assert relative_nu_error(model) <= ORACLE_NU_RTOL


def test_equal_couplings_match_oracle_within_their_bound():
    # criterion 5c's point: the model itself carries E_N ~ 0.6911507 here
    model = fig2_model(1.0, 0.95)
    assert model.G1 == model.G2
    assert relative_nu_error(model) <= ORACLE_NU_RTOL_EQUAL_COUPLINGS
    with mpmath.workdps(ORACLE_DPS):
        en = -mpmath.log(2 * oracle_nu_minus(model))
    assert abs(en - mpmath.mpf("0.6911507")) < 1e-7
