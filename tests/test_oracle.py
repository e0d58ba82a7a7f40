"""50-digit references for the steady-state pipeline and the propagator.

The steady oracle solves the kron-form Lyapunov system of a model's drift
and diffusion matrices with mpmath at 50 significant digits, then takes
nu_minus from the eigenvalues of Omega V_pt.  Against it, the rounding of the
double-precision solve and spectrum shows as a relative error in nu_minus,
whose bound each test states.  About 0.2 s per point.

The propagator oracle is Van Loan's block exponential (Van Loan 1978, IEEE
TAC 23:395) taken by mpmath.expm at the same precision; it checks the
one-step maps M and Q of transition_and_noise and the interval maps that
dynamics._interval_maps assembles from them by squaring.
"""

import mpmath
import numpy as np
import pytest

from cfomech import dynamics
from cfomech.experiments import evaluate_steady_batch, preset_config, resolve_point
from cfomech.params import EffectiveModel

ORACLE_DPS = 50

#: Relative nu_minus error allowed against the oracle at the pinned points;
#: the largest measured is 1.8e-8, at the 5b peak (5.6e-12 in the marginal
#: band).
ORACLE_NU_RTOL = 1e-7

#: The same at G1 = G2, where the Lyapunov operator has cond ~ 1e16; the
#: measured error is 2.5e-5.
ORACLE_NU_RTOL_EQUAL_COUPLINGS = 1e-4

#: Relative Frobenius error allowed in the M and Q of transition_and_noise
#: and of the squared interval maps against Van Loan's block exponential; the
#: largest measured is 3.2e-16 for one exponential, in Q at an eighth of a fig3
#: grid step, and 2.0e-15 for the interval maps, in M over 8 grid steps
#: (2 to 6 doublings).
VAN_LOAN_RTOL = 1e-14

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


def marginal_model(gamma: float, **kw) -> EffectiveModel:
    # the Bogoliubov mode that decouples from the cavity at G1 < G2 is damped
    # by gamma/2 alone, so gamma sets the spectral abscissa
    fields = dict(G1=0.9e5, G2=1e5, kappa_tilde=1e5, delta_tilde=0.0,
                  gamma1=gamma, gamma2=gamma, nbar1=0.0, nbar2=0.0)
    return EffectiveModel(**{**fields, **kw})


def band_ratio(model: EffectiveModel) -> float:
    """Spectral abscissa in units of the marginal band's edge
    -STABILITY_TOL*||A||_F: a point is stable above 1."""
    A = dynamics.state_space(model).A
    abscissa, _ = dynamics.stability_batch(A[None])
    return float(abscissa[0] / (-dynamics.STABILITY_TOL * np.linalg.norm(A)))


#: Stable steady points within 10x of the marginal band's edge.
MARGINAL_MODELS = {
    "marginal_hot_detuned": marginal_model(1e-3, nbar1=100.0, nbar2=50.0, delta_tilde=2e4),
    "marginal_kappa_tilde_zero": marginal_model(2e-3, kappa_tilde=0.0),
}


def relative_nu_error(model: EffectiveModel) -> float:
    out = evaluate_steady_batch([model])
    assert out.error == [None]
    nu = oracle_nu_minus(model)
    return float(abs(mpmath.mpf(float(out.nu_minus[0, 0])) - nu) / nu)


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
    *(pytest.param(model, id=name) for name, model in MARGINAL_MODELS.items()),
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


@pytest.mark.parametrize("model", MARGINAL_MODELS.values(), ids=MARGINAL_MODELS.keys())
def test_marginal_models_sit_within_ten_times_the_band_edge(model):
    assert 1.0 < band_ratio(model) < 10.0


def test_stable_point_inside_the_band_is_reported_unstable():
    # exact abscissa -gamma/2 = -2e-4 < 0, but inside the band: the point is
    # marginal and its row carries the "unstable" error, though the 50-digit
    # stationary state exists
    model = marginal_model(4e-4)
    assert 0.0 < band_ratio(model) < 1.0
    assert evaluate_steady_batch([model]).error == ["unstable"]
    assert abs(oracle_nu_minus(model) - mpmath.mpf("0.0475450922")) < 1e-10


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


def relative_frobenius_error(X, ref) -> float:
    with mpmath.workdps(ORACLE_DPS):
        entries = [(mpmath.mpf(float(X[i, j])), ref[i, j])
                   for i in range(ref.rows) for j in range(ref.cols)]
        return float(mpmath.sqrt(sum((x - r) ** 2 for x, r in entries))
                     / mpmath.sqrt(sum(r ** 2 for _, r in entries)))


_FIG3 = preset_config("fig3a")
_FIG3_STEP = float(_FIG3.time_grid()[1])


_VAN_LOAN_MODELS = pytest.mark.parametrize("model, stable", [
    pytest.param(resolve_point(_FIG3, {"rB": 0.99}).model, True, id="fig3a_rB_0.99"),
    # ideal feedback at G1 = G2: kappa_tilde = 0 and marginal
    pytest.param(resolve_point(_FIG3, {"rB": 1.0}).model, False, id="kappa_tilde_zero"),
    pytest.param(resolve_point(_FIG3.replace(G1=3e4), {"rB": 0.99}).model, False,
                 id="unstable"),
])


@pytest.mark.parametrize("dt", [_FIG3_STEP, _FIG3_STEP / 8], ids=["step", "step_over_8"])
@_VAN_LOAN_MODELS
def test_transition_and_noise_matches_van_loan(model, stable, dt):
    ss = dynamics.state_space(model)
    assert dynamics.stability_eigen(ss.A) == stable
    M, Q = dynamics.transition_and_noise(ss.A, ss.D, dt)
    M_ref, Q_ref = van_loan_maps(ss.A, ss.D, dt)
    assert relative_frobenius_error(M, M_ref) <= VAN_LOAN_RTOL
    assert relative_frobenius_error(Q, Q_ref) <= VAN_LOAN_RTOL


@pytest.mark.parametrize("dt", [_FIG3_STEP, 8 * _FIG3_STEP], ids=["step", "8_steps"])
@_VAN_LOAN_MODELS
def test_interval_maps_match_van_loan(model, stable, dt, monkeypatch):
    # the squaring composes the elementary maps exactly, so the interval maps
    # meet the same bound as one exponential over the whole interval
    steps = []
    original = dynamics.transition_and_noise

    def recording(A, D, step):
        steps.append(float(np.asarray(step).item()))
        return original(A, D, step)

    monkeypatch.setattr(dynamics, "transition_and_noise", recording)
    ss = dynamics.state_space_batch([model])
    M, Q = dynamics._interval_maps(ss, dt)
    doublings = round(np.log2(dt / steps[0]))
    assert len(steps) == 1 and dt / 2.0 ** doublings == steps[0]
    assert doublings >= 2
    M_ref, Q_ref = van_loan_maps(ss.A[0], ss.D[0], dt)
    assert relative_frobenius_error(M[0], M_ref) <= VAN_LOAN_RTOL
    assert relative_frobenius_error(Q[0], Q_ref) <= VAN_LOAN_RTOL
