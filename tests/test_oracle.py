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
import sympy

from cfomech import dynamics, entanglement
from cfomech.experiments import evaluate_steady_batch, preset_config, resolve_point, run_preset
from cfomech.params import EffectiveModel

ORACLE_DPS = 50

#: Relative nu_minus error allowed against the oracle at the pinned points;
#: the largest measured is 1.8e-8, at the 5b peak (5.6e-12 in the marginal
#: band).
ORACLE_NU_RTOL = 1e-7

#: The same at G1 = G2, where the Lyapunov operator has cond ~ 1e16; the
#: measured error is 2.5e-5.
ORACLE_NU_RTOL_EQUAL_COUPLINGS = 1e-4

#: Relative error allowed in pt_spectrum_batch's nu against the oracle on
#: the fig2d and fig3b samples: a margin's rounding (at most about 22
#: eps*||V4||_F) over COMPENSATED_MARGIN bounds the product form's error in
#: nu by 1.1e-8.  The largest measured is 3.2e-10 (3.9e-9 for the eigvals
#: route of symplectic_eigenvalues).
ORACLE_PT_RTOL = 2e-8

#: Relative Frobenius error allowed in the M and Q of transition_and_noise
#: and of the squared interval maps against Van Loan's block exponential; the
#: largest measured is 3.2e-16 for one exponential, in Q at an eighth of a fig3
#: grid step, and 2.0e-15 for the interval maps, in M over 8 grid steps
#: (2 to 6 doublings).
VAN_LOAN_RTOL = 1e-14

_N = 6
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


def oracle_nu_minus(model: EffectiveModel) -> mpmath.mpf:
    """nu_minus of the stationary state, at ORACLE_DPS digits: the kron-form
    Lyapunov system (A X + X A^T = -D on the column-major vec(X)) solved by
    mpmath.lu_solve, then oracle_nu_pt of the mechanical block."""
    A_float, D = dynamics.state_space(model)
    with mpmath.workdps(ORACLE_DPS):
        A = [[mpmath.mpf(float(x)) for x in row] for row in A_float]
        op = mpmath.zeros(_N * _N, _N * _N)
        rhs = mpmath.matrix(_N * _N, 1)
        for i in range(_N):
            for j in range(_N):
                r = j * _N + i  # vec(X)[j*n + i] = X[i, j]
                rhs[r] = -mpmath.mpf(float(D[i, j]))
                for k in range(_N):
                    op[r, j * _N + k] += A[i][k]
                    op[r, k * _N + i] += A[j][k]
        x = mpmath.lu_solve(op, rhs)
        return oracle_nu_pt([[(x[j * _N + i] + x[i * _N + j]) / 2 for j in range(4)]
                             for i in range(4)])


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
    A = dynamics.state_space(model)[0]
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
                               {"theta": -0.3141592653589793, "rB": 0.9075})[0],
                 id="fig2a_min_nu"),
    # ideal feedback, kappa_tilde = 0
    pytest.param(resolve_point(preset_config("fig2c"), {"ratio": 0.99, "rB": 1.0})[0],
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


def collective_mode_nu_minus(model: EffectiveModel) -> sympy.Expr:
    """Exact nu_minus of the stationary state at G1 = G2, gamma1 = gamma2 and
    delta_tilde = 0.

    In s = q1 + q2 and d = q1 - q2 the q block of the drift is the chain
    s -> Y -> d: s is damped by gamma/2 alone, Y is driven by -G s and d by
    -2G Y.  The p block is the same chain in u = p1 - p2 -> X -> v = p1 + p2,
    with the same diffusion, so both share one stationary covariance K; the
    drift is lower triangular, so A K + K A^T + D = 0 is solved entry by entry
    by back-substitution.  After the second momentum flips, p1 and -p2 are
    built from (u, v) as q1 and q2 are from (s, d), so V_pt is V_q twice and
    nu_minus is the smaller eigenvalue of V_q: half that of K's (s, d) block.
    """
    G, kt, gamma = (sympy.Rational(x) for x in (model.G1, model.kappa_tilde, model.gamma1))
    N1, N2 = (gamma * (sympy.Rational(n) + sympy.Rational(1, 2)) for n in (model.nbar1, model.nbar2))
    A = sympy.Matrix([[-gamma / 2, 0, 0], [-G, -kt, 0], [0, -2 * G, -gamma / 2]])
    D = sympy.Matrix([[N1 + N2, 0, N1 - N2], [0, kt, 0], [N1 - N2, 0, N1 + N2]])
    K = sympy.zeros(3, 3)
    for i in range(3):
        for j in range(i + 1):
            known = (sum(A[i, k] * K[k, j] for k in range(i))
                     + sum(K[i, k] * A[j, k] for k in range(j)) + D[i, j])
            K[i, j] = K[j, i] = -known / (A[i, i] + A[j, j])
    return (K[0, 0] + K[2, 2] - sympy.sqrt((K[0, 0] - K[2, 2]) ** 2 + 4 * K[0, 2] ** 2)) / 4


def test_equal_couplings_match_the_collective_mode_chain():
    # criterion 5c's point, where the Lyapunov operator has cond ~ 1e16
    model = fig2_model(1.0, 0.95)
    assert (model.G1, model.gamma1, model.delta_tilde) == (model.G2, model.gamma2, 0.0)
    # the drift in (s, Y, d, u, X, v) is the two chains, exactly
    to_chain = np.array([[1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1], [1, 0, -1, 0, 0, 0],
                         [0, 1, 0, -1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 1, 0, 1, 0, 0]], float)
    g, G, kt = model.gamma1 / 2, model.G1, model.kappa_tilde
    chain = np.array([[-g, 0, 0], [-G, -kt, 0], [0, -2 * G, -g]])
    A = dynamics.state_space(model)[0]
    assert np.array_equal(to_chain @ A @ np.linalg.inv(to_chain),
                          np.kron(np.eye(2), chain))
    with mpmath.workdps(ORACLE_DPS):
        nu = mpmath.mpf(str(collective_mode_nu_minus(model).evalf(ORACLE_DPS)))
        # the 50-digit solve keeps about 34 digits at cond 1e16 (measured: 5.4e-40)
        assert abs(nu - oracle_nu_minus(model)) < nu * mpmath.mpf(10) ** -30
    got = evaluate_steady_batch([model]).nu_minus[0, 0]
    assert float(abs(got - nu) / nu) <= ORACLE_NU_RTOL_EQUAL_COUPLINGS


def test_equal_couplings_with_weak_damping_read_unresolved():
    # the Lyapunov operator has cond ~ 2e17, so the solved V is singular to
    # rounding and its row reads unresolved, though the 50-digit state is
    # physical and not entangled
    model = EffectiveModel(G1=197265.0, G2=197265.0, kappa_tilde=1003.0, delta_tilde=0.0,
                           gamma1=2.0, gamma2=2.0, nbar1=1.0, nbar2=3.0)
    assert evaluate_steady_batch([model]).error == [entanglement.UNRESOLVED]
    assert abs(oracle_nu_minus(model) - mpmath.mpf("1.2525")) < 1e-4


def scored_covariances(preset: str) -> np.ndarray:
    """Every 4x4 mechanical block that a preset run scores, in order."""
    seen = []
    original = entanglement.pt_spectrum_batch

    def recording(V4):
        seen.append(np.array(V4))
        return original(V4)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entanglement, "pt_spectrum_batch", recording)
        run_preset(preset)
    return np.concatenate(seen)


@pytest.mark.parametrize("preset", ["fig2d", "fig3b"])
def test_pt_spectrum_matches_oracle(preset):
    # the 10 samples with the smallest nu and 10 spread evenly over the run
    V4 = scored_covariances(preset)
    _, nu = entanglement.pt_spectrum_batch(V4)
    picked = sorted({*np.argsort(nu)[:10].tolist(),
                     *np.linspace(0, len(V4) - 1, 10).astype(int).tolist()})
    for k in picked:
        ref = oracle_nu_pt(V4[k].tolist())
        assert float(abs(nu[k] - ref) / ref) <= ORACLE_PT_RTOL


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
    pytest.param(resolve_point(_FIG3, {"rB": 0.99})[0], True, id="fig3a_rB_0.99"),
    # ideal feedback at G1 = G2: kappa_tilde = 0 and marginal
    pytest.param(resolve_point(_FIG3, {"rB": 1.0})[0], False, id="kappa_tilde_zero"),
    pytest.param(resolve_point(_FIG3.replace(G1=3e4), {"rB": 0.99})[0], False,
                 id="unstable"),
])


@pytest.mark.parametrize("dt", [_FIG3_STEP, _FIG3_STEP / 8], ids=["step", "step_over_8"])
@_VAN_LOAN_MODELS
def test_transition_and_noise_matches_van_loan(model, stable, dt):
    A, D = dynamics.state_space(model)
    assert dynamics.stability_eigen(A) == stable
    M, Q = dynamics.transition_and_noise(A, D, dt)
    M_ref, Q_ref = van_loan_maps(A, D, dt)
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
    A, D = dynamics.state_space_batch([model])
    M, Q = dynamics._interval_maps(A, D, dt)
    doublings = round(np.log2(dt / steps[0]))
    assert len(steps) == 1 and dt / 2.0 ** doublings == steps[0]
    assert doublings >= 2
    M_ref, Q_ref = van_loan_maps(A[0], D[0], dt)
    assert relative_frobenius_error(M[0], M_ref) <= VAN_LOAN_RTOL
    assert relative_frobenius_error(Q[0], Q_ref) <= VAN_LOAN_RTOL
