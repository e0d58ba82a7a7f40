"""50-digit references for the steady-state pipeline and the propagator.

The steady oracle solves the kron-form Lyapunov system of a model's drift
and diffusion matrices with mpmath at 50 significant digits, then takes
nu_minus from the eigenvalues of Omega V_pt.  Against it, the rounding of the
double-precision solve and spectrum shows as a relative error in nu_minus,
whose bound each test states.  About 0.2 s per point.

The Hermitian oracle solves the same equation at the same precision on the
9 real coordinates of the 3x3 Hermitian matrix whose realification is V
(every model here is phase-insensitive), about 6 ms per point.  It is held
to the kron-form oracle on the pinned points, then checks the library on a
pre-registered draw of about 300 stable models (test_sweep_...), and on
the same draw at delta_tilde = 0, which the library solves on 6 of the 9
coordinates (test_locked_sweep_...).

The propagator oracle is Van Loan's block exponential (Van Loan 1978, IEEE
TAC 23:395) taken by mpmath.expm at the same precision
(reference.van_loan_maps); it checks the maps M and Q of
transition_and_noise, which squares its elementary step's maps up to the
interval, and the fig3 samples that dynamics.propagate_batch fills by
doubling, each against the exact map from t = 0 to its own t.
"""

import dataclasses

import mpmath
import numpy as np
import pytest
import sympy

from cfomech import dynamics, entanglement
from cfomech.experiments import (evaluate_evolve_batch, evaluate_steady_batch, preset_config,
                                 resolve_point, run_preset)
from cfomech.params import EffectiveModel
from reference import (MARGINAL_MODELS, ORACLE_DPS, marginal_model, routh_against_eigen,
                       oracle_nu_pt, propagate_stepwise, stack_models, state_space_batch,
                       van_loan_maps)

#: Relative nu_minus error allowed against the oracle at the pinned points;
#: the largest measured is 2.9e-9, at the 5b peak (2.3e-12 in the marginal
#: band).
ORACLE_NU_RTOL = 1e-7

#: The same at G1 = G2, where the Lyapunov operator has cond ~ 1e16; the
#: measured error is 4.1e-6.
ORACLE_NU_RTOL_EQUAL_COUPLINGS = 1e-4

#: Relative error allowed in pt_spectrum's nu against the oracle on the
#: fig2d and fig3b samples.  delta = ab - |c|^2 is exact for the (a, b, c)
#: read, so what is left is that a propagated sample is scored by the
#: means of its paired entries: the largest measured is 4.0e-10, on fig3b
#: (2.3e-16 on fig2d; 3.9e-9 for the eigvals route of symplectic_eigenvalues).
ORACLE_PT_RTOL = 2e-8

#: Relative Frobenius error allowed in the M and Q of transition_and_noise
#: against Van Loan's block exponential; the largest measured is 3.7e-16 over
#: one fig3 grid step, in Q at kappa_tilde = 0, and 2.0e-15 over 8 grid steps,
#: in M at rB = 0.99 (2 to 6 doublings).
VAN_LOAN_RTOL = 1e-14

#: Relative nu_minus error allowed in the fig3 samples of
#: test_propagation_matches_van_loan against the 50-digit propagation; the
#: largest measured is 1.7e-9, at rB = 1 and t = 2e-3 on fig3b (8.6e-9 for
#: the sequential steps of reference.propagate_stepwise).
PROPAGATION_NU_RTOL = 1e-8

_N = 6


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


#: The quadratures (q1, p1, q2, p2, X, Y) are the real parts x = (q1, q2, X)
#: and the imaginary parts y = (-p1, p2, Y) of the complex amplitudes
#: (b1^dagger, b2, a); _Q and _P index x and the p of y, _Y_SIGNS carries
#: the sign of y.
_Q, _P, _Y_SIGNS = (0, 2, 4), (1, 3, 5), (-1, 1, 1)

#: Upper triangle of a 3x3 matrix: the diagonal, then (0, 1), (0, 2), (1, 2).
_UPPER = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def complex_form(X) -> mpmath.matrix:
    """The complex 3x3 matrix whose realification [[Re, -Im], [Im, Re]] on
    (x, y) is the 6x6 X, read at ORACLE_DPS digits from X's x-x and y-x
    blocks."""
    return mpmath.matrix([[mpmath.mpf(float(X[_Q[i], _Q[j]]))
                           + 1j * _Y_SIGNS[i] * mpmath.mpf(float(X[_P[i], _Q[j]]))
                           for j in range(3)] for i in range(3)])


def hermitian_coordinates(H) -> list:
    """The 9 real coordinates of a 3x3 Hermitian matrix: its real upper
    triangle, then the imaginary parts of its 3 entries above the diagonal."""
    return ([mpmath.re(H[i, j]) for i, j in _UPPER]
            + [mpmath.im(H[i, j]) for i, j in _UPPER[3:]])


def hermitian_basis() -> list:
    """The Hermitian matrices whose coefficients are hermitian_coordinates."""
    basis = []
    for k, (i, j) in enumerate(_UPPER + _UPPER[3:]):
        E = mpmath.zeros(3, 3)
        value = 1j if k >= len(_UPPER) else 1
        E[i, j] += value
        E[j, i] += mpmath.conj(value) if i != j else 0
        basis.append(E)
    return basis


def hermitian_oracle_nu_minus(model: EffectiveModel) -> mpmath.mpf:
    """nu_minus of the stationary state, at ORACLE_DPS digits, on the 9 real
    coordinates of the Hermitian H whose realification is V: the model's
    double-precision A and D are the realifications of a complex drift M and
    diffusion D_c, so M H + H M^dagger = -D_c is 9 real equations, solved by
    mpmath.lu_solve.  With a = H[0, 0], b = H[1, 1] and c = H[0, 1] the
    mechanical block has the closed-form nu_minus ((a + b) - sqrt((a - b)^2
    + 4 |c|^2)) / 2 (Adesso, Serafini and Illuminati 2004, PRA 70:022318)."""
    A, D = dynamics.state_space(model)
    with mpmath.workdps(ORACLE_DPS):
        M, D_c = complex_form(A), complex_form(D)
        basis = hermitian_basis()
        op = mpmath.matrix([hermitian_coordinates(M * E + E * M.H) for E in basis]).T
        h = mpmath.lu_solve(op, -mpmath.matrix(hermitian_coordinates(D_c)))
        H = sum((h[q] * E for q, E in enumerate(basis)), mpmath.zeros(3, 3))
        a, b, c = mpmath.re(H[0, 0]), mpmath.re(H[1, 1]), H[0, 1]
        return ((a + b) - mpmath.sqrt((a - b) ** 2 + 4 * abs(c) ** 2)) / 2


def fig2_model(ratio: float, rB: float) -> EffectiveModel:
    # the fig2c operating point of the acceptance criteria
    return EffectiveModel(G1=ratio * 1e5, G2=1e5, kappa_tilde=1e5 * (1.0 - rB),
                          delta_tilde=0.0, gamma1=10.0, gamma2=10.0, nbar1=0.0, nbar2=0.0)


def band_ratio(model: EffectiveModel) -> float:
    """Spectral abscissa in units of the marginal band's edge
    -STABILITY_TOL*||A||_F: a point is stable above 1."""
    A = dynamics.state_space(model)[0]
    abscissa = dynamics.spectral_abscissa(A[None])[0]
    return float(abscissa[0] / (-dynamics.STABILITY_TOL * np.linalg.norm(A)))


def relative_nu_error(model: EffectiveModel) -> float:
    out = evaluate_steady_batch(model)
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
    got = evaluate_steady_batch(model).nu_minus[0, 0]
    assert float(abs(got - nu) / nu) <= ORACLE_NU_RTOL_EQUAL_COUPLINGS


def test_equal_couplings_with_weak_damping_read_unresolved():
    # the Lyapunov operator has cond ~ 2e17, so the solved V is singular to
    # rounding and its row reads unresolved, though the 50-digit state is
    # physical and not entangled
    model = EffectiveModel(G1=197265.0, G2=197265.0, kappa_tilde=1003.0, delta_tilde=0.0,
                           gamma1=2.0, gamma2=2.0, nbar1=1.0, nbar2=3.0)
    assert evaluate_steady_batch(model).error == [entanglement.UNRESOLVED]
    assert abs(oracle_nu_minus(model) - mpmath.mpf("1.2525")) < 1e-4


def scored_covariances(preset: str) -> np.ndarray:
    """Every 4x4 mechanical block that a preset run scores, in order: the
    propagated blocks as two_mode_coordinates reads them, and a steady
    point's as the realification of the coordinates entanglement.pt_spectrum
    takes from the solve."""
    scored, read = [], []
    core, reader = entanglement.pt_spectrum, entanglement.two_mode_coordinates

    def scoring(coords):
        scored.append(np.array(coords))
        return core(coords)

    def reading(V):  # 4x4 blocks, or covariances whose mechanical blocks are read
        read.append(np.array(V)[..., :4, :4].reshape(-1, 4, 4))
        return reader(V)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entanglement, "pt_spectrum", scoring)
        patch.setattr(entanglement, "two_mode_coordinates", reading)
        run_preset(preset)
    coords = np.concatenate(scored)
    if read:  # every propagated model of the preset is scored
        blocks = np.concatenate(read)
        assert len(blocks) == len(coords)
        return blocks
    # (a, Re c, Im c, b) to the two-mode maps' (a, Re c, b, Im c)
    return (coords[:, [0, 1, 3, 2]] @ entanglement._TWO_MODE[0]).reshape(-1, 4, 4)


@pytest.mark.parametrize("preset", ["fig2d", "fig3b"])
def test_pt_spectrum_matches_oracle(preset):
    # the 10 samples with the smallest nu and 10 spread evenly over the run
    V4 = scored_covariances(preset)
    _, nu = entanglement.pt_spectrum(entanglement.two_mode_coordinates(V4))
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
    assert evaluate_steady_batch(model).error == ["unstable"]
    assert abs(oracle_nu_minus(model) - mpmath.mpf("0.0475450922")) < 1e-10


def test_certificate_agrees_on_the_sweep_and_marginal_models():
    # the inside-band model, last, is marginal: the certificate leaves it
    models = [m for _, m in sweep_models()] + [*MARGINAL_MODELS.values(), marginal_model(4e-4)]
    certified, refuted, stable = routh_against_eigen(
        dynamics.state_space_coordinates(stack_models(models))[0])
    assert certified.sum() > 200 and refuted.sum() > 0 and not stable[-1]
    assert not certified[-1] and not refuted[-1]


@pytest.mark.parametrize("fields", [{}, {"kappa_tilde": 0.0}], ids=["kappa_tilde", "zero_kappa"])
def test_certificate_never_calls_a_marginal_model_stable(fields):
    # a gamma scan from inside the marginal band (at kappa_tilde = 1e5 its
    # edge is near gamma = 6e-4) to beyond the certificate's own margin
    gammas = np.geomspace(1e-5, 10.0, 4000)
    models = stack_models([marginal_model(g, **fields) for g in gammas])
    A = state_space_batch(models)[0]
    certified, refuted, stable = routh_against_eigen(dynamics.state_space_coordinates(models)[0])
    marginal = ~stable & (dynamics.spectral_abscissa(A)[0] < 0.0)
    assert marginal.sum() > 1000 and certified.sum() > 500
    # every abscissa of the scan is negative: the mirror settles none
    assert not (certified & marginal).any() and not refuted.any()


#: Relative distance allowed between the two 50-digit steady oracles, on the
#: 36 unknowns of the kron form and on the 9 Hermitian coordinates, at the
#: pinned points; the largest measured is 1.2e-36, at the G1 = G2
#: weak-damping point (Lyapunov operator cond ~ 1e17).
HERMITIAN_ORACLE_RTOL = 1e-30

#: The points the tests above pin, and the decoupled thermal one.
PINNED_MODELS = {
    "thermal": EffectiveModel(G1=0.0, G2=0.0, kappa_tilde=1e3, delta_tilde=50.0,
                              gamma1=10.0, gamma2=4.0, nbar1=2.0, nbar2=0.25),
    "fig2a_min_nu": resolve_point(preset_config("fig2a"),
                                  {"theta": -0.3141592653589793, "rB": 0.9075})[0],
    "kappa_tilde_zero": resolve_point(preset_config("fig2c"), {"ratio": 0.99, "rB": 1.0})[0],
    "5b_peak": fig2_model(0.9989, 0.95),
    "5c_equal_couplings": fig2_model(1.0, 0.95),
    "equal_couplings_weak_damping": EffectiveModel(
        G1=197265.0, G2=197265.0, kappa_tilde=1003.0, delta_tilde=0.0,
        gamma1=2.0, gamma2=2.0, nbar1=1.0, nbar2=3.0),
    **MARGINAL_MODELS,
    "inside_the_band": marginal_model(4e-4),
}


@pytest.mark.parametrize("model", PINNED_MODELS.values(), ids=PINNED_MODELS.keys())
def test_hermitian_oracle_matches_the_kron_oracle(model):
    with mpmath.workdps(ORACLE_DPS):
        ref = oracle_nu_minus(model)
        assert abs(hermitian_oracle_nu_minus(model) - ref) <= HERMITIAN_ORACLE_RTOL * ref


#: The pre-registered oracle sweep: SWEEP_PER_FAMILY draws of each family
#: from default_rng(SWEEP_SEED), fixed before any result was looked at and
#: never re-drawn.  A draw is dropped only where the library's stability
#: verdict is false.
SWEEP_SEED = 13
SWEEP_PER_FAMILY = 50
SWEEP_FAMILIES = ("near_equal_couplings", "kappa_tilde_zero", "hot_baths",
                  "unequal_dampings", "large_detunings", "marginal_band")


def sweep_models() -> list[tuple[str, EffectiveModel]]:
    """(family, model) of every draw of the oracle sweep, in draw order.

    Each draw starts from the family of sample_stable_models in
    test_acceptance (G2 in 1e4..2e5, G1/G2 in 0..0.95, kappa_tilde in
    1e3..2e5, |delta_tilde| <= 1e5, gamma in 1..1e3, warm baths) and changes
    what its family names: 1 - G1/G2 in 1e-6..1e-1, kappa_tilde = 0, nbar
    in 1..1e20, a second gamma of its own, |delta_tilde| in 1e5..1e7, or
    gamma in 1e-4..3e-2 (a spectral abscissa from inside the marginal band
    to about 100 times its edge)."""
    rng = np.random.default_rng(SWEEP_SEED)
    drawn = []
    for family in SWEEP_FAMILIES:
        for _ in range(SWEEP_PER_FAMILY):
            G2 = 10 ** rng.uniform(4.0, 5.3)
            fields = dict(G1=rng.uniform(0.0, 0.95) * G2, G2=G2,
                          kappa_tilde=10 ** rng.uniform(3.0, 5.3),
                          delta_tilde=rng.uniform(-1e5, 1e5),
                          nbar1=rng.uniform(0.0, 50.0), nbar2=rng.uniform(0.0, 50.0))
            fields["gamma1"] = fields["gamma2"] = 10 ** rng.uniform(0.0, 3.0)
            if family == "near_equal_couplings":
                fields["G1"] = (1.0 - 10 ** rng.uniform(-6.0, -1.0)) * G2
            elif family == "kappa_tilde_zero":
                fields["kappa_tilde"] = 0.0
            elif family == "hot_baths":
                fields["nbar1"], fields["nbar2"] = 10 ** rng.uniform(0.0, 20.0, size=2)
            elif family == "unequal_dampings":
                fields["gamma2"] = 10 ** rng.uniform(0.0, 3.0)
            elif family == "large_detunings":
                fields["delta_tilde"] = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(5.0, 7.0)
            else:
                fields["gamma1"] = fields["gamma2"] = 10 ** rng.uniform(-4.0, -1.5)
            drawn.append((family, EffectiveModel(**fields)))
    return drawn


#: Relative nu_minus error allowed in the sweep: ORACLE_NU_RTOL_EQUAL_COUPLINGS
#: for the near-equal couplings (measured up to 6.3e-7, where the Lyapunov
#: operator's condition grows as G1/G2 nears 1), ORACLE_NU_RTOL elsewhere
#: (measured up to 4.2e-11, on the hot baths).
SWEEP_RTOL = {family: ORACLE_NU_RTOL for family in SWEEP_FAMILIES}
SWEEP_RTOL["near_equal_couplings"] = ORACLE_NU_RTOL_EQUAL_COUPLINGS

#: Ceiling on the stable draws whose row reads unresolved instead of a value.
SWEEP_UNRESOLVED_MAX = 3


def test_sweep_matches_the_hermitian_oracle():
    drawn = sweep_models()
    out = evaluate_steady_batch(stack_models([model for _, model in drawn]))
    misses, unresolved, checked = [], 0, 0
    for (family, model), stable, error, nu in zip(drawn, out.stable, out.error,
                                                 out.nu_minus[:, 0].tolist()):
        if not stable:
            continue
        checked += 1
        if error == entanglement.UNRESOLVED:
            unresolved += 1
            continue
        ref = hermitian_oracle_nu_minus(model)
        if error is not None or not abs(mpmath.mpf(nu) - ref) <= SWEEP_RTOL[family] * ref:
            misses.append((family, model, error, nu, float(ref)))
    print(f"oracle sweep: {checked} stable draws of {len(drawn)}, {unresolved} unresolved")
    assert checked >= 250
    assert not misses
    assert unresolved <= SWEEP_UNRESOLVED_MAX


def test_locked_sweep_matches_the_hermitian_oracle(monkeypatch):
    # the pre-registered draw with delta_tilde set to 0, not re-drawn: the
    # whole stack is real up to diag(1, 1, i), so the solve takes 6 coordinates
    drawn = [(family, dataclasses.replace(model, delta_tilde=0.0))
             for family, model in sweep_models()]
    shapes = []
    solve = np.linalg.solve

    def recording(a, b):
        shapes.append(np.shape(a)[1:])
        return solve(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", recording)
        out = evaluate_steady_batch(stack_models([model for _, model in drawn]))
    assert shapes == [(6, 6)]
    misses, unresolved, checked = [], 0, 0
    for (family, model), stable, error, nu in zip(drawn, out.stable, out.error,
                                                 out.nu_minus[:, 0].tolist()):
        if not stable:
            continue
        checked += 1
        if error == entanglement.UNRESOLVED:
            unresolved += 1
            continue
        ref = hermitian_oracle_nu_minus(model)
        if error is not None or not abs(mpmath.mpf(nu) - ref) <= SWEEP_RTOL[family] * ref:
            misses.append((family, model, error, nu, float(ref)))
    print(f"locked oracle sweep: {checked} stable draws of {len(drawn)}, {unresolved} unresolved")
    assert checked >= 250
    assert not misses
    assert unresolved <= SWEEP_UNRESOLVED_MAX


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
    # meet the same bound as one exponential over the whole interval; the
    # elementary step h = dt 2^-d is read off the A^T h block that expm gets
    blocks = []
    original = dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda X, E=None: blocks.append(X) or original(X, E))
    A, D = state_space_batch(model)
    M, Q = dynamics.transition_and_noise(A, D, dt)
    n = A.shape[-1]
    i, j = np.unravel_index(np.abs(A[0]).argmax(), A[0].shape)
    doublings = round(np.log2(dt * A[0, i, j] / blocks[0][0, n + j, n + i]))
    assert len(blocks) == 1
    assert np.array_equal(blocks[0][0, n:, n:], A[0].T * (dt / 2.0 ** doublings))
    assert doublings >= 2
    M_ref, Q_ref = van_loan_maps(A[0], D[0], dt)
    assert relative_frobenius_error(M[0], M_ref) <= VAN_LOAN_RTOL
    assert relative_frobenius_error(Q[0], Q_ref) <= VAN_LOAN_RTOL


@pytest.mark.parametrize("preset", ["fig3a", "fig3b"])
def test_propagation_matches_van_loan(preset):
    # each sample against the exact map over [0, t] at its own float t:
    # V(t) = M V0 M^T + Q; the doubling's worst error is no larger than that
    # of the sequential steps on the same samples
    cfg = preset_config(preset)
    t_grid = cfg.time_grid()
    errors, stepwise_errors = [], []
    for rB in (0.9, 0.999, 1.0):
        model = resolve_point(cfg, {"rB": rB})[0]
        A, D = dynamics.state_space(model)
        V0 = entanglement.initial_covariance(model.nbar1, model.nbar2)
        result = evaluate_evolve_batch(model, t_grid)
        assert result.error == [None]
        stepwise = propagate_stepwise(A[None], D[None], V0[None], t_grid)[0][0, :, :4, :4]
        _, stepwise_nu = entanglement.pt_spectrum(entanglement.two_mode_coordinates(stepwise))
        for k in (50, 120, 200):
            M, Q = van_loan_maps(A, D, float(t_grid[k]))
            with mpmath.workdps(ORACLE_DPS):
                V = M * mpmath.matrix(V0.tolist()) * M.T + Q
                nu = oracle_nu_pt([[V[i, j] for j in range(4)] for i in range(4)])
                errors.append(float(abs(result.nu_minus[0, k] - nu) / nu))
                stepwise_errors.append(float(abs(stepwise_nu[k] - nu) / nu))
    assert max(errors) <= PROPAGATION_NU_RTOL
    assert max(errors) <= max(stepwise_errors)
