import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov

from cfomech import dynamics
from cfomech.dynamics import (
    propagate,
    propagate_batch,
    stability_batch,
    stability_eigen,
    state_space,
    state_space_batch,
    steady_state_batch,
    steady_state_covariance,
    transition_and_noise,
)
from cfomech.entanglement import (
    initial_covariance,
    log_negativity_from_nu,
    min_symplectic_eigenvalue_pt,
    pt_spectrum_batch,
)
from cfomech.errors import StabilityError, UnsupportedRegimeError
from cfomech.experiments import run_preset
from cfomech.params import EffectiveModel, effective_cavity_params
from reference import (
    PT_SIGNS,
    kron_steady_state,
    physicality_check,
    symplectic_eigenvalues,
    vech_lyapunov_operator,
)


def model(G1=0.0, G2=0.0, kt=1e5, dt=0.0, gamma=10.0, gamma2=None, n1=0.0, n2=0.0):
    return EffectiveModel(G1=G1, G2=G2, kappa_tilde=kt, delta_tilde=dt,
                          gamma1=gamma, gamma2=gamma if gamma2 is None else gamma2,
                          nbar1=n1, nbar2=n2)


class TestDriftMatrix:
    def test_full_template(self):
        m = model(G1=3.0, G2=7.0, kt=11.0, dt=13.0, gamma=2.0, gamma2=4.0)
        expected = np.array([
            [-1, 0, 0, 0, 0, -3],
            [0, -1, 0, 0, -3, 0],
            [0, 0, -2, 0, 0, 7],
            [0, 0, 0, -2, -7, 0],
            [0, -3, 0, 7, -11, 13],
            [-3, 0, -7, 0, -13, -11],
        ], dtype=float)
        assert np.array_equal(state_space(m)[0], expected)

    def test_decoupled_is_block_diagonal(self):
        A = state_space(model(kt=123.0, dt=45.0))[0]
        assert np.array_equal(A[:4, 4:], np.zeros((4, 2)))
        assert np.array_equal(A[4:, :4], np.zeros((2, 4)))
        assert A[4, 5] == 45.0 and A[5, 4] == -45.0

    def test_feedback_point_cavity_diagonal(self):
        # kappa1 = kappa2 = 5e4, rB = 0.95, theta = 0 gives kappa_tilde = 5000
        kt, _ = effective_cavity_params(5e4, 5e4, 0.95, 0.0, 0.0)
        A = state_space(model(G1=0.99e5, G2=1e5, kt=kt))[0]
        assert A[4, 4] == -5000.0
        assert A[5, 5] == -5000.0

    def test_coupling_entries_mirror(self):
        m = model(G1=123.0, G2=456.0)
        A = state_space(m)[0]
        assert A[4, 1] == A[1, 4] == -123.0
        assert A[0, 5] == A[5, 0] == -123.0
        assert A[2, 5] == 456.0 and A[4, 3] == 456.0
        assert A[3, 4] == -456.0 and A[5, 2] == -456.0


class TestDiffusionMatrix:
    def test_vacuum_mechanics(self):
        D = state_space(model(gamma=10.0))[1]
        assert np.allclose(np.diag(D)[:4], 5.0)

    def test_feedback_cavity_entries(self):
        D = state_space(model(kt=2 * 5e4 * (1 - 0.99)))[1]
        assert np.diag(D)[4] == pytest.approx(1000.0)
        assert np.diag(D)[5] == pytest.approx(1000.0)

    def test_hot_resonator(self):
        D = state_space(model(n1=200.0, gamma=10.0))[1]
        assert np.diag(D)[0] == 2005.0 and np.diag(D)[1] == 2005.0

    def test_diagonal_nonnegative(self):
        D = state_space(model(G1=1e4, G2=2e4, n1=3.0, n2=4.0))[1]
        assert np.array_equal(D, np.diag(np.diag(D)))
        assert np.all(np.diag(D) >= 0)


class TestStability:
    def test_cooling_dominated_is_stable(self):
        assert dynamics.stability_margin(model(G1=0.5e5, G2=1e5)) > 0.0

    def test_equal_couplings_with_dissipation(self):
        assert dynamics.stability_margin(model(G1=1e4, G2=1e4, kt=1e3)) > 0.0

    def test_heating_dominated_is_unstable(self):
        m = model(G1=2e5, G2=1e5, kt=1e3)
        assert dynamics.stability_margin(m) <= 0.0
        assert not stability_eigen(state_space(m)[0])

    def test_unequal_dampings_unsupported(self):
        with pytest.raises(UnsupportedRegimeError):
            dynamics.stability_margin(model(G1=1e4, G2=2e4, gamma=10.0, gamma2=20.0))

    def test_one_guard_for_both_closed_form_functions(self):
        m = model(G1=1e4, G2=2e4, gamma=10.0, gamma2=20.0)
        with pytest.raises(UnsupportedRegimeError, match="use stability_eigen instead"):
            dynamics.stability_margin(m)

    def test_eigen_identity(self):
        assert stability_eigen(-np.eye(6))

    def test_marginal_zero_eigenvalue(self):
        # undamped cavity with equal couplings carries a zero mode
        m = model(G1=1e4, G2=1e4, kt=0.0)
        assert not stability_eigen(state_space(m)[0])

    def test_oracle_agreement_on_random_grid(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            m = model(G1=rng.uniform(0, 2e5), G2=rng.uniform(0, 2e5),
                      kt=rng.uniform(0, 2e5), dt=rng.uniform(-1e5, 1e5),
                      gamma=rng.uniform(1, 1e3))
            if abs(dynamics.stability_margin(m)) < 1e-6:
                continue
            checked += 1
            assert (dynamics.stability_margin(m) > 0.0) == stability_eigen(state_space(m)[0])
        assert checked > 250


class TestSteadyState:
    def test_decoupled_thermal_equilibrium(self):
        m = model(n1=3.0, n2=7.0, kt=123.0, dt=99.0)
        V = steady_state_covariance(*state_space(m))
        assert V == pytest.approx(np.diag([3.5, 3.5, 7.5, 7.5, 0.5, 0.5]), abs=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = model(G2=10 ** rng.uniform(4, 5.3),
                      G1=rng.uniform(0, 0.95) * 1e5,
                      kt=10 ** rng.uniform(3, 5.3),
                      dt=rng.uniform(-1e5, 1e5),
                      gamma=10 ** rng.uniform(0, 3),
                      n1=rng.uniform(0, 50), n2=rng.uniform(0, 50))
            A, D = state_space(m)
            if not stability_eigen(A):
                continue
            V = steady_state_covariance(A, D)
            res = np.linalg.norm(A @ V + V @ A.T + D)
            assert res / np.linalg.norm(D) < 1e-10

    def test_unstable_raises(self):
        with pytest.raises(StabilityError):
            steady_state_covariance(*state_space(model(G1=2e5, G2=1e5, kt=1e3)))

    def test_marginal_refused(self):
        with pytest.raises(StabilityError):
            steady_state_covariance(*state_space(model(G1=1e4, G2=1e4, kt=0.0)))

    def test_matches_long_time_propagation(self):
        m = model(G1=0.9e5, G2=1e5, kt=5e3, n1=1.0, n2=2.0)
        A, D = state_space(m)
        V_inf = steady_state_covariance(A, D)
        T = 50.0 / np.abs(np.linalg.eigvals(A).real).min()
        V_t = propagate(A, D, initial_covariance(1.0, 2.0), [T])[0]
        assert np.abs(V_t - V_inf).max() / np.abs(V_inf).max() < 1e-9


#: Agreement of the batched steady-state solve with scipy's Bartels-Stewart solver:
#: V relative to its largest entry, nu_minus relative, E_N absolute.  The
#: worst seen over 4k random stable points of this family with cond < 1e10
#: was 7e-9.
SCIPY_RTOL = 1e-7

#: Above this condition number of the Lyapunov operator both solvers lose
#: about eps*cond of relative accuracy (1e-5 and worse was seen at exactly
#: equal couplings), so they are not compared there.
SCIPY_COND_MAX = 1e10

#: Relative Frobenius distance allowed between the library's V, solved on the
#: 21 unknowns of vech(V), and the kron-form reference on all 36 of vec(V),
#: both with one refinement pass, on every fig2a, fig2c and fig2d point; the
#: largest measured is 7.4e-11, on fig2d (fig2a median 3.4e-13).
KRON_REFERENCE_RTOL = 1e-9


def _model_stack(draws):
    return [model(G1=ratio * G2, G2=G2, kt=kt, dt=dt, gamma=gamma, n1=n1, n2=n2)
            for ratio, G2, kt, dt, gamma, n1, n2 in draws]


_draw = st.tuples(
    st.floats(0.0, 1.1),           # G1 / G2, so some points are unstable
    st.floats(1e4, 2e5),           # G2
    st.floats(1e3, 2e5),           # kappa_tilde
    st.floats(-1e5, 1e5),          # delta_tilde
    st.floats(1.0, 1e3),           # gamma
    st.floats(0.0, 50.0), st.floats(0.0, 50.0))


class TestBatchedCore:
    @settings(deadline=None, max_examples=30)
    @given(draws=st.lists(_draw, min_size=1, max_size=20))
    def test_stacks_match_scipy_and_per_point_eigvals(self, draws):
        A, D = state_space_batch(_model_stack(draws))
        abscissa, stable = stability_batch(A)
        for k in range(len(draws)):
            norm_A = np.linalg.norm(A[k])
            ref = np.linalg.eigvals(A[k]).real.max()
            assert abs(abscissa[k] - ref) <= 1e-12 * norm_A
            if abs(ref + dynamics.STABILITY_TOL * norm_A) > 1e-12 * norm_A:
                assert stable[k] == (ref < -dynamics.STABILITY_TOL * norm_A)
        idx = np.flatnonzero(stable)
        V, errors = steady_state_batch(A[idx], D[idx])
        physical, nus = pt_spectrum_batch(V[:, :4, :4])
        ens = log_negativity_from_nu(nus)
        for j, k in enumerate(idx):
            op = np.kron(np.eye(6), A[k]) + np.kron(A[k], np.eye(6))
            if np.linalg.cond(op) > SCIPY_COND_MAX:
                continue
            assert errors[j] is None
            V_ref = solve_continuous_lyapunov(A[k], -D[k])
            assert np.abs(V[j] - V_ref).max() <= SCIPY_RTOL * np.abs(V_ref).max()
            nu_ref = symplectic_eigenvalues(V_ref[:4, :4] * PT_SIGNS)[0]
            assert physical[j]
            assert abs(nus[j] - nu_ref) <= SCIPY_RTOL * nu_ref
            assert abs(ens[j] - max(0.0, -np.log(2.0 * nu_ref))) <= SCIPY_RTOL

    def test_scalar_functions_are_single_point_stacks(self):
        ms = _model_stack([(0.9, 1e5, 5e3, 0.0, 10.0, 1.0, 2.0),
                           (2.0, 1e5, 1e3, 0.0, 10.0, 0.0, 0.0)])
        A, D = state_space_batch(ms)
        for k, m in enumerate(ms):
            assert np.array_equal(state_space(m)[0], A[k])
            assert np.array_equal(state_space(m)[1], D[k])
        assert stability_eigen(A[0]) and not stability_eigen(A[1])
        V, _ = steady_state_batch(A[:1], D[:1])
        assert np.array_equal(steady_state_covariance(*state_space(ms[0])), V[0])

    def test_failures_are_reported_per_system(self, monkeypatch):
        A, D = state_space_batch(_model_stack([(0.9, 1e5, 5e3, 0.0, 10.0, 1.0, 2.0),
                                               (0.8, 1e5, 5e3, 0.0, 10.0, 1.0, 2.0),
                                               (0.7, 1e5, 5e3, 0.0, 10.0, 1.0, 2.0)]))
        clean, _ = steady_state_batch(A, D)
        refined = dynamics._refined_solution

        def flaky(op, A_k, D_k):
            # system 0 has a singular solve, system 1 misses the residual
            if any(np.array_equal(a, A[0]) for a in A_k):
                raise np.linalg.LinAlgError("Singular matrix")
            V = refined(op, A_k, D_k)
            V[[np.array_equal(a, A[1]) for a in A_k]] += 1.0
            return V

        monkeypatch.setattr(dynamics, "_refined_solution", flaky)
        V, errors = steady_state_batch(A, D)
        assert errors[0].startswith("Lyapunov linear system is singular (cond ~ ")
        assert errors[1].startswith("Lyapunov residual ")
        assert errors[1].endswith(" above tolerance (cond ~ %.3g)" % np.linalg.cond(
            vech_lyapunov_operator(A[1:2])[0]))
        assert errors[2] is None
        assert np.array_equal(V[2], clean[2])

    def test_empty_stack_gives_empty_results(self):
        V, errors = steady_state_batch(np.zeros((0, 6, 6)), np.zeros((0, 6, 6)))
        assert V.shape == (0, 6, 6) and errors == []

    def test_operator_is_the_kron_form_on_symmetric_matrices(self):
        A = np.random.default_rng(5).normal(size=(20, 6, 6))
        op = (A.reshape(20, 36) @ dynamics._VECH_OPERATOR_BASIS).reshape(20, 21, 21)
        assert np.array_equal(op, vech_lyapunov_operator(A))

    @pytest.mark.parametrize("preset", ["fig2a", "fig2c", "fig2d"])
    def test_preset_points_match_the_kron_reference(self, preset, monkeypatch):
        solved = []
        original = dynamics.steady_state_batch

        def recording(A, D):
            V, errors = original(A, D)
            solved.append((A, D, V, errors))
            return V, errors

        monkeypatch.setattr(dynamics, "steady_state_batch", recording)
        run_preset(preset)
        A, D, V = (np.concatenate([s[k] for s in solved]) for k in range(3))
        assert len(A) > 100 and all(e is None for s in solved for e in s[3])
        V_ref = kron_steady_state(A, D)
        rel = np.linalg.norm(V - V_ref, axis=(-2, -1)) / np.linalg.norm(V_ref, axis=(-2, -1))
        assert rel.max() <= KRON_REFERENCE_RTOL


class TestTransitionAndNoise:
    def test_frozen_generator(self):
        D = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        M, Q = transition_and_noise(np.zeros((6, 6)), D, 0.25)
        assert M == pytest.approx(np.eye(6), abs=1e-14)
        assert Q == pytest.approx(D * 0.25, rel=1e-13)

    def test_isotropic_closed_form(self):
        a, dt = 3.0, 0.17
        D = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        M, Q = transition_and_noise(-a * np.eye(6), D, dt)
        assert M == pytest.approx(np.exp(-a * dt) * np.eye(6), rel=1e-12)
        assert Q == pytest.approx(D * (1 - np.exp(-2 * a * dt)) / (2 * a), rel=1e-12)

    def test_semigroup_composition(self):
        m = model(G1=0.9e5, G2=1e5, kt=5e3, n1=2.0)
        A, D = state_space(m)
        dt = 1e-6
        M1, Q1 = transition_and_noise(A, D, dt)
        M2, Q2 = transition_and_noise(A, D, 2 * dt)
        assert M1 @ M1 == pytest.approx(M2, rel=1e-12, abs=1e-12 * np.abs(M2).max())
        Q_comp = M1 @ Q1 @ M1.T + Q1
        assert Q_comp == pytest.approx(Q2, rel=1e-12, abs=1e-12 * np.abs(Q2).max())

    def test_noise_block_psd(self):
        m = model(G1=0.9e5, G2=1e5, kt=5e3, n1=2.0)
        A, D = state_space(m)
        _, Q = transition_and_noise(A, D, 1e-5)
        assert np.array_equal(Q, Q.T)
        assert np.linalg.eigvalsh(Q).min() > -1e-12 * np.abs(Q).max()

    def test_hot_bath_enters_linearly(self):
        # Q is linear in D: a hot bath scales it exactly and does not set
        # expm's rounding, so a stable system stays finite however hot
        A, D = state_space(model(G1=1e4, G2=1e4, kt=1e5, dt=1e3, n1=1.0))
        M, Q = transition_and_noise(A, D, 1e-3)
        M_hot, Q_hot = transition_and_noise(A, D * 2.0 ** 200, 1e-3)
        assert np.array_equal(M_hot, M) and np.array_equal(Q_hot, np.ldexp(Q, 200))
        final = []
        for n1 in (1e20, 1e50, 1e300):
            A, D = state_space(model(G1=1e4, G2=1e4, kt=1e5, dt=1e3, n1=n1))
            covs, first_bad = propagate_batch(A[None], D[None], initial_covariance(n1, 0.0)[None],
                                              [1e-3, 2e-3])
            assert first_bad[0] == -1
            final.append(covs[0, -1] / n1)
        for V in final[1:]:
            assert np.abs(V - final[0]).max() <= 1e-12 * np.abs(final[0]).max()

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            transition_and_noise(np.zeros((2, 2)), np.eye(2), 0.0)


class TestPropagate:
    def test_frozen_dynamics_keeps_state(self):
        V0 = initial_covariance(3.0, 1.0)
        for V in propagate(np.zeros((6, 6)), np.zeros((6, 6)), V0, [1e-4, 2e-3, 0.5]):
            assert np.array_equal(V, V0)

    def test_grid_validation(self):
        A, D = state_space(model())
        V0 = initial_covariance(0.0, 0.0)
        with pytest.raises(ValueError):
            propagate(A, D, V0, [])
        with pytest.raises(ValueError):
            propagate(A, D, V0, [-1.0, 1.0])
        with pytest.raises(ValueError):
            propagate(A, D, V0, [1.0, 1.0])

    def test_time_zero_returns_start(self):
        A, D = state_space(model(G1=1e4, G2=2e4))
        V0 = initial_covariance(5.0, 5.0)
        out = propagate(A, D, V0, [0.0, 1e-5])
        assert np.array_equal(out[0], V0)

    def test_physicality_preserved_along_transient(self):
        m = model(G1=1e4, G2=1e4, kt=1e3, dt=1e3, n1=20.0, n2=10.0)
        A, D = state_space(m)
        V0 = initial_covariance(20.0, 10.0)
        for V in propagate(A, D, V0, np.linspace(1e-5, 2e-3, 40)):
            assert physicality_check(V)

    @pytest.mark.parametrize("rB, n1, n2", [(0.99, 0.0, 0.0), (1.0, 20.0, 10.0)])
    def test_uniform_grid_reuses_one_interval_map(self, monkeypatch, rB, n1, n2):
        calls = []
        expm = dynamics.expm
        monkeypatch.setattr(dynamics, "expm", lambda X: calls.append(1) or expm(X))
        # the fig3 setting: G1 = G2 = 1e4, kappa1 = kappa2 = 5e4, Delta = 1e3
        A, D = state_space(model(G1=1e4, G2=1e4, kt=1e5 * (1.0 - rB), dt=1e3,
                               n1=n1, n2=n2))
        t_grid = np.linspace(0.0, 2e-3, 201)
        V0 = initial_covariance(n1, n2)
        covs = propagate(A, D, V0, t_grid)
        assert len(calls) == 1
        # reference: a fresh exact map for every interval, from its own dt
        V, t_prev = V0, 0.0
        for t, V_fast in zip(t_grid, covs):
            if t > t_prev:
                M, Q = transition_and_noise(A, D, t - t_prev)
                V = M @ V @ M.T + Q
                V = 0.5 * (V + V.T)
            t_prev = t
            en_ref = log_negativity_from_nu(min_symplectic_eigenvalue_pt(V[:4, :4]))
            en = log_negativity_from_nu(min_symplectic_eigenvalue_pt(V_fast[:4, :4]))
            assert abs(en - en_ref) <= 1e-8

    def test_offset_grid_adds_one_map(self, monkeypatch):
        calls = []
        expm = dynamics.expm
        monkeypatch.setattr(dynamics, "expm", lambda X: calls.append(1) or expm(X))
        A, D = state_space(model(G1=1e4, G2=1e4, kt=1e3, dt=1e3))
        propagate(A, D, initial_covariance(0.0, 0.0), np.linspace(1e-5, 2e-3, 40))
        assert len(calls) == 2

    def test_unstable_long_horizon_reports_divergence(self):
        from cfomech.errors import DivergenceError
        A, D = state_space(model(G1=2e5, G2=1e4, kt=1e3))
        with pytest.raises(DivergenceError) as excinfo:
            propagate(A, D, initial_covariance(0.0, 0.0), [0.1, 1.0, 10.0])
        assert excinfo.value.step is not None

    def test_stack_on_a_uniform_grid_takes_one_expm_call(self, monkeypatch):
        calls = []
        expm = dynamics.expm
        monkeypatch.setattr(dynamics, "expm", lambda X: calls.append(len(X)) or expm(X))
        # norms from 2e4 to 3e5: doubling counts 2 to 5 over one interval
        models = [model(G1=1e4, G2=1e4, kt=kt, dt=1e3, n1=20.0, n2=10.0)
                  for kt in (0.0, 1e3, 2e4, 1e5, 2e5)]
        A, D = state_space_batch(models)
        V0 = np.stack([initial_covariance(20.0, 10.0)] * len(models))
        t_grid = np.linspace(0.0, 2e-3, 201)
        covs, first_bad = propagate_batch(A, D, V0, t_grid)
        assert calls == [len(models)]
        assert np.array_equal(first_bad, [-1] * len(models))
        for k, m in enumerate(models):
            assert np.array_equal(covs[k], propagate(*state_space(m), V0[k], t_grid))

    def test_stacked_maps_match_maps_built_one_by_one(self):
        # doubling counts 0, 3 and 5 over one interval
        models = [model(G1=1e3, G2=2e3, kt=kt, dt=1e2, n1=1.0) for kt in (1e2, 3e4, 2e5)]
        A, D = state_space_batch(models)
        dt = 1e-5
        norms = np.linalg.norm(A, axis=(-2, -1))
        doublings = np.maximum(0, np.ceil(np.log2(norms * dt / dynamics.STEP_NORM_CAP)))
        assert len(set(doublings)) == len(models)
        steps = dt / 2.0 ** doublings
        M, Q = transition_and_noise(A, D, steps)
        M_int, Q_int = dynamics._interval_maps(A, D, dt)
        for k in range(len(models)):
            M1, Q1 = transition_and_noise(A[k], D[k], steps[k])
            assert np.array_equal(M[k], M1) and np.array_equal(Q[k], Q1)
            for _ in range(int(doublings[k])):
                Q1 = M1 @ Q1 @ M1.T + Q1
                Q1 = 0.5 * (Q1 + Q1.T)
                M1 = M1 @ M1
            assert np.array_equal(M_int[k], M1) and np.array_equal(Q_int[k], Q1)

    def test_divergence_is_reported_per_system(self):
        A, D = state_space_batch([model(G1=2e5, G2=1e4, kt=1e3), model(G1=1e4, G2=2e4, kt=1e3)])
        V0 = np.stack([initial_covariance(0.0, 0.0)] * 2)
        covs, first_bad = propagate_batch(A, D, V0, [0.1, 1.0, 10.0])
        assert first_bad[0] >= 0 and first_bad[1] == -1
        assert np.all(np.isfinite(covs[1]))

    @settings(deadline=None, max_examples=25)
    @given(n0=st.floats(1e-3, 1e4))
    def test_sideband_cooling_beats_initial_thermal(self, n0):
        # vacuum baths, no amplifying coupling: mode 2 steady variance must
        # drop below any thermal starting variance
        m = model(G1=0.0, G2=5e4, kt=1e5, dt=0.0)
        V = steady_state_covariance(*state_space(m))
        assert V[2, 2] < n0 + 0.5
        assert V[2, 2] == pytest.approx(0.5, abs=1e-9)
