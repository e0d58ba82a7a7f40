import collections
import contextlib
import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov

from cfomech import dynamics, entanglement
from cfomech.dynamics import (
    propagate,
    propagate_batch,
    spectral_abscissa,
    stability_batch,
    stability_eigen,
    state_space,
    state_space_coordinates,
    steady_state_batch,
    steady_state_covariance,
    transition_and_noise,
)
from cfomech.entanglement import (
    initial_covariance,
    log_negativity_from_nu,
    min_symplectic_eigenvalue_pt,
    pt_spectrum,
    two_mode_coordinates,
)
from cfomech.errors import NumericalError, StabilityError, UnsupportedRegimeError
from cfomech.experiments import (
    FIG3_RB_VALUES,
    STEADY_CHUNK,
    RunConfig,
    SweepAxis,
    evaluate_evolve_batch,
    evaluate_steady_batch,
    preset_config,
    resolve_chunk,
    run_points,
    run_preset,
    run_sweep,
)
from cfomech.params import EffectiveModel, effective_cavity_params
from reference import (
    MARGINAL_MODELS,
    ORACLE_DPS,
    PT_SIGNS,
    apply_add,
    band_edge,
    complex_coordinates,
    coordinates,
    drifts_of,
    hermitian_steady_state,
    horner_expm,
    kron_steady_state,
    marginal_model,
    oracle_nu_pt,
    physicality_check,
    point_columns,
    propagate_stepwise,
    realify,
    routh_against_eigen,
    routh_column_1j,
    stack_models,
    state_space_batch,
    symplectic_eigenvalues,
    two_product_allocating,
    van_loan_maps,
    vech_lyapunov_operator,
)


def model(G1=0.0, G2=0.0, kt=1e5, dt=0.0, gamma=10.0, gamma2=None, n1=0.0, n2=0.0):
    return EffectiveModel(G1=G1, G2=G2, kappa_tilde=kt, delta_tilde=dt,
                          gamma1=gamma, gamma2=gamma if gamma2 is None else gamma2,
                          nbar1=n1, nbar2=n2)


#: Rates from 0 to beyond double precision: inf, and products
#: gamma*(nbar + 1/2) that overflow.
_rate = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.just(math.inf))
_model_draw = st.tuples(_rate, _rate, _rate, st.one_of(_rate, _rate.map(lambda x: -x)),
                        _rate, _rate, st.floats(0.0, 1e300), st.floats(0.0, 1e300))


class TestDriftMatrix:
    @settings(deadline=None, max_examples=60)
    @given(draws=st.lists(_model_draw, min_size=1, max_size=8))
    def test_batch_realifies_the_model_as_written(self, draws):
        # M and D_c written out as the README states the model, realified by
        # the reference; a model with gamma = kappa_tilde = G1 = 0 is in every stack
        draws = [*draws, (0.0, 1e5, 0.0, -2e3, 0.0, 0.0, 3.0, 4.0)]
        M = np.array([[[-g1 / 2, 0, 1j * G1], [0, -g2 / 2, -1j * G2],
                       [-1j * G1, -1j * G2, -kt - 1j * dt]]
                      for G1, G2, kt, dt, g1, g2, _, _ in draws])
        D_c = np.array([np.diag([g1 * (n1 + 0.5), g2 * (n2 + 0.5), kt])
                        for _, _, kt, _, g1, g2, n1, n2 in draws])
        for X, ref in zip(state_space_batch(stack_models([EffectiveModel(*x) for x in draws])),
                          (realify(M), realify(D_c))):
            finite = np.isfinite(ref).all(axis=(1, 2))
            assert np.array_equal(np.isfinite(X).all(axis=(1, 2)), finite)
            assert np.array_equal(X[finite], ref[finite])
            assert finite[-1]

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

    def test_margin_of_rates_whose_squares_overflow(self):
        # the gap is homogeneous of degree 2 in the rates: it scales exactly
        # where the squares overflow, and keeps its sign where it overflows
        def scaled(s):
            return model(G1=0.9e5 * s, G2=1e5 * s, kt=1e3 * s, dt=2e3 * s, gamma=10.0 * s)
        gap = dynamics.stability_margin(scaled(1.0))
        assert gap > 0.0
        assert dynamics.stability_margin(scaled(2.0 ** 600)) == gap * 2.0 ** 600 * 2.0 ** 600
        assert dynamics.stability_margin(scaled(1e300)) == math.inf
        unstable = model(G1=1e300, G2=0.9e300, kt=1e298, gamma=1e298)
        assert dynamics.stability_margin(unstable) == -math.inf

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

    def test_overflowing_covariance_raises_the_batch_error(self):
        # a bath this hot gives a finite D but a V beyond double precision
        A, D = state_space(model(G1=0.9e5, G2=1e5, kt=5e3, n1=1e307))
        assert np.isfinite(D).all()
        with pytest.raises(NumericalError,
                           match="^stationary covariance overflows double precision$"):
            steady_state_covariance(A, D)

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
#: worst seen over 5502 random stable points of this family with cond < 1e10
#: (default_rng(2024)) was 6.5e-10 in V and 9.0e-10 in nu_minus.
SCIPY_RTOL = 1e-7

#: Above this condition number of the Lyapunov operator both solvers lose
#: about eps*cond of relative accuracy (1e-5 and worse was seen at exactly
#: equal couplings), so they are not compared there.
SCIPY_COND_MAX = 1e10

#: Relative Frobenius distance allowed between the library's V, solved once on
#: the 9 coordinates of its Hermitian form, and the kron-form reference on all
#: 36 of vec(V) with one refinement pass, on every fig2a, fig2c and fig2d
#: point; the largest measured is 7.1e-11, on fig2c (5.2e-11 on fig2d, 2.2e-12
#: on fig2a with median 6.1e-13), and 3.3e-16 on the random systems of
#: test_operator_is_the_kron_form_on_symmetric_matrices.
KRON_REFERENCE_RTOL = 1e-9


def embed(h):
    """(N, 6, 6) covariances of the (N, 9) Hermitian coordinates h that
    steady_state_batch returns."""
    return (h @ dynamics._HERMITIAN[0]).reshape(-1, 6, 6)


def lyapunov_operator(m):
    """(N, 9, 9) operators that steady_state_batch solves for the (N, 18)
    coordinates m of drifts M: H -> M H + H M^dagger on the Hermitian
    coordinates."""
    return (m @ dynamics._LYAPUNOV_BASIS).reshape(-1, 9, 9)


#: The Hermitian coordinates that steady_state_batch solves for, by the
#: detuning delta_tilde of the stack: 6 at 0, all 9 otherwise.
SOLVED = {0.0: [0, 1, 3, 5, 7, 8], 3e3: list(range(9))}


def solved_operator(m, kept):
    """The rows and columns kept of lyapunov_operator(m) at m's unit size:
    the systems steady_state_batch solves on those coordinates."""
    return lyapunov_operator(dynamics._unit_size(m, axis=-1)[0])[:, kept][:, :, kept]


def _model_stack(draws):
    return stack_models([model(G1=ratio * G2, G2=G2, kt=kt, dt=dt, gamma=gamma, n1=n1, n2=n2)
                         for ratio, G2, kt, dt, gamma, n1, n2 in draws])


_RATES_AND_BATHS = (
    st.floats(1e4, 2e5),           # G2
    st.floats(1e3, 2e5),           # kappa_tilde
    st.floats(-1e5, 1e5),          # delta_tilde
    st.floats(1.0, 1e3),           # gamma
    st.floats(0.0, 50.0), st.floats(0.0, 50.0))

#: G1 / G2 up to 1.1, so some points are unstable
_draw = st.tuples(st.floats(0.0, 1.1), *_RATES_AND_BATHS)

#: G1 > G2, so most points are unstable
_unstable_draw = st.tuples(st.floats(1.01, 3.0), *_RATES_AND_BATHS)


class TestBatchedCore:
    @settings(deadline=None, max_examples=30)
    @given(draws=st.lists(_draw, min_size=1, max_size=20))
    def test_stacks_match_scipy_and_per_point_eigvals(self, draws):
        A, D = state_space_batch(_model_stack(draws))
        m, d = state_space_coordinates(_model_stack(draws))
        abscissa, stable = spectral_abscissa(A)[0], stability_batch(m)
        for k in range(len(draws)):
            norm_A = np.linalg.norm(A[k])
            ref = np.linalg.eigvals(A[k]).real.max()
            assert abs(abscissa[k] - ref) <= 1e-12 * norm_A
            if abs(ref + dynamics.STABILITY_TOL * norm_A) > 1e-12 * norm_A:
                assert stable[k] == (ref < -dynamics.STABILITY_TOL * norm_A)
        # these stacks never reach CERTIFICATE_MIN_STACK: the Routh verdicts
        # are taken directly, also at 2^700, whose sextic unscaled would overflow
        settled = routh_against_eigen(m)[:2]
        assert np.array_equal(routh_against_eigen(np.ldexp(m, 700))[:2], settled)
        idx = np.flatnonzero(stable)
        h, errors = steady_state_batch(m[idx], d[idx])
        V = embed(h)
        physical, nus = pt_spectrum(two_mode_coordinates(V[:, :4, :4]))
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
        ms = [model(G1=0.9e5, G2=1e5, kt=5e3, n1=1.0, n2=2.0),
              model(G1=2e5, G2=1e5, kt=1e3)]
        A, D = state_space_batch(stack_models(ms))
        for k, m in enumerate(ms):
            assert np.array_equal(state_space(m)[0], A[k])
            assert np.array_equal(state_space(m)[1], D[k])
        assert stability_eigen(A[0]) and not stability_eigen(A[1])
        m, d = state_space_coordinates(stack_models(ms))
        h, _ = steady_state_batch(m[:1], d[:1])
        assert np.array_equal(steady_state_covariance(*state_space(ms[0])), embed(h)[0])

    def test_failures_are_reported_per_system(self, monkeypatch):
        # the same failures on each path: 6 coordinates at delta_tilde = 0, 9 otherwise
        solve = np.linalg.solve
        for dt, kept in SOLVED.items():
            m, d = state_space_coordinates(_model_stack([(r, 1e5, 5e3, dt, 10.0, 1.0, 2.0)
                                                         for r in (0.9, 0.8, 0.7)]))
            clean, _ = steady_state_batch(m, d)
            # the solve reads each m at unit size: tell the systems apart there
            op = solved_operator(m, kept)

            def flaky(op_k, d_k):
                # system 0 has a singular solve, system 1 misses the residual
                assert op_k.shape[1:] == op.shape[1:]
                if any(np.array_equal(o, op[0]) for o in op_k):
                    raise np.linalg.LinAlgError("Singular matrix")
                h = solve(op_k, d_k)
                h[[np.array_equal(o, op[1]) for o in op_k]] += 1.0
                return h

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", flaky)
                h, errors = steady_state_batch(m, d)
            assert errors[0].startswith("Lyapunov linear system is singular (cond ~ ")
            assert errors[1].startswith("Lyapunov residual ")
            assert errors[1].endswith(" above tolerance (cond ~ %.3g)" % np.linalg.cond(op[1]))
            assert errors[2] is None
            assert np.array_equal(h[2], clean[2])

    def test_each_chunk_is_one_batched_solve(self, monkeypatch):
        # the coordinate solve takes no refinement pass: one np.linalg.solve
        # call of its (N, 6, 6) systems per chunk at delta_tilde = 0, and of
        # its (N, 9, 9) systems otherwise
        shapes = []
        solve = np.linalg.solve

        def counting(a, b):
            shapes.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        for dt, kept in SOLVED.items():
            m, d = state_space_coordinates(_model_stack([(r, 1e5, 5e3, dt, 10.0, 1.0, 2.0)
                                                         for r in (0.5, 0.7, 0.9, 0.99)]))
            shapes.clear()
            _, errors = steady_state_batch(m, d)
            assert errors == [None] * 4
            assert shapes == [(4, len(kept), len(kept))]
        # a sweep of STEADY_CHUNK + 44 points is two chunks, at fig2c's
        # delta_tilde = 0 and at Delta = 2e3
        for Delta, kept in zip((0.0, 2e3), SOLVED.values()):
            shapes.clear()
            table = run_points(preset_config("fig2c").replace(Delta=Delta), ["ratio"],
                               [np.linspace(0.5, 0.99, STEADY_CHUNK + 44)])
            stable = sum(row["stable"] for row in table.rows)
            assert stable > STEADY_CHUNK and [len(s) for s in shapes] == [3, 3]
            assert sum(s[0] for s in shapes) == stable
            assert {s[1:] for s in shapes} == {(len(kept), len(kept))}

    def test_empty_stack_gives_empty_results(self):
        h, errors = steady_state_batch(np.zeros((0, 18)), np.zeros((0, 9)))
        assert embed(h).shape == (0, 6, 6) and errors == []
        covs, first_bad = propagate_batch(*np.zeros((3, 0, 6, 6)), [0.0, 1.0, 2.0])
        assert covs.shape == (0, 3, 6, 6) and first_bad.shape == (0,)

    def test_operator_is_the_kron_form_on_symmetric_matrices(self):
        # on the symmetric matrices that realify a Hermitian H, the 9x9
        # operator acts as the 21x21 vech form does, for any complex M
        rng = np.random.default_rng(5)
        M = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
        A = realify(M)
        op = lyapunov_operator(complex_coordinates(M))
        embed, project, _ = dynamics._HERMITIAN
        iu, ju = np.triu_indices(6)
        to_vech = embed.reshape(9, 6, 6)[:, iu, ju].T
        gap = vech_lyapunov_operator(A) @ to_vech - to_vech @ op
        assert np.abs(gap).max() <= 1e-14 * np.abs(A).max()
        # the coordinates are those of realify's Hermitian matrices
        B = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
        H = realify(B @ np.conj(np.swapaxes(B, -1, -2)))
        assert np.abs(H.reshape(20, 36) @ project @ embed - H.reshape(20, 36)).max() \
            <= 1e-15 * np.abs(H).max()
        # and the solve is the kron reference's on stable such systems
        M = M - (np.linalg.eigvals(M).real.max(axis=-1) + 1.0)[:, None, None] * np.eye(3)
        h, errors = steady_state_batch(*coordinates(realify(M), H))
        V = (h @ embed).reshape(-1, 6, 6)
        V_ref = kron_steady_state(realify(M), H)
        assert errors == [None] * 20
        rel = np.linalg.norm(V - V_ref, axis=(-2, -1)) / np.linalg.norm(V_ref, axis=(-2, -1))
        assert rel.max() <= KRON_REFERENCE_RTOL

    def test_rejects_systems_that_are_not_phase_insensitive(self):
        A, D = state_space(model(G1=0.9e5, G2=1e5, kt=5e3, n1=1.0))
        squeezing = A.copy()
        squeezing[0, 0] -= 1.0  # q1 damped faster than p1
        correlated = D.copy()
        correlated[0, 1] = correlated[1, 0] = 1.0  # q1-p1 correlated noise
        drift = r"^drift matrix is not phase-insensitive within tolerance \(entry \(0, 0\) "
        diffusion = r"^diffusion matrix is not phase-insensitive within tolerance \(entry \(0, 1\) "
        # only the single-system entry checks: the batched solve takes the
        # state spaces that state_space_batch builds, phase-insensitive by
        # construction
        with pytest.raises(ValueError, match=drift + r"is off by 0.5\)"):
            steady_state_covariance(squeezing, D)
        with pytest.raises(ValueError, match=diffusion + r"is off by 1\)"):
            steady_state_covariance(A, correlated)
        # the check comes before the stability verdict
        unstable = state_space(model(G1=2e5, G2=1e5, kt=1e3))[0]
        unstable[0, 0] -= 1.0
        with pytest.raises(ValueError, match="drift matrix"):
            steady_state_covariance(unstable, D)
        # a defect within STRUCTURE_RTOL of max|A| (1e5) passes the check, and
        # the 9-coordinate solve, which cannot hold its phase-sensitive part,
        # misses the residual contract
        nearly = A.copy()
        nearly[0, 0] -= 1e-6
        with pytest.raises(NumericalError, match="^Lyapunov residual "):
            steady_state_covariance(nearly, D)

    @pytest.mark.parametrize("preset", ["fig2a", "fig2c", "fig2d"])
    def test_preset_points_match_the_kron_reference(self, preset, monkeypatch):
        solved = []
        original = dynamics.steady_state_batch

        def recording(m, d):
            h, errors = original(m, d)
            solved.append((drifts_of(m), embed(d), embed(h), errors))
            return h, errors

        monkeypatch.setattr(dynamics, "steady_state_batch", recording)
        run_preset(preset)
        A, D, V = (np.concatenate([s[k] for s in solved]) for k in range(3))
        assert len(A) > 100 and all(e is None for s in solved for e in s[3])
        V_ref = kron_steady_state(A, D)
        rel = np.linalg.norm(V - V_ref, axis=(-2, -1)) / np.linalg.norm(V_ref, axis=(-2, -1))
        assert rel.max() <= KRON_REFERENCE_RTOL


#: The relative residual that steady_state_batch takes on the Hermitian
#: coordinates and the 6x6 one of the same V differ by rounding alone: at
#: most this many eps*||A||_F*||V||_F/||D||_F, a 50th of the floor (0.23
#: measured on 300 stacks of 20 drawn stable systems, each solution moved off
#: by 1e-16 to 1e-6 of its largest coordinate).  The two floors agree to 3
#: eps relative.
RESIDUAL_ROUNDING = 2.0

#: Fixed direction in which the residual tests move each solved h.
_DIRECTION = np.cos(np.arange(1.0, 10.0))


def _check_against_6x6(models, shifts):
    """Solve the stable systems of a column model with each h moved off by
    10^shifts[k] of its largest coordinate, and hold steady_state_batch's
    verdicts and reported residuals to the 6x6 forms of the same V."""
    m, d = state_space_coordinates(models)
    stable = stability_batch(m)
    (A, D), m, d = (X[stable] for X in state_space_batch(models)), m[stable], d[stable]
    solve = np.linalg.solve

    widths = set()

    def moved(op, b):
        h = solve(op, b)
        widths.add(h.shape[1])
        step = 10.0 ** np.asarray(shifts[:len(h)])[:, None, None]
        return h + step * np.abs(h).max(axis=1, keepdims=True) * _DIRECTION[:h.shape[1], None]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", moved)
        h, errors = steady_state_batch(m, d)
    # the solve took 6 coordinates where the whole stack has delta_tilde = 0, else 9
    assert widths <= {6 if np.all(models.delta_tilde[stable] == 0.0) else 9}
    V = embed(h)
    norm_D = np.linalg.norm(D, axis=(1, 2))
    rel = np.linalg.norm(A @ V + V @ np.swapaxes(A, 1, 2) + D, axis=(1, 2)) / norm_D
    unit = np.finfo(float).eps * np.linalg.norm(A, axis=(1, 2)) \
        * np.linalg.norm(V, axis=(1, 2)) / norm_D
    threshold = np.maximum(dynamics.LYAPUNOV_RTOL, 100.0 * unit)
    bound = RESIDUAL_ROUNDING * unit
    for k, error in enumerate(errors):
        if abs(rel[k] - threshold[k]) <= bound[k]:
            continue  # the verdict at the edge is rounding's
        assert (error is None) == (rel[k] < threshold[k])
        if error is not None:
            # the text gives the coordinate residual to 3 digits
            reported = float(re.match(r"^Lyapunov residual (\S+) above tolerance", error)[1])
            assert abs(reported - rel[k]) <= 5e-3 * rel[k] + bound[k]
    return errors


class TestCoordinateResidual:
    @settings(deadline=None, max_examples=30)
    @given(draws=st.lists(_draw, min_size=1, max_size=20),
           shifts=st.lists(st.floats(-16.0, -6.0), min_size=20, max_size=20))
    def test_verdicts_and_residuals_match_the_6x6_forms(self, draws, shifts):
        # on the drawn detunings, and on the same draws at delta_tilde = 0
        _check_against_6x6(_model_stack(draws), shifts)
        _check_against_6x6(_model_stack([(*x[:3], 0.0, *x[4:]) for x in draws]), shifts)

    def test_floor_matches_the_6x6_form(self):
        # near G1 = G2 the floor 100*eps*||A||*||V||/||D|| runs from 3e-6 to
        # 9e4, far above LYAPUNOV_RTOL: a residual moved past it fails, one
        # left below it passes; at delta_tilde = 0 (6 coordinates) and not (9)
        for dt in SOLVED:
            ms = [model(G1=G1, G2=G2, kt=kt, dt=dt, gamma=gamma, n1=1.0, n2=3.0)
                  for G1, G2, kt, gamma in ((0.999e5, 1e5, 5e3, 10.0), (0.9999e5, 1e5, 5e3, 10.0),
                                            (0.99999e5, 1e5, 1e3, 1.0),
                                            (197265.0, 197265.0, 1003.0, 2.0))]
            errors = _check_against_6x6(stack_models(ms + ms), [-16.0] * 4 + [0.0] * 4)
            assert errors[:4] == [None] * 4 and all(e is not None for e in errors[4:])

    def test_weights_give_the_norms_of_the_realifications(self):
        h = np.random.default_rng(3).normal(size=(50, 9))
        assert np.allclose(np.sqrt(h * h @ dynamics._WEIGHTS),
                           np.linalg.norm(embed(h), axis=(1, 2)), rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("preset", ["fig2a", "fig2c", "fig2d"])
    def test_steady_nu_minus_is_that_of_the_embedded_covariances(self, preset, monkeypatch):
        # scoring h[:, [0, 1, 6, 3]] reads the bits that the 4x4 reader
        # reads off the realified V
        solved = []
        original = dynamics.steady_state_batch

        def recording(m, d):
            h, errors = original(m, d)
            solved.append(h)
            return h, errors

        monkeypatch.setattr(dynamics, "steady_state_batch", recording)
        nu_minus = run_preset(preset).columns["nu_minus"]
        _, nus = pt_spectrum(two_mode_coordinates(embed(np.concatenate(solved))[:, :4, :4]))
        assert None not in nu_minus and np.array_equal(nus, nu_minus)


class TestRealForm:
    """The solve on 6 coordinates, where S = diag(1, 1, i) makes the drift
    and the diffusion real (delta_tilde = 0), against the 9x9 solve."""

    def test_fig2_points_match_the_full_solve_bit_for_bit(self, monkeypatch):
        solved, shapes = [], []
        original, solve = dynamics.steady_state_batch, np.linalg.solve

        def recording(m, d):
            h, errors = original(m, d)
            solved.append((m, d, h, errors))
            return h, errors

        def counting(a, b):
            shapes.append(np.shape(a)[1:])
            return solve(a, b)

        monkeypatch.setattr(dynamics, "steady_state_batch", recording)
        monkeypatch.setattr(np.linalg, "solve", counting)
        for preset in ("fig2a", "fig2c", "fig2d"):
            run_preset(preset)
        assert set(shapes) == {(6, 6)}
        m, d, h = (np.concatenate([s[k] for s in solved]) for k in range(3))
        assert len(h) == 3965 and all(e is None for s in solved for e in s[3])
        assert not h[:, [2, 4, 6]].any()
        assert np.array_equal(h, hermitian_steady_state(m, d))

    def test_structural_coordinates_are_those_of_the_real_form(self):
        # derived from S: M = S K S^dagger for real K, and Hermitian H = S K
        # S^dagger for real symmetric K, read by the realification maps
        rng = np.random.default_rng(11)
        S = np.diag([1.0, 1.0, 1j])
        K = rng.normal(size=(40, 3, 3))
        m, h = coordinates(realify(S @ K @ S.conj().T),
                           realify(S @ (K + np.swapaxes(K, 1, 2)) @ S.conj().T))
        # each coordinate vanishes on every draw or on none
        for x in (m, h):
            assert np.array_equal((x == 0.0).all(axis=0), (x == 0.0).any(axis=0))
        phases = np.flatnonzero(m[0] == 0.0), np.flatnonzero(h[0] == 0.0)
        assert phases[0].tolist() == dynamics._PHASES[0].tolist() == [2, 5, 6, 7, 9, 10, 12,
                                                                     13, 17]
        assert phases[1].tolist() == dynamics._PHASES[1].tolist() == [2, 4, 6]
        assert np.flatnonzero(h[0]).tolist() == dynamics._KEPT.tolist() == SOLVED[0.0]
        # the model's diffusion always vanishes there, its drift at delta_tilde = 0 only
        for dt in SOLVED:
            m, d = state_space_coordinates(model(G1=0.9e5, G2=1e5, kt=5e3, dt=dt, n1=1.0))
            assert (m[0, phases[0]] == 0.0).all() == (dt == 0.0)
            assert (d[0, phases[1]] == 0.0).all()

    @pytest.mark.parametrize("diffusion", [False, True], ids=["drift", "diffusion"])
    def test_any_structural_coordinate_takes_the_full_solve(self, monkeypatch, diffusion):
        # steady_state_covariance feeds any phase-insensitive drift through
        # the batched solve: one nonzero structural coordinate of m, or of d,
        # takes the 9x9 solve, whose V holds to the kron reference
        m, d = state_space_coordinates(model(G1=0.9e5, G2=1e5, kt=5e3, n1=1.0, n2=2.0))
        shapes = []
        solve = np.linalg.solve

        def counting(a, b):
            shapes.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        steady_state_covariance(drifts_of(m)[0], embed(d)[0])
        assert shapes == [(1, 6, 6)]
        for k in dynamics._PHASES[diffusion]:
            x, y = m.copy(), d.copy()
            (y if diffusion else x)[0, k] = 1.0
            A, D = drifts_of(x), embed(y)
            assert stability_eigen(A[0])
            shapes.clear()
            V = steady_state_covariance(A[0], D[0])
            assert shapes == [(1, 9, 9)]
            V_ref = kron_steady_state(A, D)[0]
            assert np.linalg.norm(V - V_ref) <= KRON_REFERENCE_RTOL * np.linalg.norm(V_ref)


def _recorded_drifts(run, *args) -> np.ndarray:
    """The coordinates of every drift that run(*args) passes to
    dynamics.stability_batch, stacked."""
    seen = []
    original = dynamics.stability_batch

    def recording(m):
        seen.append(np.array(m))
        return original(m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "stability_batch", recording)
        run(*args)
    return np.concatenate(seen)


def _near_the_band_edge(rng, n: int, real: bool) -> np.ndarray:
    """Coordinates of n random complex drifts M, or of drifts real up to S =
    diag(1, 1, i), each shifted so that its spectral abscissa lies within
    1e-10 to 1e-4 times ||A||_F of 0, on either side, log-uniformly: about a
    sixth stable beyond the certificate's margin (ROUTH_MARGIN is about
    1e-6) and a sixth unstable beyond it."""
    M = rng.normal(size=(n, 3, 3)) + (0.0 if real else 1j * rng.normal(size=(n, 3, 3)))
    if real:
        M = M * np.outer([1, 1, 1j], [1, 1, -1j])  # S M S^dagger for a real M
    A = drifts_of(complex_coordinates(M))
    abscissa = np.linalg.eigvals(A).real.max(axis=-1)
    offset = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-10.0, -4.0, n)
    shift = abscissa + offset * np.linalg.norm(A, axis=(-2, -1))
    return complex_coordinates(M - shift[:, None, None] * np.eye(3))


#: The detunings the benchmark's evolve sweep draws at seeds 0 to 2
#: (perfbench/workloads.py, EvolveSweep: the first draw of each seed's generator).
EVOLVE_SWEEP_DELTAS = [float(np.random.default_rng(seed).uniform(0.0, 2e3)) for seed in range(3)]


class TestRouthCertificate:
    """The private Routh-Hurwitz verdicts, called directly, against the
    eigenvalue route (also on the hypothesis stacks of TestBatchedCore)."""

    @pytest.mark.parametrize("preset", ["fig2a", "fig2c", "fig2d"])
    def test_certifies_every_fig2_point(self, preset):
        # so the steady presets take no eigenvalue call
        certified, refuted, _ = routh_against_eigen(_recorded_drifts(run_preset, preset))
        assert len(certified) > 100 and certified.all() and not refuted.any()

    @pytest.mark.parametrize("Delta", [0.0, 1e3, 2e3, *EVOLVE_SWEEP_DELTAS])
    def test_settles_the_evolve_sweep_grid(self, Delta, monkeypatch):
        # the benchmark's evolve sweep grid, about half unstable, with
        # kappa_tilde = 0 at rB = 1; steady mode builds the same drifts.  Only
        # the band edge is left unsettled, and only it takes eigvals
        cfg = RunConfig(G1=1e4, G2=1e4, kappa1=5e4, kappa2=5e4, gamma1=10.0, gamma2=10.0,
                        theta=0.0, Delta=Delta, axes=(SweepAxis("ratio", 0.9, 1.1, 15),
                                                      SweepAxis("rB", 0.0, 1.0, 15)))
        m = _recorded_drifts(run_sweep, cfg)
        certified, refuted, stable = routh_against_eigen(m)
        assert len(stable) == 225 and 0 < stable.sum() < 225
        assert np.array_equal(certified, stable)
        unsettled = ~(certified | refuted)
        assert unsettled.sum() <= 2 and band_edge(m)[unsettled].all()
        sizes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: sizes.append(len(a)) or eigvals(a))
        assert np.array_equal(stability_batch(m), stable)
        assert sum(sizes) == unsettled.sum()

    def test_agrees_on_random_complex_drifts(self):
        # general complex M, shifted so that about half are stable: on the
        # model's own drifts some Routh entries never decide the verdict
        rng = np.random.default_rng(3)
        M = rng.normal(size=(2000, 3, 3)) + 1j * rng.normal(size=(2000, 3, 3))
        M -= rng.uniform(0.0, 3.0, size=(2000, 1, 1)) * np.eye(3)
        certified, refuted, stable = routh_against_eigen(complex_coordinates(M))
        assert 500 < stable.sum() < 1500 and certified.sum() > 0.99 * stable.sum()
        assert refuted.sum() > 0.99 * (~stable).sum()

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_settles_all_but_the_band_edge(self, real):
        # drifts within 1e-10 to 1e-4 of ||A||_F of the imaginary axis; those
        # real up to S give p*conj(p) double roots, the sextic's hard case
        m = _near_the_band_edge(np.random.default_rng(5), 2048, real)
        certified, refuted, stable = routh_against_eigen(m)
        unsettled = ~(certified | refuted)
        assert certified.sum() > 250 and refuted.sum() > 250 and unsettled.sum() > 1000
        assert band_edge(m)[unsettled].all()

    def test_leaves_non_finite_drifts_unsettled(self):
        m = state_space_coordinates(_model_stack([(0.9, 1e5, 5e3, 0.0, 10.0, 1.0, 2.0)] * 4))[0]
        # Re M00 = -gamma1/2, Im M22 = -delta_tilde and Re M22 = -kappa_tilde
        m[1, 0], m[2, 17], m[3, 8] = np.nan, np.inf, -np.inf
        certified, refuted, stable = routh_against_eigen(m)
        assert certified.tolist() == stable.tolist() == [True, False, False, False]
        assert not refuted.any()

    def test_large_stacks_take_eigenvalues_only_where_unsettled(self, monkeypatch):
        # stable points of the fig2c family, unstable ones, and weakly damped
        # ones inside and near the marginal band, which neither verdict settles
        draws = [(r, 1e5, 1e5 * (1.0 - rB), 0.0, gamma, 0.0, 0.0)
                 for r in (0.5, 0.9, 0.99, 1.05) for rB in (0.0, 0.5, 0.95)
                 for gamma in (1e-4, 1e-3, 1e-2, 1.0, 10.0, 100.0, 1e3)]
        m = state_space_coordinates(_model_stack(draws))[0]
        assert len(m) >= dynamics.CERTIFICATE_MIN_STACK
        certified, refuted, stable = routh_against_eigen(m)
        unsettled = ~(certified | refuted)
        assert 0 < certified.sum() < stable.sum() and 0 < refuted.sum() < (~stable).sum()
        shapes = []
        eigvals = np.linalg.eigvals

        def counting(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        assert np.array_equal(stability_batch(m), stable)
        assert shapes == [(unsettled.sum(), 6, 6)]
        # a non-finite drift in the stack reads not stable, the rest as before
        m[-1, 0] = np.nan
        assert np.array_equal(stability_batch(m), np.r_[stable[:-1], False])


#: Bound on the 1-norm of every block with a nonzero drift that
#: transition_and_noise hands to expm: max|D'| < 2 max|A|, and a row or column
#: of a 6x6 A sums to at most sqrt(6) ||A||_F.  The largest measured over a
#: Tier-1 run is 0.16.
BLOCK_NORM_BOUND = (2.0 + math.sqrt(6.0)) * dynamics.STEP_NORM_CAP

#: Relative Frobenius error allowed in expm against mpmath.expm on blocks
#: scaled to 1-norm 0.45; the largest measured is 7.0e-17.
EXPM_RTOL = 1e-15

#: Drawn rates with baths up to nbar = 1e300, G1 / G2 up to 3.
_hot_draw = st.tuples(st.floats(0.0, 3.0), *_RATES_AND_BATHS[:-2],
                      st.floats(0.0, 1e300), st.floats(0.0, 1e300))


def _blocks(A, D, dt):
    """transition_and_noise's M and the stack of blocks it hands to expm."""
    blocks = []
    expm = dynamics.expm
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "expm", lambda X, E=None: blocks.append(X) or expm(X, E))
        M = transition_and_noise(A, D, dt)[0]
    assert len(blocks) == 1
    return M, blocks[0]


class TestTransitionAndNoise:
    @settings(deadline=None, max_examples=60)
    @given(draws=st.lists(_hot_draw, min_size=1, max_size=8), dt=st.floats(1e-12, 1e6),
           frozen=st.booleans())
    def test_blocks_meet_the_exponential_precondition(self, draws, dt, frozen):
        A, D = state_space_batch(_model_stack(draws))
        if frozen:  # the zero drift is not subdivided: its block is nilpotent
            A = np.zeros_like(A)
        M, blocks = _blocks(A, D, dt)
        for X, drift in zip(blocks, A):
            if drift.any():
                assert np.abs(X).sum(axis=0).max() <= BLOCK_NORM_BOUND
            else:
                assert not (X @ X).any()
        if frozen:
            assert np.array_equal(M, np.broadcast_to(np.eye(6), M.shape))

    @settings(deadline=None, max_examples=20)
    @given(draw=_hot_draw, dt=st.floats(1e-12, 1e6))
    def test_taylor_sum_matches_mpmath_at_the_norm_bound(self, draw, dt):
        A, D = state_space_batch(_model_stack([draw]))
        X = _blocks(A, D, dt)[1][0]
        X = X * (0.45 / np.abs(X).sum(axis=0).max())
        F = dynamics.expm(X)
        with mpmath.workdps(ORACLE_DPS):
            ref = mpmath.expm(mpmath.matrix(X.tolist()))
            error = mpmath.norm(mpmath.matrix(F.tolist()) - ref) / mpmath.norm(ref)
        assert error <= EXPM_RTOL

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
        # a NaN or infinite dt, alone or in a stack's array, would give
        # all-NaN maps with no error
        for dt in (np.inf, np.nan, [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="^dt must be positive and finite$"):
                transition_and_noise(np.zeros((2, 2, 2)), np.stack([np.eye(2)] * 2), dt)


#: Largest difference allowed between propagate_batch and the sequential
#: steps of reference.propagate_stepwise, relative to each sample's max|V|;
#: the largest measured on TestPropagate's grids is 3.0e-12, over a run of 257
#: intervals.
STEPWISE_RTOL = 1e-10

#: A stack of six stable models and a marginal one (kappa_tilde = 0) at
#: doubling counts 2 to 5 over a 1e-5 interval, mostly from hot starts.
_STEPWISE_MODELS = [model(G1=1e4, G2=1e4, kt=kt, dt=1e3, n1=20.0, n2=10.0)
                    for kt in (0.0, 1e3, 2e4, 1e5, 2e5)] + [
    model(G1=0.9e5, G2=1e5, kt=5e3, dt=2e3, n1=2.0), model(G1=1e3, G2=2e3, kt=3e4, dt=1e2)]

#: Grids, each with its number of runs of equal intervals: runs of 1, 2, 2^k
#: and 2^k + 1 intervals from t = 0, interleaved intervals, and grids that
#: start after 0 (their first interval, from t = 0, joins the run that
#: follows it or starts its own).
_STEPWISE_GRIDS = {
    **{f"run_{n}": (np.arange(n + 1) * 1e-5, 1) for n in (1, 2, 3, 16, 17, 256, 257)},
    "interleaved": ([1e-5, 2e-5, 3e-5, 1e-4, 2e-4, 3e-4, 4e-4, 1e-3], 4),
    "offset_joined": (np.linspace(0.0, 2e-3, 201)[1:], 1),
    "offset": (np.linspace(0.0, 2e-3, 201)[60:], 2),
}

#: The divergence fixtures of TestPropagate: drift stacks with the grids they
#: diverge on.
_DIVERGING = {
    "one_unstable": ([model(G1=2e5, G2=1e4, kt=1e3)], [0.1, 1.0, 10.0]),
    "per_system": ([model(G1=2e5, G2=1e4, kt=1e3), model(G1=1e4, G2=2e4, kt=1e3)],
                   [0.1, 1.0, 10.0]),
    "mixed_chunk": ([model(G1=2e4, G2=1e4, kt=1e5, dt=1e3), model(G1=2e5, G2=1e4, kt=1e3),
                     model(G1=0.9e4, G2=1e4, kt=1e5, dt=1e3)], np.linspace(0.0, 1.0, 301)),
    # without the unit-size redo of dynamics._apply the doubling's
    # 256-interval maps overflow at a sample of 1.5e307, one sample before
    # the sequential steps do
    "terms_cancel": ([model(G1=1.6e5, G2=1.54e5, kt=1.686e5, dt=2.975e4, gamma=659.0,
                            n1=40.0, n2=26.0)], np.linspace(0.0, 0.0358, 322)),
}


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
        # every comparison with NaN is false: a non-finite time must be
        # rejected before the grid's steps are compared
        for bad in ([0.0, np.nan], [np.nan, 1.0], [0.0, np.inf], [0.0, 1.0, np.inf, np.inf]):
            with pytest.raises(ValueError, match="^t_grid must be finite"):
                propagate(A, D, V0, bad)
        with pytest.raises(ValueError, match="^V0 shape does not match the drift matrix$"):
            propagate(A, D, V0[:4, :4], [0.0, 1.0])

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
        monkeypatch.setattr(dynamics, "expm", lambda X, E=None: calls.append(1) or expm(X, E))
        # the fig3 setting: G1 = G2 = 1e4, kappa1 = kappa2 = 5e4, Delta = 1e3
        A, D = state_space(model(G1=1e4, G2=1e4, kt=1e5 * (1.0 - rB), dt=1e3,
                               n1=n1, n2=n2))
        t_grid = np.linspace(0.0, 2e-3, 201)
        V0 = initial_covariance(n1, n2)
        covs = propagate(A, D, V0, t_grid)
        assert len(calls) == 1
        # reference: the 50-digit exact map from t = 0 to each sample's own t
        for k in (1, 100, 200):
            M, Q = van_loan_maps(A, D, float(t_grid[k]))
            with mpmath.workdps(ORACLE_DPS):
                V = M * mpmath.matrix(V0.tolist()) * M.T + Q
                nu = oracle_nu_pt([[V[i, j] for j in range(4)] for i in range(4)])
            en_ref = log_negativity_from_nu(float(nu))
            en = log_negativity_from_nu(min_symplectic_eigenvalue_pt(covs[k, :4, :4]))
            assert abs(en - en_ref) <= 1e-8

    def test_offset_grid_adds_one_map(self, monkeypatch):
        calls = []
        expm = dynamics.expm
        monkeypatch.setattr(dynamics, "expm", lambda X, E=None: calls.append(1) or expm(X, E))
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
        monkeypatch.setattr(dynamics, "expm", lambda X, E=None: calls.append(len(X)) or expm(X, E))
        # norms from 2e4 to 3e5: doubling counts 2 to 5 over one interval
        models = [model(G1=1e4, G2=1e4, kt=kt, dt=1e3, n1=20.0, n2=10.0)
                  for kt in (0.0, 1e3, 2e4, 1e5, 2e5)]
        A, D = state_space_batch(stack_models(models))
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
        A, D = state_space_batch(stack_models(models))
        dt = 1e-5
        norms = np.linalg.norm(A, axis=(-2, -1))
        doublings = np.maximum(0, np.ceil(np.log2(norms * dt / dynamics.STEP_NORM_CAP)))
        assert len(set(doublings)) == len(models)
        steps = dt / 2.0 ** doublings
        M, Q = transition_and_noise(A, D, steps)
        M_int, Q_int = transition_and_noise(A, D, dt)
        for k in range(len(models)):
            M1, Q1 = transition_and_noise(A[k], D[k], steps[k])
            assert np.array_equal(M[k], M1) and np.array_equal(Q[k], Q1)
            for _ in range(int(doublings[k])):
                Q1 = M1 @ Q1 @ M1.T + Q1
                Q1 = 0.5 * (Q1 + Q1.T)
                M1 = M1 @ M1
            assert np.array_equal(M_int[k], M1) and np.array_equal(Q_int[k], Q1)

    def test_unsorted_doubling_counts_give_each_system_its_maps_alone(self):
        # the squaring rounds run on the systems sorted by doubling count; in
        # a stack of counts 3, 0, 5, 0, 1, 0 and 3, with a zero drift and a
        # non-finite one among the 0s, each system gets its maps alone, bit for bit
        models = [model(G1=1e3, G2=2e3, kt=kt, dt=1e2, n1=1.0)
                  for kt in (3e4, 3e4, 2e5, 3e4, 1e4, 1e2, 4e4)]
        A, D = state_space_batch(stack_models(models))
        A[1] = 0.0
        A[3, 4, 0] = np.inf
        dt = 1e-5
        norms = np.linalg.norm(A[[0, 2, 4, 5, 6]], axis=(-2, -1))
        doublings = np.maximum(0, np.ceil(np.log2(norms * dt / dynamics.STEP_NORM_CAP)))
        assert doublings.tolist() == [3, 5, 1, 0, 3]
        M, Q = transition_and_noise(A, D, dt)
        assert np.array_equal(M[1], np.eye(6))
        assert not np.isfinite(M[3]).all() and not np.isfinite(Q[3]).all()
        for k in range(len(A)):
            M1, Q1 = transition_and_noise(A[k], D[k], dt)
            assert M[k].tobytes() == M1.tobytes() and Q[k].tobytes() == Q1.tobytes()

    @pytest.mark.parametrize("grid", _STEPWISE_GRIDS.values(), ids=_STEPWISE_GRIDS.keys())
    def test_matches_the_sequential_steps(self, grid, monkeypatch):
        t_grid, runs = grid
        calls = []
        maps = dynamics.transition_and_noise
        monkeypatch.setattr(dynamics, "transition_and_noise",
                            lambda *args: calls.append(1) or maps(*args))
        A, D = state_space_batch(stack_models(_STEPWISE_MODELS))
        V0 = np.stack([initial_covariance(m.nbar1, m.nbar2) for m in _STEPWISE_MODELS])
        covs, first_bad = propagate_batch(A, D, V0, t_grid)
        assert len(calls) == runs
        ref, ref_bad = propagate_stepwise(A, D, V0, t_grid)
        assert np.array_equal(first_bad, ref_bad) and np.all(first_bad == -1)
        scale = np.abs(ref).max(axis=(-2, -1))
        assert np.all(np.abs(covs - ref).max(axis=(-2, -1)) <= STEPWISE_RTOL * scale)

    @pytest.mark.parametrize("fixture", _DIVERGING.values(), ids=_DIVERGING.keys())
    def test_divergence_index_matches_the_sequential_steps(self, fixture):
        models, t_grid = fixture
        A, D = state_space_batch(stack_models(models))
        V0 = initial_covariance(*stack_models(models).columns()[6:])
        first_bad = propagate_batch(A, D, V0, t_grid)[1]
        assert np.any(first_bad >= 0)
        assert np.array_equal(first_bad, propagate_stepwise(A, D, V0, t_grid)[1])

    @settings(deadline=None, max_examples=30)
    @given(draws=st.lists(_unstable_draw, min_size=1, max_size=12),
           horizon=st.floats(1e-3, 1.0), points=st.integers(2, 300))
    def test_drawn_unstable_stacks_diverge_where_the_sequential_steps_do(self, draws, horizon,
                                                                       points):
        models = _model_stack(draws)
        A, D = state_space_batch(models)
        unstable = ~stability_batch(state_space_coordinates(models)[0])
        assume(unstable.any())
        A, D = A[unstable], D[unstable]
        V0 = initial_covariance(*(x[unstable] for x in models.columns()[6:]))
        t_grid = np.linspace(0.0, horizon, points)
        first_bad = propagate_batch(A, D, V0, t_grid)[1]
        assert np.array_equal(first_bad, propagate_stepwise(A, D, V0, t_grid)[1])

    def test_uniform_grid_takes_logarithmically_many_rounds(self, monkeypatch):
        # a round is one batched step that fills samples; the squarings of
        # the maps step their own noise maps
        calls, rounds = [], []
        maps, apply = dynamics.transition_and_noise, dynamics._apply
        monkeypatch.setattr(dynamics, "transition_and_noise",
                            lambda *args: calls.append(1) or maps(*args))
        monkeypatch.setattr(dynamics, "_apply",
                            lambda M, Q, V, out=None: rounds.append(V is not Q)
                            or apply(M, Q, V, out))
        A, D = state_space_batch(stack_models(_STEPWISE_MODELS))
        V0 = np.stack([initial_covariance(m.nbar1, m.nbar2) for m in _STEPWISE_MODELS])
        propagate_batch(A, D, V0, np.linspace(0.0, 2e-3, 201))
        assert len(calls) == 1
        assert sum(rounds) <= math.ceil(math.log2(200)) + 1

    def test_step_overflows_only_where_its_result_does(self):
        # M V M^T = 0 exactly for the first system, but its terms are 2^1200;
        # the second's result overflows; the third stays as it is alone
        a = 2.0 ** 600
        M = np.array([[[a, a], [0.0, 0.0]], [[a, 0.0], [0.0, 1.0]], [[0.5, 0.25], [0.0, 2.0]]])
        V = np.array([np.diag([1.0, -1.0]), np.eye(2), [[3.0, 1.0], [1.0, 2.0]]])
        Q = np.stack([np.eye(2)] * 3)
        with np.errstate(over="ignore", invalid="ignore"):
            W = dynamics._apply(M, Q, V)
        assert np.array_equal(W[0], np.eye(2))
        assert not np.isfinite(W[1]).all()
        assert np.array_equal(W[2], dynamics._apply(M[2:], Q[2:], V[2:])[0])

    def test_largest_symmetric_samples_read_finite(self):
        # a frozen system keeps samples of half the largest double, whose
        # plain sum of entries overflows
        big = np.finfo(float).max / 2.0
        V0 = big * np.array([np.ones((6, 6)), np.where(np.eye(6) > 0, 1.0, -1.0)])
        covs, first_bad = propagate_batch(np.zeros((2, 6, 6)), np.zeros((2, 6, 6)), V0,
                                          [0.0, 1.0, 2.0])
        with np.errstate(over="ignore"):
            assert np.isinf(V0[0].sum())
        assert np.array_equal(first_bad, [-1, -1])
        assert np.array_equal(covs, np.repeat(V0[:, None], 3, axis=1))

    @pytest.mark.parametrize("grid", [[0.0, 1.0], [1.0, 2.0]])
    def test_start_beyond_half_the_largest_double_reads_finite(self, grid):
        # the start and each step halve before they symmetrize, so finite
        # entries up to the largest double stay finite: a frozen system keeps them
        V0 = np.full((1, 6, 6), 1.7e308)
        covs, first_bad = propagate_batch(np.zeros((1, 6, 6)), np.zeros((1, 6, 6)), V0, grid)
        assert np.array_equal(first_bad, [-1])
        assert np.array_equal(covs, np.repeat(V0[:, None], 2, axis=1))

    def test_noise_beyond_half_the_largest_double_reads_finite(self):
        # the noise map halves before it symmetrizes too: a frozen drift with
        # a diffusion of 1.7e308 carries 0 to exactly D over one unit of time
        D = np.diag(np.full(6, 1.7e308))[None]
        covs, first_bad = propagate_batch(np.zeros((1, 6, 6)), D, np.zeros((1, 6, 6)),
                                          [0.0, 1.0])
        assert np.array_equal(first_bad, [-1]) and np.array_equal(covs[0, 1], D[0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_first_non_finite_index_sees_every_entry(self, monkeypatch, bad):
        # one non-finite entry written into one sample of the second system,
        # as a run's fill writes it (samples 1, 2, 3-4 and 5-8 of a
        # 9-sample grid), is reported at that sample, at each of the 36
        # positions; the later samples it spreads to, with inf - inf in
        # their sums, raise no warning
        apply = dynamics._apply
        A, D = state_space_batch(stack_models([model(G1=1e4, G2=1e4, kt=1e5, dt=1e3)] * 2))
        V0 = np.stack([initial_covariance(1.0, 2.0)] * 2)
        t_grid = np.linspace(0.0, 1e-4, 9)
        for target, position in itertools.product(range(1, 9), range(36)):
            filled = [1]  # the samples up to the next one the fill writes

            def spoiling(M, Q, V, out=None):
                W = apply(M, Q, V, out)
                if out is not None:
                    first = filled[0]
                    filled[0] += W.shape[1]
                    if first <= target < filled[0]:
                        W[1, target - first].flat[position] = bad
                return W

            monkeypatch.setattr(dynamics, "_apply", spoiling)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                first_bad = propagate_batch(A, D, V0, t_grid)[1]
            assert filled[0] == 9
            assert first_bad.tolist() == [-1, target]

    def test_empty_stack(self):
        covs, first_bad = propagate_batch(np.zeros((0, 6, 6)), np.zeros((0, 6, 6)),
                                          np.zeros((0, 6, 6)), [0.0, 1.0, 3.0])
        assert covs.shape == (0, 3, 6, 6) and first_bad.shape == (0,)

    def test_divergence_is_reported_per_system(self):
        A, D = state_space_batch(stack_models([model(G1=2e5, G2=1e4, kt=1e3),
                                                model(G1=1e4, G2=2e4, kt=1e3)]))
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


#: Binary exponents k of the units of time of TestUnitOfTime: every rate
#: scaled by 2^k and the time grid by 2^-k, exactly, the occupancies fixed.
UNIT_EXPONENTS = (-900, -700, -500, 0, 500, 900)


def _in_units(model: EffectiveModel, k: int) -> EffectiveModel:
    columns = model.columns()
    return EffectiveModel(*np.ldexp(columns[:6], k), *columns[6:])


def _assert_same_outcomes(out, ref):
    assert out.error == ref.error
    assert np.array_equal(out.stable, ref.stable)
    assert np.array_equal(out.nu_minus, ref.nu_minus, equal_nan=True)


class TestUnitOfTime:
    """Only rate ratios matter: with every rate scaled by 2^k and time by
    2^-k, every stability verdict, error, E_N and nu_minus is the same, bit
    for bit, at any k."""

    @pytest.mark.parametrize("k", UNIT_EXPONENTS)
    def test_steady_outcomes(self, k):
        cfg = preset_config("fig2c")
        names = [ax.name for ax in cfg.axes]
        points = [dict(zip(names, p))
                  for p in itertools.product(*(ax.grid().tolist() for ax in cfg.axes))]
        marginal = stack_models([*MARGINAL_MODELS.values(), marginal_model(4e-4)])
        fig2c = resolve_chunk(cfg, names, point_columns(names, points))[0]
        # a stack of the fig2c points and the marginal models takes the
        # Routh-Hurwitz certificate, the marginal models alone the eigenvalues
        for models in (stack_models([fig2c, marginal]), marginal):
            _assert_same_outcomes(evaluate_steady_batch(_in_units(models, k)),
                                  evaluate_steady_batch(models))

    @pytest.mark.parametrize("k", UNIT_EXPONENTS)
    def test_transient_outcomes(self, k):
        for name in ("fig3a", "fig3b"):
            cfg = preset_config(name)
            models = resolve_chunk(cfg, ["rB"], np.array([FIG3_RB_VALUES]))[0]
            t_grid = cfg.time_grid()
            _assert_same_outcomes(evaluate_evolve_batch(_in_units(models, k),
                                                        np.ldexp(t_grid, -k)),
                                  evaluate_evolve_batch(models, t_grid))


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@contextlib.contextmanager
def _pinned_kernels():
    """Check the library's four lean kernels against their plain forms in
    tests/reference.py on every input that the pipeline hands them inside
    the block: the same bits, or an AssertionError.  Yields a Counter of
    the calls checked per kernel."""
    calls = collections.Counter()
    expm, routh, apply, two_product = (dynamics.expm, dynamics._routh_column,
                                       dynamics._apply, entanglement._two_product)

    def expm_pinned(X, E=None):
        full = horner_expm(X)
        F = expm(X, E)
        if E is not None:  # transition_and_noise's E: the identity's last columns
            assert np.array_equal(E, np.eye(X.shape[-1])[:, -E.shape[-1]:])
            full = full[..., -E.shape[-1]:]
        assert _same_bits(F, full)
        calls["expm"] += 1
        return F

    def routh_pinned(m, shift):
        column = routh(m, shift)
        assert _same_bits(column, routh_column_1j(m, shift))
        calls["routh"] += 1
        return column

    def apply_pinned(M, Q, V, out=None):
        ref = apply_add(M, Q, V)  # before out is written: V may lie beside it
        W = apply(M, Q, V, out)
        assert _same_bits(W, ref)
        calls["apply"] += 1
        return W

    def two_product_pinned(x, y):
        p, e = two_product(x, y)
        assert all(map(_same_bits, (p, e), two_product_allocating(x, y)))
        calls["two_product"] += 1
        return p, e

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "expm", expm_pinned)
        patch.setattr(dynamics, "_routh_column", routh_pinned)
        patch.setattr(dynamics, "_apply", apply_pinned)
        patch.setattr(entanglement, "_two_product", two_product_pinned)
        yield calls


#: Models pinned beside the benchmark's grid: the marginal steady points,
#: the fig3 setting at kappa_tilde = 0 and the undamped transient that
#: exits 4 (`cfomech evolve --set G1=1e4 G2=1e4 gamma1=0 gamma2=0 Delta=1e3`).
_PINNED_MODELS = {
    **MARGINAL_MODELS,
    "fig3_kappa_tilde_zero": model(G1=1e4, G2=1e4, kt=0.0, dt=1e3, n1=20.0, n2=10.0),
    "undamped": model(G1=1e4, G2=1e4, kt=1e5, dt=1e3, gamma=0.0),
}


class TestLeanKernels:
    """The Van Loan maps from the right half of the Horner sum, the Routh
    column from one contiguous complex array, the step's copy-and-add
    symmetrization and the in-place Dekker split give the bits of their
    plain forms (tests/reference.py)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_evolve_sweep_grid(self, seed):
        # the benchmark's evolve sweep at seeds 0-2: Delta, nbar1 and nbar2
        # are each seed's first draws (perfbench/workloads.py, EvolveSweep)
        rng = np.random.default_rng(seed)
        Delta, nbar1, nbar2 = rng.uniform(0.0, 2e3), rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)
        cfg = RunConfig(G1=1e4, G2=1e4, kappa1=5e4, kappa2=5e4, gamma1=10.0, gamma2=10.0,
                        theta=0.0, mode="evolve", tMax=2e-3, tPoints=51, Delta=Delta,
                        nbar1=nbar1, nbar2=nbar2,
                        axes=(SweepAxis("ratio", 0.9, 1.1, 15), SweepAxis("rB", 0.0, 1.0, 15)))
        with _pinned_kernels() as calls:
            run_sweep(cfg)
        # one point chunk: one expm and one scoring step, both Routh verdicts,
        # and the fill in three slices of at most 80 models
        assert calls["expm"] == 1 and calls["routh"] == 2
        assert calls["apply"] > 3 * 6 and calls["two_product"] == 1

    @pytest.mark.parametrize("name", list(_PINNED_MODELS))
    def test_pinned_models(self, name):
        # a stack that takes the Routh verdicts, and the model alone over the
        # exit-4 row's grid
        models = stack_models([_PINNED_MODELS[name]] * dynamics.CERTIFICATE_MIN_STACK)
        with _pinned_kernels() as calls:
            evaluate_steady_batch(models)
            evaluate_evolve_batch(models, np.linspace(0.0, 2e-3, 51))
            evaluate_evolve_batch(stack_models([_PINNED_MODELS[name]]), np.linspace(0.0, 10.0, 3))
        assert min(calls[k] for k in ("expm", "routh", "apply", "two_product")) > 0

    @settings(deadline=None, max_examples=30)
    @given(draws=st.lists(st.one_of(_draw, _hot_draw), min_size=1, max_size=12),
           tMax=st.floats(1e-6, 1e2))
    def test_hypothesis_draws(self, draws, tMax):
        # hot baths and long horizons, so some maps and samples are not finite
        models = _model_stack(draws)
        m = state_space_coordinates(models)[0]
        with _pinned_kernels() as calls:
            dynamics._routh_certificate(m)
            dynamics._routh_instability(m)
            evaluate_evolve_batch(models, np.linspace(0.0, tMax, 9))
        assert calls["routh"] == 2 and calls["expm"] == 1 and calls["two_product"] == 1

    @settings(deadline=None, max_examples=60)
    @given(draws=st.lists(_model_draw, min_size=1, max_size=8))
    def test_routh_verdicts_on_non_finite_drifts(self, draws):
        # rates from 0 to inf; and the first drift with a NaN or an infinite
        # coordinate at each place in turn.  Both verdicts are those of the
        # plain column.  The columns differ at most in the sign of a zero, or
        # in an infinity where the plain form has NaN: beside an infinite
        # imaginary part it put 0*inf into the real part
        m = state_space_coordinates(stack_models([EffectiveModel(*x) for x in draws]))[0]
        spoiled = np.repeat(m[:1], 3 * 18, axis=0)
        spoiled[np.arange(54), np.tile(np.arange(18), 3)] = np.repeat([np.nan, np.inf, -np.inf], 18)
        for m in (m, spoiled):
            for shift in (dynamics.STABILITY_TOL + dynamics.ROUTH_MARGIN,
                          dynamics.STABILITY_TOL - dynamics.ROUTH_MARGIN):
                column, ref = dynamics._routh_column(m, shift), routh_column_1j(m, shift)
                same = (column == ref) | (np.isnan(column) & np.isnan(ref))
                assert (same | (np.isinf(column) & np.isnan(ref))).all()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "_routh_column", routh_column_1j)
                plain = dynamics._routh_certificate(m), dynamics._routh_instability(m)
            assert np.array_equal(dynamics._routh_certificate(m), plain[0])
            assert np.array_equal(dynamics._routh_instability(m), plain[1])
