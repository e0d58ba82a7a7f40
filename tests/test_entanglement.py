import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfomech import dynamics, experiments
from cfomech.entanglement import (
    initial_covariance,
    log_negativity,
    min_symplectic_eigenvalue_pt,
    pt_spectrum,
    two_mode_coordinates,
)
from cfomech.errors import NumericalError, PhysicalityError
from reference import (
    stack_models,
    MOMENTUM_FLIP,
    physicality_check,
    realify,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezed_covariance,
)


def rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [-s, c]])


def squeezer(r):
    return np.diag([math.exp(r), math.exp(-r)])


def local_rotation(phi1, phi2):
    out = np.zeros((4, 4))
    out[:2, :2], out[2:, 2:] = rotation(phi1), rotation(phi2)
    return out


def thermal_squeezed(r, nbar, n1, n2):
    """Thermal two-mode squeezed state with extra local noise n1 and n2."""
    return two_mode_squeezed_covariance(r, nbar=nbar) + np.diag([n1, n1, n2, n2])


def hermitian_form(V4):
    """The Hermitian 2x2 [[a, c], [c*, b]] that a phase-insensitive two-mode
    covariance matrix realifies, each entry the mean of its paired entries."""
    a = 0.5 * (V4[..., 0, 0] + V4[..., 1, 1])
    b = 0.5 * (V4[..., 2, 2] + V4[..., 3, 3])
    c = 0.5 * (V4[..., 0, 2] - V4[..., 1, 3]) - 0.5j * (V4[..., 0, 3] + V4[..., 1, 2])
    return np.stack([np.stack([a, c], -1), np.stack([np.conj(c), b], -1)], -2)


def two_mode_symplectic(phi1, phi2, r1, r2, psi1, psi2):
    def block(a, b):
        out = np.zeros((4, 4))
        out[:2, :2] = a
        out[2:, 2:] = b
        return out
    return (block(rotation(phi1), rotation(phi2))
            @ block(squeezer(r1), squeezer(r2))
            @ block(rotation(psi1), rotation(psi2)))


class TestSymplecticForm:
    def test_square_is_minus_identity(self):
        for n in (1, 2, 3):
            Om = symplectic_form(n)
            assert np.array_equal(Om @ Om, -np.eye(2 * n))
            assert np.array_equal(Om.T, -Om)

    def test_momentum_flip_involution(self):
        V = two_mode_squeezed_covariance(0.7, nbar=1.3)
        assert np.array_equal(MOMENTUM_FLIP @ (MOMENTUM_FLIP @ V @ MOMENTUM_FLIP)
                              @ MOMENTUM_FLIP, V)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert symplectic_eigenvalues(np.eye(4) / 2) == pytest.approx([0.5, 0.5])

    def test_thermal(self):
        nus = symplectic_eigenvalues(np.diag([3.5, 3.5, 7.5, 7.5]))
        assert nus == pytest.approx([3.5, 7.5])

    def test_two_mode_squeezed_spectrum(self):
        # both symplectic eigenvalues of the squeezed vacuum state equal 1/2
        nus = symplectic_eigenvalues(two_mode_squeezed_covariance(1.3))
        assert nus == pytest.approx([0.5, 0.5], abs=1e-10)

    @settings(deadline=None, max_examples=60)
    @given(r=st.floats(0.0, 1.5), nbar=st.floats(0.0, 20.0),
           phi1=st.floats(-math.pi, math.pi), phi2=st.floats(-math.pi, math.pi),
           r1=st.floats(-1.0, 1.0), r2=st.floats(-1.0, 1.0),
           psi1=st.floats(-math.pi, math.pi), psi2=st.floats(-math.pi, math.pi))
    def test_invariance_under_symplectics(self, r, nbar, phi1, phi2, r1, r2, psi1, psi2):
        V = two_mode_squeezed_covariance(r, nbar=nbar)
        S = two_mode_symplectic(phi1, phi2, r1, r2, psi1, psi2)
        before = symplectic_eigenvalues(V)
        after = symplectic_eigenvalues(S @ V @ S.T)
        scale = max(1.0, float(np.abs(V).max()) * math.exp(2 * (abs(r1) + abs(r2))))
        assert after == pytest.approx(before, abs=1e-10 * scale)


class TestMechanicalSubmatrix:
    """The two mechanical modes' reduced state is the top-left 4x4 block of a
    6x6 covariance matrix, which the scoring step slices out."""

    def test_diagonal_projection(self):
        # a product state: the cavity's variances 5 and 6 must not be scored,
        # neither from the steady path's 9 Hermitian coordinates, of which
        # (a, Re c, Im c, b) are 0, 1, 6 and 3, nor through the 4x4 reader
        V6 = np.diag([1.0, 1.0, 3.0, 3.0, 5.0, 6.0])
        h = V6.reshape(1, 36) @ dynamics._HERMITIAN[1]
        for coords in (h[:, [0, 1, 6, 3]], two_mode_coordinates(V6[None, :4, :4])):
            _, nu = experiments._score(coords[:, None], [None])
            assert nu[0, 0] == min_symplectic_eigenvalue_pt(np.diag([1.0, 1.0, 3.0, 3.0]))
            assert nu[0, 0] == pytest.approx(1.0)

    def test_driven_steady_state_carries_cross_correlations(self):
        from cfomech import dynamics
        from cfomech.params import EffectiveModel
        m = EffectiveModel(G1=0.9e5, G2=1e5, kappa_tilde=5e3, delta_tilde=0.0,
                           gamma1=10.0, gamma2=10.0, nbar1=0.0, nbar2=0.0)
        Vm = dynamics.steady_state_covariance(*dynamics.state_space(m))[:4, :4]
        assert abs(Vm[0, 2]) > 1.0   # q1-q2
        assert abs(Vm[1, 3]) > 1.0   # p1-p2
        assert np.allclose(Vm, Vm.T)

    def test_vacuum(self):
        EN, nu = experiments._score(two_mode_coordinates((np.eye(4) / 2)[None, None]), [None])
        assert (EN[0, 0], nu[0, 0]) == (0.0, 0.5)


class TestMinSymplecticEigenvaluePT:
    def test_vacuum(self):
        assert min_symplectic_eigenvalue_pt(np.eye(4) / 2) == pytest.approx(0.5)

    def test_thermal(self):
        nbar = 2.25
        assert min_symplectic_eigenvalue_pt((nbar + 0.5) * np.eye(4)) == pytest.approx(nbar + 0.5)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_squeezed_vacuum_analytic(self, r):
        nu = min_symplectic_eigenvalue_pt(two_mode_squeezed_covariance(r))
        assert nu == pytest.approx(math.exp(-2 * r) / 2, rel=1e-9)

    def test_rejects_unphysical(self):
        with pytest.raises(PhysicalityError):
            min_symplectic_eigenvalue_pt(0.4 * np.eye(4))

    def test_rejects_asymmetric(self):
        V4 = np.eye(4)
        V4[0, 1] = 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            min_symplectic_eigenvalue_pt(V4)
        with pytest.raises(ValueError, match="not symmetric"):
            min_symplectic_eigenvalue_pt(np.stack([np.eye(4), V4]))
        with pytest.raises(ValueError, match="4x4"):
            min_symplectic_eigenvalue_pt(np.eye(6))

    def test_spectrum_below_the_solver_floor_is_unresolved(self):
        # exact nu = exp(-20)/2 ~ 1e-9 lies below eps*||V||_F ~ 7.6e-8, where
        # eigvals cannot tell it from 0
        V = two_mode_squeezed_covariance(10.0)
        physical, nu_pt = pt_spectrum(two_mode_coordinates(
            np.stack([V, two_mode_squeezed_covariance(5.0)])))
        assert physical.all()
        assert np.isnan(nu_pt[0]) and nu_pt[1] == pytest.approx(math.exp(-10.0) / 2, rel=1e-6)
        with pytest.raises(NumericalError, match="unresolved"):
            min_symplectic_eigenvalue_pt(V)

    @pytest.mark.parametrize("r", [10.0, 15.0])
    def test_squeezing_past_the_floor_is_unresolved_not_unphysical(self, r):
        # an eigen-solver's error in nu_full grows like eps*||V||_F^2: +1.36 at
        # r = 10, and at r = 15 it put nu_full below 1/2
        with pytest.raises(NumericalError, match="unresolved"):
            min_symplectic_eigenvalue_pt(two_mode_squeezed_covariance(r))

    @pytest.mark.parametrize("r", [6.0, 7.0])
    def test_rounded_squeezed_vacuum_passes_the_gate(self, r):
        # stored as doubles, the state misses nu_full = 1/2 by up to 2.7e-5,
        # which rounding its entries by an ulp can explain
        nu = min_symplectic_eigenvalue_pt(two_mode_squeezed_covariance(r))
        assert nu == pytest.approx(math.exp(-2 * r) / 2, rel=1e-3)

    def test_batch_makes_no_eigenvalue_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigen-solver called")

        for name in ("eig", "eigvals", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        # resolved, resolved where delta = ab - |c|^2 cancels 8 digits,
        # unresolved, and unphysical
        stack = np.stack([two_mode_squeezed_covariance(0.5, nbar=1.0),
                          two_mode_squeezed_covariance(5.0), two_mode_squeezed_covariance(10.0),
                          0.4 * np.eye(4)])
        physical, nu_pt = pt_spectrum(two_mode_coordinates(stack))
        assert physical.tolist() == [True, True, True, False]
        assert nu_pt[:2] == pytest.approx([1.5 * math.exp(-1.0), math.exp(-10.0) / 2], rel=1e-9)
        assert np.isnan(nu_pt[2])

    def test_one_unphysical_matrix_fails_the_stack(self):
        stack = np.stack([two_mode_squeezed_covariance(0.5), 0.4 * np.eye(4)])
        with pytest.raises(PhysicalityError):
            min_symplectic_eigenvalue_pt(stack)

    @settings(deadline=None, max_examples=30)
    @given(states=st.lists(st.tuples(
        st.floats(0.0, 1.5), st.floats(0.0, 20.0),
        st.floats(0.0, 20.0), st.floats(0.0, 20.0),
        st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
        min_size=1, max_size=12))
    def test_stack_matches_per_point_eigvals(self, states):
        # thermal two-mode squeezed states with unequal local noise, under
        # local phase rotations: every phase-insensitive two-mode state
        stack = np.array([local_rotation(phi1, phi2) @ thermal_squeezed(r, nbar, n1, n2)
                          @ local_rotation(phi1, phi2).T
                          for r, nbar, n1, n2, phi1, phi2 in states])
        stack = 0.5 * (stack + np.swapaxes(stack, -1, -2))
        nus = min_symplectic_eigenvalue_pt(stack)
        assert nus.shape == (len(states),)
        for V, nu in zip(stack, nus):
            ref = symplectic_eigenvalues(MOMENTUM_FLIP @ V @ MOMENTUM_FLIP)[0]
            assert nu == pytest.approx(ref, rel=1e-12)
            assert min_symplectic_eigenvalue_pt(V) == nu

    def test_rejects_states_that_are_not_phase_insensitive(self):
        locally_squeezed = np.diag([2.0, 0.5, 1.0, 1.0])
        beam_splitter = np.eye(4) + 0.3 * np.kron(np.ones((2, 2)) - np.eye(2), np.eye(2))
        for V4, entry in ((locally_squeezed, r"\(0, 0\) is off by 0.75"),
                          (beam_splitter, r"\(0, 2\) is off by 0.3")):
            message = (r"^covariance matrix is not phase-insensitive within tolerance "
                       r"\(entry " + entry)
            with pytest.raises(ValueError, match=message):
                min_symplectic_eigenvalue_pt(V4)
            with pytest.raises(ValueError, match=message):
                log_negativity(V4)
            with pytest.raises(ValueError, match=message):
                min_symplectic_eigenvalue_pt(np.stack([np.eye(4), V4]))
        # a defect within STRUCTURE_RTOL passes
        V4 = two_mode_squeezed_covariance(0.5)
        V4[0, 0] += 1e-9
        assert min_symplectic_eigenvalue_pt(V4) == pytest.approx(math.exp(-1.0) / 2, rel=1e-8)

    def test_accepts_propagated_samples(self):
        # propagation keeps the structure only to rounding: over this evolve
        # sweep (ratio x rB, as the benchmark's) the defect reaches 9.2e-13
        # of max|V4|, and 2.0e-11 over the benchmark's own at seeds 0-9; far
        # inside STRUCTURE_RTOL, so the checked route gives the batch route's
        # values
        cfg = experiments.RunConfig(G1=1e4, G2=1e4, Delta=1.5e3, nbar1=15.0, nbar2=5.0,
                                    mode="evolve", tMax=2e-3, tPoints=51)
        models = [experiments.resolve_point(cfg, {"ratio": ratio, "rB": rB})[0]
                  for ratio in np.linspace(0.9, 1.1, 9) for rB in np.linspace(0.0, 1.0, 9)]
        A, D = dynamics.state_space_batch(stack_models(models))
        V0 = np.stack([initial_covariance(m.nbar1, m.nbar2) for m in models])
        covs, first_bad = dynamics.propagate_batch(A, D, V0, cfg.time_grid())
        V4 = covs[first_bad < 0, :, :4, :4].reshape(-1, 4, 4)
        defect = np.abs(V4 - realify(hermitian_form(V4))).max(axis=(1, 2))
        assert np.all(defect <= 4e-11 * np.abs(V4).max(axis=(1, 2)))
        physical, nu = pt_spectrum(two_mode_coordinates(V4))
        ok = physical & ~np.isnan(nu)
        assert ok.sum() > len(V4) // 2
        assert np.array_equal(min_symplectic_eigenvalue_pt(V4[ok]), nu[ok])


class TestLogNegativity:
    def test_vacuum_zero(self):
        assert log_negativity(np.eye(4) / 2) == 0.0

    def test_unit_squeezing(self):
        assert log_negativity(two_mode_squeezed_covariance(1.0)) == pytest.approx(2.0, abs=1e-9)

    def test_thermal_product_zero(self):
        assert log_negativity(np.diag([1.5, 1.5, 9.5, 9.5])) == 0.0

    @settings(deadline=None, max_examples=40)
    @given(r=st.floats(0.0, 3.0))
    def test_squeezed_vacuum_line(self, r):
        assert log_negativity(two_mode_squeezed_covariance(r)) == pytest.approx(
            2 * r, abs=1e-9)

    @settings(deadline=None, max_examples=40)
    @given(r=st.floats(0.1, 1.5), eps=st.floats(0.0, 5.0))
    def test_added_noise_never_helps(self, r, eps):
        V = two_mode_squeezed_covariance(r)
        assert log_negativity(V + eps * np.eye(4)) <= log_negativity(V) + 1e-12

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10 ** 6))
    def test_continuity_under_tiny_perturbations(self, seed):
        # slightly mixed so the state sits strictly inside the physical set;
        # the perturbation keeps the phase-insensitive form
        rng = np.random.default_rng(seed)
        V = two_mode_squeezed_covariance(1.0, nbar=0.05)
        a, b, c_re, c_im = rng.standard_normal(4)
        delta = realify(np.array([[a, c_re + 1j * c_im], [c_re - 1j * c_im, b]]))
        delta *= 1e-8 / np.linalg.norm(delta)
        assert abs(log_negativity(V + delta) - log_negativity(V)) < 1e-6


class TestInitialCovariance:
    def test_vacuum(self):
        assert np.array_equal(initial_covariance(0.0, 0.0), np.eye(6) / 2)

    def test_hot_start(self):
        V = initial_covariance(20.0, 10.0)
        assert np.array_equal(np.diag(V), [20.5, 20.5, 10.5, 10.5, 0.5, 0.5])

    def test_product_state_not_entangled(self):
        V = initial_covariance(20.0, 10.0)
        assert log_negativity(V[:4, :4]) == 0.0

    def test_rejects_negative_occupancy(self):
        with pytest.raises(ValueError):
            initial_covariance(-0.5, 0.0)


class TestPhysicalityCheck:
    def test_vacuum_physical(self):
        assert physicality_check(np.eye(4) / 2)
        assert physicality_check(np.eye(6) / 2)

    def test_below_vacuum_rejected(self):
        assert not physicality_check(0.4 * np.eye(4))

    def test_squeezed_vacuum_physical(self):
        assert physicality_check(two_mode_squeezed_covariance(2.0))
