import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import hbar, k as k_B

from cfomech import params
from cfomech.errors import SingularityError
from cfomech.experiments import RunConfig, resolve_chunk
from cfomech.params import (
    drive_amplitude,
    effective_cavity_params,
    effective_couplings,
    rwa_validity,
    thermal_occupancy,
)

rates = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False)


class TestThermalOccupancy:
    def test_zero_temperature(self):
        assert thermal_occupancy(1e8, 0.0) == 0.0

    def test_ln2_point_gives_one(self):
        # hbar*omega/(kB*T) = ln 2 forces exp = 2 and nbar = 1
        omega = 2 * math.pi * 1e8
        T = hbar * omega / (k_B * math.log(2))
        assert thermal_occupancy(omega, T) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self):
        # 1/(exp(hbar*1e9/(kB*0.01)) - 1), evaluated independently beforehand
        assert thermal_occupancy(1e9, 0.01) == pytest.approx(0.8722448670164474, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            thermal_occupancy(0.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupancy(-1e8, 1.0)
        with pytest.raises(ValueError):
            thermal_occupancy(1e8, -0.1)

    def test_underflowing_ratio_gives_an_infinite_occupancy(self):
        # hbar*omega/(kB*T) underflows to 0: the occupancy is beyond double
        # precision, as where 1/(hbar*omega/(kB*T)) overflows
        assert hbar * 1e-300 / (k_B * 1e10) == 0.0
        assert thermal_occupancy(1e-300, 1e10) == math.inf
        assert thermal_occupancy(1e-10, 1e300) == math.inf

    @settings(deadline=None)
    @given(omega=rates, t1=st.floats(1e-6, 1e3), t2=st.floats(1e-6, 1e3))
    def test_monotone_in_temperature(self, omega, t1, t2):
        lo, hi = sorted((t1, t2))
        assert thermal_occupancy(omega, lo) <= thermal_occupancy(omega, hi)

    @settings(deadline=None)
    @given(w1=rates, w2=rates, T=st.floats(1e-6, 1e3))
    def test_monotone_in_frequency(self, w1, w2, T):
        lo, hi = sorted((w1, w2))
        assert thermal_occupancy(hi, T) <= thermal_occupancy(lo, T)


class TestDriveAmplitude:
    def test_zero_power(self):
        assert drive_amplitude(0.0, 5e4, 1.77e15) == 0.0

    def test_square_root_scaling(self):
        e1 = drive_amplitude(1e-3, 5e4, 1.77e15)
        e4 = drive_amplitude(4e-3, 5e4, 1.77e15)
        assert e4 == pytest.approx(2 * e1, rel=1e-12)

    def test_reference_value(self):
        # sqrt(2*P*kappa1/(hbar*omegaL)) at one microwatt, frozen beforehand
        assert drive_amplitude(1e-6, 5e4, 1.77e15) == pytest.approx(
            731939670.6664608, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            drive_amplitude(1e-3, 0.0, 1.77e15)
        with pytest.raises(ValueError):
            drive_amplitude(1e-3, 5e4, 0.0)
        with pytest.raises(ValueError):
            drive_amplitude(-1e-3, 5e4, 1.77e15)


class TestEffectiveCouplings:
    def test_no_drive_no_coupling(self):
        G1, G2 = effective_couplings(100, 50, 0.0, 1e6, 1e7, 2e7, 0.0, 5e4, 5e4)
        assert G1 == 0
        assert G2 != 0

    def test_hand_value(self):
        G1, _ = effective_couplings(100, 100, 1e6, 1e6, 1e7, 2e7, 0.0, 5e4, 5e4)
        # 1e8 / (1e7 + 1e5 i) = 10*(1 - 0.01i)/1.0001
        assert G1.real == pytest.approx(9.99900009999, rel=1e-11)
        assert G1.imag == pytest.approx(-0.0999900009999, rel=1e-11)
        assert abs(G1) == pytest.approx(9.999500037496874, rel=1e-12)

    def test_resonant_detuning_is_finite(self):
        G1, _ = effective_couplings(100, 100, 1e6, 1e6, 1e7, 2e7, 1e7, 5e4, 5e4)
        assert G1 == pytest.approx(1e8 / complex(0, 1e5))

    def test_zero_denominator(self):
        with pytest.raises(SingularityError):
            effective_couplings(1, 1, 1, 1, 1e7, 2e7, 1e7, 0.0, 0.0)


class TestEffectiveCavityParams:
    def test_no_feedback(self):
        kt, dt = effective_cavity_params(5e4, 5e4, 0.0, 1.23, 777.0)
        assert kt == 1e5
        assert dt == 777.0

    def test_ideal_symmetric_cancels(self):
        kt, dt = effective_cavity_params(5e4, 5e4, 1.0, 0.0, 42.0)
        assert kt == 0.0
        assert dt == 42.0

    def test_quarter_phase(self):
        kt, dt = effective_cavity_params(5e4, 5e4, 0.95, math.pi / 2, 0.0)
        assert kt == pytest.approx(1e5, rel=1e-15)
        assert dt == pytest.approx(-9.5e4, rel=1e-15)

    @settings(deadline=None)
    @given(k1=st.floats(1.0, 1e6), k2=st.floats(1.0, 1e6),
           rB=st.floats(0.0, 1.0), theta=st.floats(-10.0, 10.0))
    def test_cos_theta_zero_phase_minimizes(self, k1, k2, rB, theta):
        kt0, _ = effective_cavity_params(k1, k2, rB, 0.0, 0.0)
        kt, _ = effective_cavity_params(k1, k2, rB, theta, 0.0)
        assert kt0 <= kt + 1e-9 * (k1 + k2)
        assert kt >= 0.0

    @settings(deadline=None)
    @given(k1=st.floats(1.0, 1e6), k2=st.floats(1.0, 1e6), rB=st.floats(0.0, 1.0))
    def test_half_pi_phase_restores_bare_decay(self, k1, k2, rB):
        for sign in (1.0, -1.0):
            kt, _ = effective_cavity_params(k1, k2, rB, sign * math.pi / 2, 0.0)
            assert kt == pytest.approx(k1 + k2, rel=5e-16)

    def test_product_of_decays_beyond_double_precision(self):
        # sqrt(kappa1*kappa2) overflows where the decays and their sum do not
        kt, dt = effective_cavity_params(1.7e308, 5e4, 0.0, 0.0, 0.0)
        assert (kt, dt) == (1.7e308 + 5e4, 0.0)
        kt, dt = effective_cavity_params(1e200, 1e200, 0.5, math.pi / 2, 0.0)
        assert kt == pytest.approx(2e200, rel=1e-15)
        assert dt == pytest.approx(-1e200, rel=1e-15)
        # the sum overflows: kappa_tilde is inf, which the model's solve reports
        assert effective_cavity_params(1e308, 1e308, 0.0, 0.0, 0.0) == (math.inf, 0.0)

    @pytest.mark.parametrize("k", [-901, -700, 700, 901])
    def test_decays_scale_exactly_with_the_unit_of_time(self, k):
        # sqrt(kappa1*kappa2) is taken at unit size: at 2^-700 s^-1 and below
        # the product of the decays would underflow, at 2^700 overflow
        kt, dt = effective_cavity_params(5e4, 3e4, 0.95, 0.3, 1e3)
        assert effective_cavity_params(math.ldexp(5e4, k), math.ldexp(3e4, k), 0.95, 0.3,
                                       math.ldexp(1e3, k)) == (math.ldexp(kt, k),
                                                               math.ldexp(dt, k))

    def test_rounding_dust_is_clamped_to_a_float(self):
        # decays one ulp apart at rB = 1, theta = 0 leave kappa_tilde 7e-12
        # below zero, which is clamped: a float input still gives a float, and
        # in a column each point keeps the bits it has alone, -0.0 included
        k1, k2 = 18391.481657983793, 18391.481657983797
        kt, dt = effective_cavity_params(k1, k2, 1.0, 0.0, 0.0)
        assert isinstance(kt, float)
        assert (kt, math.copysign(1.0, kt), dt) == (0.0, 1.0, 0.0)
        pairs = [(k1, k2), (-0.0, -0.0), (5e4, 3e4)]
        column = effective_cavity_params(*np.array(pairs).T, 1.0, 0.0, 0.0)[0]
        alone = np.array([effective_cavity_params(a, b, 1.0, 0.0, 0.0)[0] for a, b in pairs])
        assert column.view(np.int64).tolist() == alone.view(np.int64).tolist()
        assert math.copysign(1.0, column[1]) == -1.0

    def test_reflectivity_checked_before_decays(self):
        with pytest.raises(ValueError, match="rB must lie"):
            effective_cavity_params(-5e4, 5e4, 1.1, 0.0, 0.0)
        with pytest.raises(ValueError, match="cavity decays must be nonnegative"):
            effective_cavity_params(-5e4, 5e4, 0.5, 0.0, 0.0)


class TestRwaValidity:
    def test_well_separated_is_valid(self):
        assert rwa_validity(1e5, 1e5, 5e4, 5e4, 1e8, 2e8) == "valid"
        # the ratio is 1e-3 to 12 digits: the verdict flips between thresholds
        # just above and just below it
        assert rwa_validity(1e5, 1e5, 5e4, 5e4, 1e8, 2e8, threshold=1e-3 * (1 + 1e-12)) == "valid"
        assert rwa_validity(1e5, 1e5, 5e4, 5e4, 1e8, 2e8,
                            threshold=1e-3 * (1 - 1e-12)) == "marginal"

    def test_degenerate_frequencies_invalid(self):
        # nearly degenerate: the difference dominates the divisor; equal
        # frequencies are a config error (RunConfig)
        assert rwa_validity(1e5, 1e5, 5e4, 5e4, 1e8, 1e8 + 1.0) == "invalid"

    def test_marginal_band(self):
        assert rwa_validity(1e5, 1e5, 5e7, 5e7, 1e8, 2e8) == "marginal"
        assert rwa_validity(1e5, 1e5, 5e4, 5e4, 1e8, 2e8, threshold=1e-4) == "marginal"


class TestModelConstruction:
    # models are built by resolve_chunk; each column is checked as a whole
    def test_feedback_bounds(self):
        cfg = RunConfig(G1=1e4, G2=2e4)
        for rB in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"rB must lie in \[0, 1\]"):
                resolve_chunk(cfg, ["rB"], np.array([[0.5, rB]]))
        # the ideal lossless loop is allowed
        model, _ = resolve_chunk(cfg, ["rB"], np.array([[1.0]]))
        assert model.kappa_tilde.tolist() == [0.0]

    def test_direct_model_drops_phases(self):
        model, _ = resolve_chunk(RunConfig(G1=-1e4, G2=2e4), [], np.empty((0, 1)))
        assert (model.G1.tolist(), model.G2.tolist()) == ([1e4], [2e4])
        assert model.kappa_tilde.tolist() == [1e5]
        # the drive block's couplings are complex: the model keeps their moduli
        drive = dict(g1=100.0, g2=100.0, P1=1e-6, P2=2e-6, omegaL1=1.77e15,
                     omegaL2=1.77e15, omega1=1e8, omega2=2e8)
        model, _ = resolve_chunk(RunConfig(**drive), ["kappa1"], np.array([[4e4, 5e4]]))
        for k, kappa1 in enumerate((4e4, 5e4)):
            G1, G2 = effective_couplings(100.0, 100.0, drive_amplitude(1e-6, kappa1, 1.77e15),
                                         drive_amplitude(2e-6, kappa1, 1.77e15),
                                         1e8, 2e8, 0.0, kappa1, 5e4)
            assert G1.imag != 0 and G2.imag != 0
            assert (model.G1[k], model.G2[k]) == (abs(G1), abs(G2))

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError, match="thermal occupancies must be nonnegative"):
            resolve_chunk(RunConfig(G1=1e4, G2=2e4), ["nbar1"], np.array([[0.0, -1.0]]))
