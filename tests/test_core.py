import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainslab.core import (
    GainMedium,
    Polarization,
    SlabScenario,
    WaveSpec,
    incidence,
    u_parameter,
)

media = st.builds(
    GainMedium,
    eta=st.floats(1.01, 5.0),
    kappa=st.floats(-1e-2, 1e-2),
)
angles = st.floats(-89.9, 89.9)


class TestTypes:
    def test_gain_medium_n(self):
        assert GainMedium(3.4, -1e-4).n == 3.4 - 1e-4j

    @pytest.mark.parametrize("eta", [0.0, -1.0, float("nan")])
    def test_gain_medium_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError):
            GainMedium(eta)

    def test_scenario_rejects_nonpositive_thickness(self):
        with pytest.raises(ValueError):
            SlabScenario(0.0, GainMedium(3.4))

    def test_index_profile_piecewise(self):
        sc = SlabScenario(1e-6, GainMedium(2.0, -1e-3))
        z = np.array([-1e-9, 0.0, 5e-7, 1e-6, 2e-6])
        prof = sc.index_profile(z)
        assert prof[0] == 1.0
        assert prof[4] == 1.0
        assert prof[1] == prof[2] == prof[3] == (2.0 - 1e-3j) ** 2

    def test_wavespec_geometry(self):
        w = WaveSpec.from_wavelength(1500e-9, 30.0, Polarization.TE)
        assert w.k == pytest.approx(2 * math.pi / 1500e-9)
        assert w.k_z == pytest.approx(w.k * math.sqrt(3) / 2)
        assert w.wavelength == pytest.approx(1500e-9)

    def test_wavespec_rejects_grazing(self):
        with pytest.raises(ValueError):
            WaveSpec(1.0, 90.0, Polarization.TE)

    def test_polarization_exponent(self):
        assert Polarization.TE.ell == 0
        assert Polarization.TM.ell == 2


def n_prime(medium, theta_deg):
    """The principal sqrt(n^2 - sin^2 theta), as core.incidence returns it."""
    return incidence(medium, theta_deg, Polarization.TE)[0]


class TestNPrime:
    def test_normal_incidence_is_n(self):
        assert n_prime(GainMedium(3.4), 0.0) == pytest.approx(3.4)

    def test_vacuum_gives_cos_theta(self):
        assert n_prime(GainMedium(1.0), 30.0) == pytest.approx(
            math.cos(math.radians(30.0)))

    def test_gain_medium_45deg(self):
        # frozen from a 30-digit mpmath evaluation of the principal root
        val = n_prime(GainMedium(3.4, -1e-4), 45.0)
        assert val == pytest.approx(
            3.3256578297311465 - 1.0223541248303538e-4j, rel=1e-14)
        # squares back onto the radicand
        n = 3.4 - 1e-4j
        assert val ** 2 == pytest.approx(n * n - 0.5, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(media, angles)
    def test_branch_consistency(self, medium, theta):
        val = n_prime(medium, theta)
        radicand = medium.n ** 2 - math.sin(math.radians(theta)) ** 2
        assert abs(val * val - radicand) <= 1e-14 * max(abs(radicand), 1.0)
        assert val.real > 0  # principal branch, eta > 1

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.01, 5.0), angles)
    def test_passive_medium_real_positive(self, eta, theta):
        val = n_prime(GainMedium(eta, 0.0), theta)
        assert val.imag == 0
        assert val.real > 0


class TestUParameter:
    def test_normal_incidence(self):
        m = GainMedium(3.4)
        assert u_parameter(m, 0.0, Polarization.TE) == pytest.approx(3.4)
        assert u_parameter(m, 0.0, Polarization.TM) == pytest.approx(1 / 3.4)

    def test_tm_is_unity_at_brewster(self):
        # eta^2 - sin^2 = eta^4/(1+eta^2) at tan(theta) = eta, so u = 1;
        # this is why the TM threshold blows up at Brewster's angle
        for eta in (1.5, 3.4, 10.0):
            theta = math.degrees(math.atan(eta))
            u = u_parameter(GainMedium(eta), theta, Polarization.TM)
            assert u == pytest.approx(1.0, abs=1e-12)

    def test_te_oblique_gain(self):
        # frozen composition n' / cos(20 deg), mpmath cross-checked
        u = u_parameter(GainMedium(3.4, -1e-4), 20.0, Polarization.TE)
        assert u == pytest.approx(
            3.5998512385979946 - 1.0696032895980696e-4j, rel=1e-14)

    def test_rejects_grazing(self):
        with pytest.raises(ValueError):
            u_parameter(GainMedium(3.4), 90.0, Polarization.TE)

    @settings(max_examples=200, deadline=None)
    @given(media, angles)
    def test_tm_te_ratio(self, medium, theta):
        u_te = u_parameter(medium, theta, Polarization.TE)
        u_tm = u_parameter(medium, theta, Polarization.TM)
        assert u_tm == pytest.approx(u_te / medium.n ** 2, rel=1e-14)


def k_tilde(medium, wave):
    """k n', the slab's longitudinal wavenumber, as transfer computes it."""
    return wave.k * incidence(medium, wave.theta_deg, wave.polarization)[0]


class TestKTilde:
    def test_vacuum(self):
        w = WaveSpec.from_wavelength(1500e-9, 40.0, Polarization.TE)
        assert k_tilde(GainMedium(1.0), w) == pytest.approx(w.k_z)

    def test_normal_incidence(self):
        w = WaveSpec.from_wavelength(1500e-9, 0.0, Polarization.TE)
        assert k_tilde(GainMedium(3.4, -1e-4), w) == pytest.approx(
            w.k * (3.4 - 1e-4j))

    def test_oblique_frozen(self):
        w = WaveSpec.from_wavelength(1500e-9, 60.0, Polarization.TE)
        assert k_tilde(GainMedium(3.4), w) == pytest.approx(
            13772140.869694618, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(media, angles, st.floats(1e5, 1e8))
    def test_equals_kz_times_n_tilde(self, medium, theta, k):
        # two independent computation paths for the same quantity
        w = WaveSpec(k, theta, Polarization.TE)
        via_sqrt = k_tilde(medium, w)
        via_ntilde = w.k_z * u_parameter(medium, theta, Polarization.TE)
        assert via_sqrt == pytest.approx(via_ntilde, rel=1e-13)
