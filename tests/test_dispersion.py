import math
import warnings

import numpy as np
import pytest

from gainslab.core import GainMedium, Polarization, SlabScenario, WaveSpec
from gainslab.dispersion import (
    TwoLevelMedium,
    _index_map,
    _lorentz_factors,
    central_mode_number,
    g0_from_kappa0,
    index_squared,
    linearized_index,
    trace_locus,
)
from gainslab.transfer import build_transfer_matrix

MEDIUM = TwoLevelMedium(n0=3.4, lambda0=1500e-9, gamma_hat=0.02)
L = 300e-6


class TestTwoLevelMedium:
    @pytest.mark.parametrize("kwargs", [
        dict(n0=0.5, lambda0=1500e-9, gamma_hat=0.02),
        dict(n0=3.4, lambda0=-1.0, gamma_hat=0.02),
        dict(n0=3.4, lambda0=1500e-9, gamma_hat=0.0),
        dict(n0=3.4, lambda0=1500e-9, gamma_hat=1.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TwoLevelMedium(**kwargs)


class TestIndexSquared:
    def test_no_inversion_is_host(self):
        assert index_squared(0.9, MEDIUM, 0.0) == 3.4 ** 2

    def test_resonance_is_purely_shifted_imaginary(self):
        # at omega_hat = 1 the detuning term vanishes
        wp2 = -1e-4
        val = index_squared(1.0, MEDIUM, wp2)
        assert val == pytest.approx(3.4 ** 2 + 1j * wp2 / MEDIUM.gamma_hat)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            index_squared(0.0, MEDIUM, -1e-4)


class TestPumpParameterization:
    def test_g0_frozen_value(self):
        # kappa0 = -4.77e-4 is g0 = 40 cm^-1 at 1500 nm resonance
        assert g0_from_kappa0(MEDIUM, -4.7746482927568601e-4) == \
            pytest.approx(4000.0, rel=1e-15)

    def test_plasma_parameter_sign(self):
        # at resonance n^2 = n0^2 + i wp^2 / gamma_hat, wp^2 = 2 n0 gamma_hat
        # kappa0: a negative kappa0 (population inversion) gives gain
        eta, kappa = _index_map(MEDIUM, MEDIUM.lambda0, True)(-4.77e-4)
        assert (eta + 1j * kappa) ** 2 == pytest.approx(
            3.4 ** 2 + 2j * 3.4 * -4.77e-4, rel=1e-15)
        assert kappa < 0


class TestLinearizedIndex:
    def test_resonance_values(self):
        # f1(1) = 0 and f2(1) = 1: eta = n0 and kappa = kappa0 exactly
        eta, kappa = linearized_index(1.0, MEDIUM, -4.77e-4)
        assert eta == pytest.approx(3.4, rel=1e-15)
        assert kappa == pytest.approx(-4.77e-4, rel=1e-12)

    def test_gain_line_shape(self):
        f1_lo, f2_lo = _lorentz_factors(0.98, MEDIUM.gamma_hat)
        f1_hi, f2_hi = _lorentz_factors(1.02, MEDIUM.gamma_hat)
        assert f2_lo > 0 and f2_hi > 0       # gain on both flanks
        assert f1_lo > 0 > f1_hi             # anomalous dispersion flip

    def test_error_quadratic_in_kappa0(self):
        omega_hat = 1.003
        errs = []
        for kappa0 in (-1e-3, -5e-4, -2.5e-4):
            eta, kappa = linearized_index(omega_hat, MEDIUM, kappa0)
            wp2 = 2 * MEDIUM.n0 * MEDIUM.gamma_hat * kappa0
            full = np.sqrt(np.complex128(index_squared(omega_hat, MEDIUM,
                                                       wp2)))
            errs.append(abs(complex(eta, kappa) - full) / abs(kappa0))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)

    def test_dispersive_medium_models_agree_for_weak_pump(self):
        # g0 = 1 cm^-1
        kappa0 = -MEDIUM.lambda0 * 100.0 / (4 * math.pi)
        lin = complex(*_index_map(MEDIUM, 1503e-9, False)(kappa0))
        full = complex(*_index_map(MEDIUM, 1503e-9, True)(kappa0))
        assert lin == pytest.approx(full, rel=1e-7)
        assert lin.imag < 0


class TestCentralModeNumber:
    def test_normal_incidence(self):
        assert central_mode_number(MEDIUM, L, 0.0) == round(
            2 * L * 3.4 / 1500e-9)

    def test_decreases_with_angle(self):
        assert central_mode_number(MEDIUM, L, 60.0) < central_mode_number(
            MEDIUM, L, 0.0)


class TestTraceLocus:
    def test_rejects_empty_modes(self):
        with pytest.raises(ValueError):
            trace_locus(MEDIUM, L, 0.0, Polarization.TE, [])

    def test_small_te_locus(self):
        m0 = central_mode_number(MEDIUM, L, 0.0)
        points, failed = trace_locus(MEDIUM, L, 0.0, Polarization.TE,
                                     range(m0 - 3, m0 + 4))
        assert not failed and len(points) == 7
        for p in points:
            assert p.residual < 1e-10
            assert p.g0 > 0
            # independent re-check through the transfer matrix
            kappa0 = -MEDIUM.lambda0 * p.g0 / (4 * math.pi)
            eta, kappa = _index_map(MEDIUM, p.wavelength, False)(kappa0)
            slab = SlabScenario(L, GainMedium(eta, kappa))
            wave = WaveSpec.from_wavelength(p.wavelength, 0.0,
                                            Polarization.TE)
            m = build_transfer_matrix(slab, wave)
            assert abs(m.m22) < 1e-8 * m.scale

    def test_minimum_g0_mode_is_near_resonance(self):
        m0 = central_mode_number(MEDIUM, L, 0.0)
        points, _ = trace_locus(MEDIUM, L, 0.0, Polarization.TE,
                                range(m0 - 10, m0 + 11))
        best = min(points, key=lambda p: p.g0)
        assert abs(best.wavelength - MEDIUM.lambda0) < 2e-9

    def test_g0_grows_off_resonance(self):
        m0 = central_mode_number(MEDIUM, L, 0.0)
        points, _ = trace_locus(MEDIUM, L, 0.0, Polarization.TE,
                                [m0 - 10, m0, m0 + 10])
        by_m = {p.m: p.g0 for p in points}
        assert by_m[m0 - 10] > by_m[m0] and by_m[m0 + 10] > by_m[m0]

    def test_cap_filters_points(self):
        m0 = central_mode_number(MEDIUM, L, 0.0)
        modes = range(m0 - 5, m0 + 6)
        full, _ = trace_locus(MEDIUM, L, 0.0, Polarization.TE, modes)
        capped, _ = trace_locus(MEDIUM, L, 0.0, Polarization.TE, modes,
                                g0_cap=4000.0)
        assert len(capped) <= len(full)
        assert all(p.g0 <= 4000.0 for p in capped)

    def test_tm_near_brewster_exceeds_cap(self):
        m0 = central_mode_number(MEDIUM, L, 73.0)
        points, _ = trace_locus(MEDIUM, L, 73.0, Polarization.TM,
                                range(m0 - 2, m0 + 3), g0_cap=4000.0)
        assert points == []

    def test_full_model_close_to_linearized(self):
        m0 = central_mode_number(MEDIUM, L, 0.0)
        modes = range(m0 - 3, m0 + 4)
        lin, _ = trace_locus(MEDIUM, L, 0.0, Polarization.TE, modes)
        full, _ = trace_locus(MEDIUM, L, 0.0, Polarization.TE, modes,
                              full_model=True)
        assert [p.m for p in full] == [p.m for p in lin] == list(modes)
        for f, p in zip(full, lin):
            assert f.wavelength == pytest.approx(p.wavelength, rel=1e-9)
            assert f.g0 == pytest.approx(p.g0, rel=1e-3)

    def test_criterion_12_locus_invariants(self):
        # TE 30 deg, m0 +- 50: every mode converges, carries its own label in
        # the phase condition, and no two labels share a root
        theta = math.radians(30.0)
        m0 = central_mode_number(MEDIUM, L, 30.0)
        modes = range(m0 - 50, m0 + 50)
        points, failed = trace_locus(MEDIUM, L, 30.0, Polarization.TE, modes)
        assert failed == [] and [p.m for p in points] == list(modes)
        lam = np.array([p.wavelength for p in points])
        g0 = np.array([p.g0 for p in points])
        m = np.array([p.m for p in points])
        # linearized two-level index, written out independently
        w = MEDIUM.lambda0 / lam
        d = (1 - w ** 2) ** 2 + (MEDIUM.gamma_hat * w) ** 2
        kappa0 = -MEDIUM.lambda0 * g0 / (4 * np.pi)
        n = (MEDIUM.n0 + kappa0 * MEDIUM.gamma_hat * (1 - w ** 2) / d
             + 1j * kappa0 * MEDIUM.gamma_hat ** 2 * w / d)
        npr = np.sqrt(n ** 2 - np.sin(theta) ** 2)
        r = (npr - np.cos(theta)) / (npr + np.cos(theta))
        label = (2 * np.pi / lam * L * npr.real + np.angle(r)) / np.pi
        assert np.max(np.abs(label - m)) < 1e-6
        spacing = np.median(lam / m)
        assert np.min(np.diff(np.sort(lam))) > 1e-3 * spacing

    @pytest.mark.parametrize("full_model", [False, True])
    @pytest.mark.parametrize("theta,pol", [(30.0, Polarization.TE),
                                           (73.0, Polarization.TM)])
    def test_wide_mode_range_accounts_for_every_mode(self, theta, pol,
                                                     full_model):
        # far wings need kappa0 beyond KAPPA_RANGE; they must fail quietly
        m0 = central_mode_number(MEDIUM, L, theta)
        modes = list(range(m0 - 200, m0 + 201))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points, failed = trace_locus(MEDIUM, L, theta, pol, modes,
                                         full_model=full_model)
        assert sorted([p.m for p in points] + failed) == modes
        assert all(p.residual < 1e-10 and p.g0 > 0 for p in points)

    def test_invalid_mode_numbers_fail(self):
        m0 = central_mode_number(MEDIUM, L, 0.0)
        points, failed = trace_locus(MEDIUM, L, 0.0, Polarization.TE,
                                     [-1, 0, m0])
        assert failed == [-1, 0] and [p.m for p in points] == [m0]
