import cmath
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
from gainslab.transfer import (
    SpectralSingularityError,
    TransferMatrix,
    build_transfer_matrix,
    general_fields,
    propagate_coefficients,
    scattering_amplitudes,
)

# kL capped so that |Im(k~ L)| stays small enough for the determinant
# identity to survive in doubles; large-|Im| draws are covered by the
# scale-relative check below
params = st.tuples(
    st.floats(1.0, 5.0),            # eta
    st.floats(-1e-2, 1e-2),         # kappa
    st.floats(-89.9, 89.9),         # theta
    st.floats(1e-3, 1e4),           # k L
    st.sampled_from(list(Polarization)),
)


def boundary_residuals(coeffs, scenario, wave):
    """Largest relative residual of the four interface matching conditions.

    Each condition is normalized by the magnitude of its largest term, so the
    result is meaningful even when interior amplitudes grow exponentially.
    """
    u = u_parameter(scenario.medium, wave.theta_deg, wave.polarization)
    kt = wave.k * incidence(scenario.medium, wave.theta_deg,
                            wave.polarization)[0]
    kz = wave.k_z
    L = scenario.thickness
    ep, em = cmath.exp(1j * kt * L), cmath.exp(-1j * kt * L)
    fp, fm = cmath.exp(1j * kz * L), cmath.exp(-1j * kz * L)
    amp0 = max(abs(coeffs.a0), abs(coeffs.b0), abs(coeffs.a1), abs(coeffs.b1))
    phase = max(abs(ep), abs(em))
    ampL = max(abs(coeffs.a1), abs(coeffs.b1)) * phase
    ampL = max(ampL, abs(coeffs.a2), abs(coeffs.b2))
    conditions = [
        ((coeffs.a0, coeffs.b0), (coeffs.a1, coeffs.b1), amp0),
        ((coeffs.b0, -coeffs.a0), (u * coeffs.b1, -u * coeffs.a1),
         amp0 * max(abs(u), 1.0)),
        ((coeffs.a1 * ep, coeffs.b1 * em), (coeffs.a2 * fp, coeffs.b2 * fm),
         ampL),
        ((u * coeffs.a1 * ep, -u * coeffs.b1 * em),
         (coeffs.a2 * fp, -coeffs.b2 * fm), ampL * max(abs(u), 1.0)),
    ]
    worst = 0.0
    for lhs, rhs, scale in conditions:
        residual = abs(sum(lhs) - sum(rhs))
        worst = max(worst, residual / max(scale, 1e-300))
    return worst


def make(eta, kappa, theta, kL, pol, L=1e-6):
    scenario = SlabScenario(L, GainMedium(eta, kappa))
    wave = WaveSpec(kL / L, theta, pol)
    return scenario, wave


class TestBuildTransferMatrix:
    def test_vacuum_slab_is_identity(self):
        scenario, wave = make(1.0, 0.0, 25.0, 100.0, Polarization.TE)
        m = build_transfer_matrix(scenario, wave)
        assert m.m11 == pytest.approx(1.0, abs=1e-12)
        assert m.m22 == pytest.approx(1.0, abs=1e-12)
        assert abs(m.m12) < 1e-12 and abs(m.m21) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(params)
    def test_det_is_one(self, p):
        scenario, wave = make(*p)
        try:
            m = build_transfer_matrix(scenario, wave)
        except OverflowError:   # near-grazing draws can exceed the phase guard
            return
        if m.scale > 1e150:     # entry products not representable in doubles
            return
        # det is a difference of products, each bounded by scale^2, so that
        # is the natural roundoff reference (ratio form avoids overflowing
        # scale**2 for extreme draws)
        assert abs(m.det - 1.0) / m.scale < 1e-12 * m.scale

    @settings(max_examples=100, deadline=None)
    @given(params)
    def test_even_in_theta(self, p):
        eta, kappa, theta, kL, pol = p
        sc, w_plus = make(eta, kappa, abs(theta), kL, pol)
        _, w_minus = make(eta, kappa, -abs(theta), kL, pol)
        try:
            m_plus = build_transfer_matrix(sc, w_plus)
        except OverflowError:   # near-grazing draws can exceed the phase guard
            with pytest.raises(OverflowError):
                build_transfer_matrix(sc, w_minus)
            return
        m_minus = build_transfer_matrix(sc, w_minus)
        assert m_plus == m_minus

    def test_normal_incidence_te_tm_duality(self):
        # u -> 1/u at theta=0 preserves M11, M22 and flips M12, M21
        sc, w_te = make(3.4, -1e-3, 0.0, 2000.0, Polarization.TE)
        _, w_tm = make(3.4, -1e-3, 0.0, 2000.0, Polarization.TM)
        m_te = build_transfer_matrix(sc, w_te)
        m_tm = build_transfer_matrix(sc, w_tm)
        assert m_te.m11 == pytest.approx(m_tm.m11, rel=1e-12)
        assert m_te.m22 == pytest.approx(m_tm.m22, rel=1e-12)
        assert m_te.m21 == pytest.approx(-m_tm.m21, rel=1e-12)
        assert m_te.m12 == pytest.approx(-m_tm.m12, rel=1e-12)

    def test_normal_incidence_matches_complex_barrier(self):
        # at theta=0 the TE matrix is the textbook complex-barrier matrix
        n = 2.5 - 1e-3j
        L, k = 2e-6, 4e6
        sc, w = make(n.real, n.imag, 0.0, k * L, Polarization.TE, L=L)
        m = build_transfer_matrix(sc, w)
        delta = k * n * L
        m22_expected = (cmath.cos(delta)
                        - 0.5j * (n + 1 / n) * cmath.sin(delta)) * cmath.exp(1j * k * L)
        assert m.m22 == pytest.approx(m22_expected, rel=1e-12)

    def test_rejects_grazing(self):
        with pytest.raises(ValueError):
            make(3.4, 0.0, 90.0, 100.0, Polarization.TE)

    def test_overflow_guard(self):
        scenario = SlabScenario(1e-3, GainMedium(3.4, -0.5))
        wave = WaveSpec(1e9, 0.0, Polarization.TE)
        with pytest.raises(OverflowError):
            build_transfer_matrix(scenario, wave)


class TestScatteringAmplitudes:
    def test_identity_matrix(self):
        amps = scattering_amplitudes(TransferMatrix(1, 0, 0, 1))
        assert amps.r_left == 0 and amps.r_right == 0
        assert amps.t_left == 1 and amps.t_right == 1

    def test_passive_unitarity_normal_incidence(self):
        sc, w = make(3.4, 0.0, 0.0, 1234.5, Polarization.TE)
        amps = scattering_amplitudes(build_transfer_matrix(sc, w))
        assert abs(amps.r_left) ** 2 + abs(amps.t_left) ** 2 == pytest.approx(
            1.0, rel=1e-10)

    def test_transmissions_agree_when_det_is_one(self):
        sc, w = make(2.8, -3e-4, 35.0, 500.0, Polarization.TM)
        amps = scattering_amplitudes(build_transfer_matrix(sc, w))
        assert amps.t_left == pytest.approx(amps.t_right, rel=1e-11)

    def test_raises_at_singularity(self):
        with pytest.raises(SpectralSingularityError):
            scattering_amplitudes(TransferMatrix(1.0, 0.5, 0.5, 1e-16))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.2, 5.0), st.floats(1e-4, 5e-2), st.booleans(),
           st.floats(0.0, 85.0), st.floats(1e-3, 300.0),
           st.sampled_from(list(Polarization)))
    def test_transmission_from_unit_determinant(self, eta, size, gain,
                                                theta, imag_phase, pol):
        # det M = 1 exactly, so T_left = T_right = 1/M22 and a2 M22 = a0
        # for b2 = 0, also where M11 M22 and M12 M21 (each of size
        # e^{2|Im k~L|}) cancel in doubles: |Im k~L| up to 300
        medium = GainMedium(eta, -size if gain else size)
        k = 2 * math.pi / 1.5e-6
        L = imag_phase / (k * abs(incidence(medium, theta, pol)[0].imag))
        sc, w = SlabScenario(L, medium), WaveSpec(k, theta, pol)
        m = build_transfer_matrix(sc, w)
        try:
            amps = scattering_amplitudes(m)
            c = propagate_coefficients(sc, w, a0=1.0)
        except SpectralSingularityError:
            return
        assert abs(amps.t_left - amps.t_right) <= 1e-12 * abs(amps.t_right)
        assert abs(c.a2 * m.m22 - 1.0) <= 1e-12

    def test_transmission_blows_up_near_singularity(self, ss20_te):
        # detuned by one part in 1e9 off a solved singular point the
        # amplitudes are huge (computed: |T| ~ 1e5 for these parameters)
        wave = WaveSpec(ss20_te.k * (1 + 1e-9), ss20_te.theta_deg,
                        ss20_te.polarization)
        amps = scattering_amplitudes(build_transfer_matrix(
            ss20_te.scenario, wave))
        assert abs(amps.t_right) > 1e4


class TestPropagateCoefficients:
    def test_vacuum_free_propagation(self):
        sc, w = make(1.0, 0.0, 10.0, 50.0, Polarization.TE)
        c = propagate_coefficients(sc, w, a0=1.0)
        assert c.a1 == pytest.approx(1.0) and c.a2 == pytest.approx(1.0)
        assert abs(c.b0) < 1e-14 and abs(c.b1) < 1e-14

    def test_left_incident_reproduces_r_and_t(self):
        sc, w = make(3.1, -2e-4, 40.0, 700.0, Polarization.TM)
        c = propagate_coefficients(sc, w, a0=2.0 + 1.0j)
        amps = scattering_amplitudes(build_transfer_matrix(sc, w))
        assert c.b0 / c.a0 == pytest.approx(amps.r_left, rel=1e-11)
        assert c.a2 / c.a0 == pytest.approx(amps.t_left, rel=1e-11)

    def test_rejects_trivial_input(self):
        sc, w = make(3.4, 0.0, 0.0, 100.0, Polarization.TE)
        with pytest.raises(ValueError):
            propagate_coefficients(sc, w)

    def test_raises_at_singularity(self, ss20_te):
        with pytest.raises(SpectralSingularityError):
            propagate_coefficients(ss20_te.scenario, ss20_te.wave, a0=1.0)

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.floats(1.1, 5.0), st.floats(-5e-3, 5e-3),
                     st.floats(-85.0, 85.0), st.floats(1.0, 3e3),
                     st.sampled_from(list(Polarization))),
           st.complex_numbers(max_magnitude=10.0),
           st.complex_numbers(max_magnitude=10.0))
    def test_boundary_conditions_satisfied(self, p, a0, b2):
        if abs(a0) + abs(b2) < 1e-3:
            return
        sc, w = make(*p)
        try:
            c = propagate_coefficients(sc, w, a0=a0, b2=b2)
        except SpectralSingularityError:
            return
        assert boundary_residuals(c, sc, w) < 1e-10


class TestGeneralFields:
    def setup_method(self):
        self.sc, self.w = make(3.4, -2e-4, 35.0, 900.0, Polarization.TE,
                               L=1.5e-6)
        self.sc_tm = self.sc
        self.w_tm = WaveSpec(self.w.k, self.w.theta_deg, Polarization.TM)

    def test_te_has_only_te_components(self):
        c = propagate_coefficients(self.sc, self.w, a0=1.0)
        E, H = general_fields(self.sc, self.w, c, 0.3e-6,
                              np.linspace(-1e-6, 2.5e-6, 41))
        assert np.all(E[..., 0] == 0) and np.all(E[..., 2] == 0)
        assert np.all(H[..., 1] == 0)
        assert np.any(E[..., 1] != 0)

    def test_tm_has_only_tm_components(self):
        c = propagate_coefficients(self.sc_tm, self.w_tm, a0=1.0)
        E, H = general_fields(self.sc_tm, self.w_tm, c, 0.0, 0.5e-6)
        assert E[1] == 0 and H[0] == 0 and H[2] == 0
        assert H[1] != 0

    @pytest.mark.parametrize("pol", list(Polarization))
    @pytest.mark.parametrize("z0", [0.0, 1.5e-6])
    def test_tangential_continuity(self, pol, z0):
        w = WaveSpec(self.w.k, self.w.theta_deg, pol)
        c = propagate_coefficients(self.sc, w, a0=1.0, b2=0.3j)
        eps = 1e-12 * self.sc.thickness
        E_lo, H_lo = general_fields(self.sc, w, c, 0.0, z0 - eps)
        E_hi, H_hi = general_fields(self.sc, w, c, 0.0, z0 + eps)
        if pol is Polarization.TE:
            tang = [(E_lo[1], E_hi[1]), (H_lo[0], H_hi[0])]
        else:
            tang = [(H_lo[1], H_hi[1]), (E_lo[0], E_hi[0])]
        for lo, hi in tang:
            assert lo == pytest.approx(hi, rel=1e-7)  # limited by eps offset

    @pytest.mark.parametrize("pol", list(Polarization))
    @pytest.mark.parametrize("z", [
        np.linspace(-0.5e-6, 2.0e-6, 7),
        np.linspace(-0.5e-6, 2.0e-6, 15).reshape(3, 5),
        np.array(0.7e-6),
    ])
    def test_layout_and_component_placement(self, pol, z):
        # shape (..., 3) for every shape of z, each point as when evaluated
        # alone, and E x H* from np.cross as written out from the nonzero
        # components: TE (Ey Hz*, 0, -Ey Hx*), TM (-Ez Hy*, 0, Ex Hy*)
        w = WaveSpec(self.w.k, self.w.theta_deg, pol)
        c = propagate_coefficients(self.sc, w, a0=1.0, b2=0.3j)
        E, H = general_fields(self.sc, w, c, 0.2e-6, z)
        assert E.shape == H.shape == z.shape + (3,)
        for idx in np.ndindex(z.shape):
            E_i, H_i = general_fields(self.sc, w, c, 0.2e-6, z[idx])
            assert np.array_equal(E[idx], E_i)
            assert np.array_equal(H[idx], H_i)
        cross = np.cross(E, H.conj())
        if pol is Polarization.TE:
            expected = (E[..., 1] * H[..., 2].conj(), 0.0,
                        -E[..., 1] * H[..., 0].conj())
        else:
            expected = (-E[..., 2] * H[..., 1].conj(), 0.0,
                        E[..., 0] * H[..., 1].conj())
        scale = np.max(np.abs(E)) * np.max(np.abs(H))
        for i in range(3):
            assert np.max(np.abs(cross[..., i] - expected[i])) <= 1e-15 * scale

    @pytest.mark.parametrize("pol", list(Polarization))
    def test_far_outside_does_not_overflow(self, pol):
        # outside the slab only the vacuum waves are selected; the interior
        # waves, growing as exp(|Im k~| |z|), overflow if taken at z = +-0.2 m
        L = 300e-6
        sc, w = make(3.4, -1e-3, 30.0, 2 * math.pi * L / 1.5e-6, pol, L=L)
        c = propagate_coefficients(sc, w, a0=1.0)
        z = np.array([-0.2, 0.2])
        with np.errstate(over="raise", invalid="raise"):
            E, H = general_fields(sc, w, c, 0.0, z)
        a_out, b_out = np.array([c.a0, c.a2]), np.array([c.b0, c.b2])
        psi = a_out * np.exp(1j * w.k_z * z) + b_out * np.exp(-1j * w.k_z * z)
        transverse = E[..., 1] if pol is Polarization.TE else H[..., 1]
        assert np.array_equal(transverse, psi)

    def test_tm_ez_jump_is_inverse_n_squared(self):
        c = propagate_coefficients(self.sc_tm, self.w_tm, a0=1.0)
        eps = 1e-12 * self.sc.thickness
        E_out, _ = general_fields(self.sc_tm, self.w_tm, c, 0.0, -eps)
        E_in, _ = general_fields(self.sc_tm, self.w_tm, c, 0.0, eps)
        n2 = self.sc.medium.n ** 2
        assert E_in[2] / E_out[2] == pytest.approx(1.0 / n2, rel=1e-6)


class TestSingularLimit:
    def test_m22_small_at_solved_point(self, ss20_te, ss20_tm, ss80_te,
                                       ss80_tm):
        for point in (ss20_te, ss20_tm, ss80_te, ss80_tm):
            m = build_transfer_matrix(point.scenario, point.wave)
            assert abs(m.m22) < 1e-8 * m.scale

    def test_paper_points_are_singular(self, ss20_te, ss20_tm, ss80_te,
                                       ss80_tm):
        # |M22|/scale reads 2.8e-13, 1.8e-13, 2.1e-12 and 2.4e-15 here: the
        # 80 deg TE point is above SINGULAR_TOL, but within a few ulps of k
        for point in (ss20_te, ss20_tm, ss80_te, ss80_tm):
            m = build_transfer_matrix(point.scenario, point.wave)
            assert m.singular
            with pytest.raises(SpectralSingularityError):
                scattering_amplitudes(m)
            with pytest.raises(SpectralSingularityError):
                propagate_coefficients(point.scenario, point.wave, a0=1.0)

    def test_detuned_points_are_not_singular(self, ss20_te, ss20_tm, ss80_te,
                                             ss80_tm):
        # criterion 07 needs |T| at a relative detuning of 1e-12
        for point in (ss20_te, ss20_tm, ss80_te, ss80_tm):
            for delta in (1e-12, -1e-12):
                wave = WaveSpec(point.k * (1.0 + delta), point.theta_deg,
                                point.polarization)
                m = build_transfer_matrix(point.scenario, wave)
                assert not m.singular
                assert abs(scattering_amplitudes(m).t_right) > 1e6

    @settings(max_examples=100, deadline=None)
    @given(params)
    def test_slope_matches_central_difference(self, p):
        scenario, wave = make(*p)
        try:
            m = build_transfer_matrix(scenario, wave)
        except OverflowError:
            return
        if m.scale > 1e150:     # slope times phase not representable in doubles
            return
        # M22 is rounded to about eps * phase, so the step is a fixed small
        # change of the phase k L n' and the gate scales with that phase
        phase = max(1.0, abs(wave.k * scenario.thickness * incidence(
            scenario.medium, wave.theta_deg, wave.polarization)[0]))
        h = 3e-4 / phase

        def m22(delta):
            shifted = WaveSpec(wave.k * (1.0 + delta), wave.theta_deg,
                               wave.polarization)
            return build_transfer_matrix(scenario, shifted).m22

        numeric = (m22(h) - m22(-h)) / (2.0 * h)
        assert abs(m.k_dm22_dk - numeric) <= 1e-6 * phase * m.scale
