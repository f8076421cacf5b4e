import cmath
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainslab import solver
from gainslab.core import GainMedium, Polarization, u_parameter
from gainslab.solver import (
    ConvergenceError,
    brewster_angle,
    critical_angle,
    reflection_ratio,
    select_mode_number,
    singularity_residual,
    solve_singularity,
    ss_wavelength,
    threshold_curve,
    threshold_gain_approx,
    threshold_gain_at_kappa,
    threshold_gain_exact,
)

ETA = 3.4
L = 400e-6
LAM = 1500e-9

media = st.builds(GainMedium, eta=st.floats(1.1, 5.0),
                  kappa=st.floats(-1e-2, -1e-6))
angles = st.floats(0.0, 85.0)


class TestReflectionRatio:
    @settings(max_examples=200, deadline=None)
    @given(media, angles, st.sampled_from(list(Polarization)))
    def test_equals_u_mobius(self, medium, theta, pol):
        # the interface ratio is the Mobius image (u-1)/(u+1) of u
        u = u_parameter(medium, theta, pol)
        r = reflection_ratio(medium, theta, pol)
        assert r == pytest.approx((u - 1.0) / (u + 1.0), rel=1e-12)

    def test_vanishes_at_brewster_without_gain(self):
        r = reflection_ratio(GainMedium(ETA), brewster_angle(ETA),
                             Polarization.TM)
        assert abs(r) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(media, angles)
    def test_te_modulus_below_one(self, medium, theta):
        assert abs(reflection_ratio(medium, theta, Polarization.TE)) < 1.0


class TestThresholdGain:
    def test_te_tm_equal_at_normal_incidence(self):
        _, g_te = threshold_gain_exact(ETA, 0.0, L, LAM, Polarization.TE)
        _, g_tm = threshold_gain_exact(ETA, 0.0, L, LAM, Polarization.TM)
        assert g_te == pytest.approx(g_tm, rel=1e-12)

    def test_normal_incidence_value(self):
        _, g = threshold_gain_exact(ETA, 0.0, L, LAM, Polarization.TE)
        assert g / 100 == pytest.approx(30.30678977949664, rel=1e-9)

    def test_at_kappa_round_trip(self):
        kappa, g = threshold_gain_exact(ETA, 30.0, L, LAM, Polarization.TM)
        assert threshold_gain_at_kappa(ETA, kappa, 30.0, L,
                                       Polarization.TM) == pytest.approx(
            g, rel=1e-12)

    def test_at_kappa_rejects_loss(self):
        with pytest.raises(ValueError):
            threshold_gain_at_kappa(ETA, 1e-4, 30.0, L, Polarization.TE)

    @pytest.mark.parametrize("pol", list(Polarization))
    @pytest.mark.parametrize("theta", [0.0, 30.0, 55.0])
    def test_approx_close_to_exact(self, pol, theta):
        _, g = threshold_gain_exact(ETA, theta, L, LAM, pol)
        assert threshold_gain_approx(ETA, theta, L, pol) == pytest.approx(
            g, rel=1e-4)

    def test_approx_error_scales_with_kappa(self):
        # halving kappa (by doubling L at fixed lambda) shrinks the relative
        # exact-vs-approx gap quadratically: the O(kappa) correction to the
        # gain cancels and the leading mismatch is second order
        gaps = []
        for thick in (L, 2 * L, 4 * L):
            _, g = threshold_gain_exact(ETA, 30.0, thick, LAM, Polarization.TM)
            g0 = threshold_gain_approx(ETA, 30.0, thick, Polarization.TM)
            gaps.append(abs(g - g0) / g)
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.2)

    def test_te_monotone_decreasing(self):
        gains = [threshold_gain_exact(ETA, t, L, LAM, Polarization.TE)[1]
                 for t in (0.0, 20.0, 40.0, 60.0, 80.0)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_tm_peaks_near_brewster(self):
        g_low = threshold_gain_exact(ETA, 60.0, L, LAM, Polarization.TM)[1]
        g_peak = threshold_gain_exact(ETA, 73.6, L, LAM, Polarization.TM)[1]
        g_high = threshold_gain_exact(ETA, 85.0, L, LAM, Polarization.TM)[1]
        assert g_peak > 5 * g_low and g_peak > 5 * g_high

    def test_tm_approx_raises_at_brewster(self):
        with pytest.raises(ValueError):
            threshold_gain_approx(ETA, brewster_angle(ETA), L, Polarization.TM)

    def test_tm_at_exact_brewster(self):
        # the closed-form seed is infinite here, so the bracket takes over
        kappa, g = threshold_gain_exact(ETA, brewster_angle(ETA), 300e-6, LAM,
                                        Polarization.TM)
        assert kappa < 0
        assert g == pytest.approx(46111.30967641408, rel=1e-9)

    def test_no_solution_in_kappa_range_raises(self):
        # a 50 nm slab would need |kappa| > 0.1 at normal incidence
        with pytest.raises(ConvergenceError, match="no gain solution"):
            threshold_gain_exact(ETA, 0.0, 50e-9, LAM, Polarization.TE)

    def test_bracket_catches_secant_steps_that_leave_it(self, monkeypatch):
        # a residual h = atan((kappa - kappa0) / w), flat away from its root:
        # secant steps from the seed jump out of the kappa range, so only
        # the bracket's bisection brings the solve back to the root
        kappa0, w, k = -1e-3, 1e-7, 2 * math.pi / LAM

        def kernel(eta, kappa, theta_deg, thickness, polarization):
            h = np.arctan((np.asarray(kappa, dtype=float) - kappa0) / w)
            return 1j + 0 * h, None, k - h / thickness

        monkeypatch.setattr(solver, "_modulus_kernel", kernel)
        kappa, _ = threshold_gain_exact(ETA, 30.0, L, LAM, Polarization.TE)
        assert kappa == pytest.approx(kappa0, rel=1e-12)


def mp_modulus_residual(eta, kappa, theta_deg, thickness, wavelength, pol):
    """|k_mod - k| / k for k_mod = ln|r| / (L Im n'), in 40-digit arithmetic
    written from the equations, not from the package's kernels."""
    with mpmath.workdps(40):
        n = mpmath.mpc(eta, kappa)
        th = mpmath.radians(mpmath.mpf(theta_deg))
        npr = mpmath.sqrt(n * n - mpmath.sin(th) ** 2)
        term = (n * n if pol is Polarization.TM else 1) * mpmath.cos(th)
        r = (npr - term) / (npr + term)
        k = 2 * mpmath.pi / mpmath.mpf(wavelength)
        k_mod = mpmath.log(abs(r)) / (mpmath.mpf(thickness) * npr.imag)
        return float(abs(k_mod - k) / k)


class TestModulusOracle:
    @settings(max_examples=300, deadline=None)
    @given(eta=st.floats(1.2, 5.0), theta=st.floats(0.0, 89.9),
           thickness=st.floats(50e-6, 1000e-6),
           wavelength=st.floats(0.8e-6, 2e-6),
           pol=st.sampled_from(list(Polarization)))
    def test_solution_or_typed_error(self, eta, theta, thickness, wavelength,
                                     pol):
        try:
            kappa, g = threshold_gain_exact(eta, theta, thickness, wavelength,
                                            pol)
        except ConvergenceError:
            return
        assert kappa < 0
        assert mp_modulus_residual(eta, kappa, theta, thickness, wavelength,
                                   pol) <= 1e-12


def mp_singular_root(eta, theta_deg, thickness, pol, m, lam0, kappa0):
    """(wavelength, kappa) solving k L n' = pi m + i Log r, the form of
    exp(-2i k n' L) = r^2 labelled by m, in 40-digit arithmetic written from
    the equations; Newton from (lam0, kappa0) in variables scaled by them."""
    with mpmath.workdps(40):
        th = mpmath.radians(mpmath.mpf(theta_deg))

        def condition(x, y):
            n = mpmath.mpc(eta, y * kappa0)
            npr = mpmath.sqrt(n * n - mpmath.sin(th) ** 2)
            term = (n * n if pol is Polarization.TM else 1) * mpmath.cos(th)
            r = (npr - term) / (npr + term)
            return (2 * mpmath.pi / (x * lam0) * thickness * npr
                    - 1j * mpmath.log(r) - mpmath.pi * m)

        x, y = mpmath.findroot([lambda x, y: condition(x, y).real,
                                lambda x, y: condition(x, y).imag],
                               (mpmath.mpf(1), mpmath.mpf(1)))
        return float(x * lam0), float(y * kappa0)


class TestSingularOracle:
    @settings(max_examples=100, deadline=None)
    @given(eta=st.floats(2.0, 4.5), theta=st.floats(0.0, 85.0),
           thickness=st.floats(100e-6, 500e-6),
           target=st.floats(1.3e-6, 1.6e-6),
           pol=st.sampled_from(list(Polarization)))
    def test_solution_or_typed_error(self, eta, theta, thickness, target,
                                     pol):
        try:
            p = solve_singularity(eta, theta, thickness, pol,
                                  target_wavelength=target)
        except ConvergenceError:
            return
        lam, kappa = mp_singular_root(eta, theta, thickness, pol, p.m,
                                      p.wavelength, p.kappa)
        assert p.wavelength == pytest.approx(lam, rel=1e-13, abs=0)
        assert p.kappa == pytest.approx(kappa, rel=1e-13, abs=0)


def test_no_scipy_at_run_time():
    # numpy is the only run-time dependency: importing the package, solving
    # singular points and tracing loci load no scipy module
    script = (
        "import sys\n"
        "import gainslab as gs\n"
        "TE = gs.Polarization.TE\n"
        "gs.solve_singularity(3.4, 20.0, 400e-6, TE, target_wavelength=1.5e-6)\n"
        "gs.solve_singularity(3.4, 20.0, 400e-6, TE, m=1804)\n"
        "medium = gs.TwoLevelMedium(3.4, 1.5e-6, 0.02)\n"
        "m0 = gs.central_mode_number(medium, 300e-6, 0.0)\n"
        "for full in (False, True):\n"
        "    gs.trace_locus(medium, 300e-6, 0.0, TE, range(m0 - 2, m0 + 3),\n"
        "                   full_model=full)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestAngles:
    def test_brewster(self):
        assert brewster_angle(ETA) == pytest.approx(73.61045966596522)
        assert brewster_angle(1.0) == pytest.approx(45.0)
        with pytest.raises(ValueError):
            brewster_angle(-1.0)

    def test_critical_angle_near_brewster(self):
        theta_c, g_max = critical_angle(ETA, 300e-6, LAM)
        assert theta_c == pytest.approx(brewster_angle(ETA), abs=2e-5)
        assert g_max / 100 == pytest.approx(461.113106, rel=1e-6)

    def test_critical_angle_raises_where_the_peak_has_no_solution(self):
        # at L = 9 um the gain near arctan(eta) needs |kappa| > 0.1; the
        # flanks solve, but the largest of their gains is not the maximum
        with pytest.raises(ConvergenceError, match="no gain solution"):
            critical_angle(ETA, 9e-6, LAM)

    def test_critical_angle_grid_stability(self):
        # the refined maximum should not depend on the coarse scan start
        theta_c, g_max = critical_angle(ETA, L, LAM)
        assert threshold_gain_exact(
            ETA, theta_c + 1e-3, L, LAM, Polarization.TM)[1] < g_max
        assert threshold_gain_exact(
            ETA, theta_c - 1e-3, L, LAM, Polarization.TM)[1] < g_max


class TestSSWavelength:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ss_wavelength(ETA, -1e-4, 0.0, L, 0, Polarization.TE)

    def test_lossless_normal_incidence(self):
        # with kappa = 0 and theta = 0 the TE ratio r is real positive, so
        # phi = 0 and lambda = 2 L eta / m
        lam = ss_wavelength(ETA, 0.0, 0.0, L, 100, Polarization.TE)
        assert lam == pytest.approx(2 * L * ETA / 100, rel=1e-12)

    def test_decreasing_in_m(self):
        lams = [ss_wavelength(ETA, -1e-4, 40.0, L, m, Polarization.TM)
                for m in (100, 101, 102)]
        assert lams[0] > lams[1] > lams[2]

    @pytest.mark.parametrize("pol", list(Polarization))
    def test_approx_error_quadratic_in_kappa(self, pol):
        # at 30 deg the TM ratio r is real negative (phi = pi), so the
        # first-order formula's mode label is offset by one from the exact
        # phase condition; align them before comparing
        m = 1800
        shift = 1 if pol is Polarization.TM else 0
        errs = []
        for kappa in (-1e-3, -5e-4, -2.5e-4):
            exact = ss_wavelength(ETA, kappa, 30.0, L, m + shift, pol)
            approx = ss_wavelength(ETA, kappa, 30.0, L, m, pol, approx=True)
            errs.append(abs(exact - approx))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_te_tm_near_degenerate(self):
        # interlaced TE/TM singular wavelengths nearly coincide (the TM
        # phase offset of pi pairs TE mode m with TM mode m + 1)
        for m in (650, 665, 680):
            lam_e = ss_wavelength(ETA, -1e-4, 30.0, 300e-6, m, Polarization.TE)
            lam_m = ss_wavelength(ETA, -1e-4, 30.0, 300e-6, m + 1,
                                  Polarization.TM)
            assert abs(lam_e - lam_m) / lam_e < 1e-6


class TestModeSelection:
    @pytest.mark.parametrize("pol", list(Polarization))
    @pytest.mark.parametrize("theta", [0.0, 20.0, 80.0])
    def test_first_at_or_above_target(self, pol, theta):
        m = select_mode_number(ETA, theta, L, LAM, pol)
        kappa, _ = threshold_gain_exact(ETA, theta, L, LAM, pol)
        assert ss_wavelength(ETA, kappa, theta, L, m, pol) >= LAM
        assert ss_wavelength(ETA, kappa, theta, L, m + 1, pol) < LAM


class TestSolveSingularity:
    def test_requires_mode_or_target(self):
        with pytest.raises(ValueError):
            solve_singularity(ETA, 20.0, L, Polarization.TE)
        with pytest.raises(ValueError):
            solve_singularity(ETA, 20.0, L, Polarization.TE, m=0)

    def test_near_normal_te(self, ss20_te):
        assert ss20_te.wavelength * 1e9 == pytest.approx(1500.112465,
                                                         rel=1e-9)
        assert ss20_te.g / 100 == pytest.approx(28.3837769, rel=1e-7)
        assert ss20_te.kappa == pytest.approx(-3.388317828747e-4, rel=1e-7)
        assert ss20_te.m == 1804

    def test_near_normal_tm(self, ss20_tm):
        assert ss20_tm.wavelength * 1e9 == pytest.approx(1500.112461,
                                                         rel=1e-9)
        assert ss20_tm.g / 100 == pytest.approx(32.0467589, rel=1e-7)
        assert ss20_tm.m == 1805

    def test_steep_te(self, ss80_te):
        assert ss80_te.wavelength * 1e9 == pytest.approx(1500.519484,
                                                         rel=1e-9)
        assert ss80_te.g / 100 == pytest.approx(5.1121550, rel=1e-7)
        assert ss80_te.m == 1735

    def test_steep_tm(self, ss80_tm):
        assert ss80_tm.wavelength * 1e9 == pytest.approx(1500.519610,
                                                         rel=1e-9)
        assert ss80_tm.g / 100 == pytest.approx(68.9038195, rel=1e-7)
        assert ss80_tm.m == 1735

    @pytest.mark.parametrize("point_name", ["ss20_te", "ss20_tm", "ss80_te",
                                            "ss80_tm"])
    def test_residual_small(self, point_name, request):
        p = request.getfixturevalue(point_name)
        assert p.residual < 1e-10
        assert p.kappa < 0
        assert p.g == pytest.approx(-2 * p.k * p.kappa, rel=1e-12)

    def test_explicit_mode_matches_target_selection(self, ss20_te):
        p = solve_singularity(ETA, 20.0, L, Polarization.TE, m=ss20_te.m)
        assert p.wavelength == pytest.approx(ss20_te.wavelength, rel=1e-12)
        assert p.kappa == pytest.approx(ss20_te.kappa, rel=1e-9)

    def test_residual_identity_with_m22(self, ss20_te):
        # |M22| = |(u+1)^2/(4u)| e^{-Im(k~+kz)L} |residual|, so a solved
        # residual forces M22 to vanish as well
        medium = ss20_te.medium
        u = u_parameter(medium, 20.0, Polarization.TE)
        res = singularity_residual(medium, 20.0, L, ss20_te.k,
                                   Polarization.TE)
        kt = ss20_te.k * cmath.sqrt(
            medium.n ** 2 - math.sin(math.radians(20.0)) ** 2)
        pref = abs((u + 1) ** 2 / (4 * u)
                   * cmath.exp(1j * (kt + ss20_te.wave.k_z) * L))
        assert ss20_te.m22_abs == pytest.approx(pref * abs(res), rel=1e-4)


class TestThresholdCurve:
    def test_te_samples(self):
        grid = [0.0, 20.0, 40.0, 60.0, 80.0]
        curve = threshold_curve(ETA, L, LAM, Polarization.TE, grid)
        assert [s.theta_deg for s in curve.samples] == grid
        assert all(s.g is not None for s in curve.samples)
        assert curve.theta_c_deg is None and curve.g_max is None
        assert curve.theta_b_deg == pytest.approx(brewster_angle(ETA))

    def test_tm_carries_critical_point(self):
        curve = threshold_curve(ETA, 300e-6, LAM, Polarization.TM,
                                [0.0, 45.0, 73.0, 85.0])
        assert curve.g_max / 100 == pytest.approx(461.113106, rel=1e-6)
        assert curve.theta_c_deg == pytest.approx(brewster_angle(ETA),
                                                  abs=2e-5)

    def test_tm_finite_across_brewster(self):
        grid = [73.60, brewster_angle(ETA), 73.62]
        curve = threshold_curve(ETA, 300e-6, LAM, Polarization.TM, grid)
        assert all(s.g is not None and math.isfinite(s.g) and s.kappa < 0
                   for s in curve.samples)

    @pytest.mark.parametrize("pol", list(Polarization))
    def test_samples_equal_one_angle_solves(self, pol):
        grid = np.linspace(0.0, 89.5, 180)
        curve = threshold_curve(ETA, 300e-6, LAM, pol, grid)
        for s in curve.samples:
            kappa, g = threshold_gain_exact(ETA, s.theta_deg, 300e-6, LAM, pol)
            assert s.kappa == pytest.approx(kappa, rel=1e-13)
            assert s.g == pytest.approx(g, rel=1e-13)

    def test_failed_angles_become_gap_markers(self):
        # a 50 nm slab has no solution with |kappa| <= 0.1 below grazing
        # incidence, but has one at 89.5 deg, where ln|r| is small
        with pytest.warns(UserWarning, match="threshold solve failed"):
            curve = threshold_curve(ETA, 50e-9, LAM, Polarization.TE,
                                    [0.0, 45.0, 89.5])
        gaps, last = curve.samples[:2], curve.samples[2]
        assert all(s.g is None and s.kappa is None for s in gaps)
        assert last.kappa < 0 and last.g > 0

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            threshold_curve(ETA, L, LAM, Polarization.TE, [0.0, 90.0])
