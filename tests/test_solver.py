import cmath
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gainslab import dispersion, solver
from gainslab.core import GainMedium, Polarization, u_parameter
from gainslab.dispersion import TwoLevelMedium
from gainslab.solver import (
    ConvergenceError,
    brewster_angle,
    critical_angle,
    solve_singularity,
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


def reflection_ratio(medium, theta, pol):
    """r = (n' - n^l cos)/(n' + n^l cos) from the solver's modulus kernel."""
    return solver._modulus_kernel(medium.eta, medium.kappa,
                                  solver._angle_terms(theta), pol)[1]


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

        def kernel(eta, kappa, angle, polarization):
            h = np.arctan((np.asarray(kappa, dtype=float) - kappa0) / w)
            return 1j + 0 * h, h          # n' = i, and h in place of r

        monkeypatch.setattr(solver, "_modulus_kernel", kernel)
        monkeypatch.setattr(solver, "_modulus_k",
                            lambda npr, r, thickness: k - r / thickness)
        kappa, _ = threshold_gain_exact(ETA, 30.0, L, LAM, Polarization.TE)
        assert kappa == pytest.approx(kappa0, rel=1e-12)


def reference_modulus_kernel(eta, kappa, theta_deg, thickness, polarization):
    """n', r and k = ln|r| / (L Im n') from theta itself, in one call."""
    th = np.radians(theta_deg)
    n = eta + 1j * np.asarray(kappa, dtype=float)
    npr = np.sqrt(n * n - np.sin(th) ** 2)
    term = n ** polarization.ell * np.cos(th)
    r = (npr - term) / (npr + term)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.log(np.abs(r)) / (thickness * npr.imag)
    return npr, r, k


def reference_solve_kappa(index, k, theta_deg, thickness, polarization, seed):
    """The kappa loop with np.nan_to_num, np.clip and np.where bookkeeping
    and one kernel call per range end: the solver must equal it bit for bit.

    Each range end is evaluated as an array of the seed's shape (one
    element for a 0-d solve), as the solver's stacked call evaluates it:
    numpy rounds a product of two complex scalars differently from the
    same product in an array loop, in about one product of four."""

    def h(q):
        npr, r, k_mod = reference_modulus_kernel(*index(q), theta_deg,
                                                 thickness, polarization)
        return thickness * npr.imag * (k(npr, r) - k_mod)

    with np.errstate(all="ignore"):
        a, b = solver.KAPPA_RANGE
        shape = np.shape(seed)
        ha, hb = (np.reshape(h(np.full(shape or (1,), end)), shape)
                  for end in (a, b))
        x = np.clip(np.nan_to_num(seed, nan=a), a, b)
        x = np.where((ha < 0) & (hb > 0), x, np.nan)
        hx = h(x)
        xp, hp = np.where(hx > 0, a, b), np.where(hx > 0, ha, hb)
        done = stalled = np.isnan(hx) | (hx == 0)
        for _ in range(100):
            if done.all():
                break
            s = x - hx * (x - xp) / (hx - hp)
            new = np.where(stalled | ~((a <= s) & (s <= b)), -np.sqrt(a * b),
                           s)
            new = np.where(done, x, new)
            hn = h(new)
            a, b = np.where(hn < 0, new, a), np.where(hn > 0, new, b)
            stalled = np.abs(hn) >= np.abs(hx)
            done = done | np.isnan(hn) | (hn == 0) | (
                np.abs(new - x) <= 1e-15 * np.abs(new))
            xp, hp, x, hx = x, hx, new, hn
    return np.where(done & ~np.isnan(hx), x, np.nan)


# seeds off the solver's usual path: not finite, outside KAPPA_RANGE, or any
odd_seeds = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0,
                     -0.2, -1e-13, 1e-300]),
    st.floats(-0.1, -1e-12), st.floats())


def draw_array(data, elements, shape):
    """An array of the given shape (() for 0-d) drawn element by element."""
    n = int(np.prod(shape))
    return np.reshape(data.draw(st.lists(elements, min_size=n, max_size=n)),
                      shape)


class TestSolveKappaReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), shape=st.sampled_from([(), (1,), (5,)]),
           theta_array=st.booleans(), pol=st.sampled_from(list(Polarization)),
           phase=st.booleans(), two_level=st.booleans(),
           full_model=st.booleans(), closed_seed=st.booleans(),
           thickness=st.floats(20e-6, 1000e-6))
    def test_equals_reference(self, data, shape, theta_array, pol, phase,
                              two_level, full_model, closed_seed, thickness):
        # 0-d or array theta; a fixed index or the two-level map of a locus
        # at per-element wavelengths; the threshold K or the phase K of m
        theta = (draw_array(data, st.floats(0.0, 89.0), shape) if theta_array
                 else data.draw(st.floats(0.0, 89.0)))
        lam = draw_array(data, st.floats(1.2e-6, 1.8e-6), shape)
        if two_level:
            medium = TwoLevelMedium(data.draw(st.floats(2.0, 4.0)), 1.5e-6,
                                    data.draw(st.floats(0.01, 0.1)))
            index = dispersion._index_map(medium, lam, full_model)
            eta = medium.n0
        else:
            eta = data.draw(st.floats(1.2, 5.0))
            index = lambda q: (eta, q)
        sin2 = np.sin(np.radians(theta)) ** 2
        m = np.maximum(1, np.round(2 * thickness * np.sqrt(eta ** 2 - sin2)
                                   / lam) + data.draw(st.integers(-3, 3)))
        k = 2 * np.pi / lam
        if phase:
            k_new = solver._phase_k(m, thickness)
            k_ref = lambda npr, r: ((np.pi * m - np.angle(r))
                                    / (thickness * npr.real))
        else:
            k_new = k_ref = lambda npr, r: k
        angle = solver._angle_terms(theta)
        if closed_seed:
            seed = -solver._closed_form_gain(eta, angle, thickness, pol) / (
                2 * k)
        else:
            seed = draw_array(data, odd_seeds, shape)
        new = solver._solve_kappa(index, k_new, angle, thickness, pol, seed)
        ref = reference_solve_kappa(index, k_ref, theta, thickness, pol, seed)
        assert np.shape(new) == np.shape(ref)
        assert np.array_equal(new, ref, equal_nan=True)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Modulus-kernel calls, counted wherever solver or dispersion make them."""
    kernel, count = solver._modulus_kernel, []

    def counting(*args):
        count.append(1)
        return kernel(*args)

    for module in (solver, dispersion):
        monkeypatch.setattr(module, "_modulus_kernel", counting)
    return count


class TestKernelBudget:
    @pytest.mark.parametrize("theta,pol,calls", [
        (20.0, Polarization.TE, 10), (20.0, Polarization.TM, 11),
        (80.0, Polarization.TE, 9), (80.0, Polarization.TM, 11)])
    def test_kernel_calls_per_paper_point(self, kernel_calls, theta, pol,
                                          calls):
        # exact counts: the two range ends share one call, and n' and r at
        # the solved kappa serve the wavelength, slope and Newton residuals
        solve_singularity(ETA, theta, L, pol, target_wavelength=LAM)
        assert len(kernel_calls) == calls

    @pytest.mark.parametrize("theta,pol,modes,full_model,calls", [
        (30.0, Polarization.TE, (-50, 50), False, 53),
        (30.0, Polarization.TE, (-50, 50), True, 54),
        (73.0, Polarization.TM, (-5, 6), False, 91),
        (73.0, Polarization.TM, (-5, 6), True, 96)])
    def test_kernel_calls_per_locus(self, kernel_calls, theta, pol, modes,
                                    full_model, calls):
        # exact counts for the criterion-12 loci: one more wavelength round
        # would add several
        medium = TwoLevelMedium(ETA, LAM, 0.02)
        m0 = dispersion.central_mode_number(medium, 300e-6, theta)
        dispersion.trace_locus(medium, 300e-6, theta, pol,
                               range(m0 + modes[0], m0 + modes[1]),
                               full_model=full_model)
        assert len(kernel_calls) == calls


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


def mp_critical_angle(eta, thickness, wavelength, theta0, kappa0):
    """(theta_c, g_max) solving h = 0 and dh/dtheta = 0 in (kappa, theta) for
    the TM modulus condition h = k L Im n' - ln|r|, in 40-digit arithmetic
    written from the equations (dh/dtheta by mpmath.diff); Newton from
    (theta0, kappa0) in variables scaled by them."""
    with mpmath.workdps(40):
        k = 2 * mpmath.pi / mpmath.mpf(wavelength)

        def h(y, x):
            n = mpmath.mpc(eta, y * kappa0)
            th = mpmath.radians(x * theta0)
            npr = mpmath.sqrt(n * n - mpmath.sin(th) ** 2)
            term = n * n * mpmath.cos(th)
            r = (npr - term) / (npr + term)
            return k * mpmath.mpf(thickness) * npr.imag - mpmath.log(abs(r))

        y, x = mpmath.findroot(
            [h, lambda y, x: mpmath.diff(lambda s: h(y, s), x)],
            (mpmath.mpf(1), mpmath.mpf(1)))
        return float(x * theta0), float(-2 * k * y * kappa0)


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

    def test_critical_angle_raises_without_interior_maximum(self,
                                                             monkeypatch):
        # a window 2-4 deg above arctan(eta) holds no root of dh/dtheta
        brewster = solver.brewster_angle
        monkeypatch.setattr(solver, "brewster_angle",
                            lambda eta: brewster(eta) + 3.0)
        with pytest.raises(ConvergenceError, match="no interior TM gain"):
            critical_angle(ETA, 300e-6, LAM)

    def test_critical_angle_grid_stability(self):
        # the gain at theta_c is above the gains 1e-3 deg to either side
        theta_c, g_max = critical_angle(ETA, L, LAM)
        assert threshold_gain_exact(
            ETA, theta_c + 1e-3, L, LAM, Polarization.TM)[1] < g_max
        assert threshold_gain_exact(
            ETA, theta_c - 1e-3, L, LAM, Polarization.TM)[1] < g_max

    @settings(max_examples=30, deadline=None)
    @given(eta=st.floats(1.2, 5.0),
           log_thickness=st.floats(math.log(30e-6), math.log(3e-3)),
           wavelength=st.floats(0.8e-6, 1.6e-6))
    def test_critical_angle_matches_oracle(self, eta, log_thickness,
                                           wavelength):
        thickness = math.exp(log_thickness)
        try:
            theta_c, g_max = critical_angle(eta, thickness, wavelength)
        except ConvergenceError:
            assume(False)
        theta, g = mp_critical_angle(eta, thickness, wavelength, theta_c,
                                     -g_max * wavelength / (4 * math.pi))
        assert abs(theta_c - theta) <= 1e-13
        assert abs(g_max / g - 1) <= 1e-14


def mode_wavelength(eta, kappa, theta, thickness, m, pol):
    """The solver's phase-condition wavelength of mode m at a given kappa."""
    return float(solver._phase_wavelength(*solver._modulus_kernel(
        eta, kappa, solver._angle_terms(theta), pol), m, thickness))


def first_order_wavelength(eta, kappa, theta_deg, thickness, m, pol):
    """Singular wavelength of mode m to first order in kappa (the paper's
    expansion of the phase condition)."""
    th = math.radians(theta_deg)
    cos_t = math.cos(th)
    lead = math.sqrt(1.0 - math.sin(th) ** 2 / eta ** 2)
    if pol is Polarization.TE:
        corr = 2.0 * kappa * cos_t / (math.pi * m * (eta ** 2 - 1.0))
    else:
        c2 = math.cos(2.0 * th)
        corr = (4.0 * kappa * cos_t * (eta ** 2 - 1.0 + c2)
                / (math.pi * m * (eta ** 2 - 1.0)
                   * (eta ** 2 - 1.0 + (eta ** 2 + 1.0) * c2)))
    return (2.0 * thickness * eta / m) * (lead + corr)


class TestSSWavelength:
    def test_rejects_bad_mode(self):
        # at normal incidence the TM ratio r is nearly real negative (phi
        # near pi), so mode 0 has pi m - phi < 0: no positive wavelength
        assert mode_wavelength(ETA, -1e-4, 0.0, L, 0, Polarization.TM) < 0

    def test_lossless_normal_incidence(self):
        # with kappa = 0 and theta = 0 the TE ratio r is real positive, so
        # phi = 0 and lambda = 2 L eta / m
        lam = mode_wavelength(ETA, 0.0, 0.0, L, 100, Polarization.TE)
        assert lam == pytest.approx(2 * L * ETA / 100, rel=1e-12)

    def test_decreasing_in_m(self):
        lams = [mode_wavelength(ETA, -1e-4, 40.0, L, m, Polarization.TM)
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
            exact = mode_wavelength(ETA, kappa, 30.0, L, m + shift, pol)
            approx = first_order_wavelength(ETA, kappa, 30.0, L, m, pol)
            errs.append(abs(exact - approx))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_te_tm_near_degenerate(self):
        # interlaced TE/TM singular wavelengths nearly coincide (the TM
        # phase offset of pi pairs TE mode m with TM mode m + 1)
        for m in (650, 665, 680):
            lam_e = mode_wavelength(ETA, -1e-4, 30.0, 300e-6, m,
                                    Polarization.TE)
            lam_m = mode_wavelength(ETA, -1e-4, 30.0, 300e-6, m + 1,
                                    Polarization.TM)
            assert abs(lam_e - lam_m) / lam_e < 1e-6


class TestModeSelection:
    @pytest.mark.parametrize("pol", list(Polarization))
    @pytest.mark.parametrize("theta", [0.0, 20.0, 80.0])
    def test_first_at_or_above_target(self, pol, theta):
        # the selected mode reaches the target; the next one falls short
        p = solve_singularity(ETA, theta, L, pol, target_wavelength=LAM)
        after = solve_singularity(ETA, theta, L, pol, m=p.m + 1)
        assert p.wavelength >= LAM > after.wavelength


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
        res = solver._residual(*solver._modulus_kernel(
            medium.eta, medium.kappa, solver._angle_terms(20.0),
            Polarization.TE), ss20_te.k, L)
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
            assert (s.kappa, s.g) == (kappa, g)

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
