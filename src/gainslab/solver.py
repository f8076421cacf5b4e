"""Spectral-singularity location and lasing-threshold computations.

A spectral singularity is a real wavenumber at which M22 of the transfer
matrix vanishes, equivalently

    exp(-2i k_tilde L) = ((u - 1)/(u + 1))^2 .

Taking logarithms splits this into a pair of real conditions for a gain
medium n = eta + i*kappa (kappa < 0):

    phase:    k L Re(n') = pi m - phi        (m = 1, 2, ...)
    modulus:  k L Im(n') = ln|r|

with n' = sqrt(n^2 - sin^2 theta), r = (n' - n^l cos theta)/(n' + n^l cos theta)
(l = 0 for TE, 2 for TM) and phi the principal argument of r.  Both sides of
the modulus condition are negative for gain, so k > 0; the threshold gain is
g = -2 k kappa.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GainMedium, Polarization, SlabScenario, WaveSpec
from .transfer import build_transfer_matrix

KAPPA_RANGE = (-0.1, -1e-12)   # covers physical gain media (|kappa| <~ 1e-2)
RESIDUAL_TOL = 1e-10
# the TM leading-order gain formula is singular at Brewster's angle
BREWSTER_GUARD_DEG = 0.1
_NO_SOLUTION = "no gain solution for kappa in [%g, %g] at theta = {} deg" % KAPPA_RANGE


class ConvergenceError(RuntimeError):
    """A root solve failed to reach the requested residual."""


@dataclass(frozen=True)
class SingularityPoint:
    """A solved spectral singularity with residual diagnostics."""

    wavelength: float        # m
    kappa: float             # Im(n), negative (gain)
    g: float                 # threshold gain, 1/m
    m: int                   # longitudinal mode number
    theta_deg: float
    polarization: Polarization
    eta: float
    thickness: float         # m
    residual: float          # |exp(-2i k~ L) - r^2|
    m22_abs: float           # |M22| recomputed through the transfer matrix

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def medium(self) -> GainMedium:
        return GainMedium(self.eta, self.kappa)

    @property
    def scenario(self) -> SlabScenario:
        return SlabScenario(self.thickness, self.medium)

    @property
    def wave(self) -> WaveSpec:
        return WaveSpec.from_wavelength(self.wavelength, self.theta_deg,
                                        self.polarization)


@dataclass(frozen=True)
class ThresholdSample:
    theta_deg: float
    g: float | None          # 1/m; None marks a failed grid point
    wavelength: float
    kappa: float | None


@dataclass(frozen=True)
class ThresholdCurve:
    """Fixed-wavelength threshold gain versus incidence angle."""

    samples: list[ThresholdSample]
    polarization: Polarization
    eta: float
    thickness: float
    wavelength: float
    theta_b_deg: float
    theta_c_deg: float | None = None   # TM only
    g_max: float | None = None         # TM only, 1/m


def _modulus_kernel(eta, kappa, theta_deg, thickness,
                    polarization: Polarization):
    """n', r = (n' - n^l cos)/(n' + n^l cos) and the modulus wavenumber
    k = ln|r| / (L Im n'), elementwise over arguments that broadcast."""
    th = np.radians(theta_deg)
    n = eta + 1j * np.asarray(kappa, dtype=float)
    npr = np.sqrt(n * n - np.sin(th) ** 2)
    term = n ** polarization.ell * np.cos(th)
    r = (npr - term) / (npr + term)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.log(np.abs(r)) / (thickness * npr.imag)
    return npr, r, k


def reflection_ratio(medium: GainMedium, theta_deg: float,
                     polarization: Polarization) -> complex:
    """Interface ratio r = (n' - n^l cos)/(n' + n^l cos); equals (u-1)/(u+1)."""
    return complex(_modulus_kernel(medium.eta, medium.kappa, theta_deg, 1.0,
                                   polarization)[1])


def singularity_residual(medium: GainMedium, theta_deg: float, thickness: float,
                         k: float, polarization: Polarization) -> complex:
    """exp(-2i k_tilde L) - r^2; zero exactly at a spectral singularity."""
    npr, r, _ = _modulus_kernel(medium.eta, medium.kappa, theta_deg,
                                thickness, polarization)
    return complex(_residual(npr, r, k, thickness))


def threshold_gain_at_kappa(eta: float, kappa: float, theta_deg: float,
                            thickness: float,
                            polarization: Polarization) -> float:
    """Exact threshold gain of the singular mode carried by a given kappa < 0."""
    if kappa >= 0:
        raise ValueError("gain requires kappa < 0")
    k = float(_modulus_kernel(eta, kappa, theta_deg, thickness,
                              polarization)[2])
    return -2.0 * k * kappa


def _solve_kappa(index, k, theta_deg, thickness: float,
                 polarization: Polarization, seed) -> np.ndarray:
    """q with h = L Im n' (K - k_mod) = 0 for the slab index index(q) and
    K = k(n', r), elementwise, NaN where h has no sign change over
    KAPPA_RANGE.  h is nearly linear in q.  Secant steps, from the seed and
    the range end across the root, stay in a bracket (at first the range)
    that each evaluation narrows; a step that is not finite, leaves it or
    follows one that did not lower |h| becomes a geometric bisection."""

    def h(q):
        npr, r, k_mod = _modulus_kernel(*index(q), theta_deg, thickness,
                                        polarization)
        return thickness * npr.imag * (k(npr, r) - k_mod)

    with np.errstate(all="ignore"):
        a, b = KAPPA_RANGE                   # h(a) < 0 < h(b) where a root is
        ha, hb = h(a), h(b)
        x = np.clip(np.nan_to_num(seed, nan=a), a, b)  # -inf, NaN -> a
        x = np.where((ha < 0) & (hb > 0), x, np.nan)
        hx = h(x)
        xp, hp = np.where(hx > 0, a, b), np.where(hx > 0, ha, hb)
        done = stalled = np.isnan(hx) | (hx == 0)
        for _ in range(100):
            if done.all():
                break
            s = x - hx * (x - xp) / (hx - hp)
            new = np.where(stalled | ~((a < s) & (s < b)), -np.sqrt(a * b), s)
            new = np.where(done, x, new)     # a finished entry stays put
            hn = h(new)
            a, b = np.where(hn < 0, new, a), np.where(hn > 0, new, b)
            stalled = np.abs(hn) >= np.abs(hx)
            done = done | np.isnan(hn) | (hn == 0) | (
                np.abs(new - x) <= 1e-15 * np.abs(new))
            xp, hp, x, hx = x, hx, new, hn
    return np.where(done & ~np.isnan(hx), x, np.nan)


def _threshold_kappa(eta: float, theta_deg, thickness: float, k: float,
                     polarization: Polarization) -> np.ndarray:
    """Threshold kappa at a fixed k per angle, from the seed -g_approx/(2k)."""
    seed = -_closed_form_gain(eta, theta_deg, thickness, polarization) / (2 * k)
    return _solve_kappa(lambda q: (eta, q), lambda npr, r: k, theta_deg,
                        thickness, polarization, seed)


def _phase_k(m, thickness: float):
    """K(n', r) = (pi m - phi) / (L Re n') of mode m's phase condition."""
    return lambda npr, r: (np.pi * m - np.angle(r)) / (thickness * npr.real)


def _phase_wavelength(npr, r, m, thickness):
    """lambda = 2 pi L Re(n') / (pi m - phi) of the phase condition."""
    return 2.0 * np.pi * thickness * npr.real / (np.pi * m - np.angle(r))


def _residual(npr, r, k, thickness):
    """exp(-2i k n' L) - r^2, elementwise."""
    return np.exp(-2j * (k * npr) * thickness) - r ** 2


def threshold_gain_exact(eta: float, theta_deg: float, thickness: float,
                         target_wavelength: float,
                         polarization: Polarization) -> tuple[float, float]:
    """Solve the modulus condition at k = 2 pi / target_wavelength for kappa.

    Returns (kappa, g).  This is the fixed-wavelength curve generator: only
    the modulus half of the singularity condition is enforced; the discrete
    phase condition would shift the wavelength by O(1/m) with negligible
    effect on g.
    """
    k = 2.0 * math.pi / target_wavelength
    kappa = float(_threshold_kappa(eta, theta_deg, thickness, k, polarization))
    if math.isnan(kappa):
        raise ConvergenceError(_NO_SOLUTION.format(theta_deg))
    return kappa, -2.0 * k * kappa


def _closed_form_gain(eta, theta_deg, thickness, polarization: Polarization):
    """threshold_gain_approx elementwise, unchecked: inf at TM Brewster."""
    th = np.radians(theta_deg)
    # not finite for TE at eta <= 1 or where sin(theta) > eta: the kappa
    # solve then starts from its range end
    with np.errstate(divide="ignore", invalid="ignore"):
        etap = np.sqrt(eta * eta - np.sin(th) ** 2)
        if polarization is Polarization.TE:
            return (4.0 * etap / (thickness * eta)) * np.log(
                np.abs(etap + np.cos(th)) / np.sqrt(eta * eta - 1.0))
        e2c = eta * eta * np.cos(th)
        return (2.0 * etap / (thickness * eta)) * np.log(
            np.abs((etap + e2c) / (etap - e2c)))


def threshold_gain_approx(eta: float, theta_deg: float, thickness: float,
                          polarization: Polarization) -> float:
    """Leading-order (kappa-independent) threshold gain formulas.

    For real eta and theta, conjugating n conjugates n' and r, so the exact
    gain g = -2 k kappa is even in kappa: there is no O(kappa) correction,
    and these closed forms differ from the exact gain by O(kappa^2).
    """
    if eta <= 1:
        raise ValueError("approximation assumes eta > 1")
    if (polarization is Polarization.TM
            and abs(theta_deg - brewster_angle(eta)) < BREWSTER_GUARD_DEG):
        raise ValueError("TM leading-order formula is singular within "
                         f"{BREWSTER_GUARD_DEG} deg of Brewster's angle")
    return float(_closed_form_gain(eta, theta_deg, thickness, polarization))


def ss_wavelength(eta: float, kappa: float, theta_deg: float, thickness: float,
                  m: int, polarization: Polarization,
                  approx: bool = False) -> float:
    """Wavelength of the m-th singular mode.

    Exact form: lambda = 2 pi L Re(n') / (pi m - phi) with phi the principal
    argument of r.  With approx=True the first-order-in-kappa expansions are
    used instead.
    """
    if m < 1:
        raise ValueError("mode number must be >= 1")
    if approx:
        return _ss_wavelength_approx(eta, kappa, theta_deg, thickness, m,
                                     polarization)
    npr, r, _ = _modulus_kernel(eta, kappa, theta_deg, thickness,
                                polarization)
    with np.errstate(divide="ignore"):
        lam = float(_phase_wavelength(npr, r, m, thickness))
    if not 0 < lam < math.inf:
        raise ValueError("invalid mode: pi*m - phi <= 0")
    return lam


def _ss_wavelength_approx(eta, kappa, theta_deg, thickness, m, polarization):
    th = math.radians(theta_deg)
    s2 = math.sin(th) ** 2
    cos_t = math.cos(th)
    lead = math.sqrt(1.0 - s2 / eta ** 2)
    if polarization is Polarization.TE:
        corr = 2.0 * kappa * cos_t / (math.pi * m * (eta ** 2 - 1.0))
    else:
        c2 = math.cos(2.0 * th)
        corr = (4.0 * kappa * cos_t * (eta ** 2 - 1.0 + c2)
                / (math.pi * m * (eta ** 2 - 1.0)
                   * (eta ** 2 - 1.0 + (eta ** 2 + 1.0) * c2)))
    return (2.0 * thickness * eta / m) * (lead + corr)


def brewster_angle(eta: float) -> float:
    """arctan(eta), in degrees."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return math.degrees(math.atan(eta))


def critical_angle(eta: float, thickness: float,
                   target_wavelength: float) -> tuple[float, float]:
    """Angle maximizing the TM threshold gain, and the maximum gain (1/m).

    The peak lies near arctan(eta), where the lossless TM ratio r vanishes;
    41 angles span arctan(eta) +- 1 deg, then six narrower windows of 41
    span +- 2 steps around the best (5e-8 deg steps at the end).  Raises
    ConvergenceError if an angle fails or the first best is on the edge."""
    k = 2.0 * math.pi / target_wavelength
    center, half = brewster_angle(eta), 1.0
    for level in range(7):
        grid = np.linspace(center - half, center + half, 41)
        g = -2.0 * k * _threshold_kappa(eta, grid, thickness, k,
                                        Polarization.TM)
        if np.isnan(g).any():     # the peak may be among the failed angles
            raise ConvergenceError(_NO_SOLUTION.format(grid[np.isnan(g)][0]))
        i = int(np.argmax(g))
        if level == 0 and i in (0, grid.size - 1):
            raise ConvergenceError("no interior TM gain maximum found")
        center, half = grid[i], half / 10.0
    return float(center), float(g[i])


def select_mode_number(eta: float, theta_deg: float, thickness: float,
                       target_wavelength: float,
                       polarization: Polarization) -> int:
    """Mode number of the first singular wavelength at or above the target.

    The singular wavelengths decrease with m, so this is the largest m with
    lambda(m) >= target.  A threshold solve at the target wavelength supplies
    the kappa used to evaluate the phase angle.
    """
    kappa, _ = threshold_gain_exact(eta, theta_deg, thickness,
                                    target_wavelength, polarization)
    npr, r, _ = _modulus_kernel(eta, kappa, theta_deg, thickness,
                                polarization)
    x = (2.0 * math.pi * thickness * float(npr.real) / target_wavelength
         + cmath.phase(complex(r))) / math.pi
    return max(1, math.floor(x))


def solve_singularity(eta: float, theta_deg: float, thickness: float,
                      polarization: Polarization,
                      m: int | None = None,
                      target_wavelength: float | None = None
                      ) -> SingularityPoint:
    """Solve the full complex singularity condition for (wavelength, kappa).

    Either a mode number m or a target wavelength must be given; with a
    target, the first singular wavelength at or above it is selected.  The
    phase condition gives k in closed form, so kappa solves the modulus
    condition alone, seeded by the closed-form gain; the wavelength follows
    from the phase condition, and up to three Newton steps in it absorb the
    rounding of k = 2 pi / wavelength in the complex residual.
    """
    GainMedium(eta)                          # eta > 0, before any solve
    if m is None:
        if target_wavelength is None:
            raise ValueError("give either a mode number or a target wavelength")
        m = select_mode_number(eta, theta_deg, thickness, target_wavelength,
                               polarization)
    elif m < 1:
        raise ValueError("mode number must be >= 1")
    lam = (2.0 * thickness * eta / m) * math.sqrt(     # 2 L eta' / m
        1.0 - math.sin(math.radians(theta_deg)) ** 2 / eta ** 2)
    seed = -_closed_form_gain(eta, theta_deg, thickness,
                              polarization) * lam / (4.0 * math.pi)
    kappa = float(_solve_kappa(lambda q: (eta, q), _phase_k(m, thickness),
                               theta_deg, thickness, polarization, seed))
    if math.isnan(kappa):
        raise ConvergenceError(f"no gain solution for m = {m}")
    lam = ss_wavelength(eta, kappa, theta_deg, thickness, m, polarization)

    medium = GainMedium(eta, kappa)
    npr, r, _ = _modulus_kernel(eta, kappa, theta_deg, thickness,
                                polarization)
    slope = complex(4j * math.pi * thickness * npr * r * r) / lam ** 2  # dF/dlam
    res = singularity_residual(medium, theta_deg, thickness,
                               2.0 * math.pi / lam, polarization)
    for _ in range(3):          # Newton steps in real lam, kept while |F| falls
        new = lam - (res / slope).real
        res_new = singularity_residual(medium, theta_deg, thickness,
                                       2.0 * math.pi / new, polarization)
        if not abs(res_new) < abs(res):
            break
        lam, res = new, res_new

    k = 2.0 * math.pi / lam
    residual = abs(res)
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"no convergence: |residual| = {residual:.3g} for m = {m}")
    if kappa > 0:
        raise ConvergenceError("unphysical branch: solved kappa > 0")
    matrix = build_transfer_matrix(
        SlabScenario(thickness, medium),
        WaveSpec(k, theta_deg, polarization))
    return SingularityPoint(
        wavelength=lam, kappa=kappa, g=-2.0 * k * kappa, m=m,
        theta_deg=theta_deg, polarization=polarization, eta=eta,
        thickness=thickness, residual=residual,
        m22_abs=abs(matrix.m22))


def threshold_curve(eta: float, thickness: float, target_wavelength: float,
                    polarization: Polarization,
                    theta_grid_deg) -> ThresholdCurve:
    """Per-angle threshold gain samples; failed points become gap markers."""
    theta = np.asarray(theta_grid_deg, dtype=float)
    if not np.all((theta >= 0.0) & (theta < 90.0)):
        raise ValueError("grid angles must lie in [0, 90) degrees")
    k = 2.0 * math.pi / target_wavelength
    kappas = _threshold_kappa(eta, theta, thickness, k, polarization)
    for theta_deg in theta[np.isnan(kappas)].tolist():
        warnings.warn(f"threshold solve failed at {theta_deg} deg: "
                      + _NO_SOLUTION.format(theta_deg))
    samples = [ThresholdSample(t, None if math.isnan(q) else -2.0 * k * q,
                               target_wavelength, None if math.isnan(q) else q)
               for t, q in zip(theta.tolist(), kappas.tolist())]
    theta_c = g_max = None
    if polarization is Polarization.TM:
        theta_c, g_max = critical_angle(eta, thickness, target_wavelength)
    return ThresholdCurve(samples=samples, polarization=polarization, eta=eta,
                          thickness=thickness, wavelength=target_wavelength,
                          theta_b_deg=brewster_angle(eta),
                          theta_c_deg=theta_c, g_max=g_max)
