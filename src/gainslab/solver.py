"""Spectral-singularity location and lasing-threshold computations.

A spectral singularity is a real wavenumber at which M22 of the transfer
matrix vanishes, equivalently

    exp(-2i k~ L) = ((u - 1)/(u + 1))^2 .

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


def _angle_terms(theta_deg):
    """sin^2(theta) and cos(theta), the kernel's terms of theta, elementwise."""
    th = np.radians(theta_deg)
    return np.sin(th) ** 2, np.cos(th)


def _modulus_kernel(eta, kappa, angle, polarization: Polarization):
    """n' and r = (n' - n^l cos)/(n' + n^l cos), elementwise over arguments
    that broadcast, from angle = _angle_terms(theta) computed once by the
    caller; no np.errstate here, and k is left to _modulus_k."""
    sin2, cos_t = angle
    n = eta + 1j * np.asarray(kappa, dtype=float)
    npr = np.sqrt(n * n - sin2)
    term = n ** polarization.ell * cos_t
    return npr, (npr - term) / (npr + term)


def _modulus_k(npr, r, thickness):
    """k = ln|r| / (L Im n'); the caller holds np.errstate for Im n' = 0."""
    return np.log(np.abs(r)) / (thickness * npr.imag)


def threshold_gain_at_kappa(eta: float, kappa: float, theta_deg: float,
                            thickness: float,
                            polarization: Polarization) -> float:
    """Exact threshold gain of the singular mode carried by a given kappa < 0."""
    if kappa >= 0:
        raise ValueError("gain requires kappa < 0")
    npr, r = _modulus_kernel(eta, kappa, _angle_terms(theta_deg), polarization)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -2.0 * float(_modulus_k(npr, r, thickness)) * kappa


def _bracketed_root(h, interval, seed) -> np.ndarray:
    """x in interval = (a, b) with h(x) = 0, elementwise over seed (the
    solve's full shape), NaN unless h(a) < 0 < h(b): secant steps in a bracket
    (ends included) that each evaluation narrows; a step that is not finite,
    leaves it or follows one that did not lower |h| bisects geometrically."""
    with np.errstate(all="ignore"):
        a, b = interval
        ha, hb = h(np.reshape(interval, (2,) + (1,) * np.ndim(seed)))
        x = np.minimum(np.fmax(seed, a), b)  # NaN, -inf -> a; inf -> b
        x = np.where((ha < 0) & (hb > 0), x, np.nan)
        hx = h(x)
        xp, hp = np.where(hx > 0, a, b), np.where(hx > 0, ha, hb)
        a, b = np.full(x.shape, a), np.full(x.shape, b)   # narrowed in place
        done = stalled = np.isnan(hx) | (hx == 0)
        for _ in range(100):
            if not np.count_nonzero(~done):
                break
            s = x - hx * (x - xp) / (hx - hp)
            new = np.where(stalled | ~((a <= s) & (s <= b)),
                           np.copysign(np.sqrt(a * b), a), s)
            np.copyto(new, x, where=done)    # a finished entry stays put
            hn = h(new)
            np.copyto(a, new, where=hn < 0)
            np.copyto(b, new, where=hn > 0)
            stalled = np.abs(hn) >= np.abs(hx)
            done = done | np.isnan(hn) | (hn == 0) | (
                np.abs(new - x) <= 1e-15 * np.abs(new))
            xp, hp, x, hx = x, hx, new, hn
    return np.where(done & ~np.isnan(hx), x, np.nan)


def _solve_kappa(index, k, angle, thickness: float,
                 polarization: Polarization, seed) -> np.ndarray:
    """Root q in KAPPA_RANGE of L Im n' (k(n', r) - k_mod), nearly linear."""

    def h(q):
        npr, r = _modulus_kernel(*index(q), angle, polarization)
        return thickness * npr.imag * (k(npr, r)
                                       - _modulus_k(npr, r, thickness))

    return _bracketed_root(h, KAPPA_RANGE, seed)


def _threshold_kappa(eta: float, angle, thickness: float, k: float,
                     polarization: Polarization, gain=None) -> np.ndarray:
    """Threshold kappa at a fixed k per angle, seeded by -gain/(2k) from the
    closed-form gain (computed here unless given)."""
    if gain is None:
        gain = _closed_form_gain(eta, angle, thickness, polarization)
    return _solve_kappa(lambda q: (eta, q), lambda npr, r: k, angle,
                        thickness, polarization, -gain / (2 * k))


def _phase_k(m, thickness: float):
    """K(n', r) = (pi m - phi) / (L Re n') of mode m's phase condition."""
    return lambda npr, r: ((np.pi * m - np.arctan2(r.imag, r.real))
                           / (thickness * npr.real))


def _phase_wavelength(npr, r, m, thickness):
    """lambda = 2 pi L Re(n') / (pi m - phi) of the phase condition."""
    return 2.0 * np.pi * thickness * npr.real / (np.pi * m - np.angle(r))


def _residual(npr, r, k, thickness):
    """exp(-2i k n' L) - r^2, elementwise."""
    return np.exp(-2j * (k * npr) * thickness) - r ** 2


def _solve_modes(index_at, eta, m, angle, thickness: float,
                 polarization: Polarization, gain, rounds: int = 1):
    """kappa, wavelength, n' and r of modes m, elementwise: from lambda =
    2 L eta'/m and the closed-form gain, each round solves mode m's modulus
    condition for kappa at index map index_at(lambda) and moves lambda by the
    phase condition, for `rounds` rounds or until no lambda moves."""
    # the seed is NaN where sin(theta) > eta (the kappa solve then starts from
    # its range end); a failed mode carries NaN, which never counts as moving;
    # pi m - phi = 0 gives an infinite lambda
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (2.0 * thickness * eta / m) * np.sqrt(1.0 - angle[0] / eta ** 2)
        kappa = -gain * lam / (4.0 * np.pi)
        for done in range(1, rounds + 1):
            index = index_at(lam)
            kappa = _solve_kappa(index, _phase_k(m, thickness), angle,
                                 thickness, polarization, kappa)
            npr, r = _modulus_kernel(*index(kappa), angle, polarization)
            lam, last = _phase_wavelength(npr, r, m, thickness), lam
            if done == rounds or not np.any(np.abs(lam - last) > 1e-15 * lam):
                break
    return kappa, lam, npr, r


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
    # a (1,) solve is bitwise threshold_curve's; a 0-d one rounds differently
    kappa = float(_threshold_kappa(eta, _angle_terms([theta_deg]), thickness,
                                   k, polarization)[0])
    if math.isnan(kappa):
        raise ConvergenceError(_NO_SOLUTION.format(theta_deg))
    return kappa, -2.0 * k * kappa


def _closed_form_gain(eta, angle, thickness, polarization: Polarization):
    """threshold_gain_approx elementwise, unchecked: inf at TM Brewster."""
    sin2, cos_t = angle
    # not finite for TE at eta <= 1 or where sin(theta) > eta: the kappa
    # solve then starts from its range end
    with np.errstate(divide="ignore", invalid="ignore"):
        etap = np.sqrt(eta * eta - sin2)
        if polarization is Polarization.TE:
            return (4.0 * etap / (thickness * eta)) * np.log(
                np.abs(etap + cos_t) / np.sqrt(eta * eta - 1.0))
        e2c = eta * eta * cos_t
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
    return float(_closed_form_gain(eta, _angle_terms(theta_deg), thickness,
                                   polarization))


def brewster_angle(eta: float) -> float:
    """arctan(eta), in degrees."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return math.degrees(math.atan(eta))


def critical_angle(eta: float, thickness: float,
                   target_wavelength: float) -> tuple[float, float]:
    """Angle maximizing the TM threshold gain, and the maximum gain (1/m).

    dkappa/dtheta = -h_t/h_kappa for the modulus condition h = k L Im n'
    - ln|r| (_t: d/dtheta), so g = -2 k kappa peaks at the threshold kappa
    where h_t = k L Im(n'_t) - Re(2 (t n'_t - n' t_t)/(n'^2 - t^2)) = 0, with
    t = n^2 cos, n'_t = -sin cos/n', t n'_t - n' t_t = n^2 (n^2-1) sin/n'.
    -h_t |n'^2 - t^2|^2 / sin (no pole at r = 0) is solved over arctan(eta)
    +- 1 deg.  Raises ConvergenceError if an angle fails or no root exists."""
    k = 2.0 * math.pi / target_wavelength
    kappa = None

    def slope(theta):
        nonlocal kappa
        sin2, cos_t = angle = _angle_terms(theta)
        kappa = _threshold_kappa(eta, angle, thickness, k, Polarization.TM)
        for failed in theta[np.isnan(kappa) & ~np.isnan(theta)]:  # NaN: no bracket
            raise ConvergenceError(_NO_SOLUTION.format(failed))
        n2 = (eta + 1j * kappa) ** 2
        inv_npr = 1.0 / np.sqrt(n2 - sin2)
        den = n2 - sin2 - (n2 * cos_t) ** 2
        return (2.0 * (n2 * (n2 - 1.0) * inv_npr * den.conj()).real
                + k * thickness * cos_t * inv_npr.imag * np.abs(den) ** 2)

    seed = np.array([brewster_angle(eta)])    # (1,), as in threshold_curve
    theta = _bracketed_root(slope, (seed[0] - 1.0, seed[0] + 1.0), seed)[0]
    if math.isnan(theta):
        raise ConvergenceError("no interior TM gain maximum found")
    return float(theta), -2.0 * k * float(kappa[0])


def solve_singularity(eta: float, theta_deg: float, thickness: float,
                      polarization: Polarization,
                      m: int | None = None,
                      target_wavelength: float | None = None
                      ) -> SingularityPoint:
    """Solve the full complex singularity condition for (wavelength, kappa).

    Either a mode number m or a target wavelength must be given; with a
    target, the first singular wavelength at or above it is selected.  One
    round of _solve_modes, the mode solver trace_locus shares, gives kappa
    of the modulus condition at the closed-form k of the phase condition and
    the wavelength that condition then fixes; up to three Newton steps in it
    absorb the rounding of k = 2 pi / wavelength in the complex residual.
    """
    GainMedium(eta)                          # eta > 0, before any solve
    angle = _angle_terms(theta_deg)
    gain = _closed_form_gain(eta, angle, thickness, polarization)
    if m is None:
        if target_wavelength is None:
            raise ValueError("give either a mode number or a target wavelength")
        # largest m with lambda(m) >= target (lambda decreases with m): the
        # phase angle is taken at the threshold kappa of the target wavelength
        k = 2.0 * math.pi / target_wavelength
        kappa = float(_threshold_kappa(eta, angle, thickness, k, polarization,
                                       gain))
        if math.isnan(kappa):
            raise ConvergenceError(_NO_SOLUTION.format(theta_deg))
        npr, r = _modulus_kernel(eta, kappa, angle, polarization)
        m = max(1, math.floor((2.0 * math.pi * thickness * float(npr.real)
                               / target_wavelength
                               + cmath.phase(complex(r))) / math.pi))
    elif m < 1:
        raise ValueError("mode number must be >= 1")
    # n' and r at the solved kappa serve the wavelength, slope and residuals
    kappa, lam, npr, r = _solve_modes(lambda lam: lambda q: (eta, q), eta, m,
                                      angle, thickness, polarization, gain)
    kappa, lam = float(kappa), float(lam)
    if math.isnan(kappa):
        raise ConvergenceError(f"no gain solution for m = {m}")
    if not 0 < lam < math.inf:
        raise ValueError("invalid mode: pi*m - phi <= 0")
    slope = complex(4j * math.pi * thickness * npr * r * r) / lam ** 2  # dF/dlam
    res = complex(_residual(npr, r, 2.0 * math.pi / lam, thickness))
    for _ in range(3):          # Newton steps in real lam, kept while |F| falls
        new = lam - (res / slope).real
        res_new = complex(_residual(npr, r, 2.0 * math.pi / new, thickness))
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
        SlabScenario(thickness, GainMedium(eta, kappa)),
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
    kappas = _threshold_kappa(eta, _angle_terms(theta), thickness, k,
                              polarization)
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
